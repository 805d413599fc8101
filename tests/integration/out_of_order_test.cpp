// Integration: out-of-timestamp-order streams. Watermarks are the paper's
// mechanism (§ 2.3) for reordering: any arrival order is legal as long as
// no tuple is older than a preceding watermark. Every stateful operator —
// and the full AggBased compositions — must produce order-independent
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/join.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

/// Builds a script whose tuples are locally shuffled (disorder window of
/// `k` positions) with watermarks that stay correct: each watermark is the
/// minimum timestamp of everything still to come. Returns the script and
/// the largest event-time distance between consecutive watermarks (the
/// effective C1 "D" of the stream).
struct DisorderedStream {
  std::vector<Element<int>> script;
  Timestamp max_wm_gap{0};
};

DisorderedStream disordered(std::vector<Tuple<int>> tuples, int k,
                            int wm_every, Timestamp flush_to, unsigned seed) {
  std::mt19937 rng(seed);
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  // Local shuffle: swap each element with one up to k positions ahead.
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + static_cast<std::size_t>(k)));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  // Suffix minima -> maximal valid watermark at each position.
  std::vector<Timestamp> suffix_min(tuples.size() + 1, kMaxTimestamp);
  for (std::size_t i = tuples.size(); i-- > 0;) {
    suffix_min[i] = std::min(suffix_min[i + 1], tuples[i].ts);
  }
  DisorderedStream out;
  Timestamp last_wm = kMinTimestamp;
  Timestamp first_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    out.script.push_back(tuples[i]);
    if ((i + 1) % static_cast<std::size_t>(wm_every) == 0) {
      const Timestamp w = suffix_min[i + 1];
      if (w > last_wm && w != kMaxTimestamp) {
        if (last_wm != kMinTimestamp) {
          out.max_wm_gap = std::max(out.max_wm_gap, w - last_wm);
        } else {
          first_wm = w;
        }
        out.script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  if (last_wm == kMinTimestamp) first_wm = flush_to;
  out.max_wm_gap = std::max(
      {out.max_wm_gap, flush_to - (last_wm == kMinTimestamp ? first_wm
                                                            : last_wm),
       first_wm - tuples.front().ts});
  out.script.push_back(Watermark{flush_to});
  out.script.push_back(EndOfStream{});
  return out;
}

std::vector<Tuple<int>> base_tuples(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 20);
  std::vector<Tuple<int>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

TEST(OutOfOrder, AggregateResultsAreOrderIndependent) {
  auto tuples = base_tuples(3, 150);
  const Timestamp flush = tuples.back().ts + 30;
  auto run = [&](std::vector<Element<int>> script) {
    Flow flow;
    auto& src = flow.add<ScriptSource<int>>(std::move(script));
    auto& agg = flow.add<AggregateOp<int, int, int>>(
        WindowSpec{.advance = 10, .size = 20},
        [](const int& v) { return v % 3; },
        [](const WindowView<int, int>& w) -> std::optional<int> {
          int s = 0;
          for (const auto& t : w.items) s += t.value;
          return s;
        });
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src.out(), agg.in());
    flow.connect(agg.out(), sink.in());
    flow.run();
    EXPECT_EQ(agg.machine().dropped_late(), 0u);
    return sink.multiset();
  };
  auto in_order = run(timed_script(tuples, 10, flush));
  for (unsigned seed : {1u, 2u, 3u}) {
    auto dis = disordered(tuples, /*k=*/6, /*wm_every=*/10, flush, seed);
    EXPECT_EQ(run(std::move(dis.script)), in_order) << "seed " << seed;
  }
}

TEST(OutOfOrder, JoinResultsAreOrderIndependent) {
  auto lefts = base_tuples(11, 80);
  auto rights = base_tuples(12, 80);
  const Timestamp flush =
      std::max(lefts.back().ts, rights.back().ts) + 40;
  auto run = [&](std::vector<Element<int>> ls, std::vector<Element<int>> rs) {
    Flow flow;
    auto& s1 = flow.add<ScriptSource<int>>(std::move(ls));
    auto& s2 = flow.add<ScriptSource<int>>(std::move(rs));
    auto& join = flow.add<JoinOp<int, int, int>>(
        WindowSpec{.advance = 10, .size = 20},
        [](const int& v) { return v % 3; }, [](const int& v) { return v % 3; },
        [](const int& a, const int& b) { return a < b; });
    auto& sink = flow.add<CollectorSink<std::pair<int, int>>>();
    flow.connect(s1.out(), join.in_left());
    flow.connect(s2.out(), join.in_right());
    flow.connect(join.out(), sink.in());
    flow.run();
    EXPECT_EQ(join.dropped_late(), 0u);
    std::multiset<std::tuple<Timestamp, int, int>> m;
    for (const auto& t : sink.tuples()) {
      m.emplace(t.ts, t.value.first, t.value.second);
    }
    return m;
  };
  auto reference =
      run(timed_script(lefts, 10, flush), timed_script(rights, 10, flush));
  ASSERT_FALSE(reference.empty());
  for (unsigned seed : {4u, 5u}) {
    auto dl = disordered(lefts, 5, 8, flush, seed);
    auto dr = disordered(rights, 5, 8, flush, seed + 100);
    EXPECT_EQ(run(std::move(dl.script), std::move(dr.script)), reference)
        << "seed " << seed;
  }
}

TEST(OutOfOrder, AggBasedFlatMapHandlesDisorderedInput) {
  // Theorem 1 under disorder: lateness must cover the stream's actual
  // watermark cadence (L >= D); the composition then still matches the
  // dedicated FM.
  auto tuples = base_tuples(21, 120);
  const Timestamp flush = tuples.back().ts + 30;
  FlatMapFn<int, int> fm = [](const int& v) {
    std::vector<int> out;
    for (int i = 0; i < v % 3; ++i) out.push_back(v * 10 + i);
    return out;
  };

  auto dis = disordered(tuples, 4, 12, flush, 9);
  const Timestamp lateness = std::max<Timestamp>(dis.max_wm_gap, 1);

  Flow ded;
  auto& d_src = ded.add<ScriptSource<int>>(dis.script);
  auto& d_fm = ded.add<FlatMapOp<int, int>>(fm);
  auto& d_sink = ded.add<CollectorSink<int>>();
  ded.connect(d_src.out(), d_fm.in());
  ded.connect(d_fm.out(), d_sink.in());
  ded.run();

  Flow agg;
  auto& a_src = agg.add<ScriptSource<int>>(dis.script);
  AggBasedFlatMap<int, int> a_fm(agg, fm, lateness);
  auto& a_sink = agg.add<CollectorSink<int>>();
  agg.connect(a_src.out(), a_fm.in());
  agg.connect(a_fm.out(), a_sink.in());
  agg.run();

  EXPECT_EQ(a_sink.multiset(), d_sink.multiset());
  EXPECT_EQ(a_sink.late_tuples(), 0);
  EXPECT_TRUE(a_sink.ended());
}

}  // namespace
}  // namespace aggspes
