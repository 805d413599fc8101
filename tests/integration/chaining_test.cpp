// Integration: chains of AggBased operators. § 3 (note on C1) argues that
// if an AggBased operator is fed a stream satisfying C1 with distance D,
// its output satisfies C1 too, so AggBased operators compose — a pipeline
// can be *entirely* Aggregate-based. These tests chain AggBased F → M → FM
// and FM → J and compare against the dedicated chain.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

std::vector<Tuple<int>> random_ints(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 30);
  std::vector<Tuple<int>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

TEST(Chaining, FilterMapFlatMapAllAggBased) {
  auto in = random_ints(5, 200);
  const Timestamp flush = in.back().ts + 40;
  const Timestamp d = 6;

  auto f_c = [](const int& v) { return v % 3 != 0; };
  auto f_m = [](const int& v) { return v * 2 + 1; };
  FlatMapFn<int, int> f_fm = [](const int& v) {
    std::vector<int> out;
    for (int i = 0; i < v % 3; ++i) out.push_back(v + i);
    return out;
  };

  // Dedicated chain.
  Flow ded;
  auto& d_src = ded.add<TimedSource<int>>(in, d, flush);
  auto& d_f = ded.add<FilterOp<int>>(f_c);
  auto& d_m = ded.add<MapOp<int, int>>(f_m);
  auto& d_fm = ded.add<FlatMapOp<int, int>>(f_fm);
  auto& d_sink = ded.add<CollectorSink<int>>();
  ded.connect(d_src.out(), d_f.in());
  ded.connect(d_f.out(), d_m.in());
  ded.connect(d_m.out(), d_fm.in());
  ded.connect(d_fm.out(), d_sink.in());
  ded.run();

  // Fully AggBased chain: three Embed/Unfold compositions back to back.
  // § 3's C1 note, made constructive: each stage's C3 guard steps its
  // output watermarks by at most its lateness L, so the output satisfies
  // C1 with D = L and a downstream stage with the same lateness composes.
  Flow agg;
  auto& a_src = agg.add<TimedSource<int>>(in, d, flush);
  auto a_f = make_aggbased_filter<int>(agg, f_c, d);
  auto a_m = make_aggbased_map<int, int>(agg, f_m, d);
  AggBasedFlatMap<int, int> a_fm(agg, f_fm, d);
  auto& a_sink = agg.add<CollectorSink<int>>();
  agg.connect(a_src.out(), a_f.in());
  agg.connect(a_f.out(), a_m.in());
  agg.connect(a_m.out(), a_fm.in());
  agg.connect(a_fm.out(), a_sink.in());
  agg.run();

  EXPECT_EQ(a_sink.multiset(), d_sink.multiset());
  EXPECT_EQ(a_sink.late_tuples(), 0);
  EXPECT_EQ(a_sink.watermark_regressions(), 0);
  EXPECT_TRUE(a_sink.ended());
  ASSERT_FALSE(d_sink.tuples().empty());
}

TEST(Chaining, AggBasedFlatMapFeedsAggBasedJoin) {
  auto lefts = random_ints(7, 120);
  auto rights = random_ints(8, 120);
  const Timestamp flush =
      std::max(lefts.back().ts, rights.back().ts) + 60;
  const Timestamp d = 6;
  const WindowSpec spec{.advance = 10, .size = 20};

  FlatMapFn<int, int> pre = [](const int& v) {
    return v % 2 == 0 ? std::vector<int>{v / 2} : std::vector<int>{};
  };
  auto key = [](const int& v) { return v % 4; };
  auto pred = [](const int& a, const int& b) { return a != b; };

  // Dedicated: FM on each input, then dedicated J.
  Flow ded;
  auto& d_s1 = ded.add<TimedSource<int>>(lefts, d, flush);
  auto& d_s2 = ded.add<TimedSource<int>>(rights, d, flush);
  auto& d_fm1 = ded.add<FlatMapOp<int, int>>(pre);
  auto& d_fm2 = ded.add<FlatMapOp<int, int>>(pre);
  auto& d_join = ded.add<JoinOp<int, int, int>>(spec, key, key, pred);
  auto& d_sink = ded.add<CollectorSink<std::pair<int, int>>>();
  ded.connect(d_s1.out(), d_fm1.in());
  ded.connect(d_s2.out(), d_fm2.in());
  ded.connect(d_fm1.out(), d_join.in_left());
  ded.connect(d_fm2.out(), d_join.in_right());
  ded.connect(d_join.out(), d_sink.in());
  ded.run();

  // AggBased: AggBased FM on each input, then AggBased J — the whole
  // pipeline is compositions of the minimal Aggregate.
  Flow agg;
  auto& a_s1 = agg.add<TimedSource<int>>(lefts, d, flush);
  auto& a_s2 = agg.add<TimedSource<int>>(rights, d, flush);
  AggBasedFlatMap<int, int> a_fm1(agg, pre, d);
  AggBasedFlatMap<int, int> a_fm2(agg, pre, d);
  AggBasedJoin<int, int, int> a_join(agg, spec, key, key, pred, d);
  auto& a_sink = agg.add<CollectorSink<std::pair<int, int>>>();
  agg.connect(a_s1.out(), a_fm1.in());
  agg.connect(a_s2.out(), a_fm2.in());
  agg.connect(a_fm1.out(), a_join.left_in());
  agg.connect(a_fm2.out(), a_join.right_in());
  agg.connect(a_join.out(), a_sink.in());
  agg.run();

  auto to_set = [](const CollectorSink<std::pair<int, int>>& s) {
    std::multiset<std::tuple<Timestamp, int, int>> m;
    for (const auto& t : s.tuples()) {
      m.emplace(t.ts, t.value.first, t.value.second);
    }
    return m;
  };
  EXPECT_EQ(to_set(a_sink), to_set(d_sink));
  EXPECT_EQ(a_sink.late_tuples(), 0);
  EXPECT_TRUE(a_sink.ended());
}

// Sweep: chain depth × watermark cadence. Deep AggBased chains must stay
// correct for every D (each stage's lateness = that D).
class ChainDepthSweep
    : public ::testing::TestWithParam<std::tuple<int, Timestamp>> {};

TEST_P(ChainDepthSweep, DeepMapChainsMatchDedicated) {
  auto [depth, d] = GetParam();
  auto in = random_ints(99, 120);
  const Timestamp flush = in.back().ts + 20 * (depth + 1) * d;

  auto f_m = [](const int& v) { return v + 1; };

  Flow ded;
  auto& d_src = ded.add<TimedSource<int>>(in, d, flush);
  Outlet<int>* d_prev = &d_src.out();
  for (int i = 0; i < depth; ++i) {
    auto& m = ded.add<MapOp<int, int>>(f_m);
    ded.connect(*d_prev, m.in());
    d_prev = &m.out();
  }
  auto& d_sink = ded.add<CollectorSink<int>>();
  ded.connect(*d_prev, d_sink.in());
  ded.run();

  Flow agg;
  auto& a_src = agg.add<TimedSource<int>>(in, d, flush);
  Outlet<int>* a_prev = &a_src.out();
  for (int i = 0; i < depth; ++i) {
    auto m = make_aggbased_map<int, int>(agg, f_m, d);
    agg.connect(*a_prev, m.in());
    a_prev = &m.out();
  }
  auto& a_sink = agg.add<CollectorSink<int>>();
  agg.connect(*a_prev, a_sink.in());
  agg.run();

  EXPECT_EQ(a_sink.multiset(), d_sink.multiset());
  EXPECT_EQ(a_sink.late_tuples(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndCadences, ChainDepthSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Timestamp{3}, Timestamp{9})));

}  // namespace
}  // namespace aggspes
