// Unit and property tests for the Dedicated windowed Join (§ 2.1), checked
// against a brute-force oracle over the join definition.
#include "core/operators/join.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
  friend bool operator==(const Ev&, const Ev&) = default;
  friend auto operator<=>(const Ev&, const Ev&) = default;
};

using Pair = std::pair<Ev, Ev>;
using EvJoin = JoinOp<Ev, Ev, int>;

std::function<int(const Ev&)> by_key() {
  return [](const Ev& e) { return e.key; };
}

/// Brute-force oracle: every pair of tuples in aligned instances with equal
/// keys and a holding predicate, as (output_ts, left, right).
std::multiset<std::tuple<Timestamp, Ev, Ev>> oracle(
    const std::vector<Tuple<Ev>>& lefts, const std::vector<Tuple<Ev>>& rights,
    const WindowSpec& spec,
    const std::function<bool(const Ev&, const Ev&)>& f_p) {
  std::multiset<std::tuple<Timestamp, Ev, Ev>> out;
  for (const auto& l : lefts) {
    for (const auto& r : rights) {
      if (l.value.key != r.value.key || !f_p(l.value, r.value)) continue;
      for (Timestamp wl : spec.instances(l.ts)) {
        if (wl <= r.ts && r.ts < spec.end(wl)) {
          out.emplace(spec.output_ts(wl), l.value, r.value);
        }
      }
    }
  }
  return out;
}

std::multiset<std::tuple<Timestamp, Ev, Ev>> collected(
    const CollectorSink<Pair>& sink) {
  std::multiset<std::tuple<Timestamp, Ev, Ev>> out;
  for (const auto& t : sink.tuples()) {
    out.emplace(t.ts, t.value.first, t.value.second);
  }
  return out;
}

std::multiset<std::tuple<Timestamp, Ev, Ev>> run_join(
    const std::vector<Tuple<Ev>>& lefts, const std::vector<Tuple<Ev>>& rights,
    WindowSpec spec, std::function<bool(const Ev&, const Ev&)> f_p,
    Timestamp period, Timestamp flush_to) {
  Flow flow;
  auto& s1 = flow.add<TimedSource<Ev>>(lefts, period, flush_to);
  auto& s2 = flow.add<TimedSource<Ev>>(rights, period, flush_to);
  auto& join = flow.add<EvJoin>(spec, by_key(), by_key(), f_p);
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.in_left());
  flow.connect(s2.out(), join.in_right());
  flow.connect(join.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);
  return collected(sink);
}

TEST(Join, MatchesAlignedWindowsSameKey) {
  std::vector<Tuple<Ev>> lefts{{1, 0, {7, 100}}, {12, 0, {7, 101}}};
  std::vector<Tuple<Ev>> rights{{3, 0, {7, 200}}, {15, 0, {7, 201}}};
  WindowSpec spec{.advance = 10, .size = 10};
  auto truth = [](const Ev&, const Ev&) { return true; };
  auto got = run_join(lefts, rights, spec, truth, 5, 40);
  EXPECT_EQ(got, oracle(lefts, rights, spec, truth));
  // Sanity: exactly the two in-window pairs.
  EXPECT_EQ(got.size(), 2u);
}

TEST(Join, DifferentKeysNeverMatch) {
  std::vector<Tuple<Ev>> lefts{{1, 0, {1, 0}}};
  std::vector<Tuple<Ev>> rights{{2, 0, {2, 0}}};
  WindowSpec spec{.advance = 10, .size = 10};
  auto got = run_join(lefts, rights, spec,
                      [](const Ev&, const Ev&) { return true; }, 5, 40);
  EXPECT_TRUE(got.empty());
}

TEST(Join, PredicateFilters) {
  std::vector<Tuple<Ev>> lefts{{1, 0, {1, 5}}, {2, 0, {1, 10}}};
  std::vector<Tuple<Ev>> rights{{3, 0, {1, 6}}};
  WindowSpec spec{.advance = 10, .size = 10};
  auto pred = [](const Ev& a, const Ev& b) { return a.val < b.val; };
  auto got = run_join(lefts, rights, spec, pred, 5, 40);
  EXPECT_EQ(got, oracle(lefts, rights, spec, pred));
  EXPECT_EQ(got.size(), 1u);
}

TEST(Join, SlidingWindowsYieldOneMatchPerSharedInstance) {
  // With WS = 2·WA, a pair co-located in two overlapping instances is
  // reported once per instance (per Definition 2 / J's semantics).
  std::vector<Tuple<Ev>> lefts{{10, 0, {1, 1}}};
  std::vector<Tuple<Ev>> rights{{11, 0, {1, 2}}};
  WindowSpec spec{.advance = 5, .size = 10};
  auto truth = [](const Ev&, const Ev&) { return true; };
  auto got = run_join(lefts, rights, spec, truth, 5, 40);
  EXPECT_EQ(got, oracle(lefts, rights, spec, truth));
  EXPECT_EQ(got.size(), 2u);  // instances l = 5 and l = 10
}

TEST(Join, OutputTimestampIsWindowEndMinusDelta) {
  std::vector<Tuple<Ev>> lefts{{1, 0, {1, 1}}};
  std::vector<Tuple<Ev>> rights{{2, 0, {1, 2}}};
  WindowSpec spec{.advance = 10, .size = 10};
  auto got = run_join(lefts, rights, spec,
                      [](const Ev&, const Ev&) { return true; }, 5, 40);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::get<0>(*got.begin()), 9);
}

TEST(Join, ComparisonCounterCountsProbes) {
  Flow flow;
  std::vector<Tuple<Ev>> lefts{{1, 0, {1, 1}}, {2, 0, {1, 2}}};
  std::vector<Tuple<Ev>> rights{{3, 0, {1, 3}}};
  auto& s1 = flow.add<TimedSource<Ev>>(lefts, 5, 40);
  auto& s2 = flow.add<TimedSource<Ev>>(rights, 5, 40);
  auto& join = flow.add<EvJoin>(WindowSpec{.advance = 10, .size = 10},
                                by_key(), by_key(),
                                [](const Ev&, const Ev&) { return false; });
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.in_left());
  flow.connect(s2.out(), join.in_right());
  flow.connect(join.out(), sink.in());
  flow.run();
  // The right tuple probes both stored lefts: 2 comparisons.
  EXPECT_EQ(join.comparisons(), 2u);
  EXPECT_TRUE(sink.tuples().empty());
}

TEST(Join, PurgedInstancesRejectLateTuples) {
  // Assumes Flow's poll order: s1's edge (connected first) delivers its
  // whole script before s2's, so [0, 10) is purged before s2's tuple.
  Flow flow;
  auto& s1 = flow.add<ScriptSource<Ev>>(std::vector<Element<Ev>>{
      Tuple<Ev>{1, 0, {1, 1}}, Watermark{20}, EndOfStream{}});
  auto& s2 = flow.add<ScriptSource<Ev>>(std::vector<Element<Ev>>{
      Watermark{20},
      Tuple<Ev>{2, 0, {1, 2}},  // late: instance [0,10) already discarded
      EndOfStream{}});
  auto& join = flow.add<EvJoin>(WindowSpec{.advance = 10, .size = 10},
                                by_key(), by_key(),
                                [](const Ev&, const Ev&) { return true; });
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.in_left());
  flow.connect(s2.out(), join.in_right());
  flow.connect(join.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_EQ(join.dropped_late(), 1u);
}

// Property sweep: randomized streams across window shapes vs the oracle.
class JoinRandomSweep
    : public ::testing::TestWithParam<std::tuple<int, Timestamp, Timestamp>> {
};

TEST_P(JoinRandomSweep, MatchesOracle) {
  auto [seed, wa, ws] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_int_distribution<Timestamp> ts_d(0, 60);
  std::uniform_int_distribution<int> key_d(0, 3);
  std::uniform_int_distribution<int> val_d(0, 9);

  auto gen = [&](int n) {
    std::vector<Tuple<Ev>> v;
    for (int i = 0; i < n; ++i) {
      v.push_back({ts_d(rng), 0, {key_d(rng), val_d(rng)}});
    }
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.ts < b.ts; });
    return v;
  };
  auto lefts = gen(25);
  auto rights = gen(25);
  WindowSpec spec{.advance = wa, .size = ws};
  auto pred = [](const Ev& a, const Ev& b) {
    return (a.val + b.val) % 3 != 0;
  };
  auto got = run_join(lefts, rights, spec, pred, /*period=*/7,
                      /*flush_to=*/60 + ws + 10);
  EXPECT_EQ(got, oracle(lefts, rights, spec, pred));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, JoinRandomSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(Timestamp{5}, Timestamp{10}),
                       ::testing::Values(Timestamp{10}, Timestamp{20})));

}  // namespace
}  // namespace aggspes
