// Theorem 2, end to end: the AggBased Join (Listing 2 + Listing 3 with the
// Listing 4/5 guards) produces exactly the Dedicated Join's outputs on
// randomized streams, window shapes, key skews, and predicate
// selectivities. The A+-based join (§ 5.1) is checked too. A brute-force
// oracle anchors both.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/embed_join.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
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

}  // namespace
}  // namespace aggspes

template <>
struct std::hash<aggspes::Ev> {
  size_t operator()(const aggspes::Ev& e) const {
    return aggspes::hash_values(e.key, e.val);
  }
};

namespace aggspes {
namespace {

using Pair = std::pair<Ev, Ev>;
using Outputs = std::multiset<std::tuple<Timestamp, Ev, Ev>>;
using Predicate = std::function<bool(const Ev&, const Ev&)>;

std::function<int(const Ev&)> by_key() {
  return [](const Ev& e) { return e.key; };
}

Outputs to_outputs(const CollectorSink<Pair>& sink) {
  Outputs out;
  for (const auto& t : sink.tuples()) {
    out.emplace(t.ts, t.value.first, t.value.second);
  }
  return out;
}

Outputs oracle(const std::vector<Tuple<Ev>>& lefts,
               const std::vector<Tuple<Ev>>& rights, const WindowSpec& spec,
               const Predicate& f_p) {
  Outputs out;
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

struct Streams {
  std::vector<Tuple<Ev>> lefts;
  std::vector<Tuple<Ev>> rights;
  Timestamp flush;
};

Outputs run_dedicated(const Streams& s, WindowSpec spec, Predicate f_p,
                      Timestamp period) {
  Flow flow;
  auto& s1 = flow.add<TimedSource<Ev>>(s.lefts, period, s.flush);
  auto& s2 = flow.add<TimedSource<Ev>>(s.rights, period, s.flush);
  auto& join = flow.add<JoinOp<Ev, Ev, int>>(spec, by_key(), by_key(),
                                             std::move(f_p));
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.in_left());
  flow.connect(s2.out(), join.in_right());
  flow.connect(join.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  return to_outputs(sink);
}

Outputs run_aggbased(const Streams& s, WindowSpec spec, Predicate f_p,
                     Timestamp period) {
  Flow flow;
  auto& s1 = flow.add<TimedSource<Ev>>(s.lefts, period, s.flush);
  auto& s2 = flow.add<TimedSource<Ev>>(s.rights, period, s.flush);
  AggBasedJoin<Ev, Ev, int> join(flow, spec, by_key(), by_key(),
                                 std::move(f_p), /*lateness=*/period);
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.left_in());
  flow.connect(s2.out(), join.right_in());
  flow.connect(join.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.watermark_regressions(), 0);
  return to_outputs(sink);
}

Outputs run_aplus(const Streams& s, WindowSpec spec, Predicate f_p,
                  Timestamp period) {
  Flow flow;
  auto& s1 = flow.add<TimedSource<Ev>>(s.lefts, period, s.flush);
  auto& s2 = flow.add<TimedSource<Ev>>(s.rights, period, s.flush);
  AplusJoin<Ev, Ev, int> join(flow, spec, by_key(), by_key(),
                              std::move(f_p));
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(s1.out(), join.left_in());
  flow.connect(s2.out(), join.right_in());
  flow.connect(join.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  return to_outputs(sink);
}

void expect_all_equal(const Streams& s, WindowSpec spec,
                      const Predicate& f_p, Timestamp period) {
  Outputs truth = oracle(s.lefts, s.rights, spec, f_p);
  EXPECT_EQ(run_dedicated(s, spec, f_p, period), truth) << "Dedicated";
  EXPECT_EQ(run_aggbased(s, spec, f_p, period), truth) << "AggBased";
  EXPECT_EQ(run_aplus(s, spec, f_p, period), truth) << "A+";
}

TEST(JoinEquivalence, BasicTumbling) {
  Streams s{{{1, 0, {7, 1}}, {3, 0, {7, 2}}},
            {{2, 0, {7, 10}}, {12, 0, {7, 11}}},
            /*flush=*/40};
  expect_all_equal(s, WindowSpec{.advance = 10, .size = 10},
                   [](const Ev&, const Ev&) { return true; }, 5);
}

TEST(JoinEquivalence, SlidingWindows) {
  Streams s{{{4, 0, {1, 1}}, {11, 0, {1, 2}}},
            {{6, 0, {1, 3}}, {13, 0, {1, 4}}},
            /*flush=*/50};
  expect_all_equal(s, WindowSpec{.advance = 5, .size = 15},
                   [](const Ev&, const Ev&) { return true; }, 5);
}

TEST(JoinEquivalence, KeyIsolation) {
  Streams s{{{1, 0, {1, 1}}, {2, 0, {2, 2}}},
            {{3, 0, {1, 3}}, {4, 0, {3, 4}}},
            /*flush=*/40};
  expect_all_equal(s, WindowSpec{.advance = 10, .size = 10},
                   [](const Ev&, const Ev&) { return true; }, 5);
}

TEST(JoinEquivalence, EmptyResult) {
  Streams s{{{1, 0, {1, 1}}}, {{2, 0, {1, 2}}}, /*flush=*/40};
  expect_all_equal(s, WindowSpec{.advance = 10, .size = 10},
                   [](const Ev&, const Ev&) { return false; }, 5);
}

TEST(JoinEquivalence, DuplicateTuplesMatchWithMultiplicity) {
  Streams s{{{1, 0, {1, 5}}, {1, 0, {1, 5}}},   // two identical lefts
            {{2, 0, {1, 6}}, {2, 0, {1, 6}}},   // two identical rights
            /*flush=*/40};
  // Each left must pair with each right: 4 results.
  expect_all_equal(s, WindowSpec{.advance = 10, .size = 10},
                   [](const Ev&, const Ev&) { return true; }, 5);
}

TEST(JoinEquivalence, OneSidedStream) {
  Streams s{{{1, 0, {1, 1}}, {2, 0, {1, 2}}}, {}, /*flush=*/40};
  expect_all_equal(s, WindowSpec{.advance = 10, .size = 10},
                   [](const Ev&, const Ev&) { return true; }, 5);
}

// Property sweep: Theorem 2 over seeds × window shapes × key skew ×
// predicate selectivity.
// gtest names each case by the struct's raw bytes, so the layout must have
// no padding: a 64-bit seed keeps every byte initialised and the names
// stable across builds and environments.
struct SweepCase {
  std::int64_t seed;
  Timestamp wa;
  Timestamp ws;
  int keys;     // smaller = more skew per key
  int mod;      // predicate: (a.val + b.val) % mod != 0; bigger = more hits
};

class JoinEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(JoinEquivalenceSweep, AllImplementationsMatchOracle) {
  const SweepCase& c = GetParam();
  std::mt19937 rng(static_cast<unsigned>(c.seed));
  std::uniform_int_distribution<Timestamp> ts_d(0, 50);
  std::uniform_int_distribution<int> key_d(0, c.keys - 1);
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
  Streams s{gen(20), gen(20), /*flush=*/50 + c.ws + 20};
  const int mod = c.mod;
  expect_all_equal(
      s, WindowSpec{.advance = c.wa, .size = c.ws},
      [mod](const Ev& a, const Ev& b) { return (a.val + b.val) % mod != 0; },
      /*period=*/6);
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, JoinEquivalenceSweep,
    ::testing::Values(SweepCase{1, 10, 10, 2, 2}, SweepCase{2, 10, 10, 4, 3},
                      SweepCase{3, 5, 15, 2, 2}, SweepCase{4, 5, 15, 4, 5},
                      SweepCase{5, 10, 20, 3, 2}, SweepCase{6, 7, 7, 1, 4},
                      SweepCase{7, 3, 9, 5, 3}, SweepCase{8, 12, 24, 2, 2}));

}  // namespace
}  // namespace aggspes
