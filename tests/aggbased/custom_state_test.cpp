// Lemma 5 / Listing 6: the generic stateful operator O — built from FM +
// a sliding-window Aggregate with a state-carrying loop — enforces
// "process every tuple exactly once against an event-time-unbounded,
// per-key state, reporting with period P".
#include "aggbased/custom_state.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
};

struct Counting {  // state: count and sum of everything seen so far
  long count{0};
  long sum{0};
  friend bool operator==(const Counting&, const Counting&) = default;
};

using Op = CustomStateOp<Ev, Counting, std::pair<long, long>, int>;
using Outputs = std::multiset<std::tuple<Timestamp, long, long>>;

Op::KeyFn key_fn() {
  return [](const Ev& e) { return e.key; };
}
Op::CreateFn create_fn() {
  return [](const Ev& e) { return Counting{1, e.val}; };
}
Op::AddFn add_fn() {
  return [](Counting s, const Ev& e) {
    return Counting{s.count + 1, s.sum + e.val};
  };
}
Op::MergeFn merge_fn() {
  return [](Counting a, Counting b) {
    return Counting{a.count + b.count, a.sum + b.sum};
  };
}
Op::OutputFn output_fn() {
  return [](const Counting& s) {
    return std::vector<std::pair<long, long>>{{s.count, s.sum}};
  };
}

Outputs run_o(const std::vector<Tuple<Ev>>& in, Timestamp period,
              Timestamp watermark_period, Timestamp flush_to) {
  Flow flow;
  auto& src = flow.add<TimedSource<Ev>>(in, watermark_period, flush_to);
  Op op(flow, period, key_fn(), create_fn(), add_fn(), merge_fn(),
        output_fn());
  auto& sink = flow.add<CollectorSink<std::pair<long, long>>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  Outputs out;
  for (const auto& t : sink.tuples()) {
    out.emplace(t.ts, t.value.first, t.value.second);
  }
  return out;
}

/// Reference semantics of O: per key, a running fold over all tuples with
/// τ < boundary, reported at every period boundary (l+1)P where the key's
/// state exists (first tuple of the key seen in some earlier full period
/// *or* the state carried forward keeps reporting each period).
Outputs reference(const std::vector<Tuple<Ev>>& in, Timestamp period,
                  Timestamp horizon) {
  Outputs out;
  std::set<int> keys;
  for (const auto& t : in) keys.insert(t.value.key);
  for (int k : keys) {
    Timestamp first_ts = kMaxTimestamp;
    for (const auto& t : in) {
      if (t.value.key == k) first_ts = std::min(first_ts, t.ts);
    }
    // The key's state is created in the instance containing its first
    // tuple; from the next boundary on, it reports every period.
    const Timestamp first_boundary =
        (floor_div(first_ts, period) + 1) * period;
    for (Timestamp b = first_boundary; b <= horizon; b += period) {
      long count = 0, sum = 0;
      for (const auto& t : in) {
        if (t.value.key == k && t.ts < b) {
          ++count;
          sum += t.value.val;
        }
      }
      out.emplace(b, count, sum);
    }
  }
  return out;
}

TEST(CustomState, SingleKeyRunningSum) {
  std::vector<Tuple<Ev>> in{{1, 0, {0, 10}}, {3, 0, {0, 20}},
                            {12, 0, {0, 5}}};
  // P = 10, watermarks every 5; flush far enough that boundaries 10, 20,
  // and 30 all fire.
  auto got = run_o(in, 10, 5, 42);
  // Expected: at τ=10: (2, 30); at τ=20: (3, 35); at τ=30: (3, 35); at
  // τ=40: (3, 35).
  Outputs expected{{10, 2, 30}, {20, 3, 35}, {30, 3, 35}, {40, 3, 35}};
  EXPECT_EQ(got, expected);
}

TEST(CustomState, StatePersistsThroughEmptyPeriods) {
  std::vector<Tuple<Ev>> in{{1, 0, {0, 7}}};
  auto got = run_o(in, 10, 5, 52);
  // One input; state reports every period up to the flush horizon.
  Outputs expected{{10, 1, 7}, {20, 1, 7}, {30, 1, 7}, {40, 1, 7},
                   {50, 1, 7}};
  EXPECT_EQ(got, expected);
}

TEST(CustomState, PerKeyIsolation) {
  std::vector<Tuple<Ev>> in{{1, 0, {0, 1}}, {2, 0, {1, 100}},
                            {11, 0, {0, 2}}};
  auto got = run_o(in, 10, 5, 32);
  Outputs expected{
      {10, 1, 1}, {20, 2, 3}, {30, 2, 3},        // key 0
      {10, 1, 100}, {20, 1, 100}, {30, 1, 100},  // key 1
  };
  EXPECT_EQ(got, expected);
}

TEST(CustomState, BoundaryTupleCountsInLaterPeriod) {
  // A tuple with τ exactly at a period boundary is processed in the later
  // instance (the overlap-deferral rule of Listing 6).
  std::vector<Tuple<Ev>> in{{10, 0, {0, 4}}};
  auto got = run_o(in, 10, 5, 32);
  Outputs expected{{20, 1, 4}, {30, 1, 4}};
  EXPECT_EQ(got, expected);
}

TEST(CustomState, MatchesReferenceFold) {
  std::vector<Tuple<Ev>> in;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Timestamp> gap(0, 4);
  std::uniform_int_distribution<int> key_d(0, 2);
  std::uniform_int_distribution<int> val_d(1, 9);
  Timestamp ts = 0;
  for (int i = 0; i < 40; ++i) {
    ts += gap(rng);
    in.push_back({ts, 0, {key_d(rng), val_d(rng)}});
  }
  const Timestamp period = 10;
  const Timestamp flush = ts + 22;
  auto got = run_o(in, period, /*watermark_period=*/5, flush);
  // Highest boundary b that fires: instance [b-P, b+δ) needs watermark
  // b + δ <= flush, i.e. b <= flush − δ.
  const Timestamp horizon = floor_div(flush - kDelta, period) * period;
  EXPECT_EQ(got, reference(in, period, horizon));
}

// Sweep: random streams × periods × watermark spacings against the fold.
class CustomStateSweep
    : public ::testing::TestWithParam<std::tuple<int, Timestamp, Timestamp>> {
};

TEST_P(CustomStateSweep, MatchesReferenceFold) {
  auto [seed, period, wm_period] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_int_distribution<Timestamp> gap(0, 5);
  std::uniform_int_distribution<int> key_d(0, 3);
  std::uniform_int_distribution<int> val_d(1, 9);
  std::vector<Tuple<Ev>> in;
  Timestamp ts = 0;
  for (int i = 0; i < 50; ++i) {
    ts += gap(rng);
    in.push_back({ts, 0, {key_d(rng), val_d(rng)}});
  }
  const Timestamp flush = ts + 2 * period + 2 * wm_period + 3;
  auto got = run_o(in, period, wm_period, flush);
  const Timestamp horizon = floor_div(flush - kDelta, period) * period;
  EXPECT_EQ(got, reference(in, period, horizon));
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, CustomStateSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(Timestamp{5}, Timestamp{10},
                                         Timestamp{16}),
                       ::testing::Values(Timestamp{3}, Timestamp{8})));

}  // namespace
}  // namespace aggspes
