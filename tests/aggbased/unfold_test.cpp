// Tests for Listing 3 — the Unfold operator X built from two Aggregates,
// a loop, and the C2/C3 guards (Theorem 3, Lemma 2).
#include "aggbased/unfold.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using Env = Embedded<int>;

Tuple<Env> envelope(Timestamp ts, std::vector<int> items) {
  return {ts, 0, Env{std::move(items), kFromEmbed}};
}

struct XRun {
  std::multiset<std::pair<Timestamp, int>> outputs;
  int late = 0;
  int regressions = 0;
  bool ended = false;
};

XRun run_x(std::vector<Tuple<Env>> envelopes, Timestamp period,
           Timestamp flush_to, Timestamp lateness) {
  Flow flow;
  auto& src = flow.add<TimedSource<Env>>(std::move(envelopes), period,
                                         flush_to);
  UnfoldX<int> x(flow, lateness);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), x.in());
  flow.connect(x.out(), sink.in());
  flow.run();
  return {sink.multiset(), sink.late_tuples(), sink.watermark_regressions(),
          sink.ended()};
}

TEST(UnfoldX, EmitsEveryEmbeddedItemOnceWithEnvelopeTimestamp) {
  auto r = run_x({envelope(5, {10, 20, 30})}, /*period=*/3, /*flush_to=*/20,
                 /*lateness=*/3);
  std::multiset<std::pair<Timestamp, int>> expected{{5, 10}, {5, 20}, {5, 30}};
  EXPECT_EQ(r.outputs, expected);
  EXPECT_TRUE(r.ended);
}

TEST(UnfoldX, SingleItemEnvelope) {
  auto r = run_x({envelope(2, {99})}, 3, 10, 3);
  EXPECT_EQ(r.outputs,
            (std::multiset<std::pair<Timestamp, int>>{{2, 99}}));
}

TEST(UnfoldX, ManyEnvelopesInterleave) {
  auto r = run_x({envelope(1, {1, 2}), envelope(4, {3}), envelope(9, {4, 5})},
                 3, 20, 3);
  std::multiset<std::pair<Timestamp, int>> expected{
      {1, 1}, {1, 2}, {4, 3}, {9, 4}, {9, 5}};
  EXPECT_EQ(r.outputs, expected);
}

TEST(UnfoldX, DuplicateEnvelopesUnfoldWithCombinedMultiplicity) {
  // Lemma 2 context: identical envelopes merge in A1's instance and their
  // items concatenate, so every copy's items still come out.
  auto r = run_x({envelope(5, {7, 8}), envelope(5, {7, 8})}, 3, 20, 3);
  std::multiset<std::pair<Timestamp, int>> expected{
      {5, 7}, {5, 8}, {5, 7}, {5, 8}};
  EXPECT_EQ(r.outputs, expected);
}

TEST(UnfoldX, NoLateArrivalsDownstream) {
  // C3 / Lemma 4: A2's output stream (the sink's input) must contain no
  // tuple older than a preceding watermark.
  std::vector<Tuple<Env>> envs;
  for (Timestamp ts = 0; ts < 40; ts += 2) {
    envs.push_back(envelope(ts, {int(ts), int(ts) + 1, int(ts) + 2}));
  }
  auto r = run_x(envs, /*period=*/4, /*flush_to=*/60, /*lateness=*/4);
  EXPECT_EQ(r.late, 0);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.outputs.size(), 20u * 3u);
}

TEST(UnfoldX, LargeEnvelopeTerminates) {
  std::vector<int> big(200);
  for (int i = 0; i < 200; ++i) big[static_cast<std::size_t>(i)] = i;
  auto r = run_x({Tuple<Env>{3, 0, Env{big, kFromEmbed}}}, 3, 20, 3);
  EXPECT_EQ(r.outputs.size(), 200u);
  EXPECT_TRUE(r.ended);
}

// Property sweep over watermark spacing D and random envelope batches:
// Theorem 3 requires L >= D; with that, X must unfold everything exactly
// once, never produce downstream late arrivals, and always terminate.
class UnfoldSweep
    : public ::testing::TestWithParam<std::tuple<int, Timestamp>> {};

TEST_P(UnfoldSweep, ExactlyOnceForAnyDAndSeed) {
  auto [seed, period] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_int_distribution<Timestamp> gap(0, 4);
  std::uniform_int_distribution<int> size_d(1, 6);
  std::uniform_int_distribution<int> val_d(0, 99);

  std::vector<Tuple<Env>> envs;
  std::multiset<std::pair<Timestamp, int>> expected;
  Timestamp ts = 0;
  for (int i = 0; i < 30; ++i) {
    ts += gap(rng);
    std::vector<int> items;
    const int n = size_d(rng);
    for (int j = 0; j < n; ++j) items.push_back(val_d(rng));
    for (int v : items) expected.emplace(ts, v);
    envs.push_back(envelope(ts, std::move(items)));
  }
  auto r = run_x(envs, period, ts + 3 * period + 5, /*lateness=*/period);
  EXPECT_EQ(r.outputs, expected);
  EXPECT_EQ(r.late, 0);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_TRUE(r.ended);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSpacings, UnfoldSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(Timestamp{1}, Timestamp{2},
                                         Timestamp{5}, Timestamp{11})));

}  // namespace
}  // namespace aggspes
