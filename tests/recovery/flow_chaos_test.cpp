// Deterministic chaos (ctest label: chaos): checkpoints, a seeded crash and
// the restore run on Flow, on the calling thread. Two sources with barrier
// markers feed a 2-input Aggregate, so the cut needs an alignment hold. A
// crash fails the run, the rebuilt flow restores the latest complete cut
// and runs again, and its output equals a run without faults. With no
// thread in play, the same seed gives the same failure, the same restored
// cut and the same output, every time: no sleeps, no timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

constexpr int kTuples = 600;
constexpr std::size_t kMarkerEvery = 32;
constexpr std::size_t kAggregate = 2;  // add() index of the Aggregate

std::vector<Tuple<int>> stream(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> val(0, 99);
  std::vector<Tuple<int>> v;
  for (int i = 0; i < kTuples; ++i) {
    v.push_back({Timestamp(i / 2), 0, val(rng)});
  }
  return v;
}

/// ReplaySource ×2 → 2-input keyed tumbling sum → CollectorSink.
CollectorSink<int>& build(Flow& flow) {
  const Timestamp flush = kTuples;
  auto& a = flow.add<ReplaySource<int>>(stream(1), 8, flush, kMarkerEvery);
  auto& b = flow.add<ReplaySource<int>>(stream(2), 8, flush, kMarkerEvery);
  auto& agg = flow.add<AggregateOp<int, int, int>>(
      WindowSpec{.advance = 10, .size = 10, .lateness = 0},
      [](const int& v) { return v % 4; },
      [](const WindowView<int, int>& w) -> std::optional<int> {
        int s = 0;
        for (const auto& t : w.items) s += t.value;
        return s;
      },
      /*regular_inputs=*/2);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(a, a.out(), agg, agg.in(0));
  flow.connect(b, b.out(), agg, agg.in(1));
  flow.connect(agg, agg.out(), sink, sink.in());
  return sink;
}

std::vector<Tuple<int>> sorted(std::vector<Tuple<int>> v) {
  std::sort(v.begin(), v.end(), [](const Tuple<int>& x, const Tuple<int>& y) {
    return std::tie(x.ts, x.value, x.stamp) < std::tie(y.ts, y.value, y.stamp);
  });
  return v;
}

struct Outcome {
  std::string crash;  ///< "edge E delivery D", as CrashInjected names it
  std::size_t failed_node{FlowError::kNoNode};
  std::string failure;
  std::optional<std::uint64_t> restored;
  std::vector<Tuple<int>> output;
};

/// One crash on a source edge, at a delivery the seed picks, then one
/// restore-and-rerun.
Outcome crash_and_recover(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.attempt = 0;
  crash.edge = rng() % 2;
  crash.at_delivery = 100 + rng() % 400;
  FaultInjector faults(seed);
  faults.add_event(crash);

  CheckpointStore store;
  Outcome out;
  out.crash = "edge " + std::to_string(crash.edge) + " delivery " +
              std::to_string(crash.at_delivery);
  for (int attempt = 0; attempt < 2; ++attempt) {
    Flow flow;
    CollectorSink<int>& sink = build(flow);
    flow.enable_checkpoints(store);
    const std::optional<std::uint64_t> restored = flow.restore_latest(store);
    faults.begin_attempt(attempt);
    flow.install_faults(faults);
    try {
      flow.run();
      EXPECT_TRUE(sink.ended());
      out.restored = restored;
      out.output = sink.tuples();
      return out;
    } catch (const FlowError& e) {
      EXPECT_EQ(attempt, 0) << e.what();
      out.failed_node = e.node_index();
      out.failure = e.what();
    }
  }
  return out;
}

std::vector<Tuple<int>> clean_run() {
  Flow flow;
  CollectorSink<int>& sink = build(flow);
  flow.run();
  EXPECT_TRUE(sink.ended());
  return sink.tuples();
}

TEST(FlowChaos, SeededCrashRestoresToTheCleanOutputDeterministically) {
  const std::vector<Tuple<int>> clean = clean_run();
  ASSERT_GT(clean.size(), 0u);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome first = crash_and_recover(seed);
    const Outcome second = crash_and_recover(seed);
    // The run failed at the Aggregate the crashed edge feeds, and a cut
    // taken before the crash was restored.
    EXPECT_EQ(first.failed_node, kAggregate);
    EXPECT_NE(first.failure.find(first.crash), std::string::npos)
        << first.failure;
    ASSERT_TRUE(first.restored.has_value());
    EXPECT_GE(*first.restored, 1u);
    // Same seed, same failing node and delivery, same restored cut.
    EXPECT_EQ(second.failed_node, first.failed_node);
    EXPECT_EQ(second.failure, first.failure);
    EXPECT_EQ(second.restored, first.restored);
    // Exactly once: the clean run's outputs. The restored Aggregate may
    // fire one window's keys in another order (a rebuilt hash map), so
    // the comparison with the clean run is as multisets; two recoveries
    // from one seed agree element for element.
    EXPECT_EQ(sorted(first.output), sorted(clean));
    EXPECT_EQ(second.output, first.output);
  }
}

}  // namespace
}  // namespace aggspes
