// Overload-control unit suite (ctest label: overload): OverloadMonitor
// classification, the four ShedPolicy semantics (deterministic per seed),
// the RateSource shedder hook,
// RateSource cutoff accounting, recovery backoff math, and the
// degraded-mode prober's ladder logic. End-to-end behavior under injected
// faults lives in tests/recovery/overload_chaos_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/supervisor.hpp"
#include "core/runtime/measuring_sink.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/late_probe.hpp"
#include "harness/sustainable.hpp"

namespace aggspes {
namespace {

// --- OverloadMonitor classification --------------------------------------

TEST(OverloadMonitor, ClassifiesFromOccupancy) {
  OverloadMonitor m({.pressured_occupancy = 0.5, .overloaded_occupancy = 0.9});
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);

  m.observe({{10, 100, 0, 10}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);

  m.observe({{60, 100, 0, 60}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kPressured);

  m.observe({{95, 100, 0, 95}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kOverloaded);

  // Recovery: health tracks the current sample; worst() remembers.
  m.observe({{0, 100, 0, 95}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);
  EXPECT_EQ(m.worst(), FlowHealth::kOverloaded);
  EXPECT_EQ(m.samples(), 4u);
  EXPECT_EQ(m.transitions(), 3u);  // H→P, P→O, O→H
  EXPECT_DOUBLE_EQ(m.peak_occupancy_fraction(), 0.95);
}

TEST(OverloadMonitor, WorstOccupancyChannelWins) {
  OverloadMonitor m;
  // One idle channel and one nearly full one: classification follows the
  // max fraction, not the average.
  m.observe({{0, 100, 0, 0}, {95, 100, 0, 95}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kOverloaded);
}

TEST(OverloadMonitor, LoopChannelsExcludedFromOccupancy) {
  OverloadMonitor m;
  // capacity == 0 marks an unbounded loop edge; its depth is not an
  // occupancy fraction.
  m.observe({{5000, 0, 0, 5000}}, 0, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);
}

TEST(OverloadMonitor, ClassifiesFromWatermarkLag) {
  OverloadMonitor m({.pressured_occupancy = 0.5,
                     .overloaded_occupancy = 0.9,
                     .pressured_lag = 100,
                     .overloaded_lag = 500});
  m.observe({}, 1000, 950);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);
  m.observe({}, 1000, 800);
  EXPECT_EQ(m.health(), FlowHealth::kPressured);
  m.observe({}, 1000, 100);
  EXPECT_EQ(m.health(), FlowHealth::kOverloaded);
  EXPECT_EQ(m.peak_watermark_lag(), 900);
  // A laggard that has no watermark yet contributes no lag.
  m.observe({}, 1000, kMinTimestamp);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);
}

TEST(OverloadMonitor, ZeroLagThresholdDisablesLagClassification) {
  OverloadMonitor m;  // default thresholds: lag disabled
  m.observe({}, 1'000'000, 0);
  EXPECT_EQ(m.health(), FlowHealth::kHealthy);
}

// --- Shedder policies ----------------------------------------------------

TEST(Shedder, NonePolicyAdmitsEverything) {
  Shedder s(ShedConfig{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(s.admit(FlowHealth::kOverloaded, i, i));
  }
  EXPECT_EQ(s.shed(), 0u);
  EXPECT_EQ(s.admitted(), 1000u);
}

TEST(Shedder, HealthyNeverSheds) {
  Shedder s({.policy = ShedPolicy::kRandomP,
             .p_pressured = 1.0,
             .p_overloaded = 1.0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(s.admit(FlowHealth::kHealthy, i, i));
  }
  EXPECT_EQ(s.shed(), 0u);
}

TEST(Shedder, RandomPShedsAtConfiguredProbability) {
  Shedder s({.policy = ShedPolicy::kRandomP, .p_overloaded = 0.3, .seed = 7});
  const int n = 20000;
  for (int i = 0; i < n; ++i) s.admit(FlowHealth::kOverloaded, i, i);
  const double ratio = static_cast<double>(s.shed()) / n;
  EXPECT_NEAR(ratio, 0.3, 0.02);
}

TEST(Shedder, RandomPIsDeterministicPerSeed) {
  ShedConfig cfg{.policy = ShedPolicy::kRandomP, .p_overloaded = 0.5,
                 .seed = 11};
  Shedder a(cfg);
  Shedder b(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.admit(FlowHealth::kOverloaded, i, i),
              b.admit(FlowHealth::kOverloaded, i, i));
  }
}

TEST(Shedder, PerKeyFairIsCoherentWithinAnEpochAndRotatesAcross) {
  ShedConfig cfg{.policy = ShedPolicy::kPerKeyFair,
                 .p_overloaded = 0.5,
                 .seed = 3,
                 .fair_epoch = 100};
  Shedder s(cfg);
  // Within one epoch the decision for a key never flips (all-or-nothing
  // window contents per key).
  for (std::uint64_t key = 0; key < 64; ++key) {
    const bool first = s.admit(FlowHealth::kOverloaded, key, 0);
    for (Timestamp ts = 1; ts < 100; ts += 13) {
      EXPECT_EQ(s.admit(FlowHealth::kOverloaded, key, ts), first);
    }
  }
  // Across epochs the victim set rotates: some key flips.
  bool any_flip = false;
  for (std::uint64_t key = 0; key < 64 && !any_flip; ++key) {
    Shedder t(cfg);
    any_flip = t.admit(FlowHealth::kOverloaded, key, 50) !=
               t.admit(FlowHealth::kOverloaded, key, 150);
  }
  EXPECT_TRUE(any_flip);
  // And roughly p of the keys are shed per epoch.
  Shedder u(cfg);
  int shed = 0;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    if (!u.admit(FlowHealth::kOverloaded, splitmix64(key), 0)) ++shed;
  }
  EXPECT_NEAR(static_cast<double>(shed) / 2000, 0.5, 0.05);
}

TEST(Shedder, OldestPaneFirstShedsBehindTheWatermark) {
  Shedder s({.policy = ShedPolicy::kOldestPaneFirst, .pane_depth = 50});
  // No watermark yet: everything admitted regardless of health.
  EXPECT_TRUE(s.admit(FlowHealth::kOverloaded, 1, 0, kMinTimestamp));
  // Pressured: only tuples at or behind the watermark are shed.
  EXPECT_FALSE(s.admit(FlowHealth::kPressured, 1, 100, 100));
  EXPECT_TRUE(s.admit(FlowHealth::kPressured, 1, 101, 100));
  // Overloaded: the shed horizon deepens by pane_depth.
  EXPECT_FALSE(s.admit(FlowHealth::kOverloaded, 1, 150, 100));
  EXPECT_TRUE(s.admit(FlowHealth::kOverloaded, 1, 151, 100));
  // Healthy: never sheds.
  EXPECT_TRUE(s.admit(FlowHealth::kHealthy, 1, 0, 100));
}

TEST(Shedder, ConsultsAttachedMonitor) {
  OverloadMonitor m;
  Shedder s({.policy = ShedPolicy::kRandomP, .p_overloaded = 1.0}, &m);
  EXPECT_TRUE(s.admit(1, 0));  // monitor healthy
  m.observe({{100, 100, 0, 100}}, 0, kMinTimestamp);  // force overloaded
  EXPECT_FALSE(s.admit(1, 0));
  EXPECT_EQ(s.shed(), 1u);
  EXPECT_EQ(s.admitted(), 1u);
}

// --- RateSource: shedding + cutoff accounting ----------------------------

TEST(RateSourceOverload, CutoffRecordedNotSilent) {
  // 50 tuples scheduled over 50 ms, but the cutoff caps wall time at
  // 25 ms: generation truncates and says so. Where it truncates depends on
  // the wall clock (a descheduled source hits the cutoff at an earlier
  // index), so the checks pin what holds on any host: the cutoff is
  // recorded at the index the loop broke at, which is what was emitted,
  // and no later than one tuple past the cap.
  RateSourceConfig cfg{.rate = 1000,
                       .duration_s = 0.05,
                       .ticks_per_s = 1000,
                       .wm_period = 10,
                       .flush_horizon = 50,
                       .overrun_factor = 0.5};
  ThreadedFlow flow;
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();

  EXPECT_EQ(src.cutoff_fired(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(std::llround(src.cutoff_at_s() *
                                                    cfg.rate)),
            src.emitted());
  EXPECT_LE(src.cutoff_at_s(),
            cfg.duration_s * cfg.overrun_factor + 1.0 / cfg.rate);
  EXPECT_LT(src.emitted(), 50u);
  EXPECT_GT(src.emitted(), 0u);
}

TEST(RateSourceOverload, NoCutoffOnSustainableRun) {
  RateSourceConfig cfg{.rate = 1000, .duration_s = 0.05, .wm_period = 10};
  ThreadedFlow flow;
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();
  EXPECT_EQ(src.cutoff_fired(), 0u);
  EXPECT_EQ(src.emitted(), 50u);
}

TEST(RateSourceOverload, SheddingKeepsWatermarksFlowing) {
  OverloadMonitor m;
  m.observe({{100, 100, 0, 100}}, 0, kMinTimestamp);  // pinned overloaded
  Shedder shed({.policy = ShedPolicy::kRandomP, .p_overloaded = 1.0}, &m);

  RateSourceConfig cfg{.rate = 2000, .duration_s = 0.05, .wm_period = 10};
  ThreadedFlow flow;
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  src.set_shedder(&shed);
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();

  // Every generated tuple was shed, none emitted...
  EXPECT_EQ(src.emitted(), 0u);
  EXPECT_EQ(shed.shed(), 100u);
  // ...yet watermarks advanced all the way to the flush horizon, so
  // downstream event time stayed well-defined.
  const Timestamp end_ts = static_cast<Timestamp>(
      cfg.duration_s * static_cast<double>(cfg.ticks_per_s));
  EXPECT_EQ(sink.node_watermark(), end_ts + cfg.flush_horizon);
}

// --- Runtime gauges ------------------------------------------------------

TEST(ChannelGauges, HighWaterAndCapacityExported) {
  ThreadedFlow flow;
  RateSourceConfig cfg{.rate = 5000, .duration_s = 0.02, .wm_period = 10};
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in(), EdgeKind::kNormal,
               /*capacity=*/64);
  flow.run();
  const auto gauges = flow.channel_gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].capacity, 64u);
  EXPECT_GT(gauges[0].high_water, 0u);
  EXPECT_EQ(gauges[0].depth, 0u);  // drained at end of run
}

TEST(OverloadMonitorIntegration, WatchdogSamplesAttachedMonitor) {
  OverloadMonitor monitor;
  ThreadedFlow flow;
  RateSourceConfig cfg{.rate = 2000, .duration_s = 0.05, .wm_period = 10};
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.attach_overload(&monitor);
  ThreadedFlow::RunOptions opts;
  opts.watchdog_poll = std::chrono::milliseconds(5);
  flow.run(opts);
  EXPECT_GT(monitor.samples(), 0u);
  EXPECT_EQ(monitor.worst(), FlowHealth::kHealthy);
}

// --- Recovery backoff math -----------------------------------------------

TEST(RecoveryBackoff, DisabledByDefault) {
  RecoveryOptions opts;
  EXPECT_EQ(recovery_backoff(opts, 1).count(), 0);
  EXPECT_EQ(recovery_backoff(opts, 5).count(), 0);
}

TEST(RecoveryBackoff, ExponentialWithCap) {
  RecoveryOptions opts;
  opts.backoff_initial = std::chrono::milliseconds(10);
  opts.backoff_factor = 2.0;
  opts.backoff_max = std::chrono::milliseconds(50);
  EXPECT_EQ(recovery_backoff(opts, 0).count(), 0);   // first try never waits
  EXPECT_EQ(recovery_backoff(opts, 1).count(), 10);  // 10 * 2^0
  EXPECT_EQ(recovery_backoff(opts, 2).count(), 20);
  EXPECT_EQ(recovery_backoff(opts, 3).count(), 40);
  EXPECT_EQ(recovery_backoff(opts, 4).count(), 50);  // capped
}

TEST(RecoveryBackoff, JitterIsDeterministicAndBounded) {
  RecoveryOptions opts;
  opts.backoff_initial = std::chrono::milliseconds(100);
  opts.jitter = 0.5;
  opts.jitter_seed = 99;
  const auto a = recovery_backoff(opts, 3);
  const auto b = recovery_backoff(opts, 3);
  EXPECT_EQ(a.count(), b.count());  // same seed ⇒ same delay
  EXPECT_GE(a.count(), 200);        // 400 * (1 - 0.5)
  EXPECT_LE(a.count(), 600);        // 400 * (1 + 0.5)
  opts.jitter_seed = 100;
  const auto c = recovery_backoff(opts, 3);
  EXPECT_NE(a.count(), c.count());  // different seed ⇒ different jitter
}

// --- Degraded-mode prober ladder logic -----------------------------------

TEST(ProbeDegraded, ReportsBestRateWithinBoundAndStopsAfterTwoMisses) {
  // Synthetic runner: p99 grows with rate; shed ratio reported honestly.
  std::vector<double> probed;
  harness::RateRunner runner = [&](double rate) {
    probed.push_back(rate);
    harness::RunResult r;
    r.offered_per_s = rate;
    r.achieved_per_s = rate;
    r.latency.count = 100;
    r.latency.p99_ms = rate / 1000.0;  // bound of 3 ⇒ ok through 3000
    r.shed_ratio = rate > 2000 ? 0.25 : 0.0;
    return r;
  };
  const auto res = harness::probe_degraded(
      runner, {1000, 2000, 3000, 4000, 5000, 6000, 7000}, 3.0);
  EXPECT_DOUBLE_EQ(res.max_rate_within_bound, 3000);
  EXPECT_DOUBLE_EQ(res.best.shed_ratio, 0.25);
  // Stops after two consecutive out-of-bound rates: 4000, 5000 probed,
  // 6000+ not.
  ASSERT_EQ(probed.size(), 5u);
  EXPECT_DOUBLE_EQ(probed.back(), 5000);
  EXPECT_EQ(res.ladder.size(), 5u);
  EXPECT_TRUE(res.ladder[2].within_bound);
  EXPECT_FALSE(res.ladder[3].within_bound);
}

TEST(ProbeDegraded, EmptyWhenNothingWithinBound) {
  harness::RateRunner runner = [](double) {
    harness::RunResult r;
    r.latency.count = 10;
    r.latency.p99_ms = 1e9;
    return r;
  };
  const auto res = harness::probe_degraded(runner, {100, 200, 300}, 1.0);
  EXPECT_DOUBLE_EQ(res.max_rate_within_bound, 0);
  EXPECT_EQ(res.ladder.size(), 2u);  // stopped after two misses
}

// --- Per-key shed accounting ---------------------------------------------

TEST(ShedAccounting, PerKeyCountsSumToTotalAndOmitUnshedKeys) {
  Shedder s({.policy = ShedPolicy::kRandomP, .p_overloaded = 0.5, .seed = 5});
  // Skewed traffic: key 0 hot, keys 1..9 cold; healthy traffic on key 42
  // must never appear in the map.
  for (int i = 0; i < 2000; ++i) {
    s.admit(FlowHealth::kOverloaded, static_cast<std::uint64_t>(i % 10 == 0
                                                                    ? 0
                                                                    : i % 10),
            i);
    s.admit(FlowHealth::kHealthy, 42, i);
  }
  std::uint64_t sum = 0;
  for (const auto& [key, n] : s.shed_by_key()) {
    EXPECT_NE(key, 42u);
    EXPECT_GT(n, 0u);
    sum += n;
  }
  EXPECT_EQ(sum, s.shed());
  EXPECT_GT(s.shed(), 0u);
}

TEST(ShedAccounting, RankIsDeterministicWithTieBreakAndTruncation) {
  const std::unordered_map<std::uint64_t, std::uint64_t> m = {
      {7, 30}, {3, 30}, {9, 100}, {1, 5}, {4, 1}};
  const auto top = Shedder::rank_shed_keys(m, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (std::pair<std::uint64_t, std::uint64_t>{9, 100}));
  // Equal counts rank by key hash ascending — stable across runs.
  EXPECT_EQ(top[1], (std::pair<std::uint64_t, std::uint64_t>{3, 30}));
  EXPECT_EQ(top[2], (std::pair<std::uint64_t, std::uint64_t>{7, 30}));
  // k beyond the population returns everything, no padding.
  EXPECT_EQ(Shedder::rank_shed_keys(m, 99).size(), 5u);
  EXPECT_TRUE(Shedder::rank_shed_keys({}, 4).empty());
}

TEST(ShedAccounting, PerKeyFairShedsWholeKeysVisibleInAccounting) {
  // kPerKeyFair's promise is all-or-nothing per key within an epoch; the
  // per-key map makes that auditable: a shed key's count equals its
  // arrivals, an admitted key is absent.
  Shedder s({.policy = ShedPolicy::kPerKeyFair,
             .p_overloaded = 0.5,
             .seed = 3,
             .fair_epoch = 1000});
  constexpr int kPerKey = 37;
  for (std::uint64_t key = 0; key < 64; ++key) {
    for (int i = 0; i < kPerKey; ++i) {
      s.admit(FlowHealth::kOverloaded, splitmix64(key), i % 1000);
    }
  }
  EXPECT_FALSE(s.shed_by_key().empty());
  for (const auto& [key, n] : s.shed_by_key()) {
    EXPECT_EQ(n, static_cast<std::uint64_t>(kPerKey)) << key;
  }
  const auto top = s.top_shed_keys(harness::kShedTopK);
  EXPECT_EQ(top.size(), std::min<std::size_t>(harness::kShedTopK,
                                              s.shed_by_key().size()));
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

TEST(ShedAccounting, SourceGatedShedderPopulatesTopKeys) {
  // End-to-end through the admission hook: a pinned-overloaded
  // source-gated shedder accumulates the per-key map the harness copies
  // into RunResult::shed_top_keys (run_fm_t / run_join_t).
  OverloadMonitor m;
  m.observe({{100, 100, 0, 100}}, 0, kMinTimestamp);  // pinned overloaded
  Shedder shed({.policy = ShedPolicy::kRandomP, .p_overloaded = 1.0}, &m);

  RateSourceConfig cfg{.rate = 2000, .duration_s = 0.05, .wm_period = 10};
  ThreadedFlow flow;
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i % 5);
  });
  src.set_shedder(&shed);
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();

  ASSERT_GT(shed.shed(), 0u);
  const auto top = shed.top_shed_keys(harness::kShedTopK);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), harness::kShedTopK);
  std::uint64_t sum = 0;
  for (const auto& [key, n] : shed.shed_by_key()) sum += n;
  EXPECT_EQ(sum, shed.shed());
}

TEST(LateProbe, StampsConfiguredQueryOnSampledEvents) {
  LateProbe probe;
  probe.set_query(7);
  std::vector<LateEvent> seen;
  probe.set([&](const LateEvent& e) { seen.push_back(e); }, /*every=*/1);
  probe({.instance = 10, .tuple_ts = 3, .watermark = 20, .dropped = true});
  probe({.instance = 14, .tuple_ts = 9, .watermark = 20, .dropped = false});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].query, 7);
  EXPECT_EQ(seen[1].query, 7);
  EXPECT_TRUE(seen[0].dropped);
  EXPECT_FALSE(seen[1].dropped);
  EXPECT_EQ(probe.observed(), 2u);
}

}  // namespace
}  // namespace aggspes
