// End-to-end checks of the micro-batched channel path (DESIGN.md § 16):
// a ThreadedFlow with batching on (blocks of kElementBlockCapacity) must
// be output-identical to the same flow with batch_block = 1 (per-element,
// the pre-batch runtime) through block-aware operators (Map, Filter, and
// A / A+ / A++ over every window machine), across watermarks, checkpoint
// markers and barrier alignment — a tuple run never spans a control
// element — and channels with armed fault injectors must silently fall
// back to per-element delivery. Also the § 10 rider: shedding at the
// Embed operator keeps exact shed accounting (every emitted tuple is
// admitted-or-shed exactly once at the machine).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/monoid_machine.hpp"
#include "harness/sustainable.hpp"
#include "machine_matrix.hpp"

namespace aggspes {
namespace {

using MonoidSumOp =
    AggregateOp<int, int, int, swa::MonoidWindowMachine<int, int, int>>;

/// n tuples with a watermark every `wm_every` and optional checkpoint
/// markers at the given tuple indices.
std::vector<Element<int>> script_with(int n, int wm_every,
                                      std::vector<int> markers_at = {}) {
  std::vector<Element<int>> s;
  std::uint64_t next_marker = 1;
  std::size_t mi = 0;
  for (int i = 0; i < n; ++i) {
    s.push_back(Tuple<int>{Timestamp(i / 3), 0, i});
    if ((i + 1) % wm_every == 0) {
      s.push_back(Watermark{Timestamp(i / 3)});
    }
    if (mi < markers_at.size() && markers_at[mi] == i) {
      s.push_back(CheckpointMarker{next_marker++});
      ++mi;
    }
  }
  s.push_back(Watermark{Timestamp(n)});
  s.push_back(EndOfStream{});
  return s;
}

struct PipeOut {
  std::multiset<std::pair<Timestamp, int>> tuples;
  std::vector<Timestamp> watermarks;
  std::uint64_t barriers{0};
  std::uint64_t agg_dropped{0};
  std::uint64_t agg_fired{0};
};

/// src → Map(*3) → Filter(even) → monoid sum Aggregate → sink, at the
/// given channel batch size.
PipeOut run_pipeline(const std::vector<Element<int>>& script,
                     std::size_t batch_block) {
  ThreadedFlow flow;
  flow.set_batch_block(batch_block);
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& map = flow.add<MapOp<int, int>>([](const int& v) { return v * 3; });
  auto& filt =
      flow.add<FilterOp<int>>([](const int& v) { return v % 2 == 0; });
  auto& agg = flow.add<MonoidSumOp>(
      WindowSpec{.advance = 5, .size = 10, .lateness = 3},
      [](const int& v) { return v % 4; }, swa::sum_monoid<int>(),
      [](const int&, const swa::WindowAggregate<int>& wa)
          -> std::optional<int> { return wa.agg; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), map, map.in());
  flow.connect(map, map.out(), filt, filt.in());
  flow.connect(filt, filt.out(), agg, agg.in());
  flow.connect(agg, agg.out(), sink, sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);
  return {sink.multiset(), sink.watermarks(), agg.completed_barriers(),
          agg.machine().dropped_late(), agg.machine().fired_instances()};
}

TEST(ChannelBlock, BatchedPipelineMatchesPerElement) {
  const auto script = script_with(30000, 50);
  PipeOut scalar = run_pipeline(script, 1);
  PipeOut batched = run_pipeline(script, kElementBlockCapacity);
  ASSERT_GT(scalar.tuples.size(), 0u);
  EXPECT_EQ(batched.tuples, scalar.tuples);
  EXPECT_EQ(batched.watermarks, scalar.watermarks);
  EXPECT_EQ(batched.agg_dropped, scalar.agg_dropped);
  EXPECT_EQ(batched.agg_fired, scalar.agg_fired);
}

/// src → the op `add` builds → sink on the threaded runtime at the given
/// batch size.
template <typename AddOp>
PipeOut run_op(const std::vector<Element<int>>& script,
               std::size_t batch_block, AddOp add) {
  ThreadedFlow flow;
  flow.set_batch_block(batch_block);
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = add(flow);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), agg, agg.in());
  flow.connect(agg, agg.out(), sink, sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  return {sink.multiset(), sink.watermarks(), agg.completed_barriers(),
          agg.machine().dropped_late(), agg.machine().fired_instances()};
}

template <typename AddOp>
void expect_block_path_matches(const std::vector<Element<int>>& script,
                               const std::string& what, AddOp add) {
  const PipeOut scalar = run_op(script, 1, add);
  const PipeOut batched = run_op(script, kElementBlockCapacity, add);
  ASSERT_GT(scalar.tuples.size(), 0u) << what;
  EXPECT_EQ(batched.tuples, scalar.tuples) << what;
  EXPECT_EQ(batched.watermarks, scalar.watermarks) << what;
  EXPECT_EQ(batched.agg_dropped, scalar.agg_dropped) << what;
  EXPECT_EQ(batched.agg_fired, scalar.agg_fired) << what;
}

// The one block path A, A+ and A++ share: batched add_block where the
// machine has it (A++'s eager hook keeps it per tuple), a per-tuple loop
// otherwise — outputs and counters equal to per-element delivery.
TEST(ChannelBlock, EveryAggregateOverEveryMachineMatchesPerElement) {
  const auto script = script_with(6000, 50);
  const WindowSpec spec{.advance = 5, .size = 10, .lateness = 3};
  const auto key = [](const int& v) { return v % 4; };
  machine_matrix::for_each_machine<int>([&]<typename M>(const char* name) {
    const std::string at(name);
    expect_block_path_matches(script, at + " A", [&](auto& f) -> auto& {
      return machine_matrix::add_sum<int, M>(f, spec, key);
    });
    expect_block_path_matches(script, at + " A+", [&](auto& f) -> auto& {
      return machine_matrix::add_sum_count<int, M>(f, spec, key);
    });
    expect_block_path_matches(script, at + " A++", [&](auto& f) -> auto& {
      return machine_matrix::add_eager<int, M>(f, spec, key);
    });
  });
}

TEST(ChannelBlock, OddBatchSizesMatchToo) {
  // Block sizes that don't divide the queue capacity exercise partial
  // push_n/pop_n progress and wrap-around on every refill.
  const auto script = script_with(8000, 33);
  PipeOut scalar = run_pipeline(script, 1);
  for (std::size_t b : {2u, 7u, 65u, 1000u}) {
    PipeOut batched = run_pipeline(script, b);
    EXPECT_EQ(batched.tuples, scalar.tuples) << "batch_block " << b;
    EXPECT_EQ(batched.watermarks, scalar.watermarks) << "batch_block " << b;
  }
}

TEST(ChannelBlock, MarkersNeverRideInsideABlock) {
  // Checkpoint markers interleaved with the tuple stream: every operator
  // completes every barrier (the marker always travels the per-element
  // path, splitting any tuple run around it), and outputs stay identical.
  const auto script = script_with(12000, 40, {100, 5000, 11999});
  PipeOut scalar = run_pipeline(script, 1);
  PipeOut batched = run_pipeline(script, kElementBlockCapacity);
  EXPECT_EQ(scalar.barriers, 3u);
  EXPECT_EQ(batched.barriers, 3u);
  EXPECT_EQ(batched.tuples, scalar.tuples);
  EXPECT_EQ(batched.watermarks, scalar.watermarks);
}

TEST(ChannelBlock, BarrierAlignmentHoldsMidBlock) {
  // Two sources into one 2-port Aggregate. Source A's marker arrives with
  // thousands of its tuples still staged in the consumer-side scratch; the
  // channel must hold the post-marker remainder until B's marker aligns
  // the barrier. Batched and per-element runs must agree on outputs and
  // complete exactly one barrier (a hold bug deadlocks → watchdog trips).
  auto make_script = [](int n, int marker_at, std::uint64_t id) {
    std::vector<Element<int>> s;
    for (int i = 0; i < n; ++i) {
      s.push_back(Tuple<int>{Timestamp(i / 2), 0, i});
      if (i == marker_at) s.push_back(CheckpointMarker{id});
      if ((i + 1) % 64 == 0) s.push_back(Watermark{Timestamp(i / 2)});
    }
    s.push_back(Watermark{Timestamp(n)});
    s.push_back(EndOfStream{});
    return s;
  };
  const auto sa = make_script(6000, 700, 1);
  const auto sb = make_script(6000, 5200, 1);

  auto run = [&](std::size_t batch_block) {
    ThreadedFlow flow;
    flow.set_batch_block(batch_block);
    auto& a = flow.add<ScriptSource<int>>(sa);
    auto& b = flow.add<ScriptSource<int>>(sb);
    auto& agg = flow.add<AggregateOp<int, int, int>>(
        WindowSpec{.advance = 8, .size = 8, .lateness = 0},
        [](const int& v) { return v % 2; },
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
    flow.run();
    EXPECT_EQ(agg.completed_barriers(), 1u);
    return sink.multiset();
  };
  const auto scalar = run(1);
  const auto batched = run(kElementBlockCapacity);
  ASSERT_GT(scalar.size(), 0u);
  EXPECT_EQ(batched, scalar);
}

TEST(ChannelBlock, FaultArmedChannelsFallBackToPerElementDelivery) {
  // An installed injector makes fault accounting per-delivery, so armed
  // channels must bypass the block path entirely — and still match the
  // unarmed run element-for-element (the scheduled fault is a benign
  // 1 ms delay).
  const auto script = script_with(5000, 50);
  PipeOut clean = run_pipeline(script, kElementBlockCapacity);

  ThreadedFlow flow;
  flow.set_batch_block(kElementBlockCapacity);
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& map = flow.add<MapOp<int, int>>([](const int& v) { return v * 3; });
  auto& filt =
      flow.add<FilterOp<int>>([](const int& v) { return v % 2 == 0; });
  auto& agg = flow.add<MonoidSumOp>(
      WindowSpec{.advance = 5, .size = 10, .lateness = 3},
      [](const int& v) { return v % 4; }, swa::sum_monoid<int>(),
      [](const int&, const swa::WindowAggregate<int>& wa)
          -> std::optional<int> { return wa.agg; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), map, map.in());
  flow.connect(map, map.out(), filt, filt.in());
  flow.connect(filt, filt.out(), agg, agg.in());
  flow.connect(agg, agg.out(), sink, sink.in());

  FaultInjector faults(0);
  faults.add_event({.kind = FaultKind::kDelay,
                    .attempt = 0,
                    .edge = 1,
                    .at_delivery = 100,
                    .param_ms = 1});
  flow.install_faults(faults);
  faults.begin_attempt(0);
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.multiset(), clean.tuples);
  EXPECT_EQ(sink.watermarks(), clean.watermarks);
}

// --- § 10 rider: shed at the Embed operator ---------------------------

TEST(ChannelBlock, EmbedShedAccountingIsExactUnderBatching) {
  // Shedder gating the Embed machine's add(): every tuple the source
  // emits is admitted-or-shed exactly once there, on the block path as on
  // the scalar one — shed() + admitted() must equal the script's tuple
  // count exactly, and the same seeded decision stream gives identical
  // outputs at any batch size.
  // timed_script keeps the watermark cadence C1-consistent and flushes in
  // `period` steps at the end (the unfold loop drains one watermark round
  // at a time — a single giant final jump would strand it).
  const int n = 20000;
  std::vector<Tuple<int>> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(Tuple<int>{Timestamp(i / 4), 0, i % 13});
  }
  const auto script = timed_script(tuples, /*period=*/8, /*flush_to=*/5100);

  OverloadMonitor monitor(OverloadThresholds{.pressured_occupancy = 0.0,
                                             .overloaded_occupancy = 2.0});
  monitor.observe({}, 0, kMinTimestamp);  // pinned kPressured

  auto run = [&](std::size_t batch_block, std::uint64_t* shed,
                 std::uint64_t* admitted) {
    ThreadedFlow flow;
    flow.set_batch_block(batch_block);
    Shedder shedder({.policy = ShedPolicy::kRandomP,
                     .p_pressured = 0.3,
                     .seed = 99},
                    &monitor);
    auto& src = flow.add<ScriptSource<int>>(script);
    AggBasedFlatMap<int, int> op(
        flow,
        [](const int& v) { return std::vector<int>(v % 3, v); },
        /*lateness=*/10);
    op.embed().machine().set_shedder(&shedder);
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src, src.out(), op.in_node(), op.in());
    flow.connect(op.out_node(), op.out(), sink, sink.in());
    flow.run();
    *shed = shedder.shed();
    *admitted = shedder.admitted();
    return sink.multiset();
  };

  std::uint64_t shed1 = 0, adm1 = 0, shedB = 0, admB = 0;
  const auto scalar = run(1, &shed1, &adm1);
  const auto batched = run(kElementBlockCapacity, &shedB, &admB);
  EXPECT_EQ(shed1 + adm1, static_cast<std::uint64_t>(n));
  EXPECT_EQ(shedB + admB, static_cast<std::uint64_t>(n));
  EXPECT_EQ(shedB, shed1);  // same seeded stream, one admit per tuple
  EXPECT_GT(shed1, 0u);
  EXPECT_EQ(batched, scalar);
}

TEST(ChannelBlock, HarnessShedAtEmbedReportsExactCounts) {
  // The RunConfig::shed_at_embed knob end-to-end: thresholds that classify
  // any sample as overloaded plus p_overloaded = 1.0 shed (nearly) every
  // tuple at the Embed machine — the monitor starts kHealthy until the
  // watchdog's first sample, so a short healthy prefix may slip through —
  // and the run still completes with exact attribution in RunResult.
  harness::RunConfig cfg;
  cfg.rate = 20000;
  cfg.duration_s = 0.3;
  cfg.warmup_s = 0.05;
  cfg.cooldown_s = 0.02;
  cfg.shed = {.policy = ShedPolicy::kRandomP, .p_overloaded = 1.0};
  cfg.overload = {.pressured_occupancy = -1.0, .overloaded_occupancy = -1.0};
  cfg.shed_at_embed = true;
  harness::RunResult r = harness::run_fm_t<int, int, WindowMachine>(
      harness::Impl::kAggBased, cfg,
      [](std::uint64_t i) { return static_cast<int>(i % 7); },
      [](const int& v) { return std::vector<int>{v}; });
  EXPECT_GT(r.shed_count, 0u);
  EXPECT_GT(r.shed_ratio, 0.5);
  EXPECT_LE(r.shed_ratio, 1.0);
  EXPECT_EQ(r.health, "overloaded");
}

}  // namespace
}  // namespace aggspes
