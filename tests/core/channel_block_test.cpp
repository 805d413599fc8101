// End-to-end checks of the micro-batched channel path (DESIGN.md § 16):
// a ThreadedFlow, which drains its channels in blocks of up to
// kElementBlockCapacity elements, must be output-identical to the
// deterministic Flow, which delivers per element, through block-aware
// operators (Map, Filter, and A / A+ / A++ over every window machine),
// across watermarks, checkpoint markers and barrier alignment — a tuple
// run never spans a control element — and channels with armed fault
// injectors must silently fall back to per-element delivery.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/monoid_machine.hpp"
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

/// src → Map(*3) → Filter(even) → monoid sum Aggregate → sink, on the
/// given runtime.
template <typename FlowT>
PipeOut run_pipeline(const std::vector<Element<int>>& script) {
  FlowT flow;
  auto& src = flow.template add<ScriptSource<int>>(script);
  auto& map = flow.template add<MapOp<int, int>>(
      [](const int& v) { return v * 3; });
  auto& filt = flow.template add<FilterOp<int>>(
      [](const int& v) { return v % 2 == 0; });
  auto& agg = flow.template add<MonoidSumOp>(
      WindowSpec{.advance = 5, .size = 10, .lateness = 3},
      [](const int& v) { return v % 4; }, swa::sum_monoid<int>(),
      [](const int&, const swa::WindowAggregate<int>& wa)
          -> std::optional<int> { return wa.agg; });
  auto& sink = flow.template add<CollectorSink<int>>();
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
  PipeOut scalar = run_pipeline<Flow>(script);
  PipeOut batched = run_pipeline<ThreadedFlow>(script);
  ASSERT_GT(scalar.tuples.size(), 0u);
  EXPECT_EQ(batched.tuples, scalar.tuples);
  EXPECT_EQ(batched.watermarks, scalar.watermarks);
  EXPECT_EQ(batched.agg_dropped, scalar.agg_dropped);
  EXPECT_EQ(batched.agg_fired, scalar.agg_fired);
}

/// src → the op `add` builds → sink on the given runtime.
template <typename FlowT, typename AddOp>
PipeOut run_op(const std::vector<Element<int>>& script, AddOp add) {
  FlowT flow;
  auto& src = flow.template add<ScriptSource<int>>(script);
  auto& agg = add(flow);
  auto& sink = flow.template add<CollectorSink<int>>();
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
  const PipeOut scalar = run_op<Flow>(script, add);
  const PipeOut batched = run_op<ThreadedFlow>(script, add);
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

TEST(ChannelBlock, MarkersNeverRideInsideABlock) {
  // Checkpoint markers interleaved with the tuple stream: every operator
  // completes every barrier (the marker always travels the per-element
  // path, splitting any tuple run around it), and outputs stay identical.
  const auto script = script_with(12000, 40, {100, 5000, 11999});
  PipeOut scalar = run_pipeline<Flow>(script);
  PipeOut batched = run_pipeline<ThreadedFlow>(script);
  EXPECT_EQ(scalar.barriers, 3u);
  EXPECT_EQ(batched.barriers, 3u);
  EXPECT_EQ(batched.tuples, scalar.tuples);
  EXPECT_EQ(batched.watermarks, scalar.watermarks);
}

TEST(ChannelBlock, BarrierAlignmentHoldsMidBlock) {
  // Two sources into one 2-port Aggregate. Source A's marker arrives with
  // thousands of its tuples still staged in the consumer-side scratch; the
  // channel must hold the post-marker remainder until B's marker aligns
  // the barrier. The batched run must agree with the per-element Flow on
  // outputs and complete exactly one barrier (a hold bug deadlocks → the
  // watchdog trips). No tuple is late on its own port, so outputs do not
  // depend on how the two inputs interleave.
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

  auto run = [&](auto& flow) {
    auto& a = flow.template add<ScriptSource<int>>(sa);
    auto& b = flow.template add<ScriptSource<int>>(sb);
    auto& agg = flow.template add<AggregateOp<int, int, int>>(
        WindowSpec{.advance = 8, .size = 8, .lateness = 0},
        [](const int& v) { return v % 2; },
        [](const WindowView<int, int>& w) -> std::optional<int> {
          int s = 0;
          for (const auto& t : w.items) s += t.value;
          return s;
        },
        /*regular_inputs=*/2);
    auto& sink = flow.template add<CollectorSink<int>>();
    flow.connect(a, a.out(), agg, agg.in(0));
    flow.connect(b, b.out(), agg, agg.in(1));
    flow.connect(agg, agg.out(), sink, sink.in());
    flow.run();
    EXPECT_EQ(agg.completed_barriers(), 1u);
    return sink.multiset();
  };
  Flow per_element;
  ThreadedFlow blocked;
  const auto scalar = run(per_element);
  const auto batched = run(blocked);
  ASSERT_GT(scalar.size(), 0u);
  EXPECT_EQ(batched, scalar);
}

TEST(ChannelBlock, FaultArmedChannelsFallBackToPerElementDelivery) {
  // An installed injector makes fault accounting per-delivery, so armed
  // channels must bypass the block path entirely — and still match the
  // unarmed run element-for-element (the scheduled fault is a benign
  // 1 ms delay).
  const auto script = script_with(5000, 50);
  PipeOut clean = run_pipeline<ThreadedFlow>(script);

  ThreadedFlow flow;
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

}  // namespace
}  // namespace aggspes
