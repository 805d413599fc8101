// Tests for the physical runtime: SPSC queues, the executor (one thread
// per node group, loop channels included), and the rate source / measuring
// sink instrumentation.
#include "core/runtime/threaded_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/measuring_sink.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/runtime/spsc_queue.hpp"

namespace aggspes {
namespace {

TEST(SpscQueue, PushPopSingleThread) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  int v = 0;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.try_pop(v));
}

TEST(SpscQueue, FullQueueRejectsPush) {
  SpscQueue<int> q(2);  // capacity rounds to 2
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  int v;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(3));
}

TEST(SpscQueue, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(SpscQueue, FailedTryPushLeavesValueIntact) {
  // Regression test: a failed try_push must not consume (move from) the
  // value — blocking push retries the same object until space frees up.
  SpscQueue<std::vector<int>> q(2);
  ASSERT_TRUE(q.try_push(std::vector<int>{1}));
  ASSERT_TRUE(q.try_push(std::vector<int>{2}));
  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(q.try_push(std::move(v)));
  EXPECT_EQ(v.size(), 3u);  // untouched by the failed attempt
  std::vector<int> out;
  ASSERT_TRUE(q.try_pop(out));
  ASSERT_TRUE(q.try_push(std::move(v)));
  ASSERT_TRUE(q.try_pop(out));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5}));
}

TEST(SpscQueue, BlockingPushUnderBackpressureNeverCorrupts) {
  // Move-aware payloads crossing a tiny (constantly full) queue must
  // arrive intact — the bug class that only shows up under backpressure.
  SpscQueue<std::vector<int>> q(2);
  constexpr int kN = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(std::vector<int>{i, i + 1});
  });
  int received = 0;
  int corrupted = 0;
  while (received < kN) {
    std::vector<int> v;
    if (q.try_pop(v)) {
      if (v.size() != 2 || v[0] != received || v[1] != received + 1) {
        ++corrupted;
      }
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(corrupted, 0);
}

TEST(SpscQueue, TwoThreadStressPreservesSequence) {
  SpscQueue<int> q(64);
  constexpr int kN = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.push(int(i));
  });
  long long sum = 0;
  int expected_next = 0;
  bool in_order = true;
  for (int received = 0; received < kN;) {
    int v;
    if (q.try_pop(v)) {
      in_order &= (v == expected_next++);
      sum += v;
      ++received;
    }
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN - 1) / 2);
}

std::vector<Element<int>> ints_script(int n) {
  std::vector<Element<int>> s;
  for (int i = 0; i < n; ++i) s.push_back(Tuple<int>{Timestamp(i), 0, i});
  s.push_back(Watermark{Timestamp(n)});
  s.push_back(EndOfStream{});
  return s;
}

TEST(ThreadedFlow, LinearPipelineDeliversEverything) {
  ThreadedFlow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script(1000));
  auto& fm = flow.add<FlatMapOp<int, int>>(
      [](const int& v) { return std::vector<int>{v, v}; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), fm, fm.in());
  flow.connect(fm, fm.out(), sink, sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 2000u);
  EXPECT_TRUE(sink.ended());
}

TEST(ThreadedFlow, BackpressureOnTinyChannels) {
  ThreadedFlow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script(5000));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), sink, sink.in(), EdgeKind::kNormal,
               /*capacity=*/4);
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 5000u);
}

TEST(ThreadedFlow, AggBasedFlatMapWithLoopMatchesDedicated) {
  // The full X loop (Listings 3-5) under the threaded runtime must produce
  // the same outputs as the dedicated FM.
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 200; ++ts) in.push_back({ts, 0, int(ts % 17)});
  auto fm = [](const int& v) {
    std::vector<int> outs;
    for (int i = 0; i < v % 4; ++i) outs.push_back(v * 10 + i);
    return outs;
  };

  // Dedicated, single-threaded reference.
  Flow ref;
  auto& rsrc = ref.add<TimedSource<int>>(in, 5, 230);
  auto& rop = ref.add<FlatMapOp<int, int>>(fm);
  auto& rsink = ref.add<CollectorSink<int>>();
  ref.connect(rsrc.out(), rop.in());
  ref.connect(rop.out(), rsink.in());
  ref.run();

  // AggBased, threaded.
  ThreadedFlow flow;
  auto& src = flow.add<TimedSource<int>>(in, 5, 230);
  AggBasedFlatMap<int, int> op(flow, fm, /*lateness=*/5);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), op.in_node(), op.in());
  flow.connect(op.out_node(), op.out(), sink, sink.in());
  flow.run();

  EXPECT_EQ(sink.multiset(), rsink.multiset());
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_TRUE(sink.ended());
}

TEST(RateSource, EmitsTargetCountAndC1Watermarks) {
  ThreadedFlow flow;
  RateSourceConfig cfg{.rate = 20000,
                       .duration_s = 0.1,
                       .ticks_per_s = 1000,
                       .wm_period = 10,
                       .flush_horizon = 100,
                       // Disable the overload cutoff: on a contended CI
                       // host the generator may fall behind wall clock,
                       // but this test asserts the exact tuple count.
                       .overrun_factor = 1000.0};
  auto& src = flow.add<RateSource<int>>(cfg, [](std::uint64_t i) {
    return static_cast<int>(i);
  });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 2000u);
  EXPECT_EQ(src.emitted(), 2000u);
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.watermark_regressions(), 0);
  // C1: consecutive watermarks at most wm_period apart.
  const auto& wms = sink.watermarks();
  ASSERT_GE(wms.size(), 2u);
  for (std::size_t i = 1; i < wms.size(); ++i) {
    EXPECT_LE(wms[i] - wms[i - 1], 10);
  }
  EXPECT_GE(wms.back(), 200);  // flushed past the end
}

TEST(MeasuringSink, RecordsLatencyAgainstStamp) {
  ThreadedFlow flow;
  const std::uint64_t t0 = now_ns();
  auto& src = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{0, t0, 1}, Tuple<int>{1, t0, 2}, EndOfStream{}});
  auto& sink = flow.add<MeasuringSink<int>>();
  flow.connect(src, src.out(), sink, sink.in());
  flow.run();
  EXPECT_EQ(sink.count(), 2u);
  auto s = sink.summarize(0, ~0ull);
  EXPECT_EQ(s.count, 2u);
  EXPECT_GT(s.max_ms, 0.0);
}

// --- node groups -----------------------------------------------------------
//
// The Unfold (C2, A1, C3, A2) is one node group. Unsharded, the AggBased
// FlatMap below has nodes source 0, Embed 1, C2 2, A1 3, C3 4, A2 5,
// sink 6, and edges C2→A1 0, A1→C3 1, C3→A2 2, C3→C2 (loop) 3, Embed→C2 4,
// source→Embed 5, A2→sink 6.

constexpr Timestamp kGroupPeriod = 5;
constexpr std::size_t kC2ToA1 = 0;
constexpr std::size_t kA1ToC3 = 1;

std::vector<Tuple<int>> group_input() {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 300; ++ts) in.push_back({ts, 0, int(ts % 17)});
  return in;
}

FlatMapFn<int, int> group_fm() {
  return [](const int& v) {
    std::vector<int> outs;
    for (int i = 0; i < v % 4; ++i) outs.push_back(v * 10 + i);
    return outs;
  };
}

std::multiset<std::pair<Timestamp, int>> group_reference() {
  Flow ref;
  auto& src = ref.add<TimedSource<int>>(group_input(), kGroupPeriod, 330);
  auto& op = ref.add<FlatMapOp<int, int>>(group_fm());
  auto& sink = ref.add<CollectorSink<int>>();
  ref.connect(src.out(), op.in());
  ref.connect(op.out(), sink.in());
  ref.run();
  return sink.multiset();
}

/// source → AggBasedFlatMap → sink on `tf`; the source replays with a
/// checkpoint marker every 16 tuples.
CollectorSink<int>& build_grouped_fm(ThreadedFlow& tf) {
  auto& src = tf.add<ReplaySource<int>>(group_input(), kGroupPeriod, 330,
                                        /*marker_every=*/16);
  AggBasedFlatMap<int, int> op(tf, group_fm(), kGroupPeriod);
  auto& sink = tf.add<CollectorSink<int>>();
  tf.connect(src, src.out(), op.in_node(), op.in());
  tf.connect(op.out_node(), op.out(), sink, sink.in());
  return sink;
}

auto sharded_fm_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    AggBasedFlatMap<int, int> op(f, group_fm(), kGroupPeriod);
    ShardEndpoints<int, int> ep;
    ep.in_node = &op.in_node();
    ep.in = &op.in();
    ep.out_node = &op.out_node();
    ep.out = &op.out();
    return ep;
  };
}

/// source → ShardedFlow of `shards` AggBased FlatMaps → sink.
struct ShardedFm {
  explicit ShardedFm(ThreadedFlow& tf, int shards)
      : src(tf.add<TimedSource<int>>(group_input(), kGroupPeriod, 330)),
        sf(tf, shards, options(), sharded_fm_factory()),
        sink(tf.add<CollectorSink<int>>()) {
    tf.connect(src, src.out(), sf.in_node(), sf.in());
    tf.connect(sf.out_node(), sf.out(), sink, sink.in());
  }
  static ShardedFlow<int, int, int>::Options options() {
    ShardedFlow<int, int, int>::Options o;
    o.key_fn = [](const int& v) { return v; };
    return o;
  }
  TimedSource<int>& src;
  ShardedFlow<int, int, int> sf;
  CollectorSink<int>& sink;
};

TEST(NodeGroups, ShardedAggBasedFlatMapRunsOneThreadPerGroup) {
  ThreadedFlow tf;
  ShardedFm fm(tf, 4);
  // source, splitter, 4 × (Embed + C2, A1, C3, A2), union, sink.
  EXPECT_EQ(tf.node_count(), 24u);
  EXPECT_EQ(tf.edge_count(), 30u);
  // source, splitter, 4 × (Embed + the Unfold group), union, sink.
  EXPECT_EQ(tf.thread_count(), 12u);
  tf.run();
  EXPECT_TRUE(fm.sink.ended());
  EXPECT_EQ(fm.sink.late_tuples(), 0);
  EXPECT_EQ(fm.sink.multiset(), group_reference());
}

TEST(NodeGroups, CrashOnGroupedInputEdgeNamesThatNode) {
  ThreadedFlow tf;
  CollectorSink<int>& sink = build_grouped_fm(tf);
  ASSERT_EQ(tf.thread_count(), 4u);  // source, Embed, Unfold, sink
  FaultInjector faults(0);
  faults.add_event({FaultKind::kCrash, 0, kA1ToC3, 3, 0});
  tf.install_faults(faults);
  try {
    tf.run();
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    // C3, not the group's first node (C2, index 2).
    EXPECT_EQ(e.node_index(), 4u);
    EXPECT_NE(e.node_name().find("C3Guard"), std::string::npos)
        << e.node_name();
  }
  // Every member ended its outputs, so the sink behind the group drained.
  EXPECT_TRUE(sink.ended());
}

TEST(NodeGroups, GroupedUnfoldCheckpointsOneRecordPerNode) {
  CheckpointStore store;
  std::uint64_t id = 0;
  {
    ThreadedFlow tf;
    build_grouped_fm(tf);
    tf.enable_checkpoints(store);
    tf.run();
    const std::optional<std::uint64_t> latest = store.latest_complete();
    ASSERT_TRUE(latest.has_value());
    id = *latest;
    for (std::size_t i = 0; i < tf.node_count(); ++i) {
      EXPECT_TRUE(store.find(i, id).has_value()) << "node " << i;
    }
  }
  // A fresh flow restores every node from its own record and finishes the
  // stream from the cut: the output is the reference, no more, no less.
  ThreadedFlow tf;
  CollectorSink<int>& sink = build_grouped_fm(tf);
  EXPECT_EQ(tf.restore_latest(store), id);
  tf.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.multiset(), group_reference());
}

TEST(NodeGroups, EveryLoopEdgeIsListedAndTakesArmedFaults) {
  std::vector<std::size_t> loops;
  {
    ThreadedFlow tf;
    ShardedFm fm(tf, 4);
    loops = tf.loop_edges();
  }
  ASSERT_EQ(loops.size(), 4u);
  std::set<std::size_t> failed;
  for (std::size_t edge : loops) {
    ThreadedFlow tf;
    ShardedFm fm(tf, 4);
    FaultInjector faults(0);
    faults.add_event({FaultKind::kCrash, 0, edge, 1, 0});
    tf.install_faults(faults);
    try {
      tf.run();
      ADD_FAILURE() << "loop edge " << edge << ": the crash never fired";
    } catch (const FlowError& e) {
      EXPECT_NE(e.node_name().find("C2Guard"), std::string::npos)
          << e.node_name();
      failed.insert(e.node_index());
    }
  }
  EXPECT_EQ(failed.size(), 4u);  // each loop ends at its own shard's C2
}

TEST(NodeGroups, SaturateOnGroupedEdgeDoesNotWaitOnItsOwnThread) {
  // Saturate parks a consumer until its queue fills, which inside a group
  // only the same thread could do: it must return at once, not after 20 s.
  ThreadedFlow tf;
  CollectorSink<int>& sink = build_grouped_fm(tf);
  FaultInjector faults(0);
  faults.add_event({FaultKind::kSaturate, 0, kC2ToA1, 1, 20'000});
  tf.install_faults(faults);
  const auto start = std::chrono::steady_clock::now();
  tf.run();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(sink.multiset(), group_reference());
}

TEST(NodeGroups, GroupingAConnectedNodeThrows) {
  ThreadedFlow tf;
  auto& src = tf.add<TimedSource<int>>(group_input(), kGroupPeriod, 330);
  auto& a = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  auto& b = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  tf.connect(src, src.out(), a, a.in());
  EXPECT_THROW(tf.group({&a, &b}), std::logic_error);
  EXPECT_EQ(tf.thread_count(), 3u);
}

TEST(NodeGroups, PathLeavingAndReenteringAGroupIsRejected) {
  // a → x → b with {a, b} grouped: a blocked on a full a → x would wait
  // for its own thread to drain x → b.
  ThreadedFlow tf;
  auto& src = tf.add<TimedSource<int>>(group_input(), kGroupPeriod, 330);
  auto& a = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  auto& x = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  auto& b = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  auto& sink = tf.add<CollectorSink<int>>();
  tf.group({&a, &b});
  tf.connect(src, src.out(), a, a.in());
  tf.connect(a, a.out(), x, x.in());
  tf.connect(x, x.out(), b, b.in());
  tf.connect(b, b.out(), sink, sink.in());
  EXPECT_THROW(tf.run(), std::logic_error);
}

/// Forwards its input, sleeping well past the watchdog timeout on the
/// first tuple.
class SleepyMap final : public UnaryNode<int, int> {
 public:
  SleepyMap() : UnaryNode<int, int>(1, 0) {}

 protected:
  void on_tuple(int, const Tuple<int>& t) override {
    if (!slept_) {
      slept_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    }
    this->out_.push_tuple(t);
  }

 private:
  bool slept_{false};
};

TEST(NodeGroups, WatchdogDiagnosticListsEveryGroupedNode) {
  ThreadedFlow tf;
  auto& src = tf.add<TimedSource<int>>(group_input(), kGroupPeriod, 330);
  auto& a = tf.add<MapOp<int, int>>([](const int& v) { return v; });
  auto& b = tf.add<SleepyMap>();
  auto& sink = tf.add<CollectorSink<int>>();
  tf.group({&a, &b});
  tf.connect(src, src.out(), a, a.in());
  tf.connect(a, a.out(), b, b.in());
  tf.connect(b, b.out(), sink, sink.in());
  ThreadedFlow::RunOptions opts;
  opts.watchdog_timeout = std::chrono::milliseconds(250);
  opts.watchdog_poll = std::chrono::milliseconds(25);
  try {
    tf.run(opts);
    FAIL() << "expected watchdog FlowError";
  } catch (const FlowError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[1] aggspes::MapOp"), std::string::npos) << what;
    EXPECT_NE(what.find("SleepyMap"), std::string::npos) << what;
    EXPECT_NE(what.find("group=1"), std::string::npos) << what;
    EXPECT_NE(what.find("[1] 1->2"), std::string::npos) << what;  // a → b
  }
}

}  // namespace
}  // namespace aggspes
