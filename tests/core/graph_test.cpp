// Tests for the dataflow graph plumbing and the deterministic Flow, which
// runs the group runner on the calling thread: P1 (typed union), P2
// (identical fan-out sequences), P3 (loops carry no watermarks), cycle
// handling, and how Flow fails (a node's error, a wedged graph).
#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

std::vector<Element<int>> ints_script(std::vector<int> values) {
  std::vector<Element<int>> s;
  Timestamp ts = 0;
  for (int v : values) s.push_back(Tuple<int>{ts++, 0, v});
  s.push_back(Watermark{ts});
  s.push_back(EndOfStream{});
  return s;
}

TEST(Flow, SourceToSinkDeliversAllElements) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({1, 2, 3}));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_EQ(sink.tuples()[0].value, 1);
  EXPECT_EQ(sink.tuples()[2].value, 3);
  EXPECT_EQ(sink.watermarks(), std::vector<Timestamp>{3});
  EXPECT_TRUE(sink.ended());
}

TEST(Flow, FanOutDeliversIdenticalSequences) {
  // P2: a stream feeding several operators delivers the same
  // tuples/watermarks in the same order to each.
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({5, 6, 7, 8}));
  auto& a = flow.add<CollectorSink<int>>();
  auto& b = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), a.in());
  flow.connect(src.out(), b.in());
  flow.run();
  ASSERT_EQ(a.tuples().size(), b.tuples().size());
  for (std::size_t i = 0; i < a.tuples().size(); ++i) {
    EXPECT_EQ(a.tuples()[i], b.tuples()[i]);
  }
  EXPECT_EQ(a.watermarks(), b.watermarks());
  EXPECT_TRUE(a.ended());
  EXPECT_TRUE(b.ended());
}

TEST(Flow, LoopChannelsCarryTuplesOnly) {
  // P3: watermarks (and end-of-stream) are not fed through loop edges.
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({1}));
  auto& normal = flow.add<CollectorSink<int>>();
  auto& looped = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), normal.in());
  flow.connect(src.out(), looped.in(), EdgeKind::kLoop);
  flow.run();
  EXPECT_EQ(normal.tuples().size(), 1u);
  EXPECT_EQ(looped.tuples().size(), 1u);
  EXPECT_EQ(normal.watermarks().size(), 1u);
  EXPECT_TRUE(looped.watermarks().empty());
  EXPECT_TRUE(normal.ended());
  EXPECT_FALSE(looped.ended());
}

TEST(Flow, UnionOfStreamsIntoOneConsumer) {
  // P1: physical streams sharing a type can feed the same operator. Two
  // sources connect to the same sink port; all tuples arrive.
  Flow flow;
  auto& s1 = flow.add<ScriptSource<int>>(ints_script({1, 2}));
  auto& s2 = flow.add<ScriptSource<int>>(ints_script({3, 4}));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(s1.out(), sink.in());
  flow.connect(s2.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 4u);
}

TEST(Flow, PerEdgeFifoOrderPreserved) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({1, 2, 3, 4, 5}));
  auto& filt = flow.add<FilterOp<int>>([](int v) { return v % 2 == 1; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), filt.in());
  flow.connect(filt.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_EQ(sink.tuples()[0].value, 1);
  EXPECT_EQ(sink.tuples()[1].value, 3);
  EXPECT_EQ(sink.tuples()[2].value, 5);
}

// A node that echoes every tuple it receives back into a feedback edge a
// bounded number of times; exercises cycle scheduling.
class BouncerNode final : public NodeBase {
 public:
  BouncerNode()
      : port_([this](const Element<int>& e) {
          if (const auto* t = std::get_if<Tuple<int>>(&e)) {
            if (t->value != 0) {
              // Positive values count down to zero; negative values bounce
              // forever (used to exercise livelock detection).
              const int next = t->value > 0 ? t->value - 1 : t->value;
              out_.push_tuple(Tuple<int>{t->ts, t->stamp, next});
            } else {
              done_.push_tuple(*t);
            }
          } else {
            out_.push(e);
            done_.push(e);
          }
        }) {}

  Consumer<int>& in() { return port_; }
  Outlet<int>& out() { return out_; }    // feedback
  Outlet<int>& done() { return done_; }  // terminal output

 private:
  Port<int> port_;
  Outlet<int> out_;
  Outlet<int> done_;
};

TEST(Flow, CyclicGraphQuiesces) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({3, 5}));
  auto& bouncer = flow.add<BouncerNode>();
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), bouncer.in());
  flow.connect(bouncer.out(), bouncer.in(), EdgeKind::kLoop);
  flow.connect(bouncer.done(), sink.in());
  flow.run();
  // Each value v loops v times, then lands in the sink as 0.
  ASSERT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].value, 0);
  EXPECT_EQ(sink.tuples()[1].value, 0);
  EXPECT_TRUE(sink.ended());
}

TEST(Flow, RunawayCycleIsDetected) {
  Flow flow;
  // A bouncer whose values never reach zero: -1 decrements forever.
  auto& src = flow.add<ScriptSource<int>>(
      std::vector<Element<int>>{Tuple<int>{0, 0, -1}});
  auto& bouncer = flow.add<BouncerNode>();
  flow.connect(src.out(), bouncer.in());
  flow.connect(bouncer.out(), bouncer.in(), EdgeKind::kLoop);
  EXPECT_THROW(flow.run(/*max_deliveries=*/1000), std::runtime_error);
}

TEST(Flow, MapChangesTypeAndPreservesTimestamps) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({7, 8}));
  auto& map = flow.add<MapOp<int, std::string>>(
      [](int v) { return std::to_string(v); });
  auto& sink = flow.add<CollectorSink<std::string>>();
  flow.connect(src.out(), map.in());
  flow.connect(map.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].value, "7");
  EXPECT_EQ(sink.tuples()[0].ts, 0);
  EXPECT_EQ(sink.tuples()[1].value, "8");
  EXPECT_EQ(sink.tuples()[1].ts, 1);
}

TEST(Flow, NodeFailureNamesTheNode) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({1, 2, 3}));
  auto& map = flow.add<MapOp<int, int>>([](int v) {
    if (v == 2) throw std::invalid_argument("bad value");
    return v;
  });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), map, map.in());
  flow.connect(map, map.out(), sink, sink.in());
  try {
    flow.run();
    FAIL() << "the map's error must surface";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.node_index(), 1u);
    EXPECT_NE(std::string(e.what()).find("bad value"), std::string::npos);
  }
}

// A 2-input Aggregate whose first input carries a checkpoint marker and
// whose second neither does nor ends: the first edge holds for a barrier
// that cannot align, the graph goes quiet short of its end, and run() says
// so.
TEST(Flow, WedgedGraphThrowsNamingTheHeldEdge) {
  Flow flow;
  auto& a = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{0, 0, 1}, CheckpointMarker{1}, Tuple<int>{1, 0, 2},
      Watermark{10}, EndOfStream{}});
  auto& b = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{0, 0, 3}, Watermark{10}});
  auto& agg = flow.add<AggregateOp<int, int, int>>(
      WindowSpec{.advance = 4, .size = 4, .lateness = 0},
      [](const int&) { return 0; },
      [](const WindowView<int, int>& w) -> std::optional<int> {
        return static_cast<int>(w.items.size());
      },
      /*regular_inputs=*/2);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(a, a.out(), agg, agg.in(0));
  flow.connect(b, b.out(), agg, agg.in(1));
  flow.connect(agg, agg.out(), sink, sink.in());
  try {
    flow.run();
    FAIL() << "a held edge at quiescence must fail the run";
  } catch (const FlowError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge 0 is HELD"), std::string::npos) << what;
    EXPECT_NE(what.find("[0] 0->2 depth=0 delivered=2 HELD"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(sink.ended());
}

// An edge connected without its nodes cannot hold for a barrier, so a flow
// with one takes no checkpoints or fault schedules.
TEST(Flow, EdgeWithoutNodesRefusesCheckpointsAndFaults) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(ints_script({1}));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), sink.in());
  CheckpointStore store;
  FaultInjector faults(1);
  try {
    flow.enable_checkpoints(store);
    FAIL() << "enable_checkpoints must refuse";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("edge 0"), std::string::npos);
  }
  EXPECT_THROW(flow.install_faults(faults), std::logic_error);
  flow.run();
  EXPECT_TRUE(sink.ended());
}

TEST(TimedScript, EmitsC1CompliantWatermarks) {
  std::vector<Tuple<int>> tuples{{0, 0, 1}, {4, 0, 2}, {9, 0, 3}};
  auto script = timed_script(tuples, /*period=*/3, /*flush_to=*/15);
  // Watermarks must appear with event-time spacing <= 3 and each tuple must
  // respect every preceding watermark.
  Timestamp last_wm = kMinTimestamp;
  Timestamp prev_wm = kMinTimestamp;
  bool saw_end = false;
  for (const auto& e : script) {
    if (const auto* w = std::get_if<Watermark>(&e)) {
      if (prev_wm != kMinTimestamp) {
        EXPECT_LE(w->ts - prev_wm, 3);
      }
      EXPECT_GT(w->ts, prev_wm);
      prev_wm = w->ts;
      last_wm = w->ts;
    } else if (const auto* t = std::get_if<Tuple<int>>(&e)) {
      EXPECT_GE(t->ts, last_wm);
    } else {
      saw_end = true;
    }
  }
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(prev_wm, 15);  // final flush watermark
}

}  // namespace
}  // namespace aggspes
