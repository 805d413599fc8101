// Watermark edge cases of the merging Union (P1), the ones that matter
// when the inputs are operator shards (DESIGN.md § 13): an idle or ended
// input must not stall the min-merge, equal watermarks broadcast by N
// shards must forward once, and barrier alignment must count live ports
// only. Elements are injected port-by-port (Port::receive is synchronous)
// so each assertion pins the exact interleaving that triggers the edge.
#include "core/operators/union_op.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/types.hpp"

namespace aggspes {
namespace {

struct Rig {
  Flow flow;
  UnionOp<int>* u;
  CollectorSink<int>* sink;

  explicit Rig(int inputs) {
    u = &flow.add<UnionOp<int>>(inputs);
    sink = &flow.add<CollectorSink<int>>();
    flow.connect(u->out(), sink->in());
  }

  void send(int port, const Element<int>& e) {
    u->in(port).receive(e);
    flow.drain();
  }
  void wm(int port, Timestamp ts) { send(port, Element<int>{Watermark{ts}}); }
  void end(int port) { send(port, Element<int>{EndOfStream{}}); }
  const std::vector<Timestamp>& wms() const { return sink->watermarks(); }
};

// End to end through a Flow: two script sources, tuples merged, the
// forwarded watermark is the min over ports.
TEST(UnionOp, MergesTuplesAndMinCombinesWatermarks) {
  Flow flow;
  auto& s1 = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{1, 0, 1}, Watermark{10}, Watermark{40}, EndOfStream{}});
  auto& s2 = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{2, 0, 2}, Watermark{5}, Watermark{40}, EndOfStream{}});
  auto& u = flow.add<UnionOp<int>>(2);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(s1.out(), u.in(0));
  flow.connect(s2.out(), u.in(1));
  flow.connect(u.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 2u);
  // Combined watermark = min over ports: 5, then 40.
  EXPECT_EQ(sink.watermarks(), (std::vector<Timestamp>{5, 40}));
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);
}

TEST(UnionOp, MergesTuplesInArrivalOrder) {
  Rig r(2);
  r.send(0, Element<int>{Tuple<int>{1, 0, 10}});
  r.send(1, Element<int>{Tuple<int>{2, 0, 20}});
  r.send(0, Element<int>{Tuple<int>{3, 0, 30}});
  ASSERT_EQ(r.sink->tuples().size(), 3u);
  EXPECT_EQ(r.sink->tuples()[0].value, 10);
  EXPECT_EQ(r.sink->tuples()[1].value, 20);
  EXPECT_EQ(r.sink->tuples()[2].value, 30);
}

// N shards broadcast the same periodic watermark (the splitter fans one
// source watermark out to every shard, and every shard forwards it): the
// union must emit each combined value once, not N times.
TEST(UnionOp, DedupesEqualWatermarksFromAllInputs) {
  Rig r(3);
  r.wm(0, 10);
  r.wm(1, 10);
  EXPECT_TRUE(r.wms().empty());  // min over {10, 10, -inf} not advanced
  r.wm(2, 10);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10}));
  r.wm(0, 20);
  r.wm(1, 20);
  r.wm(2, 20);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10, 20}));
  EXPECT_EQ(r.sink->watermark_regressions(), 0);
}

// The stall this file exists for: an input that ends without ever sending
// a watermark (an idle shard with an empty key slice) used to cap the
// min-merge at -inf forever — no watermark ever left the union.
TEST(UnionOp, DoesNotStallWhenAnInputEndsWithoutWatermarks) {
  Rig r(2);
  r.end(1);  // idle shard: ends immediately, no watermark ever
  r.wm(0, 5);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{5}));
  r.send(0, Element<int>{Tuple<int>{7, 0, 1}});
  r.wm(0, 9);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{5, 9}));
  EXPECT_FALSE(r.sink->ended());
  r.end(0);
  EXPECT_TRUE(r.sink->ended());
}

// A slower variant of the same stall: the ending input HAD advanced, and
// its last position was the held minimum. The end must release it.
TEST(UnionOp, EndReleasesTheHeldMinimum) {
  Rig r(2);
  r.wm(0, 50);
  r.wm(1, 10);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10}));
  r.end(1);  // the laggard leaves; the survivor's 50 is now the min
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10, 50}));
  EXPECT_EQ(r.sink->watermark_regressions(), 0);
}

// When the LAST input ends there is no surviving minimum; the union must
// emit end-of-stream, not a +inf sentinel watermark.
TEST(UnionOp, NoSentinelWatermarkWhenAllInputsEnd) {
  Rig r(2);
  r.wm(0, 10);
  r.wm(1, 10);
  r.end(0);
  r.end(1);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10}));
  EXPECT_TRUE(r.sink->ended());
}

// A repaired shard's replay may deliver a second EndOfStream on a port
// that already ended; it must not double-count toward stream completion.
TEST(UnionOp, DuplicateEndOnOnePortDoesNotEndTheStream) {
  Rig r(2);
  r.end(0);
  r.end(0);
  EXPECT_FALSE(r.sink->ended());
  r.end(1);
  EXPECT_TRUE(r.sink->ended());
}

// Monotonicity guard: a watermark arriving on an ended port (out-of-order
// shutdown interleavings) is defensively ignored.
TEST(UnionOp, WatermarkOnEndedPortIsIgnored) {
  Rig r(2);
  r.wm(0, 10);
  r.wm(1, 30);
  r.end(0);  // releases: min over survivors = 30
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10, 30}));
  r.send(0, Element<int>{Watermark{100}});
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{10, 30}));
  EXPECT_EQ(r.sink->watermark_regressions(), 0);
}

// Barrier alignment counts live ports only: after a shard dies (its
// fail-downstream End arrives), the marker its siblings delivered must
// still complete — otherwise no post-crash checkpoint could ever form.
TEST(UnionOp, BarrierAlignsAcrossLivePortsOnly) {
  Rig r(2);
  r.send(0, Element<int>{CheckpointMarker{1}});
  EXPECT_EQ(r.u->completed_barriers(), 0u);  // waiting on port 1
  r.end(1);                                  // port 1 leaves the barrier
  EXPECT_EQ(r.u->completed_barriers(), 1u);
  r.wm(0, 5);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{5}));
}

// Restore must keep excluding ended ports, or the stall comes back after
// recovery.
TEST(UnionOp, SnapshotRoundTripPreservesEndedExclusion) {
  Rig a(2);
  a.end(1);
  a.wm(0, 5);
  SnapshotWriter w;
  a.u->snapshot_to(w);
  const SnapshotWriter::Bytes bytes = w.take();

  Rig b(2);
  SnapshotReader rd(bytes);
  b.u->restore_from(rd);
  b.wm(0, 9);
  EXPECT_EQ(b.wms(), (std::vector<Timestamp>{9}));  // not stalled, no replay of 5
  b.end(0);
  EXPECT_TRUE(b.sink->ended());  // port 1's end was restored
}

TEST(UnionOp, LegacyEmptySnapshotRestoresToFreshState) {
  Rig r(2);
  const SnapshotWriter::Bytes empty;
  SnapshotReader rd(empty);
  r.u->restore_from(rd);
  r.wm(0, 5);
  r.wm(1, 7);
  EXPECT_EQ(r.wms(), (std::vector<Timestamp>{5}));
}

TEST(UnionOp, UnknownSnapshotVersionThrows) {
  Rig r(2);
  SnapshotWriter w;
  w.write_pod(std::uint8_t{99});
  const SnapshotWriter::Bytes bytes = w.take();
  SnapshotReader rd(bytes);
  EXPECT_THROW(r.u->restore_from(rd), SnapshotError);
}

}  // namespace
}  // namespace aggspes
