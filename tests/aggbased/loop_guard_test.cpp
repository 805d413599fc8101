// Unit tests for the C2/C3 enforcement algorithms (Listings 4 and 5).
#include "aggbased/loop_guard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using Env = Embedded<int>;

Tuple<Env> from_e(Timestamp ts, std::vector<int> items) {
  return {ts, 0, Env{std::move(items), kFromEmbed}};
}
Tuple<Env> successor(Timestamp ts, std::vector<int> items,
                     std::int64_t index) {
  return {ts, 0, Env{std::move(items), index}};
}

// --- C2 guard (Listing 4) ---------------------------------------------
//
// These tests inject elements directly into the guard's ports so the exact
// interleaving of main-stream and loop-stream events is under test control.

struct C2Harness {
  Flow flow;
  C2Guard<int>& guard;
  CollectorSink<Env>& sink;

  explicit C2Harness(Timestamp lateness)
      : guard(flow.add<C2Guard<int>>(lateness)),
        sink(flow.add<CollectorSink<Env>>()) {
    flow.connect(guard.out(), sink.in());
  }

  void main(Element<Env> e) {
    guard.in(0).receive(e);
    flow.drain();
  }
  void loop(Tuple<Env> t) {
    guard.loop_in().receive(Element<Env>{std::move(t)});
    flow.drain();
  }
};

TEST(C2Guard, WatermarkWithinBoundPassesImmediately) {
  C2Harness h(/*lateness=*/5);
  h.main(from_e(10, {1, 2}));
  h.main(Watermark{11});  // B = 10 + 5 = 15; 11 <= B → forwarded
  ASSERT_EQ(h.sink.watermarks(), (std::vector<Timestamp>{11}));
}

TEST(C2Guard, WatermarkBeyondBoundParkedUntilSuccessorsReturn) {
  C2Harness h(/*lateness=*/5);
  h.main(from_e(10, {1, 2}));
  h.main(Watermark{100});  // > B = 15 → parked
  EXPECT_TRUE(h.sink.watermarks().empty());
  h.loop(successor(10, {1, 2}, 0));
  EXPECT_TRUE(h.sink.watermarks().empty());  // still 1 outstanding
  h.loop(successor(10, {1, 2}, 1));          // drains succΓ → B = ∞
  ASSERT_EQ(h.sink.watermarks(), (std::vector<Timestamp>{100}));
  // Every tuple was forwarded: 1 envelope + 2 successors.
  EXPECT_EQ(h.sink.tuples().size(), 3u);
}

TEST(C2Guard, OnlyLatestEligibleParkedWatermarkForwarded) {
  C2Harness h(/*lateness=*/5);
  h.main(from_e(10, {1}));
  h.main(Watermark{40});
  h.main(Watermark{50});
  h.main(Watermark{60});
  EXPECT_TRUE(h.sink.watermarks().empty());
  h.loop(successor(10, {1}, 0));
  // The latest parked watermark is forwarded, earlier ones discarded
  // (List. 4, L17-21).
  ASSERT_EQ(h.sink.watermarks(), (std::vector<Timestamp>{60}));
}

TEST(C2Guard, EndHeldUntilLoopDrains) {
  C2Harness h(/*lateness=*/5);
  h.main(from_e(10, {1, 2, 3}));
  h.main(Element<Env>{EndOfStream{}});
  EXPECT_FALSE(h.sink.ended());
  h.loop(successor(10, {1, 2, 3}, 0));
  h.loop(successor(10, {1, 2, 3}, 1));
  EXPECT_FALSE(h.sink.ended());
  h.loop(successor(10, {1, 2, 3}, 2));
  EXPECT_TRUE(h.sink.ended());
  // End came after every successor tuple.
  EXPECT_EQ(h.sink.tuples().size(), 4u);
}

TEST(C2Guard, BoundTracksEarliestOutstandingGroup) {
  C2Harness h(/*lateness=*/3);
  h.main(from_e(10, {1, 2}));
  h.main(from_e(20, {7}));
  // Two groups outstanding; earliest is τ=10 → B = 13.
  EXPECT_EQ(h.guard.bound(), 13);
  EXPECT_EQ(h.guard.outstanding_groups(), 2u);
  h.loop(successor(10, {1, 2}, 0));
  h.loop(successor(10, {1, 2}, 1));
  EXPECT_EQ(h.guard.bound(), 23);  // now τ=20 governs
  h.loop(successor(20, {7}, 0));
  EXPECT_EQ(h.guard.bound(), kMaxTimestamp);
}

TEST(C2Guard, NoLoopTrafficIsTransparent) {
  C2Harness h(/*lateness=*/5);
  h.main(Watermark{5});
  h.main(Watermark{9});
  h.main(Element<Env>{EndOfStream{}});
  EXPECT_EQ(h.sink.watermarks(), (std::vector<Timestamp>{5, 9}));
  EXPECT_TRUE(h.sink.ended());
}

// The recorded loop tuples' count is bounded by a tuple's encoded width
// (16 bytes of ts and stamp, then the payload), not by one byte each: a
// count that fits at one byte per tuple but not at that width is refused
// before anything is reserved for it.
TEST(C2Guard, LoggedTupleCountIsBoundedByTupleWidth) {
  C2Harness h(/*lateness=*/5);
  SnapshotWriter w;
  h.guard.snapshot_to(w);
  auto bytes = w.take();
  // The cut ends with the log's [true][count 0]; swap in a 1000-tuple
  // count over 2000 bytes.
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  SnapshotWriter tail;
  tail.write_size(1000);
  for (int i = 0; i < 2000; ++i) tail.write_pod<std::uint8_t>(0);
  const auto tail_bytes = tail.take();
  bytes.insert(bytes.end(), tail_bytes.begin(), tail_bytes.end());

  C2Harness fresh(/*lateness=*/5);
  SnapshotReader r(bytes);
  try {
    fresh.guard.restore_from(r);
    FAIL() << "a 1000-tuple loop log over 2000 bytes decoded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: count", 0), 0u)
        << e.what();
  }
}

// --- C3 guard (Listing 5) ---------------------------------------------

TEST(C3Guard, SingleItemEnvelopeForwardsItsTimestampAsWatermark) {
  Flow flow;
  auto& guard = flow.add<C3Guard<int>>();
  auto& sink = flow.add<CollectorSink<Env>>();
  auto& src = flow.add<ScriptSource<Env>>(std::vector<Element<Env>>{
      successor(10, {1}, 0), EndOfStream{}});
  flow.connect(src.out(), guard.in(0));
  flow.connect(guard.out(), sink.in());
  flow.run();
  // |t[1]| − 1 = 0 siblings: succΓ empty → forward t.τ.
  EXPECT_EQ(sink.watermarks(), (std::vector<Timestamp>{10}));
}

TEST(C3Guard, WatermarkHeldWhileSiblingsOutstanding) {
  Flow flow;
  auto& guard = flow.add<C3Guard<int>>();
  auto& sink = flow.add<CollectorSink<Env>>();
  auto& src = flow.add<ScriptSource<Env>>(std::vector<Element<Env>>{
      successor(10, {1, 2, 3}, 0),  // registers 2 outstanding siblings
      Watermark{11},                // must not pass as-is: capped at τ−δ
      successor(10, {1, 2, 3}, 1),
      successor(10, {1, 2, 3}, 2),  // chain complete → succΓ empty
      Watermark{12},
      EndOfStream{},
  });
  flow.connect(src.out(), guard.in(0));
  flow.connect(guard.out(), sink.in());
  flow.run();
  // While outstanding: forwarded watermark is at most firstKey − δ = 9.
  // After the chain completes the last successor's τ (10) and then W=12
  // may pass. No tuple at the sink may be late.
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.watermark_regressions(), 0);
  ASSERT_FALSE(sink.watermarks().empty());
  EXPECT_EQ(sink.watermarks().back(), 12);
  for (Timestamp w : sink.watermarks()) EXPECT_LE(w, 12);
  // The 11 watermark must have been replaced by something <= 9.
  EXPECT_LE(sink.watermarks()[0], 9);
}

TEST(C3Guard, InterleavedGroupsRespectEarliestOutstanding) {
  Flow flow;
  auto& guard = flow.add<C3Guard<int>>();
  auto& sink = flow.add<CollectorSink<Env>>();
  auto& src = flow.add<ScriptSource<Env>>(std::vector<Element<Env>>{
      successor(10, {1, 2}, 0),  // group τ=10, 1 outstanding
      successor(20, {5}, 0),     // group τ=20 completes instantly...
      // ...but succΓ = {10}: watermark must stay <= 9.
      successor(10, {1, 2}, 1),  // completes τ=10 → forward 10
      Watermark{25},
      EndOfStream{},
  });
  flow.connect(src.out(), guard.in(0));
  flow.connect(guard.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.watermark_regressions(), 0);
  ASSERT_FALSE(sink.watermarks().empty());
  for (std::size_t i = 0; i + 1 < sink.watermarks().size(); ++i) {
    EXPECT_LT(sink.watermarks()[i], sink.watermarks()[i + 1]);
  }
  EXPECT_EQ(sink.watermarks().back(), 25);
}

TEST(C3Guard, TuplesAlwaysPassThroughImmediately) {
  Flow flow;
  auto& guard = flow.add<C3Guard<int>>();
  auto& sink = flow.add<CollectorSink<Env>>();
  auto& src = flow.add<ScriptSource<Env>>(std::vector<Element<Env>>{
      successor(10, {1, 2}, 0), successor(10, {1, 2}, 1), EndOfStream{}});
  flow.connect(src.out(), guard.in(0));
  flow.connect(guard.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 2u);
  EXPECT_TRUE(sink.ended());
}

}  // namespace
}  // namespace aggspes
