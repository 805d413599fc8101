// Snapshot → restore-into-a-fresh-graph → continue must equal an
// uninterrupted run, for every stateful operator. The C2/C3 guard cases
// cut the Unfold loop mid-envelope — with successors still in flight —
// and check that a restored guard neither admits a late tuple nor
// releases a premature watermark.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "aggbased/loop_guard.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/join.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using SumAgg = AggregateOp<int, long, int>;

SumAgg& add_sum_agg(Flow& f) {
  WindowSpec spec{.advance = 4, .size = 8, .lateness = 2};
  return f.add<SumAgg>(
      spec, [](const int& v) { return v % 2; },
      [](const WindowView<int, int>& w) -> std::optional<long> {
        long s = 0;
        for (const Tuple<int>& t : w.items) s += t.value;
        return s;
      });
}

std::vector<Element<int>> int_script() {
  std::vector<Tuple<int>> tuples;
  Timestamp ts = 0;
  for (int i = 0; i < 60; ++i) {
    ts += (i % 3 == 0) ? 1 : 2;
    tuples.push_back({ts, 0, i % 10});
  }
  return timed_script(tuples, /*period=*/3, /*flush_to=*/ts + 20);
}

// Round-trip the operator (and sink) mid-stream: prefix into graph A,
// snapshot, restore into graph B, feed the suffix.
TEST(OperatorSnapshot, AggregateMidStreamContinuation) {
  const auto script = int_script();

  Flow ref_flow;
  auto& ref_src = ref_flow.add<ScriptSource<int>>(script);
  auto& ref_agg = add_sum_agg(ref_flow);
  auto& ref_sink = ref_flow.add<CollectorSink<long>>();
  ref_flow.connect(ref_src.out(), ref_agg.in(0));
  ref_flow.connect(ref_agg.out(), ref_sink.in());
  ref_flow.run();
  ASSERT_FALSE(ref_sink.tuples().empty());

  for (std::size_t cut :
       std::vector<std::size_t>{1, 17, 40, script.size() - 2}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<Element<int>> prefix(script.begin(),
                                     script.begin() + static_cast<long>(cut));
    std::vector<Element<int>> suffix(script.begin() + static_cast<long>(cut),
                                     script.end());

    Flow a;
    auto& a_src = a.add<ScriptSource<int>>(prefix);
    auto& a_agg = add_sum_agg(a);
    auto& a_sink = a.add<CollectorSink<long>>();
    a.connect(a_src.out(), a_agg.in(0));
    a.connect(a_agg.out(), a_sink.in());
    a.run();

    SnapshotWriter agg_w, sink_w;
    a_agg.snapshot_to(agg_w);
    a_sink.snapshot_to(sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();

    Flow b;
    auto& b_src = b.add<ScriptSource<int>>(suffix);
    auto& b_agg = add_sum_agg(b);
    auto& b_sink = b.add<CollectorSink<long>>();
    b.connect(b_src.out(), b_agg.in(0));
    b.connect(b_agg.out(), b_sink.in());
    SnapshotReader agg_r(agg_bytes), sink_r(sink_bytes);
    b_agg.restore_from(agg_r);
    b_sink.restore_from(sink_r);
    b.run();

    EXPECT_EQ(b_sink.multiset(), ref_sink.multiset());
    EXPECT_EQ(b_sink.late_tuples(), 0);
    EXPECT_TRUE(b_sink.ended());
  }
}

// Re-delivering an already-seen watermark after restore must not re-fire
// windows: the per-instance fired flags are part of the snapshot, which is
// what makes source replay idempotent.
TEST(OperatorSnapshot, FiredFlagsSurviveRestore) {
  Flow a;
  auto& agg = add_sum_agg(a);
  auto& sink = a.add<CollectorSink<long>>();
  a.connect(agg.out(), sink.in());
  agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
  agg.in(0).receive(Element<int>{Watermark{20}});  // closes every window
  a.drain();
  const std::size_t fired = sink.tuples().size();
  ASSERT_GT(fired, 0u);

  SnapshotWriter w;
  agg.snapshot_to(w);
  const auto bytes = w.take();

  Flow b;
  auto& agg2 = add_sum_agg(b);
  auto& sink2 = b.add<CollectorSink<long>>();  // fresh sink: observe only new
  b.connect(agg2.out(), sink2.in());
  SnapshotReader r(bytes);
  agg2.restore_from(r);
  agg2.in(0).receive(Element<int>{Watermark{20}});  // replayed watermark
  b.drain();
  EXPECT_TRUE(sink2.tuples().empty()) << "windows re-fired on replay";
}

// --- key-by-all windows (codec v5: a group is its own key) -----------------

using ByAllAgg = AggregateOp<int, long, int>;

/// An A1-shaped Aggregate: δ-tumbling, keyed by all, lateness 5. Each fire
/// reports (payload, multiplicity) as payload * 100 + count.
ByAllAgg& add_by_all_agg(Flow& f) {
  return f.add<ByAllAgg>(
      WindowSpec{.advance = kDelta, .size = kDelta, .lateness = 5},
      KeyByAll{},
      [](const WindowView<int, int>& w) -> std::optional<long> {
        return long{w.key} * 100 + static_cast<long>(w.items.size());
      });
}

/// Duplicates in one instance, fires, late updates into fired groups, a
/// new group in a fired instance, and a drop past the lateness horizon.
std::vector<Element<int>> by_all_script() {
  return {Tuple<int>{1, 0, 3},  Tuple<int>{1, 0, 4},  Tuple<int>{1, 0, 3},
          Tuple<int>{2, 0, 5},  Watermark{3},         Tuple<int>{1, 0, 3},
          Tuple<int>{2, 0, 6},  Tuple<int>{4, 0, 7},  Tuple<int>{4, 0, 7},
          Watermark{5},         Tuple<int>{1, 0, 4},  Tuple<int>{4, 0, 7},
          Watermark{10},        Tuple<int>{3, 0, 8},  Tuple<int>{9, 0, 3},
          Watermark{20},        EndOfStream{}};
}

std::vector<Tuple<long>> run_by_all(const std::vector<Element<int>>& script,
                                    const SnapshotWriter::Bytes* agg_state,
                                    const SnapshotWriter::Bytes* sink_state,
                                    SnapshotWriter* agg_out = nullptr,
                                    SnapshotWriter* sink_out = nullptr) {
  Flow f;
  auto& src = f.add<ScriptSource<int>>(script);
  auto& agg = add_by_all_agg(f);
  auto& sink = f.add<CollectorSink<long>>();
  f.connect(src.out(), agg.in(0));
  f.connect(agg.out(), sink.in());
  if (agg_state != nullptr) {
    SnapshotReader agg_r(*agg_state), sink_r(*sink_state);
    agg.restore_from(agg_r);
    sink.restore_from(sink_r);
    EXPECT_TRUE(agg_r.exhausted());
  }
  f.run();
  if (agg_out != nullptr) {
    agg.snapshot_to(*agg_out);
    sink.snapshot_to(*sink_out);
  }
  return sink.tuples();
}

// A restored key-by-all machine fires exactly what the uninterrupted one
// does, in the same order, from every cut: duplicates keep their
// multiplicity, fired flags survive (no re-fire, late arrivals update),
// and the lateness horizon still drops.
TEST(OperatorSnapshot, KeyByAllMachineRoundTripsAtEveryCut) {
  const auto script = by_all_script();
  const std::vector<Tuple<long>> ref = run_by_all(script, nullptr, nullptr);
  ASSERT_FALSE(ref.empty());
  for (std::size_t cut = 1; cut + 1 < script.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<Element<int>> prefix(
        script.begin(), script.begin() + static_cast<long>(cut));
    const std::vector<Element<int>> suffix(
        script.begin() + static_cast<long>(cut), script.end());
    SnapshotWriter agg_w, sink_w;
    run_by_all(prefix, nullptr, nullptr, &agg_w, &sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();
    EXPECT_EQ(run_by_all(suffix, &agg_bytes, &sink_bytes), ref);
  }
}

// Only codec v6 restores: the v4 byte (per-group keys) and the v5 byte
// are refused, and so is a v6 state saved by a window that keeps its keys.
TEST(OperatorSnapshot, KeyByAllStateRefusesOtherLayouts) {
  const auto script = by_all_script();
  const std::vector<Element<int>> prefix(script.begin(), script.begin() + 6);
  SnapshotWriter agg_w, sink_w;
  run_by_all(prefix, nullptr, nullptr, &agg_w, &sink_w);
  const auto bytes = agg_w.take();

  Flow probe;
  auto& fresh = add_by_all_agg(probe);
  SnapshotWriter base;
  fresh.snapshot_to(base);  // [base][version]...: find the version offset
  SnapshotWriter machine;
  fresh.machine().save(machine);
  const std::size_t at = base.bytes().size() - machine.bytes().size() - 1;
  ASSERT_EQ(bytes[at], kAggregateCodecVersion);
  ASSERT_EQ(kAggregateCodecVersion, 6);

  // 4 wrote per-group keys in every buffering window; 5 is this layout
  // under the byte that also carried the monoid key-cache bound.
  for (std::uint8_t version : {4, 5}) {
    auto old = bytes;
    old[at] = version;
    Flow a;
    auto& agg_a = add_by_all_agg(a);
    SnapshotReader r(old);
    EXPECT_THROW(agg_a.restore_from(r), SnapshotError)
        << "version " << int{version};
  }

  Flow b;
  auto& keyed = b.add<ByAllAgg>(
      WindowSpec{.advance = kDelta, .size = kDelta, .lateness = 5},
      [](const int& v) { return v; },
      [](const WindowView<int, int>&) -> std::optional<long> { return 0; });
  SnapshotReader rk(bytes);
  EXPECT_THROW(keyed.restore_from(rk), SnapshotError);
}

TEST(OperatorSnapshot, JoinMidStreamContinuation) {
  std::vector<Tuple<int>> lefts, rights;
  for (int i = 0; i < 40; ++i) {
    lefts.push_back({i * 2, 0, i});
    rights.push_back({i * 2 + 1, 0, i + 100});
  }
  const auto l_script = timed_script(lefts, 5, 100);
  const auto r_script = timed_script(rights, 5, 100);
  const WindowSpec spec{.advance = 6, .size = 12};
  auto key = [](const int& v) { return v % 3; };
  auto pred = [](const int& a, const int& b) { return (a + b) % 2 == 0; };
  using Join = JoinOp<int, int, int>;
  using Pair = std::pair<int, int>;

  Flow ref;
  auto& ref_l = ref.add<ScriptSource<int>>(l_script);
  auto& ref_r = ref.add<ScriptSource<int>>(r_script);
  auto& ref_j = ref.add<Join>(spec, key, key, pred);
  auto& ref_s = ref.add<CollectorSink<Pair>>();
  ref.connect(ref_l.out(), ref_j.in_left());
  ref.connect(ref_r.out(), ref_j.in_right());
  ref.connect(ref_j.out(), ref_s.in());
  ref.run();
  ASSERT_FALSE(ref_s.tuples().empty());

  const std::size_t cut_l = l_script.size() / 2;
  const std::size_t cut_r = r_script.size() / 3;

  Flow a;
  auto& a_l = a.add<ScriptSource<int>>(std::vector<Element<int>>(
      l_script.begin(), l_script.begin() + static_cast<long>(cut_l)));
  auto& a_r = a.add<ScriptSource<int>>(std::vector<Element<int>>(
      r_script.begin(), r_script.begin() + static_cast<long>(cut_r)));
  auto& a_j = a.add<Join>(spec, key, key, pred);
  auto& a_s = a.add<CollectorSink<Pair>>();
  a.connect(a_l.out(), a_j.in_left());
  a.connect(a_r.out(), a_j.in_right());
  a.connect(a_j.out(), a_s.in());
  a.run();

  SnapshotWriter jw, sw;
  a_j.snapshot_to(jw);
  a_s.snapshot_to(sw);
  const auto j_bytes = jw.take();
  const auto s_bytes = sw.take();

  Flow b;
  auto& b_l = b.add<ScriptSource<int>>(std::vector<Element<int>>(
      l_script.begin() + static_cast<long>(cut_l), l_script.end()));
  auto& b_r = b.add<ScriptSource<int>>(std::vector<Element<int>>(
      r_script.begin() + static_cast<long>(cut_r), r_script.end()));
  auto& b_j = b.add<Join>(spec, key, key, pred);
  auto& b_s = b.add<CollectorSink<Pair>>();
  b.connect(b_l.out(), b_j.in_left());
  b.connect(b_r.out(), b_j.in_right());
  b.connect(b_j.out(), b_s.in());
  SnapshotReader jr(j_bytes), sr(s_bytes);
  b_j.restore_from(jr);
  b_s.restore_from(sr);
  b.run();

  EXPECT_EQ(b_s.multiset(), ref_s.multiset());
  EXPECT_TRUE(b_s.ended());
}

// Source rewind contract: cursor commits at marker injection; a restored
// source re-emits exactly the suffix, and the restored sink ends up with
// the full output once — no gaps, no duplicates.
TEST(OperatorSnapshot, ReplaySourceRewindsToCommittedCursor) {
  std::vector<Tuple<int>> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back({i, 0, i});
  CheckpointStore store;

  ThreadedFlow a;
  auto& a_src = a.add<ReplaySource<int>>(tuples, 4, 60, /*marker_every=*/8);
  auto& a_sink = a.add<CollectorSink<int>>();
  a.connect(a_src, a_src.out(), a_sink, a_sink.in());
  a.enable_checkpoints(store);
  a.run();
  ASSERT_TRUE(a_sink.ended());
  ASSERT_GT(a_src.markers_injected(), 0u);
  ASSERT_TRUE(store.latest_complete().has_value());

  // "Crash after the run": rebuild, restore the last complete cut, rerun.
  ThreadedFlow b;
  auto& b_src = b.add<ReplaySource<int>>(tuples, 4, 60, /*marker_every=*/8);
  auto& b_sink = b.add<CollectorSink<int>>();
  b.connect(b_src, b_src.out(), b_sink, b_sink.in());
  b.enable_checkpoints(store);
  const auto resumed = b.restore_latest(store);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_GT(b_src.cursor(), 0u);
  EXPECT_LT(b_src.cursor(), b_src.script_size());
  b.run();

  EXPECT_EQ(b_sink.multiset(), a_sink.multiset());
  EXPECT_EQ(b_sink.late_tuples(), 0);
}

// A restore reads each node's record exactly: one trailing byte means the
// record is not a layout the node writes, and the cut is refused.
TEST(OperatorSnapshot, RecordWithTrailingBytesIsRejected) {
  std::vector<Tuple<int>> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back({i, 0, i});
  CheckpointStore store;

  ThreadedFlow a;
  auto& a_src = a.add<ReplaySource<int>>(tuples, 4, 60, /*marker_every=*/8);
  auto& a_sink = a.add<CollectorSink<int>>();
  a.connect(a_src, a_src.out(), a_sink, a_sink.in());
  a.enable_checkpoints(store);
  a.run();
  const auto id = store.latest_complete();
  ASSERT_TRUE(id.has_value());
  auto record = store.find(0, *id);
  ASSERT_TRUE(record.has_value());
  record->push_back(0);
  store.record(0, *id, *record);

  ThreadedFlow b;
  auto& b_src = b.add<ReplaySource<int>>(tuples, 4, 60, /*marker_every=*/8);
  auto& b_sink = b.add<CollectorSink<int>>();
  b.connect(b_src, b_src.out(), b_sink, b_sink.in());
  EXPECT_THROW(b.restore_latest(store), SnapshotError);
}

// --- C2/C3 guard state, cut mid-loop (the satellite-d cases) -----------

using Env = Embedded<int>;

Tuple<Env> from_e(Timestamp ts, std::vector<int> items) {
  return {ts, 0, Env{std::move(items), kFromEmbed}};
}
Tuple<Env> successor(Timestamp ts, std::vector<int> items,
                     std::int64_t index) {
  return {ts, 0, Env{std::move(items), index}};
}

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
  void loop(Element<Env> e) {
    guard.loop_in().receive(e);
    flow.drain();
  }
};

// Snapshot with successors in flight and a parked watermark; the restored
// guard must keep the watermark parked until the loop drains — releasing
// it early would make the in-flight successors late.
TEST(GuardSnapshot, C2MidLoopRestoreReleasesNoPrematureWatermark) {
  C2Harness a(/*lateness=*/5);
  a.main(Element<Env>{from_e(10, {1, 2, 3})});  // succΓ[10] = 3
  a.main(Element<Env>{Watermark{40}});          // > B = 15 → parked
  a.loop(Element<Env>{successor(10, {1, 2, 3}, 0)});  // 2 still out
  ASSERT_EQ(a.guard.outstanding_groups(), 1u);
  ASSERT_EQ(a.guard.pending_watermarks(), 1u);

  SnapshotWriter w;
  a.guard.snapshot_to(w);
  const auto bytes = w.take();

  C2Harness b(/*lateness=*/5);
  SnapshotReader r(bytes);
  b.guard.restore_from(r);
  EXPECT_EQ(b.guard.outstanding_groups(), 1u);
  EXPECT_EQ(b.guard.pending_watermarks(), 1u);
  EXPECT_EQ(b.guard.bound(), 15);

  // The parked watermark stays parked while successors are outstanding...
  EXPECT_TRUE(b.sink.watermarks().empty());
  b.loop(Element<Env>{successor(10, {1, 2, 3}, 1)});
  EXPECT_TRUE(b.sink.watermarks().empty());
  // ...and releases exactly when the loop drains.
  b.loop(Element<Env>{successor(10, {1, 2, 3}, 2)});
  EXPECT_EQ(b.sink.watermarks(), (std::vector<Timestamp>{40}));
  // No loop tuple arrived after the watermark that covers it.
  EXPECT_EQ(b.sink.late_tuples(), 0);
}

// A barrier cut mid-loop: the guard stages its state at the marker,
// records the feedback tuples that were in flight, and the restored guard
// re-delivers them — so the cut loses nothing.
TEST(GuardSnapshot, C2BarrierRecordsInFlightLoopTuples) {
  CheckpointStore store;
  store.set_expected_nodes(1);

  C2Harness a(/*lateness=*/5);
  a.guard.bind_recovery(&store, 0);
  a.main(Element<Env>{from_e(10, {7, 8})});  // succΓ[10] = 2
  a.main(Element<Env>{CheckpointMarker{1}});
  EXPECT_TRUE(a.guard.recording_loop());
  EXPECT_EQ(a.guard.completed_barriers(), 0u) << "completed before loop cut";

  // One successor was in flight on the loop edge at the cut; it arrives
  // before the marker comes back around.
  a.loop(Element<Env>{successor(10, {7, 8}, 0)});
  EXPECT_EQ(a.guard.logged_loop_tuples(), 1u);
  a.loop(Element<Env>{CheckpointMarker{1}});  // marker returns: seal
  EXPECT_FALSE(a.guard.recording_loop());
  EXPECT_EQ(a.guard.completed_barriers(), 1u);
  ASSERT_TRUE(store.latest_complete().has_value());

  C2Harness b(/*lateness=*/5);
  const auto bytes = store.find(0, 1);
  ASSERT_TRUE(bytes.has_value());
  SnapshotReader r(*bytes);
  b.guard.restore_from(r);
  b.flow.drain();  // restore re-delivered the logged successor downstream
  // State: the logged successor was processed again — one of the two
  // expected successors returned, one still outstanding.
  EXPECT_EQ(b.guard.outstanding_groups(), 1u);
  ASSERT_EQ(b.sink.tuples().size(), 1u);
  EXPECT_EQ(b.sink.tuples()[0].value.index, 0);
  b.loop(Element<Env>{successor(10, {7, 8}, 1)});
  EXPECT_EQ(b.guard.outstanding_groups(), 0u);
  EXPECT_EQ(b.sink.late_tuples(), 0);
}

// The loop-tuple count is bounded by the bytes left before the guard
// reserves room for that many tuples.
TEST(GuardSnapshot, C2InflatedLoopTupleCountIsRejected) {
  C2Harness a(/*lateness=*/5);
  SnapshotWriter w;
  a.guard.snapshot_to(w);
  auto bytes = w.take();
  // An idle guard's record ends with [has_log = 1][loop tuple count = 0].
  bytes.resize(bytes.size() - sizeof(std::uint64_t));
  SnapshotWriter count;
  count.write_size(std::size_t{1} << 62);
  const auto count_bytes = count.take();
  bytes.insert(bytes.end(), count_bytes.begin(), count_bytes.end());

  C2Harness b(/*lateness=*/5);
  SnapshotReader r(bytes);
  EXPECT_THROW(b.guard.restore_from(r), SnapshotError);
}

struct C3Harness {
  Flow flow;
  C3Guard<int>& guard;
  CollectorSink<Env>& sink;

  C3Harness() : guard(flow.add<C3Guard<int>>()),
                sink(flow.add<CollectorSink<Env>>()) {
    flow.connect(guard.out(), sink.in());
  }

  void feed(Element<Env> e) {
    guard.in(0).receive(e);
    flow.drain();
  }
};

// C3 mid-chain: snapshot while an envelope's successors are outstanding;
// the restored guard must keep deriving held-back watermarks (no
// premature watermark past in-flight successors).
TEST(GuardSnapshot, C3MidChainRestoreKeepsWatermarkDiscipline) {
  C3Harness a;
  a.feed(Element<Env>{successor(20, {1, 2, 3}, 0)});  // 2 siblings out
  a.feed(Element<Env>{Watermark{50}});
  ASSERT_EQ(a.guard.outstanding_groups(), 1u);
  const auto wm_before = a.sink.watermarks();

  SnapshotWriter w;
  a.guard.snapshot_to(w);
  const auto bytes = w.take();

  C3Harness b;
  SnapshotReader r(bytes);
  b.guard.restore_from(r);
  EXPECT_EQ(b.guard.outstanding_groups(), 1u);
  EXPECT_EQ(b.guard.last_forwarded(), a.guard.last_forwarded());

  // Watermarks stay bounded by the outstanding chain...
  b.feed(Element<Env>{Watermark{60}});
  for (Timestamp t : b.sink.watermarks()) EXPECT_LT(t, 20);
  // ...until the siblings complete, then the chain releases. (The closing
  // watermark must exceed 60: the combiner already saw 60 and only a
  // strict advance reaches the guard again.)
  b.feed(Element<Env>{successor(20, {1, 2, 3}, 1)});
  b.feed(Element<Env>{successor(20, {1, 2, 3}, 2)});
  b.feed(Element<Env>{Watermark{70}});
  EXPECT_EQ(b.sink.watermarks().back(), 70);
  EXPECT_EQ(b.sink.late_tuples(), 0);
  EXPECT_EQ(b.sink.watermark_regressions(), 0);
  (void)wm_before;
}

}  // namespace
}  // namespace aggspes
