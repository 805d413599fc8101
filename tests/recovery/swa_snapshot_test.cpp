// Recovery integration for the sliced window backends: snapshot →
// restore-into-a-fresh-graph → continue must equal an uninterrupted run,
// and replayed watermarks must not re-fire restored instances. Pane
// cells, fired flags and cursors are the persisted truth; the monoid
// backend's two-stacks caches are rebuilt after load and must not change
// any output. Every Aggregate over every machine, and every MultiQueryOp,
// writes one layout — a version byte, then the engine's save() — and
// rejects any other byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/multi_query.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/agg_tree.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"
#include "machine_matrix.hpp"

namespace aggspes {
namespace {

const WindowSpec kSpec{.advance = 4, .size = 8, .lateness = 2};

using SlicedSum =
    AggregateOp<int, long, int, swa::SlicedWindowMachine<int, int>>;
using MonoidSum =
    AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>;

SlicedSum& add_sliced_sum(Flow& f) {
  return f.add<SlicedSum>(
      kSpec, [](const int& v) { return v % 2; },
      [](const WindowView<int, int>& w) -> std::optional<long> {
        long s = 0;
        for (const Tuple<int>& t : w.items) s += t.value;
        return s;
      });
}

MonoidSum& add_monoid_sum(Flow& f) {
  return f.add<MonoidSum>(
      kSpec, [](const int& v) { return v % 2; },
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }},
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
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

template <typename AddOp>
void mid_stream_continuation(AddOp add_op) {
  const auto script = int_script();

  Flow ref_flow;
  auto& ref_src = ref_flow.add<ScriptSource<int>>(script);
  auto& ref_agg = add_op(ref_flow);
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
    auto& a_agg = add_op(a);
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
    auto& b_agg = add_op(b);
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

TEST(SwaSnapshot, SlicedMidStreamContinuation) {
  mid_stream_continuation([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidMidStreamContinuation) {
  mid_stream_continuation([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

template <typename AddOp>
void fired_flags_survive_restore(AddOp add_op) {
  Flow a;
  auto& agg = add_op(a);
  auto& sink = a.add<CollectorSink<long>>();
  a.connect(agg.out(), sink.in());
  agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
  agg.in(0).receive(Element<int>{Watermark{20}});  // closes every window
  a.drain();
  ASSERT_GT(sink.tuples().size(), 0u);

  SnapshotWriter w;
  agg.snapshot_to(w);
  const auto bytes = w.take();

  Flow b;
  auto& agg2 = add_op(b);
  auto& sink2 = b.add<CollectorSink<long>>();  // fresh sink: observe only new
  b.connect(agg2.out(), sink2.in());
  SnapshotReader r(bytes);
  agg2.restore_from(r);
  agg2.in(0).receive(Element<int>{Watermark{20}});  // replayed watermark
  b.drain();
  EXPECT_TRUE(sink2.tuples().empty()) << "windows re-fired on replay";
}

TEST(SwaSnapshot, SlicedFiredFlagsSurviveRestore) {
  fired_flags_survive_restore([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidFiredFlagsSurviveRestore) {
  fired_flags_survive_restore([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

// Late re-fires after restore: a snapshot cut between an instance's close
// and a late admitted arrival must still produce the update fire with the
// full (pre- and post-cut) contents.
template <typename AddOp>
void late_update_spans_cut(AddOp add_op) {
  auto run_segments =
      [&](bool cut) -> std::multiset<std::pair<Timestamp, long>> {
    Flow a;
    auto& agg = add_op(a);
    auto& sink = a.add<CollectorSink<long>>();
    a.connect(agg.out(), sink.in());
    agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
    agg.in(0).receive(Element<int>{Watermark{9}});  // closes [0,8); L=2
    a.drain();

    if (!cut) {
      agg.in(0).receive(Element<int>{Tuple<int>{3, 0, 7}});  // late update
      a.drain();
      return sink.multiset();
    }
    SnapshotWriter agg_w, sink_w;
    agg.snapshot_to(agg_w);
    sink.snapshot_to(sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();

    Flow b;
    auto& agg2 = add_op(b);
    auto& sink2 = b.add<CollectorSink<long>>();
    b.connect(agg2.out(), sink2.in());
    SnapshotReader ar(agg_bytes), sr(sink_bytes);
    agg2.restore_from(ar);
    sink2.restore_from(sr);
    agg2.in(0).receive(Element<int>{Tuple<int>{3, 0, 7}});  // late update
    b.drain();
    return sink2.multiset();
  };
  EXPECT_EQ(run_segments(/*cut=*/true), run_segments(/*cut=*/false));
}

TEST(SwaSnapshot, SlicedLateUpdateSpansCut) {
  late_update_spans_cut([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidLateUpdateSpansCut) {
  late_update_spans_cut([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

// The shared Aggregate layout: [base][version][machine save]. A node with
// a codec accepts only its own version byte: 0 (the no-codec byte), 1 (the
// old has_state bool), 2 (the old monoid layout), 3 (the single-query
// engine layout), 4 (per-group keys in every buffering window), 5 (the
// monoid key-cache bound ahead of the panes) and any other byte raise
// SnapshotError.
TEST(SwaSnapshot, UnknownCodecVersionIsRejected) {
  const auto key = [](const int& v) { return v % 2; };
  machine_matrix::for_each_machine<long>([&]<typename M>(const char* name) {
    SCOPED_TRACE(name);
    Flow a;
    auto& agg = machine_matrix::add_sum<long, M>(a, kSpec, key);
    agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
    a.drain();
    SnapshotWriter w, machine_w;
    agg.snapshot_to(w);
    agg.machine().save(machine_w);
    const auto bytes = w.take();
    const std::size_t at = bytes.size() - machine_w.bytes().size() - 1;
    ASSERT_EQ(bytes[at], kAggregateCodecVersion);

    for (std::uint8_t version : {0, 1, 2, 3, 4, 5, 255}) {
      auto patched = bytes;
      patched[at] = version;
      Flow b;
      auto& agg2 = machine_matrix::add_sum<long, M>(b, kSpec, key);
      SnapshotReader r(patched);
      EXPECT_THROW(agg2.restore_from(r), SnapshotError)
          << "version " << int{version};
    }
  });
}

// Codec 6: a monoid machine's save() starts with its panes. Each monoid
// machine restores a 6 cut through restore_record and writes it back byte
// for byte; a 5 cut — the version byte 5, then the 8-byte key-cache bound
// in front of the panes — is refused.
TEST(SwaSnapshot, MonoidMachinesRoundTripCodec6AndRefuseCodec5) {
  const auto key = [](const int& v) { return v % 2; };
  auto check = [&]<typename M>(const char* name) {
    SCOPED_TRACE(name);
    Flow a;
    auto& agg = machine_matrix::add_sum<long, M>(a, kSpec, key);
    agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
    agg.in(0).receive(Element<int>{Tuple<int>{5, 0, 3}});
    a.drain();
    SnapshotWriter w, machine_w;
    agg.snapshot_to(w);
    agg.machine().save(machine_w);
    const auto bytes = w.take();
    const std::size_t at = bytes.size() - machine_w.bytes().size() - 1;
    ASSERT_EQ(bytes[at], 6);

    Flow b;
    auto& agg2 = machine_matrix::add_sum<long, M>(b, kSpec, key);
    agg2.restore_record(bytes);
    EXPECT_EQ(agg2.machine().occupancy(), 2u);
    SnapshotWriter again;
    agg2.snapshot_to(again);
    EXPECT_EQ(again.take(), bytes);

    auto v5 = bytes;
    v5[at] = 5;
    v5.insert(v5.begin() + static_cast<long>(at) + 1, sizeof(std::uint64_t),
              std::uint8_t{0});  // the bound slot: 0 = unbounded
    Flow c;
    auto& agg3 = machine_matrix::add_sum<long, M>(c, kSpec, key);
    EXPECT_THROW(agg3.restore_record(v5), SnapshotError);
  };
  check.template operator()<swa::MonoidWindowMachine<int, long, int>>(
      "two-stacks");
  check.template operator()<swa::DabaWindowMachine<int, long, int>>("daba");
  check.template operator()<swa::TreeWindowMachine<int, long, int>>("tree");
}

// --- hostile cuts -----------------------------------------------------------

// Every count a window-state decoder reads is bounded by the bytes left, so
// an inflated one raises SnapshotError (which CheckpointStore falls back
// from) before anything is allocated for it — never length_error or
// bad_alloc.
constexpr std::size_t kInflated = std::size_t{1} << 60;

SnapshotWriter::Bytes inflated_after(std::initializer_list<std::int64_t> head) {
  SnapshotWriter w;
  for (std::int64_t v : head) w.write_i64(v);
  w.write_size(kInflated);
  w.write_u64(0);  // a few trailing bytes, far fewer than the count claims
  return w.take();
}

TEST(SwaSnapshot, ReplayCellWithInflatedEntryCountIsRejected) {
  const auto bytes = inflated_after({});
  SnapshotReader r(bytes);
  EXPECT_THROW(swa::ReplayPolicy<int>{}.load_cell(r), SnapshotError);
}

// A replay entry takes its seq and a tuple (8 + 16 bytes, then the
// payload), so a count that fits at one byte per entry but not at that
// width is refused at the count, before anything is reserved for it.
TEST(SwaSnapshot, ReplayCellCountIsBoundedByEntryWidth) {
  SnapshotWriter w;
  w.write_size(1000);
  for (int i = 0; i < 2000; ++i) w.write_pod<std::uint8_t>(0);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  try {
    swa::ReplayPolicy<int>{}.load_cell(r);
    FAIL() << "a 1000-entry cell over 2000 bytes decoded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: count", 0), 0u)
        << e.what();
  }
}

TEST(SwaSnapshot, SlicedEngineWithInflatedCountsIsRejected) {
  // Pane count, then (one pane at 4) its cell count, then (no panes, seq
  // counter 0) the query count, then (one query) its fired-flag count.
  for (const auto& bytes :
       {inflated_after({}), inflated_after({1, 4}), inflated_after({0, 0}),
        inflated_after({0, 0, 1})}) {
    swa::SlicedWindowMachine<int, int> m(kSpec, [](const int& v) { return v; });
    SnapshotReader r(bytes);
    EXPECT_THROW(m.load(r), SnapshotError);
  }
}

TEST(SwaSnapshot, WindowMachineWithInflatedCountsIsRejected) {
  // Instance count, then (one instance at 0) its key count.
  for (const auto& bytes : {inflated_after({}), inflated_after({1, 0})}) {
    WindowMachine<int, int> m(kSpec, [](const int& v) { return v; });
    SnapshotReader r(bytes);
    EXPECT_THROW(m.load(r), SnapshotError);
  }
}

TEST(SwaSnapshot, MultiQueryEngineWithInflatedCountsIsRejected) {
  // Pane count, then (one pane at 4) its cell count, then (no panes, seq
  // counter 0) the query count, then (two queries) query 0's fired-flag
  // count.
  for (const auto& bytes :
       {inflated_after({}), inflated_after({1, 4}), inflated_after({0, 0}),
        inflated_after({0, 0, 2})}) {
    swa::SlicedWindowMachine<int, int> engine(
        std::vector<WindowSpec>{kSpec, {.advance = 2, .size = 6}},
        [](const int& v) { return v; });
    SnapshotReader r(bytes);
    EXPECT_THROW(engine.load(r), SnapshotError);
  }
}

// --- MultiQueryOp layout ------------------------------------------------------

using MqTree =
    MultiQueryOp<int, long, int, swa::TreeWindowMachine<int, long, int>>;

MqTree& add_mq(Flow& f, const std::vector<WindowSpec>& specs) {
  std::vector<MqTree::Query> queries;
  for (const WindowSpec& s : specs) {
    queries.push_back({s, [](const int&, const swa::WindowAggregate<long>& wa)
                              -> std::optional<long> { return wa.agg; }});
  }
  return f.add<MqTree>(
      std::move(queries), [](const int& v) { return v % 2; },
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }});
}

const std::vector<WindowSpec> kMqSpecs = {kSpec,
                                          {.advance = 2, .size = 6}};

/// A two-query operator after a few tuples, plus the offset of its
/// version byte (right before the engine's save()).
std::pair<SnapshotWriter::Bytes, std::size_t> mq_cut() {
  Flow a;
  auto& op = add_mq(a, kMqSpecs);
  op.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
  op.in(0).receive(Element<int>{Tuple<int>{5, 0, 3}});
  a.drain();
  SnapshotWriter w, engine_w;
  op.snapshot_to(w);
  op.machine().save(engine_w);
  auto bytes = w.take();
  const std::size_t at = bytes.size() - engine_w.bytes().size() - 1;
  return {std::move(bytes), at};
}

TEST(SwaSnapshot, MultiQueryOpRejectsOtherVersionBytes) {
  const auto [bytes, at] = mq_cut();
  ASSERT_EQ(bytes[at], kMultiQueryCodecVersion);
  {
    Flow b;
    auto& op = add_mq(b, kMqSpecs);
    op.restore_record(bytes);
    EXPECT_EQ(op.machine().occupancy(), 2u);
  }
  // 0 is the no-codec byte, 1 the two-operator layout with its cache knob,
  // 2 the layout with the tree policy's key-cache bound.
  for (std::uint8_t version : {0, 1, 2, 255}) {
    auto patched = bytes;
    patched[at] = version;
    Flow b;
    auto& op = add_mq(b, kMqSpecs);
    EXPECT_THROW(op.restore_record(patched), SnapshotError)
        << "version " << int{version};
  }
}

TEST(SwaSnapshot, MultiQueryOpRejectsQueryCountMismatch) {
  const auto [bytes, at] = mq_cut();
  for (const auto& specs :
       {std::vector<WindowSpec>{kSpec},
        std::vector<WindowSpec>{kSpec, kSpec, {.advance = 2, .size = 6}}}) {
    Flow b;
    auto& op = add_mq(b, specs);
    EXPECT_THROW(op.restore_record(bytes), SnapshotError)
        << specs.size() << " registered queries";
  }
}

// A node with a StateCodec never writes the no-codec byte, so a record
// that is just [base][0] is not a layout it wrote: it must not restore an
// empty window.
TEST(SwaSnapshot, SerializableAggregateRefusesNoCodecByte) {
  machine_matrix::for_each_machine<long>([&]<typename M>(const char* name) {
    SCOPED_TRACE(name);
    Flow a;
    auto& agg = machine_matrix::add_sum<long, M>(a, kSpec,
                                                 [](const int& v) { return v; });
    SnapshotWriter w, machine_w;
    agg.snapshot_to(w);
    agg.machine().save(machine_w);
    auto bytes = w.take();
    bytes.resize(bytes.size() - machine_w.bytes().size());
    bytes.back() = 0;  // [base][0]
    Flow b;
    auto& agg2 = machine_matrix::add_sum<long, M>(b, kSpec,
                                                  [](const int& v) { return v; });
    EXPECT_THROW(agg2.restore_record(bytes), SnapshotError);
  });
}

TEST(SwaSnapshot, SerializableMultiQueryOpRefusesNoCodecByte) {
  auto [bytes, at] = mq_cut();
  bytes.resize(at + 1);
  bytes[at] = 0;  // [base][0]
  Flow b;
  auto& op = add_mq(b, kMqSpecs);
  EXPECT_THROW(op.restore_record(bytes), SnapshotError);
}

}  // namespace
}  // namespace aggspes
