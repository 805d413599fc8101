// Recovery integration for the pane-backed dedicated Join: snapshot →
// restore-into-a-fresh-graph → continue must equal an uninterrupted run
// across every pane geometry and at several cut positions, which pins the
// arrival index the restore rebuilds; and snapshots tagged with any other
// version — the buffering join's per-instance layout included — or whose
// pane cells are malformed, must be rejected loudly.
#include "core/operators/join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/operators/join_buffering.hpp"
#include "core/operators/sink.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using Pair = std::pair<int, int>;

const WindowSpec kSpec{.advance = 4, .size = 10};  // gcd 2: 5 panes/instance

// The pane geometries of join_pane_store_test: tumbling (g = WS = WA),
// WA-divides-WS (g = WA), mixed gcd, coprime (g = 1), and WS < WA
// (inter-instance gaps).
const std::vector<WindowSpec> kSpecs = {
    {.advance = 4, .size = 4},   {.advance = 5, .size = 15},
    {.advance = 4, .size = 10},  {.advance = 7, .size = 9},
    {.advance = 10, .size = 6},  {.advance = 3, .size = 7},
};

std::function<int(const int&)> by_mod3() {
  return [](const int& v) { return v % 3; };
}

std::function<bool(const int&, const int&)> parity_pred() {
  // The script's sides alternate even/odd values, so a sum-based test is
  // the selective-but-nonempty choice.
  return [](const int& a, const int& b) { return (a + b) % 3 == 0; };
}

/// One element of an interleaved two-sided script (watermarks advance both
/// ports in lockstep).
struct Step {
  enum Kind { kLeft, kRight, kWatermark } kind;
  Tuple<int> t{};
  Timestamp wm{0};
};

/// Deterministic two-sided script with bounded disorder: both sides see
/// tuples roughly in time order, watermarks trail 3 ticks behind.
std::vector<Step> int_script(const WindowSpec& spec = kSpec) {
  std::vector<Step> s;
  Timestamp ts = 0;
  Timestamp last_wm = kMinTimestamp;
  for (int i = 0; i < 90; ++i) {
    ts += (i % 4 == 0) ? 0 : 1;
    const Timestamp jitter = (i % 5 == 2) ? -2 : 0;  // mildly out of order
    Step st;
    st.kind = (i % 2 == 0) ? Step::kLeft : Step::kRight;
    st.t = Tuple<int>{ts + jitter, 0, i % 10};
    s.push_back(st);
    const Timestamp wm = ts - 3;
    if (wm > last_wm) {
      s.push_back(Step{Step::kWatermark, {}, wm});
      last_wm = wm;
    }
  }
  s.push_back(Step{Step::kWatermark, {}, ts + spec.size + 1});
  return s;
}

template <typename JoinT>
struct Rig {
  Flow flow;
  JoinT* op;
  CollectorSink<Pair>* sink;

  explicit Rig(const WindowSpec& spec = kSpec) {
    op = &flow.add<JoinT>(spec, by_mod3(), by_mod3(), parity_pred());
    sink = &flow.add<CollectorSink<Pair>>();
    flow.connect(op->out(), sink->in());
  }

  void apply(const std::vector<Step>& steps) {
    for (const Step& s : steps) {
      switch (s.kind) {
        case Step::kLeft:
          op->in_left().receive(Element<int>{s.t});
          break;
        case Step::kRight:
          op->in_right().receive(Element<int>{s.t});
          break;
        case Step::kWatermark:
          op->in_left().receive(Element<int>{Watermark{s.wm}});
          op->in_right().receive(Element<int>{Watermark{s.wm}});
          break;
      }
      flow.drain();
    }
  }

  void finish() {
    op->in_left().receive(Element<int>{EndOfStream{}});
    op->in_right().receive(Element<int>{EndOfStream{}});
    flow.drain();
  }
};

template <typename T>
SnapshotWriter::Bytes snapshot_of(const T& node) {
  SnapshotWriter w;
  node.snapshot_to(w);
  return w.take();
}

/// Cut positions spread over the script: right after the start, every
/// sixth of the way through, and just before the end.
std::vector<std::size_t> cuts_of(std::size_t n) {
  std::vector<std::size_t> cuts{1};
  for (std::size_t k = 1; k < 6; ++k) cuts.push_back(n * k / 6);
  cuts.push_back(n - 2);
  return cuts;
}

void mid_stream_continuation(const WindowSpec& spec) {
  SCOPED_TRACE("WA=" + std::to_string(spec.advance) +
               " WS=" + std::to_string(spec.size));
  const auto script = int_script(spec);

  Rig<JoinOp<int, int, int>> ref(spec);
  ref.apply(script);
  ref.finish();
  ASSERT_FALSE(ref.sink->tuples().empty());
  ASSERT_TRUE(ref.sink->ended());

  for (std::size_t cut : cuts_of(script.size())) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::vector<Step> prefix(script.begin(),
                                   script.begin() + static_cast<long>(cut));
    const std::vector<Step> suffix(script.begin() + static_cast<long>(cut),
                                   script.end());

    Rig<JoinOp<int, int, int>> a(spec);
    a.apply(prefix);
    const auto op_bytes = snapshot_of(*a.op);
    const auto sink_bytes = snapshot_of(*a.sink);

    Rig<JoinOp<int, int, int>> b(spec);
    SnapshotReader op_r(op_bytes), sink_r(sink_bytes);
    b.op->restore_from(op_r);
    b.sink->restore_from(sink_r);
    EXPECT_TRUE(op_r.exhausted());
    b.apply(suffix);
    b.finish();

    // The rebuilt arrival index replays the cut's arrival order, so the
    // restored run emits the uninterrupted run's outputs in order.
    const auto& want = ref.sink->tuples();
    const auto& got = b.sink->tuples();
    ASSERT_GE(want.size(), got.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           want.end() - static_cast<long>(got.size())));
    EXPECT_EQ(b.sink->multiset(), ref.sink->multiset());
    EXPECT_EQ(b.op->comparisons(), ref.op->comparisons());
    EXPECT_EQ(b.op->dropped_late(), ref.op->dropped_late());
    EXPECT_EQ(b.sink->watermark_regressions(), 0);
    EXPECT_TRUE(b.sink->ended());
  }
}

TEST(JoinPaneSnapshot, MidStreamContinuation) {
  for (const WindowSpec& spec : kSpecs) mid_stream_continuation(spec);
}

// The per-instance BufferingJoinOp keeps its own layout as the oracle; its
// leading has_state = 1 byte is not a JoinOp version, so the pane-backed
// join refuses the cut instead of migrating it.
TEST(JoinPaneSnapshot, BufferingJoinCutIsRejected) {
  const auto script = int_script();
  Rig<BufferingJoinOp<int, int, int>> a;
  a.apply({script.begin(), script.begin() + 40});
  ASSERT_GT(a.op->occupancy(), 0u);

  Rig<JoinOp<int, int, int>> b;
  const auto bytes = snapshot_of(*a.op);
  SnapshotReader r(bytes);
  EXPECT_THROW(b.op->restore_from(r), SnapshotError);
}

TEST(JoinPaneSnapshot, UnknownCodecVersionIsRejected) {
  // A JoinOp whose payload lacks a StateCodec writes base state plus a
  // single version-0 byte, which pins the offset of the version tag.
  struct Opaque {
    int v{0};
    std::function<void()> no_codec;  // makes the payload non-serializable
  };
  static_assert(!SnapshotSerializable<Opaque>);
  JoinOp<Opaque, Opaque, int> probe(
      kSpec, [](const Opaque&) { return 0; }, [](const Opaque&) { return 0; },
      [](const Opaque&, const Opaque&) { return false; });
  const std::size_t base_len = snapshot_of(probe).size() - 1;

  Rig<JoinOp<int, int, int>> a;
  auto bytes = snapshot_of(*a.op);
  ASSERT_EQ(bytes[base_len], 2) << "codec version tag moved";
  bytes[base_len] = 9;  // future / corrupt version

  Rig<JoinOp<int, int, int>> b;
  SnapshotReader r(bytes);
  EXPECT_THROW(b.op->restore_from(r), SnapshotError);
}

// A JoinOp with a StateCodec never writes the no-codec byte: a record that
// is just [base][0] is not its layout and must not restore an empty store.
TEST(JoinPaneSnapshot, SerializableJoinRefusesNoCodecByte) {
  Rig<JoinOp<int, int, int>> a;
  a.apply({{Step::kLeft, Tuple<int>{2, 0, 4}, 0}});
  SnapshotWriter w, store_w;
  a.op->snapshot_to(w);
  a.op->store().save(store_w);
  auto bytes = w.take();
  // [base][version][store][comparisons][dropped_late]
  const std::size_t at = bytes.size() - store_w.bytes().size() - 16 - 1;
  ASSERT_EQ(bytes[at], 2) << "codec version tag moved";
  bytes.resize(at + 1);
  bytes[at] = 0;  // [base][0]

  Rig<JoinOp<int, int, int>> b;
  EXPECT_THROW(b.op->restore_record(bytes), SnapshotError);
}

// Replayed watermarks after restore must not double-drop: the purge is
// idempotent and counters travel with the snapshot.
TEST(JoinPaneSnapshot, ReplayedWatermarkIsIdempotent) {
  Rig<JoinOp<int, int, int>> a;
  a.apply({{Step::kLeft, Tuple<int>{2, 0, 4}, 0},
           {Step::kRight, Tuple<int>{3, 0, 6}, 0},
           {Step::kWatermark, {}, 20}});
  const auto dropped = a.op->dropped_late();
  const auto bytes = snapshot_of(*a.op);

  Rig<JoinOp<int, int, int>> b;
  SnapshotReader r(bytes);
  b.op->restore_from(r);
  b.apply({{Step::kWatermark, {}, 20}});  // replayed watermark
  EXPECT_EQ(b.op->store().occupancy(), 0u);
  EXPECT_EQ(b.op->dropped_late(), dropped);
  EXPECT_TRUE(b.sink->tuples().size() <= a.sink->tuples().size());
}

// --- hostile cuts -----------------------------------------------------------

/// A hand-built JoinPaneStore cut: pane `p` holding one cell (key 0) whose
/// left side stores the given (seq, ts) entries, then the seq cursor.
SnapshotWriter::Bytes store_cut(
    Timestamp p, const std::vector<std::pair<std::uint64_t, Timestamp>>& lefts,
    std::uint64_t next_seq) {
  SnapshotWriter w;
  w.write_size(1);  // panes
  w.write_i64(p);
  w.write_size(1);  // cells
  write_value(w, 0);
  w.write_size(lefts.size());
  for (const auto& [seq, ts] : lefts) {
    w.write_u64(seq);
    write_value(w, Tuple<int>{ts, 0, 7});
  }
  w.write_size(0);  // rights
  w.write_u64(next_seq);
  return w.take();
}

using Store = swa::JoinPaneStore<int, int, int>;

void load_cut(Store& store, const SnapshotWriter::Bytes& bytes) {
  SnapshotReader r(bytes);
  store.load(r, kMinTimestamp);
}

// kSpec has g = 2, so pane 4 holds ts 4 and 5; the well-formed cut pins
// the layout the rejections below corrupt one field of.
TEST(JoinPaneSnapshot, WellFormedStoreCutLoadsAndIsIndexed) {
  Store store(kSpec);
  load_cut(store, store_cut(4, {{0, 4}, {1, 5}}, 2));
  EXPECT_EQ(store.occupancy(), 2u);
  std::vector<Timestamp> seen;
  store.for_each_left(0, 0, [&](const Tuple<int>& t) { seen.push_back(t.ts); });
  EXPECT_EQ(seen, (std::vector<Timestamp>{4, 5}));
}

TEST(JoinPaneSnapshot, EntryOutsideItsPaneIsRejected) {
  Store store(kSpec);
  EXPECT_THROW(load_cut(store, store_cut(4, {{0, 4}, {1, 9}}, 2)),
               SnapshotError);
}

TEST(JoinPaneSnapshot, NonAscendingSeqsInACellAreRejected) {
  Store store(kSpec);
  EXPECT_THROW(load_cut(store, store_cut(4, {{1, 4}, {0, 5}}, 2)),
               SnapshotError);
  EXPECT_THROW(load_cut(store, store_cut(4, {{0, 4}, {0, 5}}, 2)),
               SnapshotError);
}

TEST(JoinPaneSnapshot, SeqAtOrPastTheCursorIsRejected) {
  Store store(kSpec);
  EXPECT_THROW(load_cut(store, store_cut(4, {{0, 4}, {2, 5}}, 2)),
               SnapshotError);
}

// Element counts are bounded by the bytes left before anything is
// allocated or looped over, in the pane store and in the buffering join's
// decoder; the pane-backed join refuses that cut by its leading byte.
TEST(JoinPaneSnapshot, OversizedCountsAreRejected) {
  const auto expect_count_error = [](auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << "oversized count accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
          << e.what();
    }
  };
  SnapshotWriter huge;
  huge.write_size(std::size_t{1} << 40);
  const auto huge_bytes = huge.take();
  Store store(kSpec);
  expect_count_error([&] { load_cut(store, huge_bytes); });

  // An empty BufferingJoinOp writes base | has_state | 0 instances |
  // comparisons | dropped_late; keep the base, claim 2^40 instances.
  Rig<BufferingJoinOp<int, int, int>> a;
  auto bytes = snapshot_of(*a.op);
  bytes.resize(bytes.size() - 3 * sizeof(std::uint64_t));
  SnapshotWriter tail;
  tail.write_size(std::size_t{1} << 40);
  const auto tail_bytes = tail.take();
  bytes.insert(bytes.end(), tail_bytes.begin(), tail_bytes.end());
  Rig<BufferingJoinOp<int, int, int>> buffering;
  Rig<JoinOp<int, int, int>> paned;
  expect_count_error([&] {
    SnapshotReader r(bytes);
    buffering.op->restore_from(r);
  });
  SnapshotReader r(bytes);
  EXPECT_THROW(paned.op->restore_from(r), SnapshotError);
}

}  // namespace
}  // namespace aggspes
