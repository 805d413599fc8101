// Unit tests for the recovery subsystem's serialization layer: the
// writer/reader pair, the StateCodec customization point (including the
// deep-recursion property of SnapshotSerializable), and the checkpoint
// store's completeness semantics.
#include "core/recovery/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aggbased/embedded.hpp"
#include "core/recovery/checkpoint_store.hpp"

namespace aggspes {
namespace {

TEST(Snapshot, PodRoundTrip) {
  SnapshotWriter w;
  w.write_u64(42);
  w.write_i64(-7);
  w.write_bool(true);
  w.write_bool(false);
  w.write_size(1234);
  const auto bytes = w.take();

  SnapshotReader r(bytes);
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_EQ(r.read_i64(), -7);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_size(), 1234u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Snapshot, UnderflowThrows) {
  SnapshotWriter w;
  w.write_u64(1);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  r.read_u64();
  EXPECT_THROW(r.read_u64(), SnapshotError);
}

TEST(Snapshot, TruncatedBufferThrowsNotGarbage) {
  SnapshotWriter w;
  w.write_u64(99);
  auto bytes = w.take();
  bytes.resize(3);  // cut mid-value
  SnapshotReader r(bytes);
  EXPECT_THROW(r.read_u64(), SnapshotError);
}

TEST(Snapshot, HugeRawReadThrowsInsteadOfWrapping) {
  SnapshotWriter w;
  w.write_u64(7);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  r.read_u64();
  // pos + n wraps to 0 here; the bound check must not.
  char buf[8];
  EXPECT_THROW(r.read_raw(buf, SIZE_MAX - 7), SnapshotError);
}

// A decoded length the remaining bytes cannot hold is rejected before any
// allocation (a 2^63 length would otherwise throw std::bad_alloc or
// std::length_error, which the checkpoint fallback does not catch).
TEST(Snapshot, HugeStringLengthThrowsBeforeAllocating) {
  SnapshotWriter w;
  w.write_size(std::size_t{1} << 63);
  w.write_raw("abc", 3);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  EXPECT_THROW(read_value<std::string>(r), SnapshotError);
}

TEST(Snapshot, HugeVectorLengthThrowsBeforeAllocating) {
  SnapshotWriter w;
  w.write_size(std::size_t{1} << 63);
  w.write_u64(1);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  EXPECT_THROW(read_value<std::vector<int>>(r), SnapshotError);
}

template <typename T>
T round_trip(const T& v) {
  SnapshotWriter w;
  write_value(w, v);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  T out = read_value<T>(r);
  EXPECT_TRUE(r.exhausted());
  return out;
}

TEST(StateCodec, Composites) {
  EXPECT_EQ(round_trip(std::string("hello")), "hello");
  EXPECT_EQ(round_trip(std::string()), "");
  EXPECT_EQ(round_trip(std::vector<int>{1, 2, 3}), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(round_trip(std::pair<int, std::string>{4, "x"}),
            (std::pair<int, std::string>{4, "x"}));
  EXPECT_EQ(round_trip(std::optional<int>{5}), std::optional<int>{5});
  EXPECT_EQ(round_trip(std::optional<int>{}), std::optional<int>{});
  // Nesting recurses through the element codecs.
  EXPECT_EQ(round_trip(std::vector<std::vector<std::string>>{{"a"}, {}, {"b", "c"}}),
            (std::vector<std::vector<std::string>>{{"a"}, {}, {"b", "c"}}));
}

TEST(StateCodec, TupleAndEnvelopes) {
  const Tuple<int> t{17, 3, 99};
  const Tuple<int> back = round_trip(t);
  EXPECT_EQ(back.ts, 17);
  EXPECT_EQ(back.stamp, 3u);
  EXPECT_EQ(back.value, 99);

  const Embedded<int> env{{1, 2, 3}, 1};
  const Embedded<int> env_back = round_trip(env);
  EXPECT_EQ(env_back.items(), env.items());
  EXPECT_EQ(env_back.index, 1);
  EXPECT_EQ(round_trip(Embedded<int>{{7}, kFromEmbed}).from_embed(), true);

  JoinSides<int, std::string> s;
  s.left = {1, 2};
  const auto s_back = round_trip(s);
  EXPECT_EQ(s_back.left, s.left);
  EXPECT_TRUE(s_back.right.empty());
  EXPECT_TRUE(s_back.from_left());
}

// The concept must recurse: a composite of an unserializable type is
// itself unserializable (a shallow check would pass and then fail at
// instantiation depth — the bug class the constrained codecs prevent).
struct NoCodec {
  std::unique_ptr<int> p;
};
static_assert(SnapshotSerializable<int>);
static_assert(SnapshotSerializable<std::string>);
static_assert(SnapshotSerializable<Tuple<Embedded<int>>>);
static_assert(SnapshotSerializable<std::vector<std::pair<int, std::string>>>);
static_assert(!SnapshotSerializable<NoCodec>);
static_assert(!SnapshotSerializable<std::vector<NoCodec>>);
static_assert(!SnapshotSerializable<std::pair<int, NoCodec>>);
static_assert(!SnapshotSerializable<std::optional<NoCodec>>);
static_assert(!SnapshotSerializable<Tuple<NoCodec>>);
static_assert(!SnapshotSerializable<Embedded<NoCodec>>);
static_assert(!SnapshotSerializable<JoinSides<NoCodec, int>>);

CheckpointStore::Bytes bytes_of(std::uint8_t b) { return {b}; }

TEST(CheckpointStore, IncompleteIdIsNotACandidate) {
  CheckpointStore store;
  store.set_expected_nodes(3);
  store.record(0, 1, bytes_of(10));
  store.record(1, 1, bytes_of(11));
  EXPECT_FALSE(store.latest_complete().has_value());
  store.record(2, 1, bytes_of(12));
  ASSERT_TRUE(store.latest_complete().has_value());
  EXPECT_EQ(*store.latest_complete(), 1u);
}

TEST(CheckpointStore, LatestCompleteIsTheHighestFullyRecordedId) {
  CheckpointStore store;
  store.set_expected_nodes(2);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    store.record(0, id, bytes_of(0));
    store.record(1, id, bytes_of(1));
  }
  store.record(0, 4, bytes_of(0));  // node 1 never reaches id 4
  EXPECT_EQ(*store.latest_complete(), 3u);
  EXPECT_TRUE(store.find(0, 4).has_value());
  EXPECT_FALSE(store.find(1, 4).has_value());
  EXPECT_EQ(store.find(1, 3)->at(0), 1);
}

TEST(CheckpointStore, ReRecordOverwritesIdempotently) {
  CheckpointStore store;
  store.set_expected_nodes(1);
  store.record(0, 1, bytes_of(1));
  store.record(0, 1, bytes_of(2));
  EXPECT_EQ(store.find(0, 1)->at(0), 2);
  EXPECT_EQ(*store.latest_complete(), 1u);
}

// A new attempt (enable_checkpoints → set_expected_nodes) must drop
// partial records of incomplete ids: counting a stale partial toward
// completeness would mix two attempts' cuts.
TEST(CheckpointStore, NewEpochDropsStalePartials) {
  CheckpointStore store;
  store.set_expected_nodes(2);
  store.record(0, 1, bytes_of(1));
  store.record(1, 1, bytes_of(1));
  store.record(0, 2, bytes_of(9));  // partial: crash before node 1 recorded

  store.set_expected_nodes(2);  // restart attempt
  EXPECT_EQ(*store.latest_complete(), 1u);
  EXPECT_FALSE(store.find(0, 2).has_value()) << "stale partial kept";
  // The restarted run re-records id 2 from scratch; it completes only
  // with both fresh records.
  store.record(1, 2, bytes_of(3));
  EXPECT_EQ(*store.latest_complete(), 1u);
  store.record(0, 2, bytes_of(3));
  EXPECT_EQ(*store.latest_complete(), 2u);
}

// GC: completing a checkpoint prunes every superseded id — the store's
// footprint is bounded by the in-flight window, not run length.
TEST(CheckpointStore, CompletionPrunesSupersededIds) {
  CheckpointStore store;
  store.set_expected_nodes(2);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    store.record(0, id, bytes_of(0));
    store.record(1, id, bytes_of(1));
  }
  store.record(0, 4, bytes_of(0));  // in flight
  EXPECT_EQ(*store.latest_complete(), 3u);
  EXPECT_EQ(store.ids_held(), (std::vector<std::uint64_t>{3, 4}))
      << "ids 1 and 2 are superseded and must be gone";
  EXPECT_FALSE(store.find(0, 1).has_value());
  EXPECT_FALSE(store.find(1, 2).has_value());
  EXPECT_TRUE(store.find(0, 3).has_value()) << "the frontier itself stays";
}

// The regression this PR fixes: a node restarted mid-barrier may replay an
// *old* barrier id and try to record for it after the frontier moved past.
// That stale record must be refused — a resurrected entry could never be
// restored, but a partially resurrected id could later look complete with
// mixed-epoch records.
TEST(CheckpointStore, StaleReRecordAfterRestartDoesNotResurrect) {
  CheckpointStore store;
  store.set_expected_nodes(2);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    store.record(0, id, bytes_of(0));
    store.record(1, id, bytes_of(1));
  }
  EXPECT_EQ(*store.latest_complete(), 2u);

  store.set_expected_nodes(2);     // restart attempt
  store.record(0, 1, bytes_of(9));  // node 0 replays old id 1
  EXPECT_EQ(store.stale_dropped(), 1u);
  EXPECT_FALSE(store.find(0, 1).has_value()) << "id 1 resurrected";
  EXPECT_EQ(store.ids_held(), (std::vector<std::uint64_t>{2}));
  store.record(1, 1, bytes_of(9));  // even "completing" it must not count
  EXPECT_EQ(store.stale_dropped(), 2u);
  EXPECT_EQ(*store.latest_complete(), 2u);

  // Re-recording the frontier id itself is still legal (idempotent
  // overwrite — the existing contract).
  store.record(0, 2, bytes_of(7));
  EXPECT_EQ(store.stale_dropped(), 2u);
  EXPECT_EQ(store.find(0, 2)->at(0), 7);
}

TEST(CheckpointStore, ClearResetsEverything) {
  CheckpointStore store;
  store.set_expected_nodes(1);
  store.record(0, 1, bytes_of(1));
  EXPECT_EQ(store.records_taken(), 1u);
  store.clear();
  EXPECT_FALSE(store.latest_complete().has_value());
  EXPECT_FALSE(store.find(0, 1).has_value());
  EXPECT_EQ(store.records_taken(), 0u);
}

}  // namespace
}  // namespace aggspes
