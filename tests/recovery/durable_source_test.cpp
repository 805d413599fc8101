// Durability suite (ctest label: durability): DurableSource semantics —
// output equivalence with the non-durable ReplaySource, the
// append-ack-emit protocol, WAL-suffix replay after restore, the v3
// snapshot codec with v2/legacy migration — plus the ReplaySource
// restore_from edge cases (offset past end, marker_every = 0, restore
// exactly at a marker boundary).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/input_log.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

namespace fs = std::filesystem;

struct Ev {
  int key;
  int val;
  friend bool operator==(const Ev&, const Ev&) = default;
  friend auto operator<=>(const Ev&, const Ev&) = default;
};

std::vector<Tuple<Ev>> sample_stream(int n) {
  std::vector<Tuple<Ev>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += (i % 3);
    v.push_back({ts, 0, {i % 4, i % 10}});
  }
  return v;
}

constexpr Timestamp kPeriod = 7;

class DurableSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aggspes_dsrc_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalOptions wal_opts(std::size_t volume_bytes = 64 * 1024) {
    // group_commit_records = 0: the source drives the flush points.
    return WalOptions{dir_, volume_bytes, 0};
  }

  fs::path dir_;
};

/// Runs a source node type through the single-threaded Flow into a
/// CollectorSink and returns the sink's view.
template <typename Src, typename... Args>
std::pair<std::vector<Tuple<Ev>>, bool> collect(Args&&... args) {
  Flow flow;
  auto& src = flow.add<Src>(std::forward<Args>(args)...);
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  return {sink.tuples(), sink.ended()};
}

TEST_F(DurableSourceTest, MatchesReplaySourceOutput) {
  const auto in = sample_stream(50);
  const Timestamp flush = in.back().ts + 30;
  const auto [plain, plain_ended] =
      collect<ReplaySource<Ev>>(in, kPeriod, flush, std::size_t{0});

  InputLog log(wal_opts());
  const auto [durable, durable_ended] = collect<DurableSource<Ev>>(
      in, kPeriod, flush, std::ref(log), std::size_t{0}, std::size_t{8});
  EXPECT_TRUE(plain_ended);
  EXPECT_TRUE(durable_ended);
  EXPECT_EQ(durable, plain);
  // Every script element (tuples, watermarks, end) was logged and acked.
  EXPECT_GT(log.stats().records_appended, 50u);
  EXPECT_EQ(log.durable_seqno(), log.next_seqno() - 1);
}

TEST_F(DurableSourceTest, AcksRideGroupCommits) {
  const auto script =
      timed_script(sample_stream(40), kPeriod, sample_stream(40).back().ts + 30);
  InputLog log(wal_opts());
  Flow flow;
  auto& src = flow.add<DurableSource<Ev>>(script, log, /*marker_every=*/0,
                                          /*group_commit=*/10);
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  EXPECT_EQ(src.acked(), script.size());
  // ceil(script/10) flushes — group commit batches the fsyncs.
  const auto expect_syncs = (script.size() + 9) / 10;
  EXPECT_EQ(log.stats().syncs, expect_syncs);
  EXPECT_EQ(src.replayed(), 0u);
}

TEST_F(DurableSourceTest, ReplaysAckedSuffixFromWalBytes) {
  const auto in = sample_stream(30);
  const Timestamp flush = in.back().ts + 30;
  const auto script = timed_script(in, kPeriod, flush);

  // First run: everything ingested and acked.
  std::vector<Tuple<Ev>> reference;
  {
    InputLog log(wal_opts());
    auto [tuples, ended] = collect<DurableSource<Ev>>(
        script, std::ref(log), std::size_t{0}, std::size_t{4});
    ASSERT_TRUE(ended);
    reference = tuples;
  }

  // Restart: same WAL dir, fresh source, no checkpoint (cursor 0) — the
  // whole stream must come back from the log's bytes, not the script.
  // Hand the source a *wrong* script beyond the durable prefix to prove
  // replay never consults it.
  std::vector<Element<Ev>> decoy(script.size(),
                                 Element<Ev>{Tuple<Ev>{999, 0, {9, 9}}});
  InputLog log(wal_opts());
  const std::uint64_t durable_before = log.durable_seqno();
  ASSERT_EQ(durable_before, script.size());
  Flow flow;
  auto& src = flow.add<DurableSource<Ev>>(decoy, log, std::size_t{0},
                                          std::size_t{4});
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  EXPECT_EQ(src.replayed(), script.size());
  EXPECT_EQ(src.acked(), 0u) << "replayed elements were acked last run";
  EXPECT_EQ(sink.tuples(), reference);
  EXPECT_TRUE(sink.ended());
}

TEST_F(DurableSourceTest, TornTailIsReIngestedOnRestart) {
  const auto in = sample_stream(30);
  const Timestamp flush = in.back().ts + 30;
  const auto script = timed_script(in, kPeriod, flush);
  const auto [reference, ref_ended] =
      collect<ReplaySource<Ev>>(std::vector<Element<Ev>>(script),
                                std::size_t{0});
  ASSERT_TRUE(ref_ended);

  InputLog log(wal_opts());
  // Partially ingest by hand: 10 elements appended+synced, 3 more torn.
  for (int i = 0; i < 10; ++i) log.append(wal_codec::encode<Ev>(script[i]));
  log.sync();
  for (int i = 10; i < 13; ++i) log.append(wal_codec::encode<Ev>(script[i]));
  log.crash_tear_unsynced();

  Flow flow;
  auto& src = flow.add<DurableSource<Ev>>(script, log, std::size_t{0},
                                          std::size_t{4});
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  flow.run();
  EXPECT_GE(log.stats().torn_truncations, 1u);
  EXPECT_EQ(src.replayed(), 10u);
  EXPECT_EQ(sink.tuples(), reference);
  EXPECT_TRUE(sink.ended());
}

TEST_F(DurableSourceTest, CodecV3RoundTripsAndCarriesDurableFrontier) {
  const auto script = timed_script(sample_stream(20), kPeriod, 100);
  InputLog log(wal_opts());
  {
    Flow flow;
    auto& src = flow.add<DurableSource<Ev>>(script, log, /*marker_every=*/8,
                                            /*group_commit=*/4);
    auto& sink = flow.add<CollectorSink<Ev>>();
    flow.connect(src.out(), sink.in());
    flow.run();
    SnapshotWriter w;
    src.snapshot_to(w);
    const auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 25u);  // [ver][cursor][marker][durable]
    EXPECT_EQ(bytes[0], DurableSource<Ev>::kCodecVersion);

    DurableSource<Ev> restored(script, log);
    SnapshotReader r(bytes);
    restored.restore_from(r);
    EXPECT_EQ(restored.cursor(), src.cursor());
    EXPECT_EQ(restored.markers_injected(), src.markers_injected());
    EXPECT_EQ(restored.durable_at_commit(), log.durable_seqno());
  }
}

// DurableSource accepts only its own v3 layout: the v2 ReplaySource layout
// and the unversioned 16-byte one are rejected, not migrated.
TEST_F(DurableSourceTest, CodecMigratesV2AndLegacyLayouts) {
  const auto script = timed_script(sample_stream(20), kPeriod, 100);
  InputLog log(wal_opts());

  // v2: [u8=2][cursor][next_marker] — what ReplaySource writes.
  {
    SnapshotWriter w;
    w.write_pod(std::uint8_t{2});
    w.write_size(12);
    w.write_u64(4);
    DurableSource<Ev> src(script, log);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(src.restore_from(r), SnapshotError);
  }
  // Legacy: unversioned 16-byte [cursor][next_marker]; cursor 7's low
  // byte is not the v3 tag.
  {
    SnapshotWriter w;
    w.write_size(7);
    w.write_u64(2);
    DurableSource<Ev> src(script, log);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(src.restore_from(r), SnapshotError);
  }
  // Unknown version tag throws.
  {
    SnapshotWriter w;
    w.write_pod(std::uint8_t{9});
    w.write_size(0);
    w.write_u64(1);
    w.write_u64(0);
    DurableSource<Ev> src(script, log);
    SnapshotReader r(w.bytes());
    EXPECT_THROW(src.restore_from(r), SnapshotError);
  }
}

TEST_F(DurableSourceTest, ReplaySourceCodecV2RoundTripAndLegacyMigration) {
  const auto script = timed_script(sample_stream(20), kPeriod, 100);
  ReplaySource<Ev> src(std::vector<Element<Ev>>(script), /*marker_every=*/8);
  src.pump();
  SnapshotWriter w;
  src.snapshot_to(w);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 17u);
  EXPECT_EQ(bytes[0], ReplaySource<Ev>::kCodecVersion);
  ReplaySource<Ev> restored(std::vector<Element<Ev>>(script), 8);
  SnapshotReader r(bytes);
  restored.restore_from(r);
  EXPECT_EQ(restored.cursor(), src.cursor());
  EXPECT_EQ(restored.markers_injected(), src.markers_injected());

  // The unversioned 16-byte layout is rejected, not migrated.
  SnapshotWriter legacy;
  legacy.write_size(5);
  legacy.write_u64(3);
  ReplaySource<Ev> migrated(std::vector<Element<Ev>>(script), 8);
  SnapshotReader lr(legacy.bytes());
  EXPECT_THROW(migrated.restore_from(lr), SnapshotError);
}

// --- ReplaySource::restore_from edge cases (ISSUE 6 satellite) ---

TEST_F(DurableSourceTest, ReplayRestoreOffsetPastEndEmitsNothing) {
  const auto script = timed_script(sample_stream(5), kPeriod, 50);
  Flow flow;
  auto& src = flow.add<ReplaySource<Ev>>(std::vector<Element<Ev>>(script),
                                         std::size_t{0});
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  SnapshotWriter w;
  w.write_pod(ReplaySource<Ev>::kCodecVersion);
  w.write_size(script.size() + 100);  // cursor far past the script
  w.write_u64(1);
  SnapshotReader r(w.bytes());
  src.restore_from(r);
  flow.run();
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_TRUE(sink.watermarks().empty());
  EXPECT_FALSE(sink.ended()) << "nothing to emit includes the end marker";
  EXPECT_EQ(src.cursor(), script.size())
      << "pump clamps the cursor to the script";
}

TEST_F(DurableSourceTest, ReplayRestoreWithMarkerEveryZero) {
  const auto script = timed_script(sample_stream(10), kPeriod, 50);
  Flow flow;
  auto& src = flow.add<ReplaySource<Ev>>(std::vector<Element<Ev>>(script),
                                         std::size_t{0});
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  SnapshotWriter w;
  w.write_pod(ReplaySource<Ev>::kCodecVersion);
  w.write_size(4);
  w.write_u64(1);
  SnapshotReader r(w.bytes());
  src.restore_from(r);
  flow.run();
  EXPECT_EQ(src.markers_injected(), 0u) << "marker_every=0: no barriers";
  EXPECT_TRUE(sink.ended());
  // Exactly the suffix [4, end) of the script arrived.
  std::size_t suffix_tuples = 0;
  for (std::size_t i = 4; i < script.size(); ++i) {
    if (is_tuple(script[i])) ++suffix_tuples;
  }
  EXPECT_EQ(sink.tuples().size(), suffix_tuples);
}

TEST_F(DurableSourceTest, ReplayRestoreExactlyAtMarkerBoundary) {
  constexpr std::size_t kEvery = 8;
  const auto script = timed_script(sample_stream(30), kPeriod, 100);
  ASSERT_GT(script.size(), 2 * kEvery);
  Flow flow;
  auto& src =
      flow.add<ReplaySource<Ev>>(std::vector<Element<Ev>>(script), kEvery);
  auto& sink = flow.add<CollectorSink<Ev>>();
  flow.connect(src.out(), sink.in());
  // Checkpoint 2 committed cursor 2*kEvery — restoring right *at* the
  // boundary must not re-inject marker 2 at the resume position (the
  // `i != cursor_` guard), and the next marker must be id 3.
  SnapshotWriter w;
  w.write_pod(ReplaySource<Ev>::kCodecVersion);
  w.write_size(2 * kEvery);
  w.write_u64(3);
  SnapshotReader r(w.bytes());
  src.restore_from(r);
  flow.run();
  EXPECT_TRUE(sink.ended());
  const std::uint64_t injected_after_restore = src.markers_injected() - 2;
  const std::uint64_t boundaries_left = (script.size() - 1) / kEvery - 2;
  EXPECT_EQ(injected_after_restore, boundaries_left)
      << "one marker per remaining boundary; none at the resume point";
}

}  // namespace
}  // namespace aggspes
