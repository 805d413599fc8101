// Tests for shared-nothing key-by parallelism (§ 2.2): a logical stateful
// operator deployed as N physical instances must produce exactly the same
// results as one instance, because tuples sharing a key always meet in the
// same instance and watermarks are broadcast.
#include "core/operators/key_partition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/hashing.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Reading {
  int sensor;
  int value;
  friend bool operator==(const Reading&, const Reading&) = default;
};

using SumAgg = AggregateOp<Reading, std::pair<int, int>, int>;

std::vector<Tuple<Reading>> make_input() {
  std::vector<Tuple<Reading>> in;
  for (Timestamp ts = 0; ts < 100; ++ts) {
    in.push_back({ts, 0, {static_cast<int>(ts) % 7, static_cast<int>(ts)}});
  }
  return in;
}

/// Runs a logical "sum per sensor over tumbling 20-tick windows" operator
/// with `instances` physical copies and returns the merged output multiset.
std::multiset<std::pair<Timestamp, std::pair<int, int>>> run_partitioned(
    int instances) {
  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(make_input(), 10, 140);
  auto& split = flow.add<KeySplitter<Reading, int>>(
      instances, [](const Reading& r) { return r.sensor; });
  flow.connect(src.out(), split.in());
  auto& sink = flow.add<CollectorSink<std::pair<int, int>>>();
  for (int i = 0; i < instances; ++i) {
    auto& agg = flow.add<SumAgg>(
        WindowSpec{.advance = 20, .size = 20},
        [](const Reading& r) { return r.sensor; },
        [](const WindowView<Reading, int>& w)
            -> std::optional<std::pair<int, int>> {
          int sum = 0;
          for (const auto& t : w.items) sum += t.value.value;
          return std::make_pair(w.key, sum);
        });
    flow.connect(split.out(i), agg.in());
    flow.connect(agg.out(), sink.in());
  }
  flow.run();
  std::multiset<std::pair<Timestamp, std::pair<int, int>>> out;
  for (const auto& t : sink.tuples()) out.emplace(t.ts, t.value);
  return out;
}

TEST(KeySplitter, AllParallelismsProduceIdenticalResults) {
  auto reference = run_partitioned(1);
  EXPECT_FALSE(reference.empty());
  for (int p : {2, 3, 4}) {
    EXPECT_EQ(run_partitioned(p), reference) << "instances=" << p;
  }
}

TEST(KeySplitter, SameKeyAlwaysSameInstance) {
  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(make_input(), 10, 140);
  auto& split = flow.add<KeySplitter<Reading, int>>(
      3, [](const Reading& r) { return r.sensor; });
  flow.connect(src.out(), split.in());
  std::vector<CollectorSink<Reading>*> sinks;
  for (int i = 0; i < 3; ++i) {
    auto& s = flow.add<CollectorSink<Reading>>();
    flow.connect(split.out(i), s.in());
    sinks.push_back(&s);
  }
  flow.run();
  // Each sensor key appears in exactly one partition.
  std::set<int> seen;
  for (auto* s : sinks) {
    std::set<int> keys;
    for (const auto& t : s->tuples()) keys.insert(t.value.sensor);
    for (int k : keys) {
      EXPECT_TRUE(seen.insert(k).second) << "key " << k << " split";
    }
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(KeySplitter, WatermarksBroadcastToAllInstances) {
  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(make_input(), 10, 140);
  auto& split = flow.add<KeySplitter<Reading, int>>(
      3, [](const Reading& r) { return r.sensor; });
  flow.connect(src.out(), split.in());
  std::vector<CollectorSink<Reading>*> sinks;
  for (int i = 0; i < 3; ++i) {
    auto& s = flow.add<CollectorSink<Reading>>();
    flow.connect(split.out(i), s.in());
    sinks.push_back(&s);
  }
  flow.run();
  for (auto* s : sinks) {
    EXPECT_EQ(s->watermarks(), sinks[0]->watermarks());
    EXPECT_TRUE(s->ended());
    EXPECT_EQ(s->late_tuples(), 0);
  }
}

// The payload-hash contract (key_partition.hpp): the route is a pure
// function of the key's hash — identical tuples co-locate (Theorem 1) —
// and it goes through shard_of_hash, so any component can predict it.
TEST(KeySplitter, RouteIsAPureFunctionOfTheKeyHash) {
  Flow flow;
  auto& split = flow.add<KeySplitter<Reading, int>>(
      5, [](const Reading& r) { return r.sensor; });
  std::vector<CollectorSink<Reading>*> sinks;
  for (int i = 0; i < 5; ++i) {
    auto& s = flow.add<CollectorSink<Reading>>();
    flow.connect(split.out(i), s.in());
    sinks.push_back(&s);
  }
  // Same key, interleaved with others, repeated: always the same output.
  for (int rep = 0; rep < 3; ++rep) {
    for (int k = 0; k < 20; ++k) {
      split.in().receive(Element<Reading>{Tuple<Reading>{rep, 0, {k, rep}}});
    }
  }
  flow.drain();
  for (int k = 0; k < 20; ++k) {
    const std::size_t expect = shard_of_hash(std::hash<int>{}(k), 5);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      int here = 0;
      for (const auto& t : sinks[i]->tuples()) {
        if (t.value.sensor == k) ++here;
      }
      EXPECT_EQ(here, i == expect ? 3 : 0) << "key " << k << " shard " << i;
    }
  }
}

// Routing counters: per-output tuple counts, surfaced as per-shard
// diagnostics, must match what actually arrived downstream.
TEST(KeySplitter, RoutingCountersMatchDeliveredTuples) {
  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(make_input(), 10, 140);
  auto& split = flow.add<KeySplitter<Reading, int>>(
      3, [](const Reading& r) { return r.sensor; });
  flow.connect(src.out(), split.in());
  std::vector<CollectorSink<Reading>*> sinks;
  for (int i = 0; i < 3; ++i) {
    auto& s = flow.add<CollectorSink<Reading>>();
    flow.connect(split.out(i), s.in());
    sinks.push_back(&s);
  }
  flow.run();
  std::uint64_t total = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(split.routed(i), sinks[static_cast<std::size_t>(i)]->tuples().size());
    total += split.routed(i);
  }
  EXPECT_EQ(total, 100u);
  split.reset_diagnostics();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(split.routed(i), 0u);
}

// Skew: one hot key concentrates on exactly one shard (that is the
// co-location contract doing its job — a hot key CANNOT be spread), while
// the idle shards still drain: broadcast watermarks and end-of-stream
// keep arriving, so downstream windows fire and the union never stalls.
TEST(KeySplitter, HotKeyLandsOnOneShardWhileIdleShardsDrain) {
  constexpr int kHot = 7;
  const std::size_t hot_shard = shard_of_hash(std::hash<int>{}(kHot), 4);
  Flow flow;
  std::vector<Tuple<Reading>> in;
  for (Timestamp ts = 0; ts < 200; ++ts) {
    in.push_back({ts, 0, {kHot, static_cast<int>(ts)}});
  }
  auto& src = flow.add<TimedSource<Reading>>(in, 10, 230);
  auto& split = flow.add<KeySplitter<Reading, int>>(
      4, [](const Reading& r) { return r.sensor; });
  flow.connect(src.out(), split.in());
  std::vector<CollectorSink<Reading>*> sinks;
  for (int i = 0; i < 4; ++i) {
    auto& s = flow.add<CollectorSink<Reading>>();
    flow.connect(split.out(i), s.in());
    sinks.push_back(&s);
  }
  flow.run();
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == hot_shard) {
      EXPECT_EQ(sinks[i]->tuples().size(), 200u);
      EXPECT_EQ(split.routed(static_cast<int>(i)), 200u);
    } else {
      // Idle but draining: zero tuples, yet full watermark cadence and a
      // clean end-of-stream.
      EXPECT_TRUE(sinks[i]->tuples().empty());
      EXPECT_EQ(sinks[i]->watermarks(), sinks[hot_shard]->watermarks());
      EXPECT_TRUE(sinks[i]->ended());
    }
  }
}

// The splitmix64 finalizer matters: std::hash<integral> is the identity,
// so raw hash % N would route consecutive int keys round-robin (key % N)
// — an arithmetic pattern, not a hash spread. The mixed route must not
// degenerate to key % N, and must still spread reasonably.
TEST(KeySplitter, MixedHashDoesNotExposeRawKeyArithmetic) {
  constexpr int kShards = 4;
  int identity_pattern = 0;
  std::vector<int> per_shard(kShards, 0);
  for (int k = 0; k < 1000; ++k) {
    const std::size_t s = shard_of_hash(std::hash<int>{}(k), kShards);
    ++per_shard[s];
    if (s == static_cast<std::size_t>(k % kShards)) ++identity_pattern;
  }
  // Unmixed routing would give 1000 matches; a mixed route agrees with
  // k % N only by chance (~250 of 1000).
  EXPECT_LT(identity_pattern, 500);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(per_shard[s], 150) << "shard " << s << " starved";
  }
}

/// A 3-output int splitter logging to one WAL partition per output, fed
/// 30 tuples and two watermarks; the partitions live under `dir`.
struct LoggingSplitter {
  explicit LoggingSplitter(const std::filesystem::path& dir) {
    for (int s = 0; s < 3; ++s) {
      logs.push_back(std::make_unique<InputLog>(
          WalOptions{dir / std::to_string(s), 64 * 1024, 1}));
      wals.push_back(logs.back().get());
    }
    split = std::make_unique<KeySplitter<int, int>>(
        3, [](const int& v) { return v; }, std::vector<Shedder*>{}, wals);
    for (int k = 0; k < 30; ++k) {
      split->in().receive(Element<int>{Tuple<int>{k, 0, k}});
      if (k % 15 == 14) split->in().receive(Element<int>{Watermark{k}});
    }
  }

  std::vector<std::unique_ptr<InputLog>> logs;
  std::vector<InputLog*> wals;
  std::unique_ptr<KeySplitter<int, int>> split;
};

SnapshotWriter::Bytes record_of(const KeySplitter<int, int>& split) {
  SnapshotWriter w;
  split.snapshot_to(w);
  return w.take();
}

// Checkpoint codec v3 carries both per-output cursors: the routed counter
// and the WAL cursor the shard supervisor replays from.
TEST(KeySplitter, SnapshotV3RoundTripsRoutedAndLoggedCursors) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "aggspes_key_splitter_v3_round_trip";
  std::filesystem::remove_all(dir);
  {
    LoggingSplitter ls(dir);
    const SnapshotWriter::Bytes bytes = record_of(*ls.split);

    KeySplitter<int, int> restored(3, [](const int& v) { return v; });
    restored.restore_record(bytes);
    std::uint64_t routed = 0;
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(restored.routed(s), ls.split->routed(s));
      EXPECT_EQ(restored.logged(s), ls.split->logged(s));
      // Each partition logged its own tuples plus both watermarks.
      EXPECT_EQ(ls.split->logged(s), ls.split->routed(s) + 2);
      const InputLog& log = *ls.logs[static_cast<std::size_t>(s)];
      EXPECT_EQ(log.stats().records_appended, ls.split->logged(s));
      using Split = KeySplitter<int, int>;
      EXPECT_EQ(Split::decode_logged(bytes, s), ls.split->logged(s));
      routed += restored.routed(s);
    }
    EXPECT_EQ(routed, 30u);
  }
  std::filesystem::remove_all(dir);
}

// A shard's cursor pair takes 16 bytes, so a shard count that fits at one
// byte per shard but not at that width is refused before the cursors are
// allocated.
TEST(KeySplitter, ShardCountIsBoundedByCursorWidth) {
  SnapshotWriter w;
  w.write_pod<std::uint8_t>(3);  // the codec version
  w.write_size(1000);
  for (int i = 0; i < 2000; ++i) w.write_pod<std::uint8_t>(0);
  const auto bytes = w.take();
  try {
    KeySplitter<int, int>::decode_logged(bytes, 0);
    FAIL() << "a 1000-shard record over 2000 bytes decoded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: count", 0), 0u)
        << e.what();
  }
}

TEST(KeySplitter, MalformedSnapshotsAreRejected) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "aggspes_key_splitter_v3_malformed";
  std::filesystem::remove_all(dir);
  {
    LoggingSplitter ls(dir);
    const SnapshotWriter::Bytes bytes = record_of(*ls.split);
    using Split = KeySplitter<int, int>;
    auto key = [](const int& v) { return v; };

    // A v2 record ([version][n][routed]×n) is not read as v3.
    SnapshotWriter v2;
    v2.write_pod(std::uint8_t{2});
    v2.write_size(3);
    for (int s = 0; s < 3; ++s) v2.write_u64(ls.split->routed(s));
    const SnapshotWriter::Bytes v2_bytes = v2.take();
    Split a(3, key);
    EXPECT_THROW(a.restore_record(v2_bytes), SnapshotError);
    EXPECT_THROW(Split::decode_logged(v2_bytes, 0), SnapshotError);

    // A record for another shard count is a wiring bug.
    Split wrong(4, key);
    EXPECT_THROW(wrong.restore_record(bytes), SnapshotError);

    // A record cut inside the per-shard pairs.
    const SnapshotWriter::Bytes cut(bytes.begin(), bytes.end() - 12);
    Split b(3, key);
    EXPECT_THROW(b.restore_record(cut), SnapshotError);
    EXPECT_THROW(Split::decode_logged(cut, 0), SnapshotError);

    // A shard index outside the record.
    EXPECT_THROW(Split::decode_logged(bytes, 3), SnapshotError);
    EXPECT_THROW(Split::decode_logged(bytes, -1), SnapshotError);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aggspes
