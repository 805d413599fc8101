// Sharded chaos suite (ctest label: sharded-chaos — matched by both
// `-L sharded` and `-L chaos`). Kills EXACTLY ONE operator shard mid-run
// and repairs it from its own WAL partition (shard_supervisor.hpp): the
// healthy shards finish normally, the failed shard is rebuilt alone,
// restored from the last composed consistent cut, and replays only its
// WAL suffix — and the merged result must be multiset-identical to a
// fault-free reference. This is the single-shard restart protocol of
// DESIGN.md § 13 end to end.
#include "core/runtime/sharded/shard_supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/swa/monoid_machine.hpp"

namespace fs = std::filesystem;

namespace aggspes {
namespace {

constexpr int kShards = 4;
constexpr int kKeys = 7;
constexpr Timestamp kPeriod = 5;
const WindowSpec kSpec{.advance = 4, .size = 10, .lateness = 0};

int key_of(const int& v) { return v % kKeys; }

std::vector<Tuple<int>> random_stream(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 2);
  std::uniform_int_distribution<int> val(0, 99);
  std::vector<Tuple<int>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

auto sum_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    auto& op = f.template add<
        AggregateOp<int, int, int, swa::MonoidWindowMachine<int, int, int>>>(
        kSpec, key_of, swa::sum_monoid<int>(),
        [](const int&, const swa::WindowAggregate<int>& wa)
            -> std::optional<int> { return wa.agg; });
    ShardEndpoints<int, int> ep;
    ep.in_node = &op;
    ep.in = &op.in();
    ep.out_node = &op;
    ep.out = &op.out();
    ep.nodes = {&op};
    return ep;
  };
}

using Multiset = std::multiset<std::pair<Timestamp, int>>;

Multiset to_multiset(const std::vector<Tuple<int>>& v) {
  Multiset m;
  for (const auto& t : v) m.insert({t.ts, t.value});
  return m;
}

/// Fault-free reference on the deterministic scheduler — markers and
/// sharding cannot change the computed multiset.
Multiset reference_run(const std::vector<Tuple<int>>& in, Timestamp flush) {
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, kPeriod, flush);
  ShardEndpoints<int, int> ep = sum_factory()(flow, 0);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), *ep.in);
  flow.connect(*ep.out, sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  Multiset m;
  for (const auto& t : sink.tuples()) m.insert({t.ts, t.value});
  return m;
}

class ShardedChaosTest : public ::testing::Test {
 public:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aggspes_sharded_chaos_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    for (int s = 0; s < kShards; ++s) {
      wals_.push_back(std::make_unique<InputLog>(
          WalOptions{ShardPlan::wal_dir(dir_, s), 64 * 1024, 1}));
    }
  }
  void TearDown() override {
    wals_.clear();
    fs::remove_all(dir_);
  }

  std::vector<InputLog*> wal_ptrs() {
    std::vector<InputLog*> p;
    for (auto& w : wals_) p.push_back(w.get());
    return p;
  }

  fs::path dir_;
  std::vector<std::unique_ptr<InputLog>> wals_;
};

struct CrashCase {
  std::size_t marker_every;
  int crash_shard;
  std::uint64_t at_delivery;
};

/// One supervised run: ReplaySource → ShardedFlow(durable, tapped) →
/// sink, with a crash armed on one shard-internal edge.
template <typename TestT>
ShardedRunOutcome<int> crash_and_repair(TestT& t,
                                        const std::vector<Tuple<int>>& in,
                                        Timestamp flush, CrashCase c,
                                        CheckpointStore& store) {
  auto factory = sum_factory();
  ThreadedFlow tf;
  auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, c.marker_every);
  typename ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  opts.wals = t.wal_ptrs();
  opts.tap_outputs = true;
  ShardedFlow<int, int, int> sf(tf, kShards, opts, factory);
  auto& sink = tf.add<CollectorSink<int>>();
  tf.connect(src, src.out(), sf.in_node(), sf.in());
  tf.connect(sf.out_node(), sf.out(), sink, sink.in());
  tf.enable_checkpoints(store);

  // Shard-internal edges are wired per shard in a fixed pattern —
  // splitter→ingress, ingress→op, op→tap — so the crash shard's
  // ingress→op edge is 3·s + 1 (connect order; union edges come last).
  FaultInjector faults(0);
  faults.add_event({FaultKind::kCrash, 0,
                    3 * static_cast<std::size_t>(c.crash_shard) + 1,
                    c.at_delivery, 0});
  faults.begin_attempt(0);
  tf.install_faults(faults);

  ShardedRunOutcome<int> outcome =
      run_sharded_with_repair(tf, sf, store, factory);
  EXPECT_TRUE(outcome.shard_failed);
  EXPECT_EQ(outcome.repair.shard, c.crash_shard);
  return outcome;
}

TEST_F(ShardedChaosTest, SingleShardCrashRepairsToIdenticalMultiset) {
  const auto in = random_stream(7, 400);
  const Timestamp flush = in.back().ts + kSpec.size + 5;
  const Multiset want = reference_run(in, flush);
  ASSERT_GT(want.size(), 0u);

  CheckpointStore store;
  const auto outcome = crash_and_repair(
      *this, in, flush,
      {.marker_every = 32, .crash_shard = 2, .at_delivery = 60}, store);

  EXPECT_EQ(to_multiset(outcome.merged()), want);
  // The repair resumed from a composed cut and replayed only the WAL
  // suffix past it — not the shard's whole history.
  ASSERT_TRUE(outcome.repair.restored_checkpoint.has_value());
  EXPECT_GT(outcome.repair.replay_from, 1u);
  const std::uint64_t total =
      wals_[2]->stats().records_appended;
  EXPECT_LT(outcome.repair.replayed, total);
}

TEST_F(ShardedChaosTest, CrashBeforeAnyCheckpointReplaysTheWholeShardWal) {
  const auto in = random_stream(21, 300);
  const Timestamp flush = in.back().ts + kSpec.size + 5;
  const Multiset want = reference_run(in, flush);

  CheckpointStore store;
  // marker_every = 0: no barriers, so no cut ever completes; the repair
  // must fall back to replaying the shard WAL from seqno 1.
  const auto outcome = crash_and_repair(
      *this, in, flush,
      {.marker_every = 0, .crash_shard = 1, .at_delivery = 20}, store);

  EXPECT_EQ(to_multiset(outcome.merged()), want);
  EXPECT_FALSE(outcome.repair.restored_checkpoint.has_value());
  EXPECT_EQ(outcome.repair.replay_from, 1u);
}

TEST_F(ShardedChaosTest, EveryShardIsRepairableWhereverTheCrashLands) {
  const auto in = random_stream(33, 300);
  const Timestamp flush = in.back().ts + kSpec.size + 5;
  const Multiset want = reference_run(in, flush);

  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("crash shard " + std::to_string(s));
    for (auto& w : wals_) w.reset();
    wals_.clear();
    fs::remove_all(dir_);
    for (int i = 0; i < kShards; ++i) {
      wals_.push_back(std::make_unique<InputLog>(
          WalOptions{ShardPlan::wal_dir(dir_, i), 64 * 1024, 1}));
    }
    CheckpointStore store;
    const auto outcome = crash_and_repair(
        *this, in, flush,
        {.marker_every = 16, .crash_shard = s, .at_delivery = 35}, store);
    EXPECT_EQ(to_multiset(outcome.merged()), want);
  }
}

// A failure OUTSIDE every shard (the source→splitter edge) is not a
// shard fault: the shard supervisor must rethrow so the whole-flow
// supervisor (run_with_recovery) can take over.
TEST_F(ShardedChaosTest, NonShardFailureIsRethrownForTheWholeFlowSupervisor) {
  const auto in = random_stream(5, 200);
  const Timestamp flush = in.back().ts + kSpec.size + 5;

  auto factory = sum_factory();
  ThreadedFlow tf;
  auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, 16);
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  opts.wals = wal_ptrs();
  opts.tap_outputs = true;
  ShardedFlow<int, int, int> sf(tf, kShards, opts, factory);
  auto& sink = tf.add<CollectorSink<int>>();
  const std::size_t src_edge = tf.edge_count();
  tf.connect(src, src.out(), sf.in_node(), sf.in());
  tf.connect(sf.out_node(), sf.out(), sink, sink.in());
  CheckpointStore store;
  tf.enable_checkpoints(store);

  FaultInjector faults(0);
  faults.add_event({FaultKind::kCrash, 0, src_edge, 50, 0});
  faults.begin_attempt(0);
  tf.install_faults(faults);

  EXPECT_THROW(run_sharded_with_repair(tf, sf, store, factory), FlowError);
}

}  // namespace
}  // namespace aggspes
