// Multi-query chaos suite (single ctest label `multiquery-chaos`, matched
// by both `-L multiquery` and `-L chaos`): the pane engine behind
// MultiQueryOp is one object whose snapshot cut must cover every hosted
// query at once. Three attacks on that property:
//   1. explicit mid-run checkpoint/restore of the operator (tree-policy
//      and replay engines, several cut points) — prefix + suffix output must equal the
//      uninterrupted run, query by query;
//   2. supervised seed-driven crashes/stalls/drops with checkpoint
//      restore and source rewind — every query's output multiset must
//      match a fault-free single-threaded reference;
//   3. durable ingestion: kill the process *during a WAL append* and
//      restart, replaying the acked suffix from WAL bytes — all Q outputs
//      exactly-once.
// A restored pane cell, per-query fired flag or cursor that drifted shows
// up here as a lost, duplicated or mis-summed window for some query.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/recovery/supervisor.hpp"
#include "core/runtime/multi_query.hpp"
#include "core/swa/agg_tree.hpp"

namespace aggspes {
namespace {

namespace fs = std::filesystem;

constexpr Timestamp kPeriod = 7;
constexpr std::size_t kMarkerEvery = 16;
constexpr std::size_t kGroupCommit = 8;
constexpr std::size_t kVolumeBytes = 512;

// Mixed specs: true panes, nested, tumbling, and a distinct-lateness
// pair — shared pane width gcd(...) = 1 via the {3,3} spec.
const std::vector<WindowSpec> kSpecs = {
    {.advance = 2, .size = 6, .lateness = 2},
    {.advance = 4, .size = 12, .lateness = 4},
    {.advance = 3, .size = 3, .lateness = 0},
    {.advance = 5, .size = 10, .lateness = 6},
};

std::vector<Tuple<int>> random_stream(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 9);
  std::vector<Tuple<int>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

using MqMonoid =
    MultiQueryOp<int, long, int, swa::TreeWindowMachine<int, long, int>>;
using MqReplay = MultiQueryOp<int, long, int>;
using Outputs = std::vector<std::multiset<std::pair<Timestamp, long>>>;

int key_of(const int& v) { return v % 3; }

template <typename FlowT>
MqMonoid& add_mq_monoid(FlowT& f) {
  std::vector<MqMonoid::Query> queries;
  for (const WindowSpec& s : kSpecs) {
    queries.push_back({s, [](const int&, const swa::WindowAggregate<long>& wa)
                              -> std::optional<long> { return wa.agg; }});
  }
  return f.template add<MqMonoid>(
      std::move(queries), key_of,
      swa::Monoid<int, long>{
          0, [](const int& v) { return long{v}; },
          [](const long& a, const long& b) { return a + b; }});
}

template <typename FlowT>
MqReplay& add_mq_replay(FlowT& f) {
  std::vector<MqReplay::Query> queries;
  for (const WindowSpec& s : kSpecs) {
    queries.push_back({s, [](const WindowView<int, int>& w)
                              -> std::optional<long> {
                         long sum = 0;
                         for (const Tuple<int>& t : w.items) sum += t.value;
                         return sum;
                       }});
  }
  return f.template add<MqReplay>(std::move(queries), key_of);
}

/// Fault-free single-threaded reference: one sink per query outlet.
template <typename AddOp>
Outputs reference_run(const std::vector<Tuple<int>>& in, Timestamp flush,
                      AddOp add_op) {
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, kPeriod, flush);
  auto& op = add_op(flow);
  std::vector<CollectorSink<long>*> sinks;
  flow.connect(src.out(), op.in(0));
  for (std::size_t q = 0; q < kSpecs.size(); ++q) {
    sinks.push_back(&flow.add<CollectorSink<long>>());
    flow.connect(op.out(static_cast<int>(q)), sinks[q]->in());
  }
  flow.run();
  Outputs out;
  for (auto* s : sinks) out.push_back(s->multiset());
  return out;
}

/// Attack 1: run a prefix, snapshot the operator and its sinks, restore
/// into a fresh graph, run the suffix — per-query union must equal the
/// uninterrupted run.
template <typename AddOp>
void check_cut_and_continue(const std::vector<Element<int>>& script,
                            const Outputs& reference, AddOp add_op) {
  for (std::size_t cut :
       {std::size_t{5}, script.size() / 2, script.size() - 2}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<Element<int>> prefix(script.begin(),
                                     script.begin() + static_cast<long>(cut));
    std::vector<Element<int>> suffix(script.begin() + static_cast<long>(cut),
                                     script.end());
    Flow a;
    auto& a_src = a.add<ScriptSource<int>>(prefix);
    auto& a_op = add_op(a);
    std::vector<CollectorSink<long>*> a_sinks;
    a.connect(a_src.out(), a_op.in(0));
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      a_sinks.push_back(&a.add<CollectorSink<long>>());
      a.connect(a_op.out(static_cast<int>(q)), a_sinks[q]->in());
    }
    a.run();
    SnapshotWriter op_w;
    a_op.snapshot_to(op_w);
    const auto op_bytes = op_w.take();
    std::vector<SnapshotWriter::Bytes> sink_bytes;
    for (auto* s : a_sinks) {
      SnapshotWriter w;
      s->snapshot_to(w);
      sink_bytes.push_back(w.take());
    }

    Flow b;
    auto& b_src = b.add<ScriptSource<int>>(suffix);
    auto& b_op = add_op(b);
    std::vector<CollectorSink<long>*> b_sinks;
    b.connect(b_src.out(), b_op.in(0));
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      b_sinks.push_back(&b.add<CollectorSink<long>>());
      b.connect(b_op.out(static_cast<int>(q)), b_sinks[q]->in());
    }
    SnapshotReader op_r(op_bytes);
    b_op.restore_from(op_r);
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      SnapshotReader r(sink_bytes[q]);
      b_sinks[q]->restore_from(r);
    }
    b.run();
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      EXPECT_EQ(b_sinks[q]->multiset(), reference[q]) << "query " << q;
    }
  }
}

TEST(MultiQueryChaos, MonoidLatticeCheckpointRestoreMidRun) {
  const auto in = random_stream(301, 200);
  const Timestamp flush = in.back().ts + 30;
  const auto reference = reference_run(in, flush, [](Flow& f) -> MqMonoid& {
    return add_mq_monoid(f);
  });
  for (const auto& q : reference) ASSERT_FALSE(q.empty());
  const auto script = timed_script(in, kPeriod, flush);
  check_cut_and_continue(script, reference,
                         [](Flow& f) -> MqMonoid& { return add_mq_monoid(f); });
}

TEST(MultiQueryChaos, ReplayLatticeCheckpointRestoreMidRun) {
  const auto in = random_stream(302, 200);
  const Timestamp flush = in.back().ts + 30;
  const auto reference = reference_run(in, flush, [](Flow& f) -> MqReplay& {
    return add_mq_replay(f);
  });
  for (const auto& q : reference) ASSERT_FALSE(q.empty());
  const auto script = timed_script(in, kPeriod, flush);
  check_cut_and_continue(script, reference,
                         [](Flow& f) -> MqReplay& { return add_mq_replay(f); });
}

/// Attack 2: supervised seed-driven faults. One barrier cut covers all Q
/// queries; a restore must leave every outlet exactly-once.
template <typename AddOp>
void chaos_seed_sweep(const char* name, unsigned stream_seed, AddOp add_op) {
  const auto in = random_stream(stream_seed, 240);
  const Timestamp flush = in.back().ts + 30;
  const auto reference = reference_run(in, flush, add_op);
  for (const auto& q : reference) ASSERT_FALSE(q.empty());

  int recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
    CheckpointStore store;
    FaultInjector faults(seed);
    std::vector<CollectorSink<long>*> sinks;
    auto build = [&](ThreadedFlow& tf) {
      sinks.clear();
      auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
      auto& op = add_op(tf);
      tf.connect(src, src.out(), op, op.in(0));
      for (std::size_t q = 0; q < kSpecs.size(); ++q) {
        sinks.push_back(&tf.add<CollectorSink<long>>());
        tf.connect(op, op.out(static_cast<int>(q)), *sinks[q],
                   sinks[q]->in());
      }
    };
    RecoveryReport report = run_with_recovery(build, store, &faults);
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      EXPECT_TRUE(sinks[q]->ended());
      EXPECT_EQ(sinks[q]->late_tuples(), 0);
      EXPECT_EQ(sinks[q]->watermark_regressions(), 0);
      EXPECT_EQ(sinks[q]->multiset(), reference[q]) << "query " << q;
    }
    if (report.recovered()) ++recoveries;
  }
  EXPECT_GT(recoveries, 0) << name << ": no seed exercised recovery";
}

TEST(MultiQueryChaos, MonoidLatticeSeedDrivenCrashesAreExactlyOnce) {
  chaos_seed_sweep("mq-monoid", 303,
                   [](auto& f) -> MqMonoid& { return add_mq_monoid(f); });
}

TEST(MultiQueryChaos, ReplayLatticeSeedDrivenCrashesAreExactlyOnce) {
  chaos_seed_sweep("mq-replay", 304,
                   [](auto& f) -> MqReplay& { return add_mq_replay(f); });
}

/// Attack 3: crash DURING a WAL append and restart — the durable source
/// re-serves the acked suffix from WAL bytes, and the restored engine
/// must keep all Q outputs exactly-once.
TEST(MultiQueryChaos, KillDuringWalAppendReplaysAllQueriesExactlyOnce) {
  const fs::path root =
      fs::temp_directory_path() / "aggspes_mq_chaos_wal";
  fs::remove_all(root);
  const auto in = random_stream(305, 160);
  const Timestamp flush = in.back().ts + 30;
  const auto reference = reference_run(in, flush, [](Flow& f) -> MqMonoid& {
    return add_mq_monoid(f);
  });
  const auto script = timed_script(in, kPeriod, flush);

  int recoveries = 0;
  for (const std::uint64_t at_append : {std::uint64_t{40}, std::uint64_t{97}}) {
    SCOPED_TRACE("kill during append " + std::to_string(at_append));
    const fs::path dir = root / ("a" + std::to_string(at_append));
    InputLog log(WalOptions{dir, kVolumeBytes, 0});
    CheckpointStore store;
    FaultInjector faults(/*seed=*/0);
    FaultEvent e;
    e.kind = FaultKind::kKillDuringAppend;
    e.attempt = 0;
    e.edge = 0;  // the durable source's node index (add order)
    e.at_delivery = at_append;
    faults.add_event(e);
    std::vector<CollectorSink<long>*> sinks;
    auto build = [&](ThreadedFlow& tf) {
      sinks.clear();
      auto& src =
          tf.add<DurableSource<int>>(script, log, kMarkerEvery, kGroupCommit);
      auto& op = add_mq_monoid(tf);
      tf.connect(src, src.out(), op, op.in(0));
      for (std::size_t q = 0; q < kSpecs.size(); ++q) {
        sinks.push_back(&tf.add<CollectorSink<long>>());
        tf.connect(op, op.out(static_cast<int>(q)), *sinks[q],
                   sinks[q]->in());
      }
    };
    RecoveryOptions opts;
    opts.retain_wals.push_back(&log);
    RecoveryReport report = run_with_recovery(build, store, &faults, opts);
    for (std::size_t q = 0; q < kSpecs.size(); ++q) {
      EXPECT_TRUE(sinks[q]->ended());
      EXPECT_EQ(sinks[q]->multiset(), reference[q]) << "query " << q;
    }
    if (report.recovered()) ++recoveries;
  }
  EXPECT_EQ(recoveries, 2) << "every WAL kill must force restore-and-replay";
  fs::remove_all(root);
}

}  // namespace
}  // namespace aggspes
