// Async-checkpoint chaos matrix (ctest label: mvcc-chaos — matched by
// both `-L mvcc` and `-L chaos`): kills the non-quiescent checkpoint
// path at EVERY phase — epoch freeze on the node thread, serialization
// on the async worker, the store's durable commit, and the post-commit
// GC — across several input streams, and requires every restart to
// produce output multiset-identical to a fault-free single-threaded
// reference. Phase placement pins the fallback contract: a kill at
// freeze / serialize / commit means cut N never became the restore
// candidate (the supervisor falls back to an earlier complete cut),
// while a kill during GC lands AFTER the durable commit, so cut N is
// exactly what the restart resumes from. Composition tests run the same
// matrix through DurableSource WAL replay, the multi-query engine, and
// the sharded single-shard repair path; a max_attempts=1 run plus a
// fresh store on the same directory models a whole-process restart. One
// more input pins the frozen path itself: for A, A+ and A++ over every
// machine that can freeze(), the async cut bytes equal snapshot_to's.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/async_checkpoint.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/recovery/supervisor.hpp"
#include "core/runtime/multi_query.hpp"
#include "core/runtime/sharded/shard_supervisor.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/swa/monoid_machine.hpp"
#include "machine_matrix.hpp"

namespace fs = std::filesystem;

namespace aggspes {
namespace {

constexpr Timestamp kPeriod = 7;
constexpr std::size_t kMarkerEvery = 16;
const WindowSpec kSpec{.advance = 4, .size = 12, .lateness = 4};

// Kill late enough that earlier cuts deterministically completed on the
// async worker before the fault fires (barrier 6 cannot freeze before
// barriers 1–5 left the node), yet early enough that the restart
// re-reaches the same barrier and reprocesses real work.
constexpr std::uint64_t kKillAtCheckpoint = 6;

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

using MonoidSum =
    AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>;
using Multiset = std::multiset<std::pair<Timestamp, long>>;

template <typename FlowT>
MonoidSum& add_monoid(FlowT& f) {
  return f.template add<MonoidSum>(
      kSpec, [](const int& v) { return v % 3; },
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }},
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
}

Multiset reference_run(const std::vector<Tuple<int>>& in, Timestamp flush) {
  Flow single;
  auto& src = single.add<TimedSource<int>>(in, kPeriod, flush);
  auto& agg = add_monoid(single);
  auto& sink = single.add<CollectorSink<long>>();
  single.connect(src.out(), agg.in(0));
  single.connect(agg.out(), sink.in());
  single.run();
  EXPECT_TRUE(sink.ended());
  return sink.multiset();
}

FaultEvent checkpoint_fault(FaultKind kind, CheckpointPhase phase,
                            std::uint64_t checkpoint_id) {
  FaultEvent e;
  e.kind = kind;
  e.attempt = 0;
  e.edge = static_cast<std::size_t>(phase);
  e.at_delivery = checkpoint_id;
  return e;
}

class AsyncCheckpointChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("aggspes_async_chaos_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path dir(const std::string& tag) { return root_ / tag; }

  fs::path root_;
};

struct KillOutcome {
  Multiset output;
  bool recovered{false};
  std::optional<std::uint64_t> resumed_from;
  std::uint64_t completed{0};
};

/// One supervised ReplaySource → monoid → sink run with a durable store
/// at `store_dir` and the async worker attached; `faults` may carry an
/// explicit checkpoint-phase event or a seed-derived schedule.
KillOutcome supervised_run(const std::vector<Tuple<int>>& in,
                           Timestamp flush, const fs::path& store_dir,
                           FaultInjector* faults) {
  CheckpointStore store;
  store.persist_to(store_dir);
  AsyncCheckpointer ck;
  CollectorSink<long>* sink = nullptr;
  auto build = [&](ThreadedFlow& tf) {
    auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
    auto& agg = add_monoid(tf);
    sink = &tf.add<CollectorSink<long>>();
    tf.connect(src, src.out(), agg, agg.in(0));
    tf.connect(agg, agg.out(), *sink, sink->in());
  };
  RecoveryOptions opts;
  opts.checkpointer = &ck;
  RecoveryReport report = run_with_recovery(build, store, faults, opts);
  EXPECT_TRUE(sink->ended());
  EXPECT_EQ(sink->late_tuples(), 0);
  EXPECT_EQ(sink->watermark_regressions(), 0);
  KillOutcome out;
  out.output = sink->multiset();
  out.recovered = report.recovered();
  // The *first* restart's resume point — that is what the injected kill
  // constrains. Later restarts (e.g. a watchdog abort under sanitizer
  // slowdown) may legitimately resume from cuts the recovered flow
  // committed past the kill point.
  out.resumed_from = report.timeline.size() > 1
                         ? report.timeline[1].resumed_from
                         : report.resumed_from;
  out.completed = ck.completed();
  return out;
}

TEST_F(AsyncCheckpointChaosTest, KillMatrixAtEveryPhaseRestoresExactly) {
  const CheckpointPhase phases[] = {
      CheckpointPhase::kFreeze, CheckpointPhase::kSerialize,
      CheckpointPhase::kCommit, CheckpointPhase::kGc};
  const unsigned streams[] = {401, 402, 403};

  int fallbacks = 0;
  for (const unsigned stream : streams) {
    const auto in = random_stream(stream, 240);
    const Timestamp flush = in.back().ts + 30;
    const Multiset want = reference_run(in, flush);
    ASSERT_FALSE(want.empty());

    for (const CheckpointPhase phase : phases) {
      SCOPED_TRACE("stream " + std::to_string(stream) + " phase " +
                   checkpoint_phase_name(phase));
      FaultInjector faults(0);
      faults.add_event(checkpoint_fault(FaultKind::kKillDuringCheckpoint,
                                        phase, kKillAtCheckpoint));
      const auto tag = std::string(checkpoint_phase_name(phase)) + "_" +
                       std::to_string(stream);
      const KillOutcome out =
          supervised_run(in, flush, dir(tag), &faults);
      EXPECT_EQ(out.output, want);
      EXPECT_TRUE(out.recovered);
      if (phase == CheckpointPhase::kGc) {
        // GC runs after the durable commit: the killed checkpoint IS the
        // restore point.
        EXPECT_EQ(out.resumed_from,
                  std::optional<std::uint64_t>(kKillAtCheckpoint));
      } else {
        // Freeze / serialize / commit kills mean cut 6 never committed:
        // the supervisor falls back to an earlier complete cut (or a
        // cold start if the async worker had not landed one yet).
        EXPECT_TRUE(!out.resumed_from.has_value() ||
                    *out.resumed_from < kKillAtCheckpoint);
        if (out.resumed_from.has_value()) ++fallbacks;
      }
    }
  }
  EXPECT_GT(fallbacks, 0) << "no phase kill exercised previous-cut fallback";
}

TEST_F(AsyncCheckpointChaosTest, TornCommitFallsBackThenSelfHeals) {
  const auto in = random_stream(404, 240);
  const Timestamp flush = in.back().ts + 30;
  const Multiset want = reference_run(in, flush);

  FaultInjector faults(0);
  faults.add_event(checkpoint_fault(FaultKind::kTornCheckpoint,
                                    CheckpointPhase::kCommit,
                                    kKillAtCheckpoint));
  const KillOutcome out = supervised_run(in, flush, dir("torn"), &faults);
  EXPECT_EQ(out.output, want);
  EXPECT_TRUE(out.recovered);
  // The torn cut never became the candidate.
  EXPECT_TRUE(!out.resumed_from.has_value() ||
              *out.resumed_from < kKillAtCheckpoint);

  // The retry re-reached barrier 6 and renamed a complete file over the
  // torn one; disk GC then pruned history. A cold scan of the directory
  // must find a healthy latest cut and no torn artifacts.
  CheckpointStore rescan;
  rescan.persist_to(dir("torn"));
  EXPECT_EQ(rescan.torn_skipped(), 0u);
  EXPECT_TRUE(rescan.latest_complete().has_value());
}

TEST_F(AsyncCheckpointChaosTest, ProcessRestartResumesFromTheDurableCut) {
  const auto in = random_stream(405, 240);
  const Timestamp flush = in.back().ts + 30;
  const Multiset want = reference_run(in, flush);
  const fs::path store_dir = dir("proc");

  // Process one: single attempt, killed at the durable commit of cut 6.
  // The in-memory store dies with the process; only the directory
  // survives.
  {
    CheckpointStore store;
    store.persist_to(store_dir);
    AsyncCheckpointer ck;
    FaultInjector faults(0);
    faults.add_event(checkpoint_fault(FaultKind::kKillDuringCheckpoint,
                                      CheckpointPhase::kCommit,
                                      kKillAtCheckpoint));
    auto build = [&](ThreadedFlow& tf) {
      auto& src =
          tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
      auto& agg = add_monoid(tf);
      auto& sink = tf.add<CollectorSink<long>>();
      tf.connect(src, src.out(), agg, agg.in(0));
      tf.connect(agg, agg.out(), sink, sink.in());
    };
    RecoveryOptions opts;
    opts.checkpointer = &ck;
    opts.max_attempts = 1;
    EXPECT_THROW(run_with_recovery(build, store, &faults, opts), FlowError);
  }

  // Process two: a FRESH store scans the directory, observes only fully
  // committed cuts, and the rebuilt flow — sink state included — resumes
  // from the fallback cut and completes to the exact reference multiset.
  CheckpointStore store;
  store.persist_to(store_dir);
  const auto resumable = store.latest_complete();
  ASSERT_TRUE(resumable.has_value());
  EXPECT_LT(*resumable, kKillAtCheckpoint);

  AsyncCheckpointer ck;
  ThreadedFlow tf;
  auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
  auto& agg = add_monoid(tf);
  auto& sink = tf.add<CollectorSink<long>>();
  tf.connect(src, src.out(), agg, agg.in(0));
  tf.connect(agg, agg.out(), sink, sink.in());
  tf.enable_checkpoints(store);
  ck.set_fatal_handler([&tf](const std::string& what) { tf.fail_flow(what); });
  tf.attach_async(&ck);
  const auto resumed = tf.restore_latest(store);
  EXPECT_EQ(resumed, resumable);
  tf.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.multiset(), want);
}

TEST_F(AsyncCheckpointChaosTest, ComposesWithDurableWalReplay) {
  const auto in = random_stream(406, 160);
  const Timestamp flush = in.back().ts + 30;
  const Multiset want = reference_run(in, flush);

  InputLog log(WalOptions{dir("wal"), 1024, 0});
  CheckpointStore store;
  store.persist_to(dir("cuts"));
  AsyncCheckpointer ck;
  FaultInjector faults(0);
  faults.add_event(checkpoint_fault(FaultKind::kKillDuringCheckpoint,
                                    CheckpointPhase::kCommit, 4));
  CollectorSink<long>* sink = nullptr;
  const auto script = timed_script(in, kPeriod, flush);
  auto build = [&](ThreadedFlow& tf) {
    auto& src = tf.add<DurableSource<int>>(script, log, kMarkerEvery, 8);
    auto& agg = add_monoid(tf);
    sink = &tf.add<CollectorSink<long>>();
    tf.connect(src, src.out(), agg, agg.in(0));
    tf.connect(agg, agg.out(), *sink, sink->in());
  };
  RecoveryOptions opts;
  opts.checkpointer = &ck;
  opts.retain_wals.push_back(&log);
  RecoveryReport report = run_with_recovery(build, store, &faults, opts);
  EXPECT_TRUE(sink->ended());
  EXPECT_EQ(sink->multiset(), want);
  EXPECT_TRUE(report.recovered());
  // The first restart restored a cut from before the killed commit and
  // replayed the acked WAL suffix — the two durability layers compose.
  // (Further environment-forced restarts may resume past the kill.)
  ASSERT_GT(report.timeline.size(), 1u);
  const auto first_resume = report.timeline[1].resumed_from;
  EXPECT_TRUE(!first_resume.has_value() || *first_resume < 4);
  EXPECT_GT(ck.completed(), 0u);
}

TEST_F(AsyncCheckpointChaosTest, MultiQueryKillKeepsEveryQueryConsistent) {
  using MQ =
      MultiQueryOp<int, long, int, swa::TreeWindowMachine<int, long, int>>;
  const std::vector<MQ::Query> queries = {
      {WindowSpec{.advance = 4, .size = 12, .lateness = 4},
       [](const int&, const swa::WindowAggregate<long>& wa)
           -> std::optional<long> { return wa.agg; }},
      {WindowSpec{.advance = 6, .size = 18, .lateness = 6},
       [](const int&, const swa::WindowAggregate<long>& wa)
           -> std::optional<long> { return wa.agg; }},
  };
  const auto monoid =
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }};
  const auto key_of = [](const int& v) { return v % 3; };
  const auto in = random_stream(407, 240);
  const Timestamp flush = in.back().ts + 30;

  // Fault-free single-threaded reference, per query.
  std::vector<Multiset> want(queries.size());
  {
    Flow single;
    auto& src = single.add<TimedSource<int>>(in, kPeriod, flush);
    auto& op = single.add<MQ>(queries, key_of, monoid);
    std::vector<CollectorSink<long>*> sinks;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      sinks.push_back(&single.add<CollectorSink<long>>());
      single.connect(op.out(static_cast<int>(q)), sinks.back()->in());
    }
    single.connect(src.out(), op.in(0));
    single.run();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      want[q] = sinks[q]->multiset();
      ASSERT_FALSE(want[q].empty());
    }
  }

  CheckpointStore store;
  store.persist_to(dir("mq"));
  AsyncCheckpointer ck;
  FaultInjector faults(0);
  faults.add_event(checkpoint_fault(FaultKind::kKillDuringCheckpoint,
                                    CheckpointPhase::kSerialize,
                                    kKillAtCheckpoint));
  std::vector<CollectorSink<long>*> sinks;
  auto build = [&](ThreadedFlow& tf) {
    sinks.clear();
    auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
    auto& op = tf.add<MQ>(queries, key_of, monoid);
    tf.connect(src, src.out(), op, op.in(0));
    for (std::size_t q = 0; q < queries.size(); ++q) {
      sinks.push_back(&tf.add<CollectorSink<long>>());
      tf.connect(op, op.out(static_cast<int>(q)), *sinks.back(),
                 sinks.back()->in());
    }
  };
  RecoveryOptions opts;
  opts.checkpointer = &ck;
  RecoveryReport report = run_with_recovery(build, store, &faults, opts);
  EXPECT_TRUE(report.recovered());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_TRUE(sinks[q]->ended());
    EXPECT_EQ(sinks[q]->multiset(), want[q]);
  }
}

TEST_F(AsyncCheckpointChaosTest, ShardedRepairComposesWithAsyncCuts) {
  constexpr int kShards = 3;
  const auto key_fn = [](const int& v) { return v % 7; };
  const WindowSpec spec{.advance = 4, .size = 10, .lateness = 0};
  auto factory = [&](auto& f, int) -> ShardEndpoints<int, int> {
    auto& op = f.template add<
        AggregateOp<int, int, int, swa::MonoidWindowMachine<int, int, int>>>(
        spec, key_fn, swa::sum_monoid<int>(),
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

  const auto in = random_stream(408, 400);
  const Timestamp flush = in.back().ts + spec.size + 5;
  std::multiset<std::pair<Timestamp, int>> want;
  {
    Flow single;
    auto& src = single.add<TimedSource<int>>(in, kPeriod, flush);
    ShardEndpoints<int, int> ep = factory(single, 0);
    auto& sink = single.add<CollectorSink<int>>();
    single.connect(src.out(), *ep.in);
    single.connect(*ep.out, sink.in());
    single.run();
    want = sink.multiset();
    ASSERT_FALSE(want.empty());
  }

  std::vector<std::unique_ptr<InputLog>> wals;
  for (int s = 0; s < kShards; ++s) {
    wals.push_back(std::make_unique<InputLog>(
        WalOptions{ShardPlan::wal_dir(dir("wals"), s), 64 * 1024, 1}));
  }
  CheckpointStore store;
  store.persist_to(dir("cuts"));
  AsyncCheckpointer ck;

  ThreadedFlow tf;
  auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, 32);
  typename ShardedFlow<int, int, int>::Options sopts;
  sopts.key_fn = key_fn;
  for (auto& w : wals) sopts.wals.push_back(w.get());
  sopts.tap_outputs = true;
  ShardedFlow<int, int, int> sf(tf, kShards, sopts, factory);
  auto& sink = tf.add<CollectorSink<int>>();
  tf.connect(src, src.out(), sf.in_node(), sf.in());
  tf.connect(sf.out_node(), sf.out(), sink, sink.in());
  tf.enable_checkpoints(store);
  ck.set_fatal_handler([&tf](const std::string& what) { tf.fail_flow(what); });
  tf.attach_async(&ck);

  // Kill one shard mid-run (its splitter→op edge: 2·s); the composed
  // per-shard cuts committed by the ASYNC worker are what the repair
  // restores from.
  FaultInjector faults(0);
  faults.add_event({FaultKind::kCrash, 0, 2 * 1, 60, 0});
  faults.begin_attempt(0);
  tf.install_faults(faults);

  ShardedRunOutcome<int> outcome =
      run_sharded_with_repair(tf, sf, store, factory);
  EXPECT_TRUE(outcome.shard_failed);
  EXPECT_EQ(outcome.repair.shard, 1);
  std::multiset<std::pair<Timestamp, int>> got;
  for (const auto& t : outcome.merged()) got.insert({t.ts, t.value});
  EXPECT_EQ(got, want);
  EXPECT_GT(ck.completed(), 0u);
  ASSERT_TRUE(outcome.repair.restored_checkpoint.has_value());

  // The composed cut the repair used is durable: a cold scan of the
  // store directory observes it.
  CheckpointStore rescan;
  rescan.persist_to(dir("cuts"));
  ASSERT_TRUE(rescan.latest_complete().has_value());
  EXPECT_GE(*rescan.latest_complete(), *outcome.repair.restored_checkpoint);
}

TEST_F(AsyncCheckpointChaosTest, SeededSweepWithAsyncCheckpointsOn) {
  const auto in = random_stream(409, 240);
  const Timestamp flush = in.back().ts + 30;
  const Multiset want = reference_run(in, flush);

  int recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultInjector faults(seed);
    const KillOutcome out =
        supervised_run(in, flush, dir("seed" + std::to_string(seed)),
                       &faults);
    EXPECT_EQ(out.output, want);
    EXPECT_GT(out.completed, 0u);
    if (out.recovered) ++recoveries;
  }
  EXPECT_GT(recoveries, 0) << "no seed exercised recovery";
}

/// Keeps every cut a node records, by checkpoint id.
struct CutLog final : CheckpointRecorder {
  std::map<std::uint64_t, SnapshotWriter::Bytes> cuts;
  void record(std::size_t, std::uint64_t id,
              SnapshotWriter::Bytes state) override {
    cuts[id] = std::move(state);
  }
};

/// Runs each submitted job inline, exactly as the async worker would.
struct InlineExecutor final : SnapshotExecutor {
  void submit(CheckpointRecorder* recorder, std::size_t node,
              std::uint64_t id, FrozenJob job) override {
    recorder->record(node, id, job.serialize());
    if (job.post) job.post();
  }
  void drain() override {}
};

/// A timed script with a checkpoint marker every kMarkerEvery tuples.
std::vector<Element<int>> marked_script(const std::vector<Tuple<int>>& in,
                                        Timestamp flush) {
  std::vector<Element<int>> script;
  std::uint64_t id = 0;
  std::size_t tuples = 0;
  for (Element<int>& e : timed_script(in, kPeriod, flush)) {
    const bool tuple = std::holds_alternative<Tuple<int>>(e);
    script.push_back(std::move(e));
    if (tuple && ++tuples % kMarkerEvery == 0) {
      script.push_back(CheckpointMarker{++id});
    }
  }
  return script;
}

/// Every cut the op `add` builds records over `script`, with an executor
/// bound when `async`; `freezes` receives the epochs the machine froze (0
/// for machines that cannot freeze).
template <typename AddOp>
CutLog record_cuts(const std::vector<Element<int>>& script, bool async,
                   std::uint64_t* freezes, AddOp add) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = add(flow);
  auto& sink = flow.add<CollectorSink<long>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  using M = machine_matrix::MachineOf<decltype(agg)>;
  CutLog log;
  InlineExecutor exec;
  agg.bind_recovery(&log, 1);
  if (async) agg.bind_async(&exec);
  flow.run();
  *freezes = 0;
  if constexpr (requires(M& m) { m.freeze(); }) {
    *freezes = agg.machine().epochs().current();
  }
  return log;
}

/// With an executor bound, every cut of a machine that can freeze() goes
/// through the frozen path and its bytes equal snapshot_to's; a machine
/// that cannot freeze keeps the synchronous snapshot. Either way the
/// last cut restores.
template <typename AddOp>
void expect_frozen_bytes_match(const std::string& what, AddOp add) {
  SCOPED_TRACE(what);
  const auto in = random_stream(410, 240);
  const auto script = marked_script(in, in.back().ts + 30);
  std::uint64_t sync_freezes = 0;
  std::uint64_t async_freezes = 0;
  const CutLog sync = record_cuts(script, false, &sync_freezes, add);
  const CutLog async = record_cuts(script, true, &async_freezes, add);
  ASSERT_GT(sync.cuts.size(), 4u);
  EXPECT_EQ(sync_freezes, 0u);
  Flow flow;
  auto& agg = add(flow);
  using M = machine_matrix::MachineOf<decltype(agg)>;
  constexpr bool kFreezable = requires(M& m) { m.freeze(); };
  EXPECT_EQ(async_freezes, kFreezable ? sync.cuts.size() : 0u);
  EXPECT_EQ(async.cuts, sync.cuts);

  SnapshotReader r(async.cuts.rbegin()->second);
  agg.restore_from(r);
}

TEST_F(AsyncCheckpointChaosTest, FrozenCutBytesEqualSyncCutsPerMachine) {
  const auto key = [](const int& v) { return v % 3; };
  machine_matrix::for_each_machine<long>([&]<typename M>(const char* name) {
    const std::string at(name);
    expect_frozen_bytes_match(at + " A", [&](Flow& f) -> auto& {
      return machine_matrix::add_sum<long, M>(f, kSpec, key);
    });
    expect_frozen_bytes_match(at + " A+", [&](Flow& f) -> auto& {
      return machine_matrix::add_sum_count<long, M>(f, kSpec, key);
    });
    expect_frozen_bytes_match(at + " A++", [&](Flow& f) -> auto& {
      return machine_matrix::add_eager<long, M>(f, kSpec, key);
    });
  });
}

}  // namespace
}  // namespace aggspes
