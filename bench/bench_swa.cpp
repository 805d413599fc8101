// Micro-benchmarks (google-benchmark) of the window backends, the bench
// half of the shared sliding-window aggregation subsystem's acceptance
// criterion: at overlap WS/WA = 32, sliced + incremental must beat the
// buffering WindowMachine by ≥ 5× on an associative aggregation
// (bench/run_micro.sh computes the speedup into BENCH_swa.json).
//
// All machine benchmarks drive the identical workload: sum aggregation,
// 8 keys, WA = 16, one tuple per tick, watermark advance every WA ticks,
// overlap ratio WS/WA ∈ {1, 4, 32} as the benchmark argument. The
// operator-level pair runs the same comparison through a full Flow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include <cstring>

#include "aggbased/flatmap.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/join.hpp"
#include "core/operators/join_buffering.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/window_machine.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/input_log.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/runtime/spsc_queue.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/batch_kernels.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/two_stacks.hpp"

namespace {

using namespace aggspes;

constexpr Timestamp kWA = 16;
constexpr int kKeys = 8;

// Drives machine.add every tick and machine.advance every WA ticks, the
// same discipline the Aggregate operators use. Items processed = ticks.
template <typename Machine, typename MakeMachine>
void run_machine(benchmark::State& state, MakeMachine&& make) {
  const Timestamp ws = kWA * state.range(0);
  Machine machine = make(WindowSpec{.advance = kWA, .size = ws});
  std::uint64_t fired = 0;
  long sunk = 0;
  typename Machine::FireFn fire =
      [&](Timestamp, const int&, const typename Machine::Result& r, bool) {
        ++fired;
        if constexpr (requires { r.agg; }) {
          sunk += r.agg;
        } else {
          sunk += static_cast<long>(r.size());
        }
      };
  Timestamp ts = 0;
  Timestamp wm = kMinTimestamp;
  for (auto _ : state) {
    machine.add(Tuple<int>{ts, 0, static_cast<int>(ts)}, wm, fire);
    ++ts;
    if (ts % kWA == 0) {
      machine.advance(ts, fire);
      wm = ts;
    }
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(state.iterations());
}

void BM_Buffering_Sum(benchmark::State& state) {
  run_machine<WindowMachine<int, int>>(state, [](WindowSpec spec) {
    return WindowMachine<int, int>(spec,
                                   [](const int& v) { return v % kKeys; });
  });
}
BENCHMARK(BM_Buffering_Sum)->Arg(1)->Arg(4)->Arg(32);

void BM_SlicedReplay_Sum(benchmark::State& state) {
  run_machine<swa::SlicedWindowMachine<int, int>>(state, [](WindowSpec spec) {
    return swa::SlicedWindowMachine<int, int>(
        spec, [](const int& v) { return v % kKeys; });
  });
}
BENCHMARK(BM_SlicedReplay_Sum)->Arg(1)->Arg(4)->Arg(32);

void BM_MonoidIncremental_Sum(benchmark::State& state) {
  using M = swa::MonoidWindowMachine<int, long, int>;
  run_machine<M>(state, [](WindowSpec spec) {
    return M(spec, [](const int& v) { return v % kKeys; },
             swa::MonoidPolicy<int, long, int>(swa::Monoid<int, long>{
                 0, [](const int& v) { return long{v}; },
                 [](const long& a, const long& b) { return a + b; }}));
  });
}
BENCHMARK(BM_MonoidIncremental_Sum)->Arg(1)->Arg(4)->Arg(32);

// --- Operator level: the same sum through a full Flow at ratio 32 -------

std::vector<Tuple<int>> flow_input(int n) {
  std::vector<Tuple<int>> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) v.push_back({i, 0, i});
  return v;
}

template <typename MakeAgg>
void run_flow(benchmark::State& state, MakeAgg&& make_agg) {
  const int n = 1 << 15;
  const auto in = flow_input(n);
  for (auto _ : state) {
    Flow flow;
    auto& src = flow.add<TimedSource<int>>(in, kWA, n + kWA * 33);
    auto& agg = make_agg(flow);
    auto& sink = flow.add<CollectorSink<long>>();
    flow.connect(src.out(), agg.in());
    flow.connect(agg.out(), sink.in());
    flow.run();
    benchmark::DoNotOptimize(sink.tuples().size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_FlowAggregate_Buffering(benchmark::State& state) {
  run_flow(state, [](Flow& flow) -> auto& {
    return flow.add<AggregateOp<int, long, int>>(
        WindowSpec{.advance = kWA, .size = kWA * 32},
        [](const int& v) { return v % kKeys; },
        [](const WindowView<int, int>& w) -> std::optional<long> {
          long s = 0;
          for (const auto& t : w.items) s += t.value;
          return s;
        });
  });
}
BENCHMARK(BM_FlowAggregate_Buffering);

void BM_FlowAggregate_Monoid(benchmark::State& state) {
  run_flow(state, [](Flow& flow) -> auto& {
    return flow.add<
        AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>>(
        WindowSpec{.advance = kWA, .size = kWA * 32},
        [](const int& v) { return v % kKeys; },
        swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                               [](const long& a, const long& b) {
                                 return a + b;
                               }},
        [](const int&, const swa::WindowAggregate<long>& wa)
            -> std::optional<long> { return wa.agg; });
  });
}
BENCHMARK(BM_FlowAggregate_Monoid);

// --- Dedicated join: pane store vs per-instance buffering ---------------
//
// Same two-sided stream through both join backends at overlap ratios
// WS/WA ∈ {1, 8, 32}. The peak_stored counter is the acceptance evidence
// for DESIGN.md § 9: the buffering join's footprint grows with the
// overlap ratio (one copy per overlapping instance) while the pane
// store's stays proportional to the retained time span only —
// run_micro.sh turns the pair into join_pane_memory.copy_ratio rows.

template <typename JoinT>
void run_join(benchmark::State& state) {
  const WindowSpec spec{.advance = kWA, .size = kWA * state.range(0)};
  constexpr int kN = 8192;
  std::uint64_t peak = 0;
  std::uint64_t panes = 0;
  for (auto _ : state) {
    Flow flow;
    auto& op = flow.add<JoinT>(
        spec, [](const int& v) { return v & 63; },
        [](const int& v) { return v & 63; },
        [](const int& a, const int& b) { return ((a ^ b) & 255) == 0; });
    auto& sink = flow.add<CollectorSink<std::pair<int, int>>>();
    flow.connect(op.out(), sink.in());
    Timestamp ts = 0;
    for (int i = 0; i < kN; ++i) {
      op.in_left().receive(Element<int>{Tuple<int>{ts, 0, i}});
      op.in_right().receive(Element<int>{Tuple<int>{ts, 0, i * 7}});
      ++ts;
      if (ts % kWA == 0) {
        op.in_left().receive(Element<int>{Watermark{ts}});
        op.in_right().receive(Element<int>{Watermark{ts}});
        flow.drain();
      }
    }
    flow.drain();
    peak = op.peak_occupancy();
    panes = op.peak_panes();
    benchmark::DoNotOptimize(sink.tuples().size());
  }
  state.counters["peak_stored"] = static_cast<double>(peak);
  state.counters["peak_panes"] = static_cast<double>(panes);
  state.SetItemsProcessed(state.iterations() * kN * 2);
}

void BM_Join_Buffering(benchmark::State& state) {
  run_join<BufferingJoinOp<int, int, int>>(state);
}
BENCHMARK(BM_Join_Buffering)->Arg(1)->Arg(8)->Arg(32);

void BM_Join_Pane(benchmark::State& state) {
  run_join<JoinOp<int, int, int>>(state);
}
BENCHMARK(BM_Join_Pane)->Arg(1)->Arg(8)->Arg(32);

// --- Worst-case per-op latency: amortized vs de-amortized FIFO ----------
//
// One slide step = evict + push + query on a full window of 32 panes.
// TwoStacks pays its whole flip in one evict every `window` steps — a
// p99/p999 spike — while DabaLite spreads the same work at a bounded few
// combines per op, so its tail stays within a small factor of its median
// (the PR's acceptance bound: p999 <= 2x p50 at WS/WA = 32).
// run_micro.sh copies the p50/p99/p999 counters (ns/op) into
// BENCH_swa.json's worst_case_latency section.

double percentile_ns(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]);
}

template <typename Fifo>
void run_op_latency(benchmark::State& state) {
  constexpr int kWindow = 32;
  // One sample spans kOpsPerSample consecutive slide steps so the ~20 ns
  // clock readout is amortized instead of dominating a ~30 ns op; with a
  // flip period of kWindow evicts, a TwoStacks flip still lands inside a
  // single sample, so the spike the comparison is about stays visible.
  constexpr int kOpsPerSample = 4;
  const auto comb = [](long a, long b) { return a + b; };
  Fifo fifo;
  for (int i = 0; i < kWindow; ++i) fifo.push(long{1}, comb);
  std::vector<std::uint64_t> samples;
  samples.reserve(1 << 22);
  long sunk = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOpsPerSample; ++i) {
      fifo.evict(comb);
      fifo.push(long{1}, comb);
      sunk += fifo.query_or(long{0}, comb);
    }
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  benchmark::DoNotOptimize(sunk);
  std::sort(samples.begin(), samples.end());
  state.counters["p50_ns"] = percentile_ns(samples, 0.50) / kOpsPerSample;
  state.counters["p99_ns"] = percentile_ns(samples, 0.99) / kOpsPerSample;
  state.counters["p999_ns"] = percentile_ns(samples, 0.999) / kOpsPerSample;
  state.SetItemsProcessed(state.iterations() * kOpsPerSample);
}

void BM_OpLatency_TwoStacks(benchmark::State& state) {
  run_op_latency<swa::TwoStacks<long>>(state);
}
BENCHMARK(BM_OpLatency_TwoStacks)->Iterations(1 << 22);

void BM_OpLatency_Daba(benchmark::State& state) {
  run_op_latency<swa::DabaLite<long>>(state);
}
BENCHMARK(BM_OpLatency_Daba)->Iterations(1 << 22);

// --- Out-of-order tolerance: FIFO invalidation ---------------------------
//
// The same keyed sum with `arg`% of tuples displaced backwards in time
// (arriving after the watermark passed them, within lateness L). The
// FIFO monoid policy invalidates the key's cached run and replays it on
// the next evaluate. run_micro.sh turns the 0% vs 10% items/s pair into
// BENCH_swa.json's ooo_tolerance section.

std::vector<Timestamp> reordered_timestamps(int n, int percent) {
  std::vector<Timestamp> ts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ts[static_cast<std::size_t>(i)] = i;
  // Displacement bounded by one pane width (kWA ticks): a displaced
  // tuple lands at most one pane behind the in-order frontier, the
  // common shape of network-induced reordering. Each such tuple makes
  // the FIFO policy invalidate the key's cached run.
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pick(0, 99);
  std::uniform_int_distribution<int> back(1, static_cast<int>(kWA));
  for (int i = 32; i < n; ++i) {
    if (pick(rng) < percent) {
      std::swap(ts[static_cast<std::size_t>(i)],
                ts[static_cast<std::size_t>(i - back(rng))]);
    }
  }
  return ts;
}

template <typename Machine, typename MakeMachine>
void run_machine_ooo(benchmark::State& state, MakeMachine&& make) {
  const int percent = static_cast<int>(state.range(0));
  constexpr int kN = 1 << 15;
  constexpr Timestamp kSlack = 64;  // > max displacement: nothing is late
  const auto ts = reordered_timestamps(kN, percent);
  const WindowSpec spec{.advance = kWA, .size = kWA * 32};
  std::uint64_t fired = 0;
  long sunk = 0;
  typename Machine::FireFn fire =
      [&](Timestamp, const int&, const typename Machine::Result& r, bool) {
        ++fired;
        sunk += r.agg;
      };
  for (auto _ : state) {
    Machine machine = make(spec);
    Timestamp wm = kMinTimestamp;
    Timestamp hi = kMinTimestamp;
    for (int i = 0; i < kN; ++i) {
      const Timestamp t = ts[static_cast<std::size_t>(i)];
      machine.add(Tuple<int>{t, 0, static_cast<int>(t)}, wm, fire);
      if (t > hi) hi = t;
      // The watermark trails by kSlack, so displaced tuples arrive *out
      // of order but on time*: the cost being measured is the policy's
      // absorb path (FIFO invalidation + replay),
      // not the engine's late-firing machinery.
      if ((i + 1) % kWA == 0 && hi - kSlack > wm) {
        wm = hi - kSlack;
        machine.advance(wm, fire);
      }
    }
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(state.iterations() * kN);
}

swa::Monoid<int, long> bench_sum() {
  return {0, [](const int& v) { return long{v}; },
          [](const long& a, const long& b) { return a + b; }};
}

void BM_Ooo_MonoidFifo_Sum(benchmark::State& state) {
  using M = swa::MonoidWindowMachine<int, long, int>;
  run_machine_ooo<M>(state, [](WindowSpec spec) {
    return M(spec, [](const int& v) { return v % kKeys; },
             swa::MonoidPolicy<int, long, int>(bench_sum()));
  });
}
BENCHMARK(BM_Ooo_MonoidFifo_Sum)->Arg(0)->Arg(10);

// --- Durable ingestion: WAL overhead (DESIGN.md § 12) -------------------
//
// run_micro.sh copies these into BENCH_swa.json's wal_overhead section:
// raw append throughput and per-group ack latency of the input log, the
// durable-vs-plain source ingest ratio (acceptance: DurableSource keeps
// >= 80% of ReplaySource's rate at group_commit = 64), and the recovery
// replay rate (restart cost = reopen-scan + WAL-suffix replay). Rates use
// wall time — the interesting cost is the fsync wait, which never shows
// up as CPU.

namespace fs = std::filesystem;

fs::path bench_wal_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("aggspes_bench_wal_") + tag);
  fs::remove_all(dir);
  return dir;
}

/// Append throughput at group_commit = arg, with the ack latency (time
/// from a group's first append to the fsync that makes it durable)
/// sampled per group. Retention runs every 256 groups so the bench also
/// pays the occasional truncate-below-frontier, as a real run would.
void BM_WalAppend(benchmark::State& state) {
  const auto group = static_cast<std::size_t>(state.range(0));
  const fs::path dir = bench_wal_dir("append");
  InputLog log(WalOptions{dir, 1 << 20, 0});
  const std::vector<std::uint8_t> payload(64, 0xA5);
  std::vector<std::uint64_t> group_ns;
  group_ns.reserve(1 << 16);
  std::uint64_t ck = 0;
  while (state.KeepRunningBatch(
      static_cast<benchmark::IterationCount>(group))) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < group; ++i) {
      log.append(payload.data(), payload.size());
    }
    log.sync();
    const auto t1 = std::chrono::steady_clock::now();
    group_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    if (group_ns.size() % 256 == 0) {
      log.note_checkpoint(++ck, log.durable_seqno());
      log.truncate_below_checkpoint(ck);
    }
  }
  std::sort(group_ns.begin(), group_ns.end());
  state.counters["ack_p50_ns"] = percentile_ns(group_ns, 0.50);
  state.counters["ack_p99_ns"] = percentile_ns(group_ns, 0.99);
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(1)->Arg(64);

constexpr int kIngestN = 1 << 14;
/// Commit group for the ingest comparison: large enough that the fsync
/// amortizes below the pipeline's per-element cost (the throughput side
/// of the group-commit trade; BM_WalAppend's ack_p99 counters show the
/// latency side at small groups).
constexpr std::size_t kIngestGroup = 1024;

std::vector<Element<int>> ingest_script() {
  std::vector<Tuple<int>> v;
  v.reserve(kIngestN);
  for (int i = 0; i < kIngestN; ++i) v.push_back({i, 0, i});
  return timed_script(v, /*period=*/256, /*flush_to=*/kIngestN + 256);
}

/// The Table-1 FM operator both ingest variants feed — the comparison is
/// source-durability overhead on a real pipeline, not on a bare memcpy.
FlatMapFn<int, int> ingest_fm() {
  return [](const int& v) { return std::vector<int>{v, v + 1}; };
}

void BM_SourceIngest_Plain(benchmark::State& state) {
  const auto script = ingest_script();
  for (auto _ : state) {
    Flow flow;
    auto& src = flow.add<ReplaySource<int>>(std::vector<Element<int>>(script),
                                            std::size_t{0});
    AggBasedFlatMap<int, int> op(flow, ingest_fm(), 256);
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src.out(), op.in());
    flow.connect(op.out(), sink.in());
    flow.run();
    benchmark::DoNotOptimize(sink.tuples().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIngestN));
}
BENCHMARK(BM_SourceIngest_Plain);

/// The same script through DurableSource: encode + append + group-commit
/// fsync ahead of every emission. Log creation stays inside the timed
/// region (a restarting process pays the open too); only wiping the
/// previous iteration's volumes is excluded.
void BM_SourceIngest_Durable(benchmark::State& state) {
  const auto script = ingest_script();
  const fs::path dir = bench_wal_dir("ingest");
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    InputLog log(WalOptions{dir, 1 << 20, 0});
    Flow flow;
    auto& src = flow.add<DurableSource<int>>(std::vector<Element<int>>(script),
                                             log, std::size_t{0},
                                             kIngestGroup);
    AggBasedFlatMap<int, int> op(flow, ingest_fm(), 256);
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src.out(), op.in());
    flow.connect(op.out(), sink.in());
    flow.run();
    benchmark::DoNotOptimize(src.acked());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIngestN));
  fs::remove_all(dir);
}
BENCHMARK(BM_SourceIngest_Durable);

/// Restart cost: reopen the log (full volume scan, CRC checks) and serve
/// the whole stream back from WAL bytes — the replay half of
/// restore-latest-checkpoint + replay-WAL-suffix.
void BM_DurableRecovery(benchmark::State& state) {
  const auto script = ingest_script();
  const fs::path dir = bench_wal_dir("recovery");
  {
    InputLog log(WalOptions{dir, 1 << 20, 0});
    for (const auto& e : script) log.append(wal_codec::encode<int>(e));
    log.sync();
  }
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    InputLog log(WalOptions{dir, 1 << 20, 0});
    Flow flow;
    auto& src = flow.add<DurableSource<int>>(std::vector<Element<int>>(script),
                                             log, std::size_t{0},
                                             std::size_t{64});
    auto& sink = flow.add<CollectorSink<int>>();
    flow.connect(src.out(), sink.in());
    flow.run();
    replayed = src.replayed();
  }
  benchmark::DoNotOptimize(replayed);
  state.counters["replayed"] = static_cast<double>(replayed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(script.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableRecovery);

// --- Checkpoint stall: quiesced serialize vs epoch/COW freeze -----------
//
// Per-element ingest latency into the incremental monoid machine while a
// checkpoint cut lands every kCutEvery elements, committed through the
// real durable CheckpointStore (temp + fsync + rename — the same commit
// protocol the recovery path trusts). `None` is the no-checkpoint
// baseline; `Quiesced` serializes the whole machine AND commits the cut
// on the ingest thread (the stop-the-world scheme the epoch/MVCC path
// replaces); `Async` freezes the epoch (an O(panes) shared-pointer bump)
// and hands serialize + durable commit to a worker thread. The ingest
// percentiles carry the PR's acceptance bound — async p999 within 2x the
// no-checkpoint baseline — while the cut_p50_ns counter isolates what
// the triggering element itself pays: encode + fsync under Quiesced,
// only the freeze under Async. kCutEvery = one cut per ~8 ms here —
// still far more frequent than any production checkpoint interval — so
// cut-triggering elements sit below the p999 band by construction and a
// stop-the-world pause hides from the percentiles; the cut counter is
// what keeps the comparison honest. run_micro.sh reads
// both into BENCH_swa.json's async_checkpoint section (median of 5
// repetitions, like the other tail sections).

using StallMachine = swa::MonoidWindowMachine<int, long, int>;
constexpr std::size_t kCutEvery = 16384;

StallMachine make_stall_machine() {
  return StallMachine(
      WindowSpec{.advance = kWA, .size = kWA * 32},
      [](const int& v) { return v % 64; },
      swa::MonoidPolicy<int, long, int>(swa::Monoid<int, long>{
          0, [](const int& v) { return long{v}; },
          [](const long& a, const long& b) { return a + b; }}));
}

enum class StallMode { kNone, kQuiesced, kAsync };

void run_checkpoint_stall(benchmark::State& state, StallMode mode) {
  StallMachine machine = make_stall_machine();
  std::uint64_t fired = 0;
  long sunk = 0;
  StallMachine::FireFn fire = [&](Timestamp, const int&,
                                  const swa::WindowAggregate<long>& r, bool) {
    ++fired;
    sunk += r.agg;
  };

  // Both checkpointing modes commit through the real durable store, so
  // the quiesced mode pays exactly what a stop-the-world cut pays on the
  // hot path: encode AND fsync-backed atomic commit.
  const fs::path dir = bench_wal_dir(mode == StallMode::kQuiesced
                                         ? "ckstall_q"
                                         : "ckstall_a");
  CheckpointStore store;
  if (mode != StallMode::kNone) {
    store.persist_to(dir);
    store.set_expected_nodes(1);
  }
  std::uint64_t next_cut = 0;

  // Async worker: serializes + commits frozen epochs off the ingest
  // thread; the epoch unpins (and retired pane versions collect) when
  // the last shared_ptr drops at the end of each serialize.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::shared_ptr<const StallMachine::Frozen>,
                       std::uint64_t>>
      queue;
  bool stop = false;
  std::uint64_t serialized = 0;
  std::size_t state_bytes = 0;
  std::thread worker;
  if (mode == StallMode::kAsync) {
    worker = std::thread([&] {
      std::unique_lock lk(mu);
      for (;;) {
        cv.wait(lk, [&] { return stop || !queue.empty(); });
        if (queue.empty()) return;
        auto [frozen, id] = std::move(queue.front());
        queue.pop_front();
        lk.unlock();
        SnapshotWriter w;
        frozen->serialize(w);
        state_bytes = w.bytes().size();
        store.record(0, id, w.take());
        ++serialized;
        frozen.reset();
        lk.lock();
      }
    });
  }

  std::vector<std::uint64_t> samples;
  std::vector<std::uint64_t> cut_samples;
  samples.reserve(1 << 19);
  std::uint64_t i = 0;
  Timestamp ts = 0;
  Timestamp wm = kMinTimestamp;
  for (auto _ : state) {
    const bool cut = i > 0 && i % kCutEvery == 0;
    const auto t0 = std::chrono::steady_clock::now();
    if (cut) {
      if (mode == StallMode::kQuiesced) {
        SnapshotWriter w;
        machine.save(w);
        state_bytes = w.bytes().size();
        store.record(0, ++next_cut, w.take());
        ++serialized;
        benchmark::DoNotOptimize(state_bytes);
      } else if (mode == StallMode::kAsync) {
        auto frozen = swa::freeze_shared(machine);
        {
          std::lock_guard lk(mu);
          queue.emplace_back(std::move(frozen), ++next_cut);
        }
        cv.notify_one();
      }
    }
    machine.add(Tuple<int>{ts, 0, static_cast<int>(ts)}, wm, fire);
    ++ts;
    if (ts % kWA == 0) {
      machine.advance(ts, fire);
      wm = ts;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    samples.push_back(ns);
    if (cut) cut_samples.push_back(ns);
    ++i;
  }
  if (mode == StallMode::kAsync) {
    {
      std::lock_guard lk(mu);
      stop = true;
    }
    cv.notify_one();
    worker.join();
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(sunk);

  std::sort(samples.begin(), samples.end());
  std::sort(cut_samples.begin(), cut_samples.end());
  state.counters["ingest_p50_ns"] = percentile_ns(samples, 0.50);
  state.counters["ingest_p99_ns"] = percentile_ns(samples, 0.99);
  state.counters["ingest_p999_ns"] = percentile_ns(samples, 0.999);
  state.counters["cut_p50_ns"] = percentile_ns(cut_samples, 0.50);
  state.counters["cuts"] = static_cast<double>(serialized);
  state.counters["state_bytes"] = static_cast<double>(state_bytes);
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}

void BM_CheckpointStall_None(benchmark::State& state) {
  run_checkpoint_stall(state, StallMode::kNone);
}
BENCHMARK(BM_CheckpointStall_None)->Iterations(1 << 19);

void BM_CheckpointStall_Quiesced(benchmark::State& state) {
  run_checkpoint_stall(state, StallMode::kQuiesced);
}
BENCHMARK(BM_CheckpointStall_Quiesced)->Iterations(1 << 19);

void BM_CheckpointStall_Async(benchmark::State& state) {
  run_checkpoint_stall(state, StallMode::kAsync);
}
BENCHMARK(BM_CheckpointStall_Async)->Iterations(1 << 19);

// --- Micro-batched hot path: columnar kernels vs per-tuple fold ---------
//
// BM_OpIngest_* drives the incremental engine with the identical tuple
// stream two ways: per-tuple add() (arg 0, the scalar oracle) and
// add_block() in kElementBlockCapacity-sized runs (arg 1, the § 16 block
// path — one pane lookup + one columnar kernel fold per run when the
// monoid is tagged). Single key and kElementBlockCapacity tuples per pane
// of width WA: the dense same-key same-pane shape the channel hot path
// delivers, where the batch win is throughput — run_micro.sh turns each
// arg-0/arg-1 items/s pair into BENCH_swa.json's batch_speedup rows
// (acceptance: >= 3x on the tagged arithmetic monoids with
// AGGSPES_BATCH=ON).

constexpr std::size_t kBatchBlock = kElementBlockCapacity;

template <typename Agg, typename Policy>
void run_batch_ingest(benchmark::State& state, swa::Monoid<int, Agg> monoid) {
  const bool batched = state.range(0) != 0;
  using Engine = swa::SlicedEngine<int, int, Policy>;
  Engine eng(WindowSpec{.advance = kWA, .size = kWA * 32},
             [](const int&) { return 0; }, Policy(std::move(monoid)));
  std::uint64_t fired = 0;
  double sunk = 0;
  typename Engine::FireFn fire =
      [&](Timestamp, const int&, const swa::WindowAggregate<Agg>& r, bool) {
        ++fired;
        sunk += static_cast<double>(r.agg);
      };
  // One block of tuples spanning exactly one pane ([pane_l, pane_l + WA)),
  // rebased each round; watermark/advance at every pane boundary, the same
  // discipline the threaded runtime's consumer loop applies.
  std::vector<Tuple<int>> block(kBatchBlock);
  Timestamp pane_l = 0;
  Timestamp wm = kMinTimestamp;
  while (state.KeepRunningBatch(
      static_cast<benchmark::IterationCount>(kBatchBlock))) {
    for (std::size_t i = 0; i < kBatchBlock; ++i) {
      const auto off = static_cast<Timestamp>(i) * kWA /
                       static_cast<Timestamp>(kBatchBlock);
      block[i] = Tuple<int>{pane_l + off, i, static_cast<int>(i) - 128};
    }
    if (batched) {
      eng.add_block(block.data(), block.size(), wm, fire);
    } else {
      for (const Tuple<int>& t : block) eng.add(t, wm, fire);
    }
    pane_l += kWA;
    eng.advance(pane_l, fire);
    wm = pane_l;
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(state.iterations());
  state.counters["batch"] = batched ? 1 : 0;
  state.counters["kernels"] = swa::kBatchKernelsCompiled ? 1 : 0;
}

swa::Monoid<int, long> batch_sum_i64() { return swa::sum_monoid_as<int, long>(); }

void BM_OpIngest_TwoStacks_SumI64(benchmark::State& state) {
  run_batch_ingest<long, swa::MonoidPolicy<int, long, int>>(state,
                                                            batch_sum_i64());
}
BENCHMARK(BM_OpIngest_TwoStacks_SumI64)->Arg(0)->Arg(1);

void BM_OpIngest_Daba_SumI64(benchmark::State& state) {
  run_batch_ingest<long, swa::DabaPolicy<int, long, int>>(state,
                                                          batch_sum_i64());
}
BENCHMARK(BM_OpIngest_Daba_SumI64)->Arg(0)->Arg(1);

void BM_OpIngest_TwoStacks_MinI64(benchmark::State& state) {
  run_batch_ingest<long, swa::MonoidPolicy<int, long, int>>(
      state, swa::min_monoid_as<int, long>(1L << 40));
}
BENCHMARK(BM_OpIngest_TwoStacks_MinI64)->Arg(0)->Arg(1);

void BM_OpIngest_Daba_MinI64(benchmark::State& state) {
  run_batch_ingest<long, swa::DabaPolicy<int, long, int>>(
      state, swa::min_monoid_as<int, long>(1L << 40));
}
BENCHMARK(BM_OpIngest_Daba_MinI64)->Arg(0)->Arg(1);

void BM_OpIngest_TwoStacks_SumF64(benchmark::State& state) {
  run_batch_ingest<double, swa::MonoidPolicy<int, double, int>>(
      state, swa::sum_monoid_as<int, double>());
}
BENCHMARK(BM_OpIngest_TwoStacks_SumF64)->Arg(0)->Arg(1);

void BM_OpIngest_Daba_SumF64(benchmark::State& state) {
  run_batch_ingest<double, swa::DabaPolicy<int, double, int>>(
      state, swa::sum_monoid_as<int, double>());
}
BENCHMARK(BM_OpIngest_Daba_SumF64)->Arg(0)->Arg(1);

void BM_OpIngest_TwoStacks_Count(benchmark::State& state) {
  run_batch_ingest<long, swa::MonoidPolicy<int, long, int>>(
      state, swa::count_monoid_as<int, long>());
}
BENCHMARK(BM_OpIngest_TwoStacks_Count)->Arg(0)->Arg(1);

void BM_OpIngest_Daba_Count(benchmark::State& state) {
  run_batch_ingest<long, swa::DabaPolicy<int, long, int>>(
      state, swa::count_monoid_as<int, long>());
}
BENCHMARK(BM_OpIngest_Daba_Count)->Arg(0)->Arg(1);

// --- SPSC channel transfer: per-element vs bulk push_n/pop_n ------------
//
// The transport half of the § 16 hot path, isolated: move elements
// through the runtime's ring per-element (one release/acquire pair per
// element) vs in kElementBlockCapacity bulk transfers (one pair per
// block). Single-threaded ping-pong over a ring that never fills, so the
// numbers measure the transfer protocol, not scheduler noise.

void BM_SpscQueue_Element(benchmark::State& state) {
  SpscQueue<std::uint64_t> q(1 << 10);
  std::uint64_t next = 0;
  std::uint64_t sunk = 0;
  std::uint64_t v = 0;
  while (state.KeepRunningBatch(
      static_cast<benchmark::IterationCount>(kBatchBlock))) {
    for (std::size_t i = 0; i < kBatchBlock; ++i) q.try_push(next++);
    for (std::size_t i = 0; i < kBatchBlock; ++i) {
      q.try_pop(v);
      sunk += v;
    }
  }
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueue_Element);

void BM_SpscQueue_Bulk(benchmark::State& state) {
  SpscQueue<std::uint64_t> q(1 << 10);
  std::vector<std::uint64_t> in(kBatchBlock);
  std::vector<std::uint64_t> out(kBatchBlock);
  std::uint64_t next = 0;
  std::uint64_t sunk = 0;
  while (state.KeepRunningBatch(
      static_cast<benchmark::IterationCount>(kBatchBlock))) {
    for (std::size_t i = 0; i < kBatchBlock; ++i) in[i] = next++;
    q.push_n(in.data(), in.size());
    const std::size_t got = q.pop_n(out.data(), out.size());
    for (std::size_t i = 0; i < got; ++i) sunk += out[i];
  }
  benchmark::DoNotOptimize(sunk);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueue_Bulk);

}  // namespace

// `--smoke` maps to a short filtered pass over the acceptance groups —
// the perf-smoke ctest entries run it once with the batch kernels
// compiled in and once with AGGSPES_BATCH=0 (CI builds both trees), so a
// kernel regression that only breaks one configuration still surfaces.
int main(int argc, char** argv) {
  static char arg0[] = "bench_swa";
  static char smoke_filter[] =
      "--benchmark_filter=BM_OpLatency|BM_Ooo|BM_OpIngest|BM_SpscQueue";
  static char smoke_min_time[] = "--benchmark_min_time=0.05";
  std::vector<char*> args{argc > 0 ? argv[0] : arg0};
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke) {
    args.push_back(smoke_filter);
    args.push_back(smoke_min_time);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
