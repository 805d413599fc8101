// Micro-benchmarks (google-benchmark) of the engine's hot paths: window
// instance math, the window machine, the SPSC queue, envelope hashing, and
// the workload functions' per-tuple cost (the "Cost" column of Table 1).
#include <benchmark/benchmark.h>

#include <optional>

#include "aggbased/embedded.hpp"
#include "core/operators/window_machine.hpp"
#include "core/runtime/spsc_queue.hpp"
#include "core/window.hpp"
#include "workloads/scans.hpp"
#include "workloads/wiki.hpp"

namespace {

using namespace aggspes;

void BM_WindowInstances_Tumbling(benchmark::State& state) {
  WindowSpec spec{.advance = 1000, .size = 1000};
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.first_instance(ts));
    benchmark::DoNotOptimize(spec.last_instance(ts));
    ts += 7;
  }
}
BENCHMARK(BM_WindowInstances_Tumbling);

void BM_WindowInstances_Sliding(benchmark::State& state) {
  WindowSpec spec{.advance = 500, .size = 10000};
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.instances(ts));
    ts += 7;
  }
}
BENCHMARK(BM_WindowInstances_Sliding);

void BM_WindowMachine_AddAndFire(benchmark::State& state) {
  const Timestamp ws = state.range(0);
  WindowMachine<int, int> machine(
      WindowSpec{.advance = ws, .size = ws},
      [](const int& v) { return v % 8; });
  std::uint64_t fired = 0;
  WindowMachine<int, int>::FireFn fire =
      [&fired](Timestamp, const int&, const TupleView<int>&, bool) {
        ++fired;
      };
  Timestamp ts = 0;
  for (auto _ : state) {
    machine.add(Tuple<int>{ts, 0, static_cast<int>(ts)}, ts - 2 * ws, fire);
    if (ts % ws == 0) machine.advance(ts - ws, fire);
    ++ts;
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_WindowMachine_AddAndFire)->Arg(10)->Arg(100)->Arg(1000);

void BM_SpscQueue_PushPop(benchmark::State& state) {
  SpscQueue<int> q(1024);
  int v = 0;
  for (auto _ : state) {
    q.push(1);
    q.try_pop(v);
  }
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_SpscQueue_PushPop);

void BM_EnvelopeHash(benchmark::State& state) {
  std::vector<int> items;
  for (int i = 0; i < state.range(0); ++i) items.push_back(i);
  Embedded<int> env{std::move(items), kFromEmbed};
  std::hash<Embedded<int>> h;
  for (auto _ : state) benchmark::DoNotOptimize(h(env));
}
BENCHMARK(BM_EnvelopeHash)->Arg(1)->Arg(8)->Arg(64);

// --- Per-tuple workload costs (Table 1's Low/High cost classes) -------

void BM_Wiki_MostFrequentWord(benchmark::State& state) {
  wiki::WikiGenerator gen(1);
  auto e = gen.make(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wiki::most_frequent_word(e.orig));
  }
}
BENCHMARK(BM_Wiki_MostFrequentWord);

void BM_Wiki_ThreeFieldTopK(benchmark::State& state) {
  wiki::WikiGenerator gen(1);
  auto e = gen.make(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wiki::top_k_words(e.orig, 3));
    benchmark::DoNotOptimize(wiki::top_k_words(e.change, 3));
    benchmark::DoNotOptimize(wiki::top_k_words(e.updated, 3));
  }
}
BENCHMARK(BM_Wiki_ThreeFieldTopK);

void BM_Scan_ToCartesian(benchmark::State& state) {
  scans::ScanGenerator gen(1);
  auto s = gen.make(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scans::to_cartesian(s));
  }
}
BENCHMARK(BM_Scan_ToCartesian);

void BM_Scan_ToCartesianFromReference(benchmark::State& state) {
  scans::ScanGenerator gen(1);
  auto s = gen.make(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scans::to_cartesian_from_reference(s, 1.5, 0.0));
  }
}
BENCHMARK(BM_Scan_ToCartesianFromReference);

void BM_Scan_SumAbsDiff(benchmark::State& state) {
  scans::ScanGenerator gen(1);
  auto a = gen.make(0);
  auto b = gen.make(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scans::sum_abs_diff(a, b));
  }
}
BENCHMARK(BM_Scan_SumAbsDiff);

void BM_Wiki_GenerateEdit(benchmark::State& state) {
  wiki::WikiGenerator gen(1);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gen.make(i++));
}
BENCHMARK(BM_Wiki_GenerateEdit);

void BM_Scan_GenerateScan(benchmark::State& state) {
  scans::ScanGenerator gen(1);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gen.make(i++));
}
BENCHMARK(BM_Scan_GenerateScan);

}  // namespace

BENCHMARK_MAIN();
