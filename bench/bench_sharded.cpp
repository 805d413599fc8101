// Shard-scaling bench: the fig6 FM workload (AHF — mfw over all three
// wiki fields) deployed through ShardedFlow at N ∈ {1, 2, 4, 8}, walked
// up the fig6 rate ladder. Emits the `shard_scaling` JSON section that
// bench/run_micro.sh merges into BENCH_swa.json:
//
//   per N: the ladder of (offered, achieved, outputs/s, p99) points and
//   the best achieved throughput; plus the N=8 / N=1 speedup, the
//   >= 3.0x acceptance flag, the host's core count, and the N=8 routed
//   split (does the splitter actually spread the key space).
//
// The speedup and its accept flag are MEASURED values: key-partitioned
// shards only buy wall-clock throughput when shard threads land on
// distinct cores, so `cores` is recorded alongside for interpretability —
// on a single-core host the honest speedup is ~1x and the flag false.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiments.hpp"
#include "harness/report.hpp"

int main() {
  using namespace aggspes::harness;

  const Experiment& e = experiment("AHF");
  const std::vector<int> widths{1, 2, 4, 8};

  struct Point {
    double rate;
    RunResult r;
  };
  struct Row {
    int shards;
    std::vector<Point> ladder;
    double best{0};
    std::vector<std::uint64_t> routed;
  };
  std::vector<Row> rows;

  for (int n : widths) {
    Row row;
    row.shards = n;
    for (double rate : e.rate_ladder) {
      RunConfig cfg;
      cfg.rate = rate;
      cfg.shards = n;
      Point p{rate, e.run(Impl::kAggBased, cfg)};
      if (p.r.achieved_per_s > row.best) {
        row.best = p.r.achieved_per_s;
        row.routed.clear();
        for (const aggspes::ShardStats& st : p.r.per_shard) {
          row.routed.push_back(st.routed);
        }
      }
      row.ladder.push_back(std::move(p));
    }
    rows.push_back(std::move(row));
  }

  const double n1 = rows.front().best;
  const double n8 = rows.back().best;
  const double speedup = n1 > 0 ? n8 / n1 : 0;
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("{\n  \"workload\": \"AHF (fig6 ladder, impl A)\",\n");
  std::printf("  \"cores\": %u,\n", cores);
  std::printf("  \"widths\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("    {\"shards\": %d, \"best_achieved_per_s\": %.1f, "
                "\"ladder\": [",
                row.shards, row.best);
    for (std::size_t j = 0; j < row.ladder.size(); ++j) {
      const Point& p = row.ladder[j];
      std::printf("%s{\"offered\": %.0f, \"achieved\": %.1f, "
                  "\"outputs_per_s\": %.1f, \"p99_ms\": %.3f}",
                  j ? ", " : "", p.rate, p.r.achieved_per_s,
                  p.r.outputs_per_s, p.r.latency.p99_ms);
    }
    std::printf("],\n     \"routed_at_best\": [");
    for (std::size_t j = 0; j < row.routed.size(); ++j) {
      std::printf("%s%llu", j ? ", " : "",
                  static_cast<unsigned long long>(row.routed[j]));
    }
    std::printf("]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"speedup_n8_vs_n1\": %.3f,\n", speedup);
  std::printf("  \"accept_n8_ge_3x\": %s\n", speedup >= 3.0 ? "true" : "false");
  std::printf("}\n");
  return 0;
}
