// Ablation 4 — parallel AggBased deployments (§ 8 future work): a logical
// AggBased FM deployed as N physical Embed/Unfold compositions behind a
// key splitter. This rides the production sharding path —
// RunConfig::shards → ShardedFlow (splitter → N operator shards →
// watermark-merging union) — so the ablation and the sharded runtime
// exercise one code path instead of the seed's ParallelAggBasedFlatMap
// wrapper. The point remains: (a) parallel deployment is expressible in
// the minimal-Aggregate model, and (b) the scaling shape on this host is
// honest — per-shard routed counts show the key space spreading while
// the core count bounds the wall-clock gain.
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hpp"
#include "harness/sustainable.hpp"
#include "workloads/wiki.hpp"

namespace {

using namespace aggspes;
using harness::RunConfig;
using harness::RunResult;

RunResult run_sharded_ablation(int shards, double rate) {
  RunConfig cfg;
  cfg.rate = rate;
  cfg.shards = shards;
  auto gen = std::make_shared<wiki::WikiGenerator>(7);
  FlatMapFn<wiki::WikiEdit, std::string> fm = [](const wiki::WikiEdit& e) {
    return std::vector<std::string>{wiki::most_frequent_word(e.orig)};
  };
  return harness::run_fm<wiki::WikiEdit, std::string>(
      harness::Impl::kAggBased, cfg,
      [gen](std::uint64_t i) { return gen->make(i); }, std::move(fm));
}

std::string routed_split(const RunResult& r) {
  if (r.per_shard.empty()) return "-";
  std::ostringstream os;
  for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
    os << (s ? "/" : "") << r.per_shard[s].routed;
  }
  return os.str();
}

}  // namespace

int main() {
  using harness::fmt_ms;
  using harness::fmt_rate;

  harness::print_section(
      "Ablation 4 — sharded AggBased FM (ALF-like), N shards via ShardedFlow");
  std::vector<std::vector<std::string>> rows;
  for (int p : {1, 2, 4}) {
    for (double rate : {10e3, 20e3, 40e3}) {
      RunResult r = run_sharded_ablation(p, rate);
      rows.push_back({std::to_string(p), fmt_rate(rate),
                      fmt_rate(r.achieved_per_s), fmt_rate(r.outputs_per_s),
                      fmt_ms(r.latency.p50_ms), fmt_ms(r.latency.p99_ms),
                      routed_split(r)});
    }
  }
  harness::print_table({"shards", "offered", "achieved", "out/s", "p50", "p99",
                        "routed split"},
                       rows);
  std::cout << "Note: this host has "
            << std::thread::hardware_concurrency()
            << " core(s); each shard adds the full Embed/Unfold thread set, "
               "so wall-clock gains saturate at the core count — the shape "
               "to check is that correctness and watermark flow are "
               "shard-count-invariant while the routed split spreads.\n";
  return 0;
}
