// End-to-end benchmark of the D / A / A+ deployments of three Table-1
// pipelines on ThreadedFlow.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--sha <git sha>] [--out-dir <dir>]
//
// Each workload runs closed-loop saturation phases (a replay source sends a
// pre-generated buffer as fast as backpressure allows) and open-loop
// latency phases (RateSource at a fixed rate, latency measured from each
// tuple's scheduled send time). Every phase's output is checked against a
// single-threaded reference. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 1 the metrics
// are the per-layer split measured through timing shims instead of the
// end-to-end figures. See perfbench/METRICS.md for every metric.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kMinRounds = 4;
constexpr int kOpenRepeats = 3;
/// Edges reported per impl, in connect order (the largest pipeline of
/// each impl across the workloads; wider sharded graphs are truncated).
constexpr std::size_t kEdgeCap[] = {3, 10, 5};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{36};
  bool trace{false};
  std::string sha{"unknown"};
  std::string out_dir{".bench_out"};
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--sha") {
      a.sha = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "fm-wiki-low") {
    return make_fm_workload(a.seed, a.seconds, 1);
  }
  if (a.workload == "fm-wiki-sharded4") {
    return make_fm_workload(a.seed, a.seconds, 4);
  }
  if (a.workload == "join-wiki-overlap") {
    return make_join_workload(a.seed, a.seconds);
  }
  return nullptr;
}

/// Checks one phase against the reference and books its tuples.
void account(Workload& w, const PhaseResult& r, Outcome& o) {
  o.attempted += r.offered;
  const std::string what = std::string(impl_tag(r.impl)) +
                           (r.loop == Loop::kClosed ? " closed" : " open");
  if (r.cutoff) {
    o.fail(what + ": RateSource cutoff fired", r.offered - r.sent);
  }
  if (!(r.out == w.reference(r))) {
    o.fail(what + ": output differs from the reference", r.sent);
  }
  if (r.late_outputs > 0) {
    o.fail(what + ": outputs behind the watermark", r.late_outputs);
  }
  if (r.dropped_late > 0) {
    o.fail(what + ": inputs dropped as late", r.dropped_late);
  }
}

std::string phase_json(const PhaseResult& r) {
  return std::string("{\"impl\":") + json_string(impl_tag(r.impl)) +
         ",\"loop\":" +
         json_string(r.loop == Loop::kClosed ? "closed" : "open") +
         ",\"traced\":" + (r.traced ? "true" : "false") +
         ",\"sent\":" + std::to_string(r.sent) +
         ",\"outputs\":" + std::to_string(r.out.tuples) +
         ",\"elapsed_s\":" + json_number(r.elapsed_s) +
         ",\"peak_rss_mib\":" + json_number(r.peak_rss_mib) +
         ",\"nodes\":" + std::to_string(r.nodes) +
         ",\"edges\":" + std::to_string(r.edges) + "}";
}

/// Latency percentiles (ms) over outputs whose scheduled send time lies in
/// the middle 80% of the phase (warm-up and final flush excluded).
struct Latency {
  double p50_ms{0};
  double p99_ms{0};
  std::size_t samples{0};
};
Latency latency_of(const std::vector<const PhaseResult*>& phases) {
  aggspes::LatencyRecorder rec;
  for (const PhaseResult* r : phases) {
    if (r->latency.empty()) continue;
    std::uint64_t lo = r->latency.front().first, hi = lo;
    for (const auto& [sched, lat] : r->latency) {
      lo = std::min(lo, sched);
      hi = std::max(hi, sched);
    }
    const std::uint64_t from = lo + (hi - lo) / 10;
    const std::uint64_t to = hi - (hi - lo) / 10;
    for (const auto& [sched, lat] : r->latency) {
      if (sched >= from && sched <= to) rec.record(lat);
    }
  }
  const aggspes::LatencySummary s = rec.summarize();
  return {s.p50_ms, s.p99_ms, s.count};
}

/// Tuples sent over time taken, pooled over all rounds: on a shared host
/// this varies less from run to run than the median of the rounds' rates.
double sat_tps(const std::vector<PhaseResult>& reps) {
  double sent = 0, elapsed = 0;
  for (const auto& r : reps) {
    sent += static_cast<double>(r.sent);
    elapsed += r.elapsed_s;
  }
  return elapsed > 0 ? sent / elapsed : 0.0;
}

std::uint64_t stall_of(const PhaseResult& r,
                       const std::vector<std::size_t>& edges) {
  std::uint64_t s = 0;
  for (std::size_t e : edges) {
    if (e < r.gauges.size()) s += r.gauges[e].stall_ns;
  }
  return s;
}

/// Per-layer metrics of one impl from its traced closed-loop repetitions
/// (sums over the repetitions, per input tuple).
void layer_metrics(Impl impl, const std::vector<PhaseResult>& traced,
                   double overhead, double source_lag_ms, Outcome& o) {
  const std::string I = impl_tag(impl);
  double sent = 0, outputs = 0, udf = 0, pred_ns = 0, pred = 0, keys = 0;
  double source = 0, busy = 0, self = 0, sink = 0;
  std::uint64_t peak_stored = 0, peak_panes = 0;
  for (const PhaseResult& r : traced) {
    sent += static_cast<double>(r.sent);
    outputs += static_cast<double>(r.out.tuples);
    udf += r.udf_ns;
    pred += static_cast<double>(r.pred_calls);
    pred_ns += r.pred_ns * static_cast<double>(r.pred_calls);
    keys += static_cast<double>(r.key_calls);
    source += static_cast<double>(r.source_pump_ns) -
              static_cast<double>(stall_of(r, r.source_edges));
    busy += static_cast<double>(r.entry_busy_ns);
    self += static_cast<double>(r.entry_busy_ns) -
            static_cast<double>(r.entry_udf_ns) -
            static_cast<double>(stall_of(r, r.entry_out_edges));
    sink += static_cast<double>(r.sink_busy_ns);
    peak_stored = std::max(peak_stored, r.peak_stored);
    peak_panes = std::max(peak_panes, r.peak_panes);
  }
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  o.metric("workloads.udf_us." + I, per(udf, sent) / 1e3, "us");
  o.metric("workloads.pred_ns." + I, per(pred_ns, pred), "ns");
  o.metric("workloads.pred_calls_per_tuple." + I, per(pred, sent),
           "calls/tuple");
  o.metric("workloads.key_calls_per_tuple." + I, per(keys, sent),
           "calls/tuple");
  o.metric("runtime.source_us." + I, per(source, sent) / 1e3, "us");
  o.metric("runtime.entry_busy_us." + I, per(busy, sent) / 1e3, "us");
  o.metric("runtime.entry_self_us." + I, per(self, sent) / 1e3, "us");
  o.metric("runtime.sink_busy_us." + I, per(sink, outputs) / 1e3, "us");
  const PhaseResult& last = traced.back();
  const std::size_t cap = kEdgeCap[static_cast<int>(impl)];
  for (std::size_t e = 0; e < cap; ++e) {
    double stall = 0, hw = 0;
    for (const PhaseResult& r : traced) {
      if (e < r.gauges.size()) {
        stall += static_cast<double>(r.gauges[e].stall_ns) / 1e6;
        hw = std::max(hw, static_cast<double>(r.gauges[e].high_water));
      }
    }
    const std::string edge = "runtime.edge" + std::to_string(e);
    o.metric(edge + ".stall_ms." + I,
             stall / static_cast<double>(traced.size()), "ms");
    o.metric(edge + ".high_water." + I, hw, "count");
  }
  o.metric("runtime.nodes." + I, static_cast<double>(last.nodes), "count");
  o.metric("runtime.source_lag_ms." + I, source_lag_ms, "ms");
  o.metric("window.peak_stored." + I, static_cast<double>(peak_stored),
           "count");
  o.metric("window.peak_panes." + I, static_cast<double>(peak_panes),
           "count");
  o.metric("trace.overhead." + I, overhead, "ratio");
  if (impl == Impl::kAggBased) {
    double loop_hw = 0, unfold = 0;
    for (const PhaseResult& r : traced) {
      for (const auto& g : r.gauges) {
        if (g.capacity == 0) {  // the feedback edge is unbounded
          loop_hw = std::max(loop_hw, static_cast<double>(g.high_water));
        }
      }
      unfold = std::max(unfold, static_cast<double>(r.unfold_peak_stored));
    }
    o.metric("aggbased.loop_high_water.A", loop_hw, "count");
    o.metric("aggbased.unfold_peak_stored.A", unfold, "count");
  }
  if (impl == Impl::kDedicated) {
    std::vector<double> routed(4, 0.0);
    double splitter = 0;
    for (const PhaseResult& r : traced) {
      for (std::size_t s = 0; s < r.routed.size() && s < 4; ++s) {
        routed[s] += static_cast<double>(r.routed[s]);
      }
      splitter += static_cast<double>(r.splitter_busy_ns);
    }
    const double total = routed[0] + routed[1] + routed[2] + routed[3];
    const double mx = *std::max_element(routed.begin(), routed.end());
    const std::size_t shards = last.routed.size();
    o.metric("sharded.splitter_busy_us", per(splitter, sent) / 1e3, "us");
    for (std::size_t s = 0; s < 4; ++s) {
      o.metric("sharded.routed.s" + std::to_string(s),
               routed[s] / static_cast<double>(traced.size()), "count");
    }
    o.metric("sharded.skew",
             total > 0 ? mx / (total / static_cast<double>(shards)) : 0.0,
             "ratio");
  }
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  if (!w) {
    std::cerr << "unknown workload " << a.workload << "\n";
    return 2;
  }
  Outcome o;
  o.note("workload", json_string(a.workload));
  o.note("seed", std::to_string(a.seed));
  o.note("seconds", json_number(a.seconds));
  o.note("trace", a.trace ? "true" : "false");
  o.note("git_sha", json_string(a.sha));
  o.note("build_type", json_string(PERFBENCH_BUILD_TYPE));
  o.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  w->describe(o);

  // Set-up: generate the inputs and build every pipeline; repeated once
  // per closed-loop round as well, so its median spans the whole run.
  std::vector<double> setup;
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    w->generate();
    w->build_all();
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  set_up();
  if (const std::string err = w->check_registry(); !err.empty()) {
    o.fail(err, 0);
  }
  // References of the planned inputs, before any measured phase, so every
  // round starts from the same heap.
  w->prepare_references();

  std::vector<PhaseResult> closed[3];
  std::vector<PhaseResult> traced[3];
  std::vector<PhaseResult> open[3];
  std::vector<std::string> phases;
  std::uint32_t run_id = 0;
  // Peak RSS of the run: the largest of the phases' high-water marks.
  double peak_rss = 0;
  auto exec = [&](Impl impl, Loop loop, bool tr,
                  std::vector<PhaseResult>* into) {
    Tracer::get().set_run(++run_id);
    reset_peak_rss();
    PhaseResult r = w->run(impl, loop, tr);
    r.peak_rss_mib = peak_rss_mib();
    peak_rss = std::max(peak_rss, r.peak_rss_mib);
    malloc_trim(0);  // later phases start from a trimmed heap
    account(*w, r, o);
    phases.push_back(phase_json(r));
    r.latency.shrink_to_fit();
    into[static_cast<int>(impl)].push_back(std::move(r));
  };
  // Rounds interleave the impls (and, traced, untraced with traced runs)
  // until --seconds is spent, and the open-loop rounds are spread evenly
  // through that time, so slow spells of the host hit every series alike.
  // Phases are fixed in size, so a slower host runs fewer rounds rather
  // than a longer benchmark.
  const std::uint64_t start = now_ns();
  auto since = [](std::uint64_t t) {
    return static_cast<double>(now_ns() - t) / 1e9;
  };
  double closed_s = 0;
  int opens = 0;
  for (int k = 1;; ++k) {
    const std::uint64_t round = now_ns();
    set_up();
    for (Impl impl : kImpls) {
      for (int j = 0; j < w->closed_phases(impl); ++j) {
        exec(impl, Loop::kClosed, false, closed);
      }
    }
    if (a.trace) {
      for (Impl impl : kImpls) exec(impl, Loop::kClosed, true, traced);
    }
    closed_s += since(round);
    if (!a.trace && opens < kOpenRepeats &&
        since(start) >= (opens + 0.5) * a.seconds / kOpenRepeats) {
      exec(Impl::kAggBased, Loop::kOpen, false, open);
      exec(Impl::kAPlus, Loop::kOpen, false, open);
      ++opens;
    }
    const bool opens_done = a.trace || opens == kOpenRepeats;
    if (k >= kMinRounds && opens_done &&
        since(start) + closed_s / k > a.seconds) {
      o.note("rounds", std::to_string(k));
      break;
    }
  }
  if (a.trace) {
    for (Impl impl : kImpls) exec(impl, Loop::kOpen, false, open);
  }

  if (!a.trace) {
    for (Impl impl : kImpls) {
      o.metric(std::string("sat_tps.") + impl_tag(impl),
               sat_tps(closed[static_cast<int>(impl)]), "tuples/s");
    }
    for (Impl impl : {Impl::kAggBased, Impl::kAPlus}) {
      std::vector<const PhaseResult*> ps;
      for (const auto& r : open[static_cast<int>(impl)]) ps.push_back(&r);
      const Latency l = latency_of(ps);
      o.metric(std::string("lat_p50_ms.") + impl_tag(impl), l.p50_ms, "ms");
      o.metric(std::string("lat_p99_ms.") + impl_tag(impl), l.p99_ms, "ms");
      o.note(std::string("latency_samples_") + impl_tag(impl),
             std::to_string(l.samples));
    }
    o.metric("setup_s", median(setup), "s");
    o.metric("peak_rss_mb", peak_rss, "MiB");
  } else {
    for (Impl impl : kImpls) {
      const int i = static_cast<int>(impl);
      const double overhead = 1.0 - sat_tps(traced[i]) / sat_tps(closed[i]);
      layer_metrics(impl, traced[i], overhead, open[i].back().source_lag_ms, o);
    }
    const Latency d = latency_of({&open[0].back()});
    o.metric("runtime.lat_p50_us.D", d.p50_ms * 1e3, "us");
    o.metric("runtime.lat_p99_us.D", d.p99_ms * 1e3, "us");
    std::filesystem::create_directories(a.out_dir);
    const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    Tracer::get().write_jsonl(path);
    o.note("spans_file", json_string(path));
    o.note("spans_kept", std::to_string(Tracer::get().kept()));
  }
  o.note("fail_ratio",
         json_number(o.attempted ? static_cast<double>(o.failed) /
                                       static_cast<double>(o.attempted)
                                 : 0.0));

  // Run record, then the result as the last line.
  std::string rec = "{\"record\":{";
  for (std::size_t i = 0; i < o.record.size(); ++i) {
    rec += (i ? "," : "") + json_string(o.record[i].first) + ":" +
           o.record[i].second;
  }
  rec += ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    rec += (i ? "," : "") + phases[i];
  }
  rec += "],\"errors\":[";
  for (std::size_t i = 0; i < o.errors.size(); ++i) {
    rec += (i ? "," : "") + json_string(o.errors[i]);
  }
  rec += "]}}";
  std::cout << rec << "\n";
  for (const std::string& e : o.errors) std::cerr << "FAIL: " << e << "\n";

  std::string out = std::string("{\"correct\":") +
                    (o.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(o.attempted) +
                    ",\"failed\":" + std::to_string(o.failed) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    out += (i ? "," : "") + json_string(m.name) + ":{\"value\":" +
           json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload <fm-wiki-low|join-wiki-overlap|"
                 "fm-wiki-sharded4> --seed <n> --seconds <s> --trace <0|1> "
                 "[--sha <sha>] [--out-dir <dir>]\n";
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
