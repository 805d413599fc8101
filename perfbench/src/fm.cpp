// FlatMap workloads: Table-1 ALF (f_FM = most frequent word of `orig`,
// selectivity 1, low cost) over synthetic Wikipedia edits, run as D, A and
// A+ either as one operator instance or through ShardedFlow.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/flatmap.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "harness/experiments.hpp"
#include "workload.hpp"
#include "workloads/wiki.hpp"

namespace perfbench {
namespace {

using aggspes::AggBasedFlatMap;
using aggspes::FlatMapOp;
using aggspes::RateSource;
using aggspes::RateSourceConfig;
using aggspes::ShardedFlow;
using aggspes::ShardEndpoints;
using aggspes::ThreadedFlow;
using aggspes::WindowMachine;
using aggspes::wiki::WikiEdit;
using Out = std::string;
using FmFn = aggspes::FlatMapFn<WikiEdit, Out>;

/// Table-1 ALF, re-expressed here because the registry keeps its UDFs in
/// an anonymous namespace; check_registry() pins it to the registry row.
FmFn alf() {
  return [](const WikiEdit& e) {
    return std::vector<Out>{aggspes::wiki::most_frequent_word(e.orig)};
  };
}

constexpr std::size_t kBufferTuples = 1 << 16;
constexpr Density kDensity{1, 80};     // 80 tuples per event-time tick
constexpr Timestamp kWmPeriod = 100;   // watermark spacing D, in ticks
constexpr Timestamp kTicksPerS = 1000; // open loop: 1 tick = 1 ms
constexpr Timestamp kFlush = 3 * kWmPeriod + 10;
constexpr double kOpenRate = 40000;    // ≈ 1/3 to 1/2 of A's saturation
constexpr int kSelectivitySamples = 4000;

class FmWorkload final : public Workload {
 public:
  FmWorkload(std::uint64_t seed, double seconds, int shards)
      : seed_(seed),
        shards_(shards),
        // Sized so about 14 closed and 3 open rounds fit in `seconds` on 4
        // cores.
        closed_tuples_(static_cast<std::uint64_t>(
            (shards > 1 ? 3000 : 2000) * seconds)),
        open_seconds_(seconds / 25) {}

  void generate() override {
    aggspes::wiki::WikiGenerator gen(seed_);
    buffer_.clear();
    buffer_.reserve(kBufferTuples);
    for (std::size_t i = 0; i < kBufferTuples; ++i) {
      buffer_.push_back(gen.make(i));
    }
  }

  void build_all() override {
    for (Impl impl : kImpls) go(impl, Loop::kClosed, false, false);
    for (Impl impl : kImpls) go(impl, Loop::kOpen, false, false);
  }

  std::string check_registry() override {
    const auto& row = aggspes::harness::experiment("ALF");
    // Selectivity probe: same generator seed and sample as the registry.
    aggspes::wiki::WikiGenerator g42(42);
    const FmFn f = alf();
    std::uint64_t outputs = 0;
    for (int i = 0; i < kSelectivitySamples; ++i) {
      outputs += f(g42.make(static_cast<std::uint64_t>(i))).size();
    }
    const double mine =
        static_cast<double>(outputs) / kSelectivitySamples;
    const double reg = row.measure_selectivity(kSelectivitySamples);
    if (mine != reg) {
      return "ALF selectivity " + json_number(mine) + " != registry " +
             json_number(reg);
    }
    // Output probe: the registry's deterministic D run over wiki_gen(7),
    // 256 tuples at ts = i, digested the registry's way.
    aggspes::wiki::WikiGenerator g7(7);
    Digest p;
    for (int i = 0; i < 256; ++i) {
      for (const Out& o : f(g7.make(static_cast<std::uint64_t>(i)))) {
        ++p.tuples;
        p.checksum += static_cast<std::uint64_t>(
            aggspes::hash_values(static_cast<Timestamp>(i), o));
      }
    }
    const auto want = row.probe(Impl::kDedicated,
                                aggspes::harness::WindowBackend::kBuffering);
    if (!(p == want)) return "ALF outputs differ from the registry probe";
    return "";
  }

  PhaseResult run(Impl impl, Loop loop, bool traced) override {
    return go(impl, loop, traced, true);
  }

  /// Sharded A runs 28 threads on 4 cores and is the slowest and least
  /// steady of the sharded phases, so it gets twice the rounds.
  int closed_phases(Impl impl) const override {
    return shards_ > 1 && impl == Impl::kAggBased ? 2 : 1;
  }

  void prepare_references() override {
    if (!outputs_.empty()) return;
    // f_FM over the buffer, single-threaded, outside any timed region; a
    // phase's reference then only re-stamps these by event time.
    const FmFn f = alf();
    outputs_.reserve(buffer_.size());
    for (const WikiEdit& e : buffer_) outputs_.push_back(f(e));
  }

  Digest reference(const PhaseResult& r) override {
    prepare_references();
    Digest d;
    for (std::uint64_t i = 0; i < r.sent; ++i) {
      const Timestamp ts = r.loop == Loop::kClosed
                               ? kDensity.ts(i)
                               : rate_source_ts(i, kOpenRate, kTicksPerS);
      for (const Out& o : outputs_[i % outputs_.size()]) {
        ++d.tuples;
        d.checksum += static_cast<std::uint64_t>(aggspes::hash_values(ts, o));
      }
    }
    return d;
  }

  void describe(Outcome& o) override {
    o.note("job", json_string("Table-1 ALF: f_FM = mfw(orig)"));
    o.note("shards", std::to_string(shards_));
    o.note("buffer_tuples", std::to_string(kBufferTuples));
    o.note("closed_loop_tuples_per_phase", std::to_string(closed_tuples_));
    o.note("event_time_tuples_per_tick",
           json_number(static_cast<double>(kDensity.den) /
                       static_cast<double>(kDensity.num)));
    o.note("wm_period_ticks", std::to_string(kWmPeriod));
    o.note("open_loop_rate_tps", json_number(kOpenRate));
    o.note("open_loop_ticks_per_s", std::to_string(kTicksPerS));
    o.note("open_loop_seconds", json_number(open_seconds_));
  }

 private:
  /// Builds one pipeline and, when `execute`, runs it and collects what
  /// it measured. Wiring per impl:
  ///   D   source → FlatMapOp → sink
  ///   A   source → AggBasedFlatMap (Embed A, C2, A1 ⟲, C3, A2) → sink
  ///   A+  source → A+ (δ-tumbling, keyed by the whole tuple) → sink
  /// With shards > 1 each of these is the per-shard factory of a
  /// ShardedFlow (splitter → N × (ingress → copy) → union).
  PhaseResult go(Impl impl, Loop loop, bool traced, bool execute) {
    PhaseResult r;
    r.impl = impl;
    r.loop = loop;
    r.traced = traced;
    Instruments ins(traced);
    ThreadedFlow flow;

    NodeBase* src_node = nullptr;
    Outlet<WikiEdit>* src_out = nullptr;
    ReplaySource<WikiEdit>* replay = nullptr;
    RateSource<WikiEdit>* rated = nullptr;
    if (loop == Loop::kClosed) {
      replay = &flow.add<ReplaySource<WikiEdit>>(
          std::vector<const std::vector<WikiEdit>*>{&buffer_}, closed_tuples_,
          kDensity, kWmPeriod, kFlush);
      src_node = replay;
      src_out = &replay->out();
    } else {
      RateSourceConfig cfg{.rate = kOpenRate,
                           .duration_s = open_seconds_,
                           .ticks_per_s = kTicksPerS,
                           .wm_period = kWmPeriod,
                           .flush_horizon = kFlush};
      const std::vector<WikiEdit>* buf = &buffer_;
      rated = &flow.add<RateSource<WikiEdit>>(
          cfg, [buf](std::uint64_t i) { return (*buf)[i % buf->size()]; });
      src_node = rated;
      src_out = &rated->out();
    }
    auto& sink = flow.add<CheckSink<Out>>(loop == Loop::kOpen);
    NodeClock* sink_clock = ins.node("sink");

    std::vector<NodeClock*> entry;
    std::vector<UdfClock*> udfs;
    UdfClock* key_clock = nullptr;
    NodeClock* splitter_clock = nullptr;
    // Post-run readers of flow-owned state (machines, splitter).
    std::function<void(PhaseResult&)> collect;
    std::unique_ptr<ShardedFlow<WikiEdit, Out, WikiEdit>> sharded;

    if (shards_ == 1) {
      entry.push_back(ins.node(std::string("entry.") + impl_tag(impl)));
      udfs.push_back(ins.udf("f_FM", true));
      const FmFn f = ins.wrap(alf(), udfs.back());
      auto wire = [&](NodeBase& in_node, Consumer<WikiEdit>& in,
                      NodeBase& out_node, Outlet<Out>& out) {
        r.source_edges = {flow.edge_count()};
        flow.connect(*src_node, *src_out, in_node, ins.port(in, entry[0]));
        flow.connect(out_node, out, sink, ins.port(sink.in(), sink_clock));
      };
      switch (impl) {
        case Impl::kDedicated: {
          auto& op = flow.add<FlatMapOp<WikiEdit, Out>>(f);
          r.entry_out_edges = {flow.edge_count() + 1};
          wire(op, op.in(), op, op.out());
          break;
        }
        case Impl::kAggBased: {
          AggBasedFlatMap<WikiEdit, Out, WindowMachine> op(flow, f,
                                                           kWmPeriod);
          // The composite wires embed → C2 last.
          r.entry_out_edges = {flow.edge_count() - 1};
          wire(op.in_node(), op.in(), op.out_node(), op.out());
          auto* m = &op.embed().machine();
          auto* a1 = &op.unfold().a1_machine();
          auto* a2 = &op.unfold().a2_machine();
          collect = [m, a1, a2](PhaseResult& pr) {
            pr.peak_stored = m->peak_occupancy();
            pr.peak_panes = m->peak_panes();
            pr.unfold_peak_stored = a1->peak_occupancy();
            pr.dropped_late =
                m->dropped_late() + a1->dropped_late() + a2->dropped_late();
          };
          break;
        }
        case Impl::kAPlus: {
          auto& op = aggspes::make_aplus_flatmap<WikiEdit, Out, WindowMachine>(
              flow, f);
          r.entry_out_edges = {flow.edge_count() + 1};
          wire(op, op.in(), op, op.out());
          auto* m = &op.machine();
          collect = [m](PhaseResult& pr) {
            pr.peak_stored = m->peak_occupancy();
            pr.peak_panes = m->peak_panes();
            pr.dropped_late = m->dropped_late();
          };
          break;
        }
      }
    } else {
      typename ShardedFlow<WikiEdit, Out, WikiEdit>::Options opts;
      key_clock = ins.udf("f_K", false);
      // Theorem-1 routing, as the harness deploys it: key = whole payload.
      opts.key_fn = ins.wrap(
          std::function<WikiEdit(const WikiEdit&)>(
              [](const WikiEdit& v) { return v; }),
          key_clock);
      std::vector<const WindowMachine<WikiEdit, WikiEdit>*> machines;
      std::vector<const WindowMachine<aggspes::Embedded<Out>,
                                      aggspes::Embedded<Out>>*>
          unfolds;
      auto factory = [&](auto& f, int s) -> ShardEndpoints<WikiEdit, Out> {
        const std::string tag = std::string(impl_tag(impl)) + ".s" +
                                std::to_string(s);
        entry.push_back(ins.node("entry." + tag));
        udfs.push_back(ins.udf("f_FM", true));
        const FmFn fn = ins.wrap(alf(), udfs.back());
        ShardEndpoints<WikiEdit, Out> ep;
        switch (impl) {
          case Impl::kDedicated: {
            auto& op = f.template add<FlatMapOp<WikiEdit, Out>>(fn);
            ep.in_node = &op;
            ep.in = &ins.port(op.in(), entry.back());
            ep.out_node = &op;
            ep.out = &op.out();
            break;
          }
          case Impl::kAggBased: {
            AggBasedFlatMap<WikiEdit, Out, WindowMachine> op(f, fn,
                                                             kWmPeriod);
            r.entry_out_edges.push_back(f.edge_count() - 1);
            ep.in_node = &op.in_node();
            ep.in = &ins.port(op.in(), entry.back());
            ep.out_node = &op.out_node();
            ep.out = &op.out();
            machines.push_back(&op.embed().machine());
            unfolds.push_back(&op.unfold().a1_machine());
            break;
          }
          case Impl::kAPlus: {
            auto& op =
                aggspes::make_aplus_flatmap<WikiEdit, Out, WindowMachine>(
                    f, fn);
            ep.in_node = &op;
            ep.in = &ins.port(op.in(), entry.back());
            ep.out_node = &op;
            ep.out = &op.out();
            machines.push_back(&op.machine());
            break;
          }
        }
        return ep;
      };
      sharded = std::make_unique<ShardedFlow<WikiEdit, Out, WikiEdit>>(
          flow, shards_, std::move(opts), factory);
      if (impl != Impl::kAggBased) {
        // The copies' outputs feed the union: the last `shards` edges.
        for (std::size_t e = flow.edge_count() - shards_;
             e < flow.edge_count(); ++e) {
          r.entry_out_edges.push_back(e);
        }
      }
      splitter_clock = ins.node("splitter");
      r.source_edges = {flow.edge_count()};
      flow.connect(*src_node, *src_out, sharded->in_node(),
                   ins.port(sharded->in(), splitter_clock));
      flow.connect(sharded->out_node(), sharded->out(), sink,
                   ins.port(sink.in(), sink_clock));
      auto* sf = sharded.get();
      collect = [sf, machines, unfolds](PhaseResult& pr) {
        for (const aggspes::ShardStats& st : sf->shard_stats()) {
          pr.routed.push_back(st.routed);
        }
        for (const auto* m : machines) {
          pr.peak_stored += m->peak_occupancy();
          pr.peak_panes += m->peak_panes();
          pr.dropped_late += m->dropped_late();
        }
        for (const auto* a1 : unfolds) {
          pr.unfold_peak_stored += a1->peak_occupancy();
        }
      };
    }

    r.nodes = flow.node_count();
    r.edges = flow.edge_count();
    if (!execute) return r;
    flow.run();

    r.gauges = flow.channel_gauges();
    r.out = sink.digest();
    r.late_outputs = sink.late();
    if (replay != nullptr) {
      r.offered = r.sent = replay->count();
      r.elapsed_s =
          static_cast<double>(sink.end_ns() - replay->start_ns()) / 1e9;
      r.source_pump_ns = replay->pump_ns();
    } else {
      r.offered = static_cast<std::uint64_t>(kOpenRate * open_seconds_);
      r.sent = rated->emitted();
      r.cutoff = rated->cutoff_fired() != 0;
      r.source_lag_ms =
          std::max(0.0, rated->emission_seconds() - open_seconds_) * 1e3;
      r.latency = sink.samples();
    }
    if (collect) collect(r);
    if (traced) {
      r.entry_busy_ns = busy_of(entry);
      r.entry_udf_ns = udf_of(entry);
      r.sink_busy_ns = sink_clock->busy_ns.get();
      for (const UdfClock* u : udfs) {
        r.udf_ns += u->mean_ns() * static_cast<double>(u->calls.get());
      }
      if (key_clock != nullptr) r.key_calls = key_clock->calls.get();
      if (splitter_clock != nullptr) {
        r.splitter_busy_ns = splitter_clock->busy_ns.get();
      }
    }
    return r;
  }

  std::uint64_t seed_;
  int shards_;
  std::uint64_t closed_tuples_;
  double open_seconds_;
  std::vector<WikiEdit> buffer_;
  std::vector<std::vector<Out>> outputs_;  ///< f_FM of each buffer entry
};

}  // namespace

std::unique_ptr<Workload> make_fm_workload(std::uint64_t seed, double seconds,
                                           int shards) {
  return std::make_unique<FmWorkload>(seed, seconds, shards);
}

}  // namespace perfbench
