// The paper's evaluation methodology (§ 6.1), scaled down: run a pipeline
// at a ladder of injection rates; a run is *successful* if its p99 latency
// stays below a bound; the maximum sustainable throughput is the highest
// successful rate's achieved throughput. (Paper: 10-minute runs and a 15 s
// bound on a cluster; here sub-second measure windows and a proportionally
// scaled bound — see EXPERIMENTS.md.)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/flatmap.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/operators/join_buffering.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/measuring_sink.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes::harness {

/// An unsupported RunConfig combination, rejected before any thread
/// spawns. Derives from std::invalid_argument so existing catch sites
/// keep working; the message always names the DESIGN.md section that
/// documents the limitation.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what)
      : std::invalid_argument("config: " + what) {}
};

/// The three § 6 implementations under comparison.
enum class Impl { kDedicated, kAggBased, kAPlus };

inline const char* impl_name(Impl i) {
  switch (i) {
    case Impl::kDedicated: return "D";
    case Impl::kAggBased: return "A";
    case Impl::kAPlus: return "A+";
  }
  return "?";
}

inline const std::vector<Impl>& all_impls() {
  static const std::vector<Impl> v{Impl::kDedicated, Impl::kAggBased,
                                   Impl::kAPlus};
  return v;
}

/// The window-state backend axis (DESIGN.md § 9, § 11), orthogonal to
/// Impl: kBuffering copies each tuple into every overlapping instance
/// (WindowMachine / BufferingJoinOp); kSlicedReplay stores each tuple once
/// in its gcd(WA, WS) pane (SlicedWindowMachine / pane-backed JoinOp). The
/// monoid machines are not harness backends: no Table-1 f_O is a monoid
/// (f_FM is arbitrary, the join match needs the window's tuples); they
/// stay reachable through the Aggregate operators' Machine parameter.
enum class WindowBackend {
  kBuffering,
  kSlicedReplay,
};

inline const char* backend_name(WindowBackend b) {
  switch (b) {
    case WindowBackend::kBuffering: return "buffering";
    case WindowBackend::kSlicedReplay: return "sliced-replay";
  }
  return "?";
}

struct RunConfig {
  double rate{10000};        ///< total injection rate, tuples/second
  double duration_s{0.8};    ///< generation duration
  double warmup_s{0.2};      ///< excluded from metrics (head)
  double cooldown_s{0.1};    ///< excluded from metrics (tail)
  Timestamp ticks_per_s{1000};
  Timestamp wm_period{100};  ///< D, in ticks (event-time ms)
  std::uint64_t seed{42};
  WindowBackend backend{WindowBackend::kBuffering};
  /// Keep rate/duration/tick settings as given instead of letting join
  /// experiments rescale them (A/B drivers and tests want short,
  /// like-for-like runs).
  bool keep_timing{false};
  /// Degraded mode: with shed.policy != kNone an OverloadMonitor watches
  /// the flow and a Shedder gates source admission; kNone (the default)
  /// attaches neither — the run is bit-for-bit the pre-overload harness.
  ShedConfig shed{};
  OverloadThresholds overload{};
  /// Shard-parallel deployment width (DESIGN.md § 13). 1 (the default)
  /// runs the classic single-instance pipeline, byte-identical to the
  /// pre-sharding harness. N > 1 deploys the FM operator as key splitter
  /// → N shards → watermark-merging union via ShardedFlow: shedding
  /// moves from source admission to the splitter's per-shard gate (each
  /// shard's Shedder reads its own OverloadMonitor). Join runners reject
  /// shards > 1 (two-input co-partitioning is not wired yet).
  int shards{1};
};

/// How many of the heaviest-shed keys a run reports.
inline constexpr std::size_t kShedTopK = 8;

struct RunResult {
  double offered_per_s{0};   ///< configured injection rate
  double achieved_per_s{0};  ///< rate the source actually sustained
  double outputs_per_s{0};   ///< sink arrivals within the measure window
  double comparisons_per_s{0};  ///< joins: predicate invocations / wall s
  LatencySummary latency;       ///< over the measure window
  std::string backend;          ///< backend_name(cfg.backend)
  /// Pane/window-store occupancy of the windowed operator (the dedicated
  /// join or the composite's match A): peak tuples held and peak open
  /// panes (instances, for the buffering backend). Zero for stateless
  /// pipelines (dedicated FM).
  std::uint64_t peak_stored{0};
  std::uint64_t peak_panes{0};
  /// Degraded-mode accounting (zero / "" when cfg.shed.policy == kNone):
  /// tuples shed at admission, shed fraction of the generated total, and
  /// the worst flow health the monitor observed.
  std::uint64_t shed_count{0};
  double shed_ratio{0};
  std::string health;
  /// Heaviest-shed keys (key hash → tuples shed), descending, at most
  /// kShedTopK entries, summed over both sources for joins. Lets tests
  /// and reports check *which* keys paid for degradation — per-key-fair
  /// should spread the pain, random-p should mirror the key skew.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> shed_top_keys;
  /// RateSource overload cutoff: 1 when generation was truncated (the run
  /// never saw its full offered load), and the scheduled-emission second
  /// the cutoff fired at.
  std::uint64_t cutoff_fired{0};
  double cutoff_at_s{0};
  /// Sharded deployment (cfg.shards): width the run used (1 = unsharded)
  /// and per-shard diagnostics, empty for unsharded runs. The flat fields
  /// above stay meaningful in sharded runs as aggregates — shed_count sums
  /// over shards, health is the worst shard's, the occupancy peaks sum
  /// (total state footprint across shards).
  int shards{1};
  std::vector<ShardStats> per_shard;
};

/// A pipeline runner at a given injection rate (implementation and
/// workload already bound).
using RateRunner = std::function<RunResult(double rate)>;

struct SustainablePoint {
  double rate;
  RunResult result;
  bool success;
};

struct SustainableResult {
  double max_sustainable{0};   ///< achieved t/s of the best successful run
  RunResult best;              ///< metrics of that run
  std::vector<SustainablePoint> ladder;
};

/// Walks `rates` ascending, stopping after two consecutive failures.
SustainableResult find_max_sustainable(const RateRunner& run,
                                       const std::vector<double>& rates,
                                       double p99_bound_ms);

struct DegradedPoint {
  double rate;
  RunResult result;
  bool within_bound;  ///< p99 (over *admitted* tuples) met the bound
};

struct DegradedResult {
  /// Highest offered rate whose degraded run kept p99 within the bound
  /// (shedding is allowed — that is the point), 0 when none did.
  double max_rate_within_bound{0};
  RunResult best;  ///< metrics of that run (shed ratio, health, p99)
  std::vector<DegradedPoint> ladder;
};

/// Degraded-mode prober: walks `rates` ascending like find_max_sustainable
/// but never treats a run as a binary failure — each point reports the
/// achieved rate, shed ratio and p99 under the configured shed policy.
/// A point is within bound when its p99 meets `p99_bound_ms`; the walk
/// stops after two consecutive out-of-bound points. The RateRunner must
/// run with a shedding RunConfig for the ratios to be meaningful.
DegradedResult probe_degraded(const RateRunner& run,
                              const std::vector<double>& rates,
                              double p99_bound_ms);

namespace detail {

template <typename In>
RateSourceConfig source_config(const RunConfig& cfg, double rate,
                               Timestamp flush_horizon) {
  return RateSourceConfig{.rate = rate,
                          .duration_s = cfg.duration_s,
                          .ticks_per_s = cfg.ticks_per_s,
                          .wm_period = cfg.wm_period,
                          .flush_horizon = flush_horizon};
}

/// Shared post-run bookkeeping: metrics over the measure window.
/// `emit_s` is the wall time of the generation loop (backpressure makes it
/// exceed the configured duration on unsustainable rates).
template <typename Out>
RunResult finalize(const RunConfig& cfg, double offered,
                   std::uint64_t t_start, std::uint64_t t_end,
                   std::uint64_t emitted, double emit_s,
                   const MeasuringSink<Out>& sink,
                   std::uint64_t comparisons) {
  RunResult r;
  r.offered_per_s = offered;
  const double wall_s =
      static_cast<double>(t_end - t_start) / 1e9;
  r.achieved_per_s =
      emit_s > 0 ? static_cast<double>(emitted) / emit_s : 0;
  const std::uint64_t from =
      t_start + static_cast<std::uint64_t>(cfg.warmup_s * 1e9);
  const std::uint64_t to =
      t_start +
      static_cast<std::uint64_t>((cfg.duration_s - cfg.cooldown_s) * 1e9);
  const double window_s =
      (static_cast<double>(to) - static_cast<double>(from)) / 1e9;
  r.outputs_per_s =
      window_s > 0
          ? static_cast<double>(sink.count_in(from, to)) / window_s
          : 0;
  r.latency = sink.summarize(from, to);
  r.comparisons_per_s =
      wall_s > 0 ? static_cast<double>(comparisons) / wall_s : 0;
  return r;
}

/// Sharded FM runner (cfg.shards > 1): RateSource → ShardedFlow(N × Impl)
/// → MeasuringSink. Shedding moves to the splitter — each shard's
/// Shedder gates that shard's input reading its own monitor — so the run's
/// degraded accounting is the sum over its shards.
template <typename In, typename Out,
          template <typename, typename> class MachineT>
RunResult run_fm_sharded(Impl impl, const RunConfig& cfg,
                         std::function<In(std::uint64_t)> gen,
                         FlatMapFn<In, Out> f_fm) {
  ThreadedFlow flow;
  const Timestamp flush = 3 * cfg.wm_period + 10;
  auto& src = flow.add<RateSource<In>>(
      source_config<In>(cfg, cfg.rate, flush), std::move(gen));
  auto& sink = flow.add<MeasuringSink<Out>>();

  typename ShardedFlow<In, Out, In>::Options opts;
  // Theorem 1 routing: key = the whole payload, so identical tuples
  // co-locate — the same f_K the AggBased embedding uses.
  opts.key_fn = KeyByAll{};
  opts.shed = cfg.shed;
  opts.thresholds = cfg.overload;

  auto factory = [&](auto& f, int) -> ShardEndpoints<In, Out> {
    ShardEndpoints<In, Out> ep;
    switch (impl) {
      case Impl::kDedicated: {
        auto& op = f.template add<FlatMapOp<In, Out>>(f_fm);
        ep.in_node = &op;
        ep.in = &op.in();
        ep.out_node = &op;
        ep.out = &op.out();
        break;
      }
      case Impl::kAggBased: {
        AggBasedFlatMap<In, Out, MachineT> op(f, f_fm, cfg.wm_period);
        ep.in_node = &op.in_node();
        ep.in = &op.in();
        ep.out_node = &op.out_node();
        ep.out = &op.out();
        auto* m = &op.embed().machine();
        m->reset_diagnostics();
        ep.occupancy = [m]() -> std::pair<std::size_t, std::size_t> {
          return {m->peak_occupancy(), m->peak_panes()};
        };
        break;
      }
      case Impl::kAPlus: {
        auto& op = make_aplus_flatmap<In, Out, MachineT>(f, f_fm);
        ep.in_node = &op;
        ep.in = &op.in();
        ep.out_node = &op;
        ep.out = &op.out();
        auto* m = &op.machine();
        m->reset_diagnostics();
        ep.occupancy = [m]() -> std::pair<std::size_t, std::size_t> {
          return {m->peak_occupancy(), m->peak_panes()};
        };
        break;
      }
    }
    return ep;
  };

  ShardedFlow<In, Out, In> sf(flow, cfg.shards, std::move(opts), factory);
  flow.connect(src, src.out(), sf.in_node(), sf.in());
  flow.connect(sf.out_node(), sf.out(), sink, sink.in());

  const std::uint64_t t0 = now_ns();
  flow.run();
  const std::uint64_t t1 = now_ns();
  RunResult r = finalize(cfg, cfg.rate, t0, t1, src.emitted(),
                         src.emission_seconds(), sink, 0);
  r.backend = backend_name(cfg.backend);
  r.cutoff_fired = src.cutoff_fired();
  r.cutoff_at_s = src.cutoff_at_s();
  r.shards = cfg.shards;

  r.per_shard = sf.shard_stats();
  FlowHealth worst = FlowHealth::kHealthy;
  std::uint64_t routed_total = 0;
  for (const ShardStats& st : r.per_shard) {
    r.shed_count += st.shed;
    r.peak_stored += st.peak_stored;
    r.peak_panes += st.peak_panes;
    routed_total += st.routed;
    worst = std::max(worst, st.health);
  }
  if (cfg.shed.policy != ShedPolicy::kNone) {
    r.shed_ratio = routed_total > 0
                       ? static_cast<double>(r.shed_count) /
                             static_cast<double>(routed_total)
                       : 0;
    r.health = flow_health_name(worst);
    std::unordered_map<std::uint64_t, std::uint64_t> by_key;
    for (int s = 0; s < cfg.shards; ++s) {
      if (sf.shedder(s) == nullptr) continue;
      for (const auto& [k, n] : sf.shedder(s)->top_shed_keys(kShedTopK)) {
        by_key[k] += n;
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> top(by_key.begin(),
                                                             by_key.end());
    std::sort(top.begin(), top.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (top.size() > kShedTopK) top.resize(kShedTopK);
    r.shed_top_keys = std::move(top);
  }
  return r;
}

}  // namespace detail

/// Builds and runs one FM experiment (D / A / A+) at cfg.rate with the
/// window backend MachineT.
template <typename In, typename Out,
          template <typename, typename> class MachineT>
RunResult run_fm_t(Impl impl, const RunConfig& cfg,
                   std::function<In(std::uint64_t)> gen,
                   FlatMapFn<In, Out> f_fm) {
  if (cfg.shards > 1) {
    return detail::run_fm_sharded<In, Out, MachineT>(impl, cfg, std::move(gen),
                                                     std::move(f_fm));
  }
  ThreadedFlow flow;
  const Timestamp flush = 3 * cfg.wm_period + 10;
  auto& src = flow.add<RateSource<In>>(
      detail::source_config<In>(cfg, cfg.rate, flush), std::move(gen));
  auto& sink = flow.add<MeasuringSink<Out>>();
  // Degraded mode: monitor + shedder at source admission, stack-owned
  // (they must outlive the run, not the flow). kNone attaches neither.
  OverloadMonitor monitor(cfg.overload);
  std::optional<Shedder> shedder;
  if (cfg.shed.policy != ShedPolicy::kNone) {
    shedder.emplace(cfg.shed, &monitor);
    src.set_shedder(&*shedder);
    flow.attach_overload(&monitor);
  }
  // Reads occupancy peaks off the flow-owned windowed operator after the
  // run (empty for stateless pipelines).
  std::function<void(RunResult&)> collect;

  switch (impl) {
    case Impl::kDedicated: {
      auto& op = flow.add<FlatMapOp<In, Out>>(std::move(f_fm));
      flow.connect(src, src.out(), op, op.in());
      flow.connect(op, op.out(), sink, sink.in());
      break;
    }
    case Impl::kAggBased: {
      // The composite is only a wiring helper holding references to
      // flow-owned nodes; it need not outlive this scope.
      AggBasedFlatMap<In, Out, MachineT> op(flow, std::move(f_fm),
                                            /*lateness=*/cfg.wm_period);
      flow.connect(src, src.out(), op.in_node(), op.in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      auto* m = &op.embed().machine();
      m->reset_diagnostics();
      collect = [m](RunResult& r) {
        r.peak_stored = m->peak_occupancy();
        r.peak_panes = m->peak_panes();
      };
      break;
    }
    case Impl::kAPlus: {
      auto& op = make_aplus_flatmap<In, Out, MachineT>(flow, std::move(f_fm));
      flow.connect(src, src.out(), op, op.in());
      flow.connect(op, op.out(), sink, sink.in());
      auto* m = &op.machine();
      m->reset_diagnostics();
      collect = [m](RunResult& r) {
        r.peak_stored = m->peak_occupancy();
        r.peak_panes = m->peak_panes();
      };
      break;
    }
  }

  const std::uint64_t t0 = now_ns();
  flow.run();
  const std::uint64_t t1 = now_ns();
  RunResult r = detail::finalize(cfg, cfg.rate, t0, t1, src.emitted(),
                                 src.emission_seconds(), sink, 0);
  r.backend = backend_name(cfg.backend);
  if (shedder) {
    r.shed_count = shedder->shed();
    const std::uint64_t generated = shedder->shed() + shedder->admitted();
    r.shed_ratio = generated > 0 ? static_cast<double>(r.shed_count) /
                                       static_cast<double>(generated)
                                 : 0;
    r.health = flow_health_name(monitor.worst());
    r.shed_top_keys = shedder->top_shed_keys(kShedTopK);
  }
  r.cutoff_fired = src.cutoff_fired();
  r.cutoff_at_s = src.cutoff_at_s();
  if (collect) collect(r);
  return r;
}

/// Builds and runs one FM experiment, dispatching on cfg.backend.
template <typename In, typename Out>
RunResult run_fm(Impl impl, const RunConfig& cfg,
                 std::function<In(std::uint64_t)> gen,
                 FlatMapFn<In, Out> f_fm) {
  if (cfg.backend == WindowBackend::kSlicedReplay) {
    return run_fm_t<In, Out, swa::SlicedWindowMachine>(
        impl, cfg, std::move(gen), std::move(f_fm));
  }
  return run_fm_t<In, Out, WindowMachine>(impl, cfg, std::move(gen),
                                          std::move(f_fm));
}

/// Builds and runs one J experiment (D / A / A+) at cfg.rate, split evenly
/// over the two input streams, with the window backend MachineT for the
/// composites and DJoinT as the dedicated join. `counted_pred` invocations
/// are tallied for the comparisons/second metric (§ 6.1: J throughput is
/// measured in c/s).
template <typename L, typename R, typename Key,
          template <typename, typename> class MachineT,
          template <typename, typename, typename> class DJoinT>
RunResult run_join_t(Impl impl, const RunConfig& cfg,
                     std::function<L(std::uint64_t)> gen_l,
                     std::function<R(std::uint64_t)> gen_r, WindowSpec spec,
                     std::function<Key(const L&)> f_k1,
                     std::function<Key(const R&)> f_k2,
                     std::function<bool(const L&, const R&)> f_p) {
  if (cfg.shards > 1) {
    throw ConfigError(
        "join runners do not support shards > 1 yet: co-partitioning two "
        "inputs through one ShardPlan is future work (DESIGN.md § 13)");
  }
  ThreadedFlow flow;
  auto comparisons = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto counted_pred = [f_p = std::move(f_p), comparisons](const L& a,
                                                          const R& b) {
    comparisons->fetch_add(1, std::memory_order_relaxed);
    return f_p(a, b);
  };
  const Timestamp flush = spec.size + 3 * cfg.wm_period + 10;
  auto& src_l = flow.add<RateSource<L>>(
      detail::source_config<L>(cfg, cfg.rate / 2, flush), std::move(gen_l));
  auto& src_r = flow.add<RateSource<R>>(
      detail::source_config<R>(cfg, cfg.rate / 2, flush), std::move(gen_r));
  auto& sink = flow.add<MeasuringSink<std::pair<L, R>>>();
  // Degraded mode: one monitor, one shedder per source (decisions are
  // producer-thread-local; distinct seeds keep the streams independent).
  OverloadMonitor monitor(cfg.overload);
  std::optional<Shedder> shed_l;
  std::optional<Shedder> shed_r;
  if (cfg.shed.policy != ShedPolicy::kNone) {
    ShedConfig cfg_r = cfg.shed;
    cfg_r.seed = cfg.shed.seed + 1;
    shed_l.emplace(cfg.shed, &monitor);
    shed_r.emplace(cfg_r, &monitor);
    src_l.set_shedder(&*shed_l);
    src_r.set_shedder(&*shed_r);
    flow.attach_overload(&monitor);
  }
  std::function<void(RunResult&)> collect;

  switch (impl) {
    case Impl::kDedicated: {
      auto& op = flow.add<DJoinT<L, R, Key>>(spec, std::move(f_k1),
                                             std::move(f_k2), counted_pred);
      flow.connect(src_l, src_l.out(), op, op.in_left());
      flow.connect(src_r, src_r.out(), op, op.in_right());
      flow.connect(op, op.out(), sink, sink.in());
      auto* pop = &op;
      pop->reset_diagnostics();
      collect = [pop](RunResult& r) {
        r.peak_stored = pop->peak_occupancy();
        r.peak_panes = pop->peak_panes();
      };
      break;
    }
    case Impl::kAggBased: {
      AggBasedJoin<L, R, Key, MachineT> op(flow, spec, std::move(f_k1),
                                           std::move(f_k2), counted_pred,
                                           /*lateness=*/cfg.wm_period);
      flow.connect(src_l, src_l.out(), op.left_in_node(), op.left_in());
      flow.connect(src_r, src_r.out(), op.right_in_node(), op.right_in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      auto* m = &op.match().machine();
      m->reset_diagnostics();
      collect = [m](RunResult& r) {
        r.peak_stored = m->peak_occupancy();
        r.peak_panes = m->peak_panes();
      };
      break;
    }
    case Impl::kAPlus: {
      AplusJoin<L, R, Key, MachineT> op(flow, spec, std::move(f_k1),
                                        std::move(f_k2), counted_pred);
      flow.connect(src_l, src_l.out(), op.left_in_node(), op.left_in());
      flow.connect(src_r, src_r.out(), op.right_in_node(), op.right_in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      auto* m = &op.match().machine();
      m->reset_diagnostics();
      collect = [m](RunResult& r) {
        r.peak_stored = m->peak_occupancy();
        r.peak_panes = m->peak_panes();
      };
      break;
    }
  }

  const std::uint64_t t0 = now_ns();
  flow.run();
  const std::uint64_t t1 = now_ns();
  RunResult r = detail::finalize(
      cfg, cfg.rate, t0, t1, src_l.emitted() + src_r.emitted(),
      std::max(src_l.emission_seconds(), src_r.emission_seconds()), sink,
      comparisons->load());
  r.backend = backend_name(cfg.backend);
  if (shed_l) {
    r.shed_count = shed_l->shed() + shed_r->shed();
    const std::uint64_t generated = r.shed_count + shed_l->admitted() +
                                    shed_r->admitted();
    r.shed_ratio = generated > 0 ? static_cast<double>(r.shed_count) /
                                       static_cast<double>(generated)
                                 : 0;
    r.health = flow_health_name(monitor.worst());
    // Sum the per-source maps before ranking: a key's total shed count is
    // what fairness is judged on, whichever stream its tuples arrived on.
    std::unordered_map<std::uint64_t, std::uint64_t> merged =
        shed_l->shed_by_key();
    for (const auto& [k, n] : shed_r->shed_by_key()) merged[k] += n;
    r.shed_top_keys = Shedder::rank_shed_keys(merged, kShedTopK);
  }
  r.cutoff_fired = src_l.cutoff_fired() + src_r.cutoff_fired();
  r.cutoff_at_s = std::max(src_l.cutoff_at_s(), src_r.cutoff_at_s());
  if (collect) collect(r);
  return r;
}

/// Builds and runs one J experiment, dispatching on cfg.backend.
template <typename L, typename R, typename Key>
RunResult run_join(Impl impl, const RunConfig& cfg,
                   std::function<L(std::uint64_t)> gen_l,
                   std::function<R(std::uint64_t)> gen_r, WindowSpec spec,
                   std::function<Key(const L&)> f_k1,
                   std::function<Key(const R&)> f_k2,
                   std::function<bool(const L&, const R&)> f_p) {
  if (cfg.backend == WindowBackend::kSlicedReplay) {
    return run_join_t<L, R, Key, swa::SlicedWindowMachine, JoinOp>(
        impl, cfg, std::move(gen_l), std::move(gen_r), spec,
        std::move(f_k1), std::move(f_k2), std::move(f_p));
  }
  return run_join_t<L, R, Key, WindowMachine, BufferingJoinOp>(
      impl, cfg, std::move(gen_l), std::move(gen_r), spec, std::move(f_k1),
      std::move(f_k2), std::move(f_p));
}

}  // namespace aggspes::harness
