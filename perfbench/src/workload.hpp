// One benchmark workload: its seeded inputs, the D / A / A+ pipelines it
// runs through ThreadedFlow, and the single-threaded reference their
// outputs are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/runtime/overload.hpp"
#include "harness/sustainable.hpp"

namespace perfbench {

using aggspes::harness::Impl;

/// Metric suffix of each § 6 deployment.
inline const char* impl_tag(Impl i) {
  switch (i) {
    case Impl::kDedicated: return "D";
    case Impl::kAggBased: return "A";
    case Impl::kAPlus: return "Aplus";
  }
  return "?";
}
inline constexpr Impl kImpls[] = {Impl::kDedicated, Impl::kAggBased,
                                  Impl::kAPlus};

enum class Loop { kClosed, kOpen };

/// Everything one pipeline run measured. Traced fields stay zero in
/// untraced runs.
struct PhaseResult {
  Impl impl{Impl::kDedicated};
  Loop loop{Loop::kClosed};
  bool traced{false};

  std::uint64_t offered{0};  ///< tuples the sources were to send
  std::uint64_t sent{0};     ///< tuples the sources did send
  std::vector<std::uint64_t> sent_per_source;
  double elapsed_s{0};       ///< first send → end-of-stream at the sink
  double peak_rss_mib{0};   ///< process peak RSS during the phase
  Digest out;
  std::uint64_t late_outputs{0};  ///< reached the sink behind its watermark
  std::uint64_t dropped_late{0};  ///< inputs an operator dropped as late
  bool cutoff{false};             ///< RateSource cut generation short
  double source_lag_ms{0};        ///< how late the open-loop generator ran
  /// Open loop: (scheduled send ns, latency ns) per output.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latency;

  std::size_t nodes{0};
  std::size_t edges{0};
  std::vector<aggspes::ChannelGauge> gauges;

  // --- traced runs only ---
  std::uint64_t source_pump_ns{0};
  std::vector<std::size_t> source_edges;  ///< edges the sources push into
  std::uint64_t entry_busy_ns{0};         ///< nodes the sources feed
  std::uint64_t entry_udf_ns{0};          ///< UDF time inside those
  std::vector<std::size_t> entry_out_edges;
  std::uint64_t sink_busy_ns{0};
  double udf_ns{0};  ///< all UDF time (f_FM or f_P), extrapolated
  std::uint64_t pred_calls{0};
  double pred_ns{0};  ///< mean per f_P call (sampled)
  std::uint64_t key_calls{0};
  std::uint64_t peak_stored{0};
  std::uint64_t peak_panes{0};
  std::uint64_t unfold_peak_stored{0};
  std::vector<std::uint64_t> routed;  ///< per shard
  std::uint64_t splitter_busy_ns{0};
};

/// Owns the timing shims and clocks of one traced pipeline run; hands
/// back the plain port when tracing is off, so untraced runs carry no
/// instrumentation at all.
class Instruments {
 public:
  explicit Instruments(bool on) : on_(on) {}

  NodeClock* node(const std::string& name) {
    if (!on_) return nullptr;
    nodes_.push_back(std::make_unique<NodeClock>(name));
    return nodes_.back().get();
  }
  UdfClock* udf(const std::string& name, bool timed) {
    if (!on_) return nullptr;
    udfs_.push_back(std::make_unique<UdfClock>(name, timed));
    return udfs_.back().get();
  }

  template <typename T>
  Consumer<T>& port(Consumer<T>& inner, NodeClock* clock) {
    if (clock == nullptr) return inner;
    auto shim = std::make_shared<TimedPort<T>>(inner, *clock);
    shims_.push_back(shim);
    return *shim;
  }

  template <typename R, typename... A>
  std::function<R(A...)> wrap(std::function<R(A...)> f, UdfClock* clock) {
    return clock == nullptr ? f : timed_udf(std::move(f), clock);
  }

 private:
  bool on_;
  std::vector<std::unique_ptr<NodeClock>> nodes_;
  std::vector<std::unique_ptr<UdfClock>> udfs_;
  std::vector<std::shared_ptr<void>> shims_;
};

/// Sums of a clock group (e.g. one clock per shard).
inline std::uint64_t busy_of(const std::vector<NodeClock*>& cs) {
  std::uint64_t s = 0;
  for (const NodeClock* c : cs) s += c ? c->busy_ns.get() : 0;
  return s;
}
inline std::uint64_t udf_of(const std::vector<NodeClock*>& cs) {
  std::uint64_t s = 0;
  for (const NodeClock* c : cs) s += c ? c->udf_ns.get() : 0;
  return s;
}

/// Event time RateSource gives its i-th tuple (rate_source.hpp's pump):
/// the open-loop reference needs the exact same ticks.
inline Timestamp rate_source_ts(std::uint64_t i, double rate,
                                Timestamp ticks_per_s) {
  const auto sched_ns =
      static_cast<std::uint64_t>(static_cast<double>(i) / rate * 1e9);
  return static_cast<Timestamp>(static_cast<double>(sched_ns) / 1e9 *
                                static_cast<double>(ticks_per_s));
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Regenerates the input buffers from the seed.
  virtual void generate() = 0;
  /// Builds every pipeline the workload runs, without running it: with
  /// generate(), the set-up time.
  virtual void build_all() = 0;
  /// Checks that the benchmark's own ALF / AHJ functions reproduce the
  /// Table-1 registry's selectivity probe; returns an error or "".
  virtual std::string check_registry() = 0;
  /// Runs one pipeline phase to completion.
  virtual PhaseResult run(Impl impl, Loop loop, bool traced) = 0;
  /// Untraced closed-loop phases of `impl` per round: more for a pipeline
  /// whose phase is short, so each series measures a similar time.
  virtual int closed_phases(Impl) const { return 1; }
  /// The reference digest of the input a phase actually sent.
  virtual Digest reference(const PhaseResult& r) = 0;
  /// Computes (and caches) the references of the full planned inputs.
  virtual void prepare_references() = 0;
  /// Run-record members: sizes, rates, densities.
  virtual void describe(Outcome& o) = 0;
};

std::unique_ptr<Workload> make_fm_workload(std::uint64_t seed, double seconds,
                                           int shards);
std::unique_ptr<Workload> make_join_workload(std::uint64_t seed,
                                             double seconds);

}  // namespace perfbench
