// Rate-controlled ingress for the performance evaluation (§ 6.1): emits
// synthetic tuples at a target injection rate, with C1-compliant periodic
// watermarks, stamping each tuple with its *scheduled* emission time so
// that overload (the pipeline falling behind the injection rate) shows up
// as unbounded latency growth — the paper's sustainability criterion.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "core/graph.hpp"
#include "core/runtime/metrics.hpp"
#include "core/runtime/overload.hpp"
#include "core/types.hpp"

namespace aggspes {

struct RateSourceConfig {
  double rate{1000.0};          ///< injection rate, tuples/second
  double duration_s{1.0};       ///< generation duration (wall clock)
  Timestamp ticks_per_s{1000};  ///< event-time ticks per wall second
  Timestamp wm_period{100};     ///< D: watermark spacing in ticks (C1)
  Timestamp flush_horizon{2000};  ///< extra ticks flushed after the end
  /// Overload cutoff: when backpressure pushes the wall clock past
  /// duration_s * overrun_factor, stop generating. The run is already
  /// unsustainable by then; emitting the backlog would only stretch the
  /// benchmark (the paper instead bounds run time at 10 minutes).
  double overrun_factor{1.5};
};

template <typename T>
class RateSource final : public NodeBase {
 public:
  using Generator = std::function<T(std::uint64_t)>;

  RateSource(RateSourceConfig cfg, Generator gen)
      : cfg_(cfg), gen_(std::move(gen)) {}

  Outlet<T>& out() { return out_; }

  /// Installs a load shedder at the admission edge: generated tuples the
  /// shedder rejects are never emitted (the shedder counts them), while
  /// watermarks keep flowing so downstream event time stays well-defined.
  /// Must be set before run(); the shedder must outlive the run.
  void set_shedder(Shedder* shedder) { shedder_ = shedder; }

  /// Tuples emitted so far (sampled by the harness for throughput).
  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  /// Wall-clock seconds the generation loop took (valid after the run).
  double emission_seconds() const {
    return static_cast<double>(emission_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

  /// Whether the overload cutoff truncated generation (1 when it fired),
  /// and the scheduled-emission second it fired at. A truncated run never
  /// saw its full offered load — RunResult surfaces both so it cannot be
  /// mistaken for a completed one.
  std::uint64_t cutoff_fired() const {
    return cutoff_fired_.load(std::memory_order_relaxed);
  }
  double cutoff_at_s() const {
    return static_cast<double>(cutoff_at_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

  Timestamp node_watermark() const override {
    return last_wm_.load(std::memory_order_relaxed);
  }

  void pump() override {
    const auto total = static_cast<std::uint64_t>(cfg_.rate * cfg_.duration_s);
    const std::uint64_t start = now_ns();
    const auto cutoff = start + static_cast<std::uint64_t>(
                                    cfg_.duration_s * cfg_.overrun_factor *
                                    1e9);
    Timestamp next_wm = cfg_.wm_period;
    for (std::uint64_t i = 0; i < total; ++i) {
      const auto sched_ns = static_cast<std::uint64_t>(
          static_cast<double>(i) / cfg_.rate * 1e9);
      if (start + sched_ns > cutoff || now_ns() > cutoff) {
        // The cutoff truncates the stream; record it loudly (the harness
        // prints it) instead of letting a truncated run pass for complete.
        cutoff_at_ns_.store(sched_ns, std::memory_order_relaxed);
        cutoff_fired_.store(1, std::memory_order_relaxed);
        break;
      }
      while (now_ns() < start + sched_ns) std::this_thread::yield();
      const auto ts = static_cast<Timestamp>(
          static_cast<double>(sched_ns) / 1e9 *
          static_cast<double>(cfg_.ticks_per_s));
      while (ts >= next_wm) {
        push_wm(next_wm);
        next_wm += cfg_.wm_period;
      }
      T val = gen_(i);
      if (shedder_ != nullptr &&
          !shedder_->admit(key_hash(val, i), ts,
                           last_wm_.load(std::memory_order_relaxed))) {
        continue;  // shed at admission: counted by the shedder, never sent
      }
      out_.push_tuple(Tuple<T>{ts, start + sched_ns, std::move(val)});
      emitted_.fetch_add(1, std::memory_order_relaxed);
    }
    // Close every window of interest: step watermarks (C1) past the end.
    const auto end_ts = static_cast<Timestamp>(
        cfg_.duration_s * static_cast<double>(cfg_.ticks_per_s));
    const Timestamp flush_to = end_ts + cfg_.flush_horizon;
    while (next_wm < flush_to) {
      push_wm(next_wm);
      next_wm += cfg_.wm_period;
    }
    push_wm(flush_to);
    emission_ns_.store(now_ns() - start, std::memory_order_relaxed);
    out_.push_end();
  }

 private:
  void push_wm(Timestamp wm) {
    out_.push_watermark(wm);
    last_wm_.store(wm, std::memory_order_relaxed);
  }

  /// Shed-decision key: the tuple's value when it hashes (keyed policies
  /// then see the real key distribution), else the emission index.
  static std::uint64_t key_hash(const T& val, std::uint64_t i) {
    if constexpr (requires(const T& v) { std::hash<T>{}(v); }) {
      return static_cast<std::uint64_t>(std::hash<T>{}(val));
    } else {
      return splitmix64(i);
    }
  }

  RateSourceConfig cfg_;
  Generator gen_;
  Outlet<T> out_;
  Shedder* shedder_{nullptr};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> emission_ns_{0};
  std::atomic<std::uint64_t> cutoff_fired_{0};
  std::atomic<std::uint64_t> cutoff_at_ns_{0};
  std::atomic<Timestamp> last_wm_{kMinTimestamp};
};

}  // namespace aggspes
