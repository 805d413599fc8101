// Building blocks of the end-to-end benchmark: the closed-loop replay
// source, the checking sink, the timing shims used by traced runs, the
// span store, and the result record printed as JSON.
//
// Everything here sits outside the engine and reaches it only through its
// public surface (nodes, ports, ThreadedFlow::connect, channel gauges), so
// the same benchmark runs unchanged against any later version of the
// engine that keeps that surface.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/hashing.hpp"
#include "core/runtime/metrics.hpp"
#include "core/types.hpp"
#include "harness/experiments.hpp"

namespace perfbench {

using aggspes::Consumer;
using aggspes::Element;
using aggspes::NodeBase;
using aggspes::Outlet;
using aggspes::Port;
using aggspes::Timestamp;
using aggspes::Tuple;
using aggspes::now_ns;

/// Order-insensitive output digest — the registry probe's: a count plus
/// a wrapping sum of hash_values(event time, payload).
using Digest = aggspes::harness::ProbeResult;

// ---------------------------------------------------------------------
// Tracing: counters that are written by exactly one thread (the node or
// UDF owner) and read after ThreadedFlow::run() joined that thread, plus
// spans kept in per-thread buffers until the run ends.
// ---------------------------------------------------------------------

/// Single-writer counter: load + store instead of a locked RMW, so the
/// instrumented hot path pays a plain add.
class Counter {
 public:
  void add(std::uint64_t v) {
    v_.store(v_.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// One recorded interval. Ids are process-unique; parent 0 means none.
struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t name;
  std::uint32_t run;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Process-wide span store. Each thread appends to its own buffer (no
/// locking on the hot path); buffers outlive their threads and are
/// written out once, at the end of the benchmark. Only the first kMaxSpans
/// spans are kept (the counters behind the metrics see every call).
class Tracer {
 public:
  static constexpr std::uint64_t kMaxSpans = 1 << 16;

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  std::uint32_t name_id(const std::string& name);
  void set_run(std::uint32_t run) { run_.store(run); }

  /// Opens a span on this thread; returns its id and makes it the parent
  /// of spans opened until close().
  std::uint64_t open(std::uint64_t& saved_parent);
  void close(std::uint64_t id, std::uint64_t parent, std::uint32_t name,
             std::uint64_t start, std::uint64_t end);

  /// Writes every kept span as one JSON object per line.
  void write_jsonl(const std::string& path) const;
  /// Spans kept (at most kMaxSpans).
  std::uint64_t kept() const { return std::min(kept_.load(), kMaxSpans); }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t next_local{0};
    std::uint64_t thread_tag{0};
    std::uint64_t current{0};  // innermost open span on this thread
  };
  Buffer& local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
  std::vector<std::string> names_;                // guarded by mu_
  std::atomic<std::uint32_t> run_{0};
  std::atomic<std::uint64_t> kept_{0};
};

/// Per-thread sum of fully timed UDF nanoseconds, so a shim can attribute
/// the UDF time nested inside one delivery to the node that made it.
inline thread_local std::uint64_t tl_udf_ns = 0;

/// Busy time of one node, measured at its input port(s).
struct NodeClock {
  explicit NodeClock(std::string span_name)
      : name(Tracer::get().name_id(span_name)) {}
  Counter busy_ns;
  Counter calls;
  Counter udf_ns;  ///< UDF time nested inside this node's deliveries
  std::uint32_t name;
};

/// Timing shim wired through ThreadedFlow::connect in place of a node's
/// port: forwards every delivery and charges its duration to `clock`.
template <typename T>
class TimedPort final : public Consumer<T> {
 public:
  TimedPort(Consumer<T>& inner, NodeClock& clock)
      : inner_(inner), clock_(clock) {}

  void receive(const Element<T>& e) override {
    Scope s(clock_);
    inner_.receive(e);
  }
  void receive_block(const Tuple<T>* ts, std::size_t n) override {
    Scope s(clock_);
    inner_.receive_block(ts, n);
  }

 private:
  struct Scope {
    explicit Scope(NodeClock& c)
        : clock(c), udf_before(tl_udf_ns), start(now_ns()) {
      id = Tracer::get().open(parent);
    }
    ~Scope() {
      const std::uint64_t end = now_ns();
      clock.busy_ns.add(end - start);
      clock.calls.add(1);
      clock.udf_ns.add(tl_udf_ns - udf_before);
      Tracer::get().close(id, parent, clock.name, start, end);
    }
    NodeClock& clock;
    std::uint64_t udf_before;
    std::uint64_t start;
    std::uint64_t id{0};
    std::uint64_t parent{0};
  };

  Consumer<T>& inner_;
  NodeClock& clock_;
};

/// Call count and, when `timed`, total time of one user function on one
/// thread. Functions of a few ns (a join predicate) are only counted: a
/// clock read per call would cost more than the call.
struct UdfClock {
  UdfClock(std::string span_name, bool time_calls)
      : name(Tracer::get().name_id(span_name)), timed(time_calls) {}
  Counter calls;
  Counter ns;
  std::uint32_t name;
  bool timed;

  double mean_ns() const {
    return calls.get() ? static_cast<double>(ns.get()) /
                             static_cast<double>(calls.get())
                       : 0.0;
  }
};

/// Cost of one now_ns() pair, measured once and subtracted from each timed
/// call, so a UDF is not charged the clock's own cost.
std::uint64_t timer_overhead_ns();

/// Wraps `f` so each call is counted and, for a timed clock, timed,
/// recorded as a span under the delivery that made it, and added to the
/// per-thread nested-UDF sum the shims subtract.
template <typename R, typename... A>
std::function<R(A...)> timed_udf(std::function<R(A...)> f, UdfClock* clock) {
  return [f = std::move(f), clock](A... args) -> R {
    clock->calls.add(1);
    if (!clock->timed) return f(args...);
    std::uint64_t parent = 0;
    const std::uint64_t id = Tracer::get().open(parent);
    const std::uint64_t start = now_ns();
    R r = f(args...);
    const std::uint64_t end = now_ns();
    Tracer::get().close(id, parent, clock->name, start, end);
    const std::uint64_t ovh = timer_overhead_ns();
    const std::uint64_t net = end - start > ovh ? end - start - ovh : 0;
    clock->ns.add(net);
    tl_udf_ns += net;
    return r;
  };
}

// ---------------------------------------------------------------------
// Nodes owned by the benchmark
// ---------------------------------------------------------------------

/// Event time of replayed tuple i: `num * i / den` ticks, so the
/// event-time density (tuples per tick) is den / num and the work each
/// tuple causes in the windows does not depend on how fast it is sent.
struct Density {
  Timestamp num{1};
  Timestamp den{1};
  Timestamp ts(std::uint64_t i) const {
    return num * static_cast<Timestamp>(i) / den;
  }
};

/// Closed-loop source: replays `count` tuples cyclically from each of its
/// pre-generated buffers, one outlet per buffer, as fast as backpressure
/// allows, with watermarks every `wm_period` ticks (C1) and a flush past
/// the last tuple. Tuple i of every buffer is sent before tuple i + 1 of
/// any, so a multi-input pipeline receives its inputs in event-time
/// lockstep from one thread, and its state does not depend on which
/// source thread the scheduler favoured.
template <typename T>
class ReplaySource final : public NodeBase {
 public:
  ReplaySource(std::vector<const std::vector<T>*> buffers, std::uint64_t count,
               Density density, Timestamp wm_period, Timestamp flush)
      : buffers_(std::move(buffers)),
        count_(count),
        density_(density),
        wm_period_(wm_period),
        flush_(flush),
        outs_(buffers_.size()) {}

  Outlet<T>& out(std::size_t k = 0) { return outs_[k]; }

  void pump() override {
    start_ns_ = now_ns();
    Timestamp next_wm = wm_period_;
    auto watermark = [&](Timestamp w) {
      for (Outlet<T>& o : outs_) o.push_watermark(w);
    };
    for (std::uint64_t i = 0; i < count_; ++i) {
      const Timestamp ts = density_.ts(i);
      while (ts >= next_wm) {
        watermark(next_wm);
        next_wm += wm_period_;
      }
      for (std::size_t k = 0; k < outs_.size(); ++k) {
        const std::vector<T>& b = *buffers_[k];
        outs_[k].push_tuple(Tuple<T>{ts, 0, b[i % b.size()]});
      }
    }
    const Timestamp flush_to =
        (count_ ? density_.ts(count_ - 1) : 0) + flush_;
    while (next_wm < flush_to) {
      watermark(next_wm);
      next_wm += wm_period_;
    }
    watermark(flush_to);
    end_ns_ = now_ns();
    for (Outlet<T>& o : outs_) o.push_end();
  }

  std::uint64_t start_ns() const { return start_ns_; }
  std::uint64_t pump_ns() const { return end_ns_ - start_ns_; }
  /// Tuples sent per outlet.
  std::uint64_t count() const { return count_; }

 private:
  std::vector<const std::vector<T>*> buffers_;
  std::uint64_t count_;
  Density density_;
  Timestamp wm_period_;
  Timestamp flush_;
  std::vector<Outlet<T>> outs_;  // sized once: channels keep pointers
  std::uint64_t start_ns_{0};
  std::uint64_t end_ns_{0};
};

/// Terminal node: digests every output, counts outputs that arrive behind
/// the watermark, and (open loop) records per-output latency against the
/// scheduled send time carried in the tuple's stamp.
template <typename T>
class CheckSink final : public NodeBase {
 public:
  explicit CheckSink(bool record_latency)
      : record_latency_(record_latency),
        port_([this](const Element<T>& e) { receive(e); },
              [this](const Tuple<T>* ts, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) on_tuple(ts[i]);
              }) {
    if (record_latency_) samples_.reserve(1 << 18);
  }

  Consumer<T>& in() { return port_; }

  const Digest& digest() const { return digest_; }
  std::uint64_t late() const { return late_; }
  std::uint64_t end_ns() const { return end_ns_; }
  /// (scheduled send ns, latency ns) per output.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples()
      const {
    return samples_;
  }

 private:
  void on_tuple(const Tuple<T>& t) {
    if (t.ts < last_wm_) ++late_;
    ++digest_.tuples;
    digest_.checksum +=
        static_cast<std::uint64_t>(aggspes::hash_values(t.ts, t.value));
    if (record_latency_) {
      const std::uint64_t now = now_ns();
      samples_.emplace_back(t.stamp, now > t.stamp ? now - t.stamp : 0);
    }
  }

  void receive(const Element<T>& e) {
    if (const auto* t = std::get_if<Tuple<T>>(&e)) {
      on_tuple(*t);
    } else if (const auto* w = std::get_if<aggspes::Watermark>(&e)) {
      last_wm_ = w->ts;
    } else if (const auto* m = std::get_if<aggspes::CheckpointMarker>(&e)) {
      complete_barrier(m->id);
    } else {
      end_ns_ = now_ns();
    }
  }

  bool record_latency_;
  Port<T> port_;
  Digest digest_;
  Timestamp last_wm_{aggspes::kMinTimestamp};
  std::uint64_t late_{0};
  std::uint64_t end_ns_{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_;
};

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, tuple
/// accounting, metrics, and the run record (JSON members, pre-rendered).
struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json_value) {
    record.emplace_back(std::move(key), std::move(json_value));
  }
  void fail(std::string why, std::uint64_t tuples) {
    correct = false;
    failed += tuples;
    errors.push_back(std::move(why));
  }
};

/// Median of an unsorted sample (0 when empty).
double median(std::vector<double> v);

/// Peak resident set size of this process since the last
/// reset_peak_rss() (or since start), in MiB.
double peak_rss_mib();
/// Restarts the peak-RSS high-water mark (Linux clear_refs; a no-op where
/// unsupported, leaving the process-lifetime peak).
void reset_peak_rss();

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
