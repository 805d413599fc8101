// Late-arrival diagnostics shared by every window backend (§ 2.4 of the
// paper). High-lateness workloads can produce millions of dropped or
// re-fired tuples per second; the machines therefore only bump counters on
// the hot path and hand a *rate-limited* sample of events to an optional
// probe hook — no stderr flooding, no cost when no probe is installed.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/types.hpp"

namespace aggspes {

/// One late tuple as seen by a window machine: either rejected past the
/// lateness horizon (dropped == true) or admitted into an already-complete
/// instance, re-firing it as an update (dropped == false).
struct LateEvent {
  Timestamp instance{0};   ///< γ.l of the affected instance
  Timestamp tuple_ts{0};   ///< τ of the late tuple
  Timestamp watermark{0};  ///< operator watermark when the tuple arrived
  bool dropped{false};
  /// Which registered query the event belongs to. Single-query machines
  /// leave it 0; the pane engine stamps each query's index via
  /// LateProbe::set_query so one probe hook can attribute drops when Q
  /// queries share one pane store.
  int query{0};
};

/// Holder for the optional probe callback. Invocation is sampled: the hook
/// fires for the 1st, (every+1)th, (2·every+1)th… late event, so a
/// misbehaving upstream is visible in logs at a bounded rate while
/// `observed()` still counts every event.
class LateProbe {
 public:
  using Fn = std::function<void(const LateEvent&)>;

  void set(Fn fn, std::uint64_t every = 1024) {
    fn_ = std::move(fn);
    every_ = every == 0 ? 1 : every;
  }

  explicit operator bool() const { return static_cast<bool>(fn_); }

  /// Tags every event this probe emits with a query index (the pane
  /// engine gives each registered query its own probe; the tag lets one
  /// shared hook tell them apart). Default 0 — single-query machines need
  /// not care.
  void set_query(int q) { query_ = q; }
  int query() const { return query_; }

  void operator()(LateEvent e) {
    if (fn_ && observed_ % every_ == 0) {
      e.query = query_;
      fn_(e);
    }
    ++observed_;
  }

  /// Total late events offered to the probe (sampled or not).
  std::uint64_t observed() const { return observed_; }

  /// Restarts the rate-limit window (the next event is sampled again).
  /// Harness runs call this so diagnostics never bleed across A/B
  /// repetitions; the hook and `every` survive the reset.
  void reset() { observed_ = 0; }

 private:
  Fn fn_;
  std::uint64_t every_{1024};
  std::uint64_t observed_{0};
  int query_{0};
};

}  // namespace aggspes
