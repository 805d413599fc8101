// Shared windowing state machine used by Aggregate, Aggregate+ and the
// dedicated Join: per-key, per-instance buckets with watermark-driven
// firing, Dataflow allowed-lateness admission (§ 2.4) and purging. Also
// home of FiredWindow, the contract by which A / A+ / A++ hand a fired
// instance to their user functions (DESIGN.md § 9).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/runtime/overload.hpp"
#include "core/swa/late_probe.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes {

/// Read-only view of one window instance γ handed to user functions f_O.
template <typename In, typename Key>
struct WindowView {
  Timestamp l;                          ///< γ.l, left boundary (inclusive)
  Timestamp size;                       ///< WS; right boundary is l + WS
  const Key& key;                       ///< f_K value shared by all items
  const std::vector<Tuple<In>>& items;  ///< γ.ζ, in arrival order
};

/// Window-state bookkeeping. The owner provides a `fire` callback invoked
/// once per (instance, key) when the instance becomes complete, and again
/// for every admitted late arrival (the Dataflow "updated output" rule).
template <typename In, typename Key>
class WindowMachine {
 public:
  /// What a fire delivers: the instance's tuples in arrival order.
  using Result = std::vector<Tuple<In>>;
  /// fire(l, key, items, is_late_update)
  using FireFn =
      std::function<void(Timestamp, const Key&, const Result&, bool)>;
  using KeyFn = std::function<Key(const In&)>;

  WindowMachine(WindowSpec spec, KeyFn key_fn)
      : spec_(spec), key_fn_(std::move(key_fn)) {}

  const WindowSpec& spec() const { return spec_; }

  /// added(l, key, items) — invoked right after a tuple lands in an
  /// instance (the hook behind eager/incremental Aggregates, § 6.2's
  /// "intermediate results" extension).
  using AddedFn = std::function<void(Timestamp, const Key&, const Result&)>;

  /// Inserts `t` into every instance it falls in. `w` is the operator's
  /// current watermark. Instances already complete at `w` re-fire
  /// immediately (late update); instances past their lateness horizon
  /// reject the tuple (counted in dropped_late()).
  void add(const Tuple<In>& t, Timestamp w, const FireFn& fire,
           const AddedFn& added = {}) {
    Key key = key_fn_(t.value);
    // Operator-level admission shedding: under overload the tuple is
    // dropped before touching any instance, counted in shed(). Not part of
    // the persisted snapshot — shedding is a runtime condition, not state.
    if (shedder_ != nullptr &&
        !shedder_->admit(static_cast<std::uint64_t>(std::hash<Key>{}(key)),
                         t.ts, w)) {
      return;
    }
    spec_.for_each_instance(t.ts, [&](Timestamp l) {
      if (!spec_.admits(l, w)) {
        ++dropped_late_;
        if (late_probe_) late_probe_({l, t.ts, w, /*dropped=*/true});
        return;
      }
      Bucket& b = instances_[l][key];
      b.items.push_back(t);
      if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
      if (instances_.size() > peak_instances_) {
        peak_instances_ = instances_.size();
      }
      if (added) added(l, key, b.items);
      if (spec_.closes(l, w)) {
        // The instance's result was (or would have been) already produced:
        // emit an update right away.
        const bool update = b.fired;
        b.fired = true;
        if (update) {
          ++late_updates_;
          if (late_probe_) late_probe_({l, t.ts, w, /*dropped=*/false});
        }
        fire(l, key, b.items, update);
      }
    });
  }

  /// Fires every instance that became complete at watermark `w` and purges
  /// instances past their lateness horizon.
  void advance(Timestamp w, const FireFn& fire) {
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      const Timestamp l = it->first;
      if (!spec_.closes(l, w)) break;  // map is ordered by l
      for (auto& [key, bucket] : it->second) {
        if (!bucket.fired) {
          bucket.fired = true;
          ++fired_instances_;
          fire(l, key, bucket.items, false);
        }
      }
      if (spec_.lateness == 0) {
        for (const auto& [key, bucket] : it->second) {
          occupancy_ -= bucket.items.size();
        }
        it->second.clear();  // purged below
      }
    }
    while (!instances_.empty() &&
           spec_.purgeable(instances_.begin()->first, w)) {
      for (const auto& [key, bucket] : instances_.begin()->second) {
        occupancy_ -= bucket.items.size();
      }
      instances_.erase(instances_.begin());
    }
  }

  /// Fires everything still unfired (end-of-stream flush) and clears state.
  void flush(const FireFn& fire) {
    for (auto& [l, keys] : instances_) {
      for (auto& [key, bucket] : keys) {
        if (!bucket.fired) {
          bucket.fired = true;
          ++fired_instances_;
          fire(l, key, bucket.items, false);
        }
      }
    }
    instances_.clear();
    occupancy_ = 0;
  }

  std::uint64_t dropped_late() const { return dropped_late_; }
  std::uint64_t late_updates() const { return late_updates_; }
  std::uint64_t fired_instances() const { return fired_instances_; }
  std::size_t open_instances() const { return instances_.size(); }

  /// Installs an operator-level load shedder consulted at add() admission.
  /// The shedder owns the shed/admitted counters; it must outlive the
  /// machine. nullptr (the default) disables shedding entirely.
  void set_shedder(Shedder* shedder) { shedder_ = shedder; }
  std::uint64_t shed() const {
    return shedder_ != nullptr ? shedder_->shed() : 0;
  }

  /// Occupancy diagnostics: tuple copies currently buffered (one per
  /// overlapping instance — the fan-out the sliced backends avoid) and
  /// high-water marks since the last reset_diagnostics(). peak_panes()
  /// reports peak open *instances* for this backend, so harness A/B rows
  /// stay comparable with the pane stores.
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }
  std::uint64_t peak_panes() const { return peak_instances_; }
  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    peak_instances_ = instances_.size();
    late_probe_.reset();
  }

  /// Installs a rate-limited diagnostic hook for late tuples (drops and
  /// update re-fires). Replaces the old stderr diagnostic: counters stay
  /// hot-path-cheap, and the probe sees at most one event per `every`.
  void set_late_probe(LateProbe::Fn fn, std::uint64_t every = 1024) {
    late_probe_.set(std::move(fn), every);
  }
  const LateProbe& late_probe() const { return late_probe_; }

  /// Serializes every open instance — items in arrival order plus the
  /// `fired` flag — and the counters. The fired flag is what makes replay
  /// idempotent: a restored instance that already produced its one output
  /// will not fire again when replayed watermarks pass it.
  ///
  /// Only instantiated for payload/key types with a StateCodec (callers
  /// guard with `if constexpr (SnapshotSerializable<...>)`).
  void save(SnapshotWriter& w) const {
    w.write_size(instances_.size());
    for (const auto& [l, keys] : instances_) {
      w.write_i64(l);
      w.write_size(keys.size());
      for (const auto& [key, bucket] : keys) {
        write_value(w, key);
        write_value(w, bucket.items);
        w.write_bool(bucket.fired);
      }
    }
    w.write_u64(dropped_late_);
    w.write_u64(late_updates_);
    w.write_u64(fired_instances_);
  }

  void load(SnapshotReader& r) {
    instances_.clear();
    occupancy_ = 0;
    const std::size_t n_instances = r.read_size();
    for (std::size_t i = 0; i < n_instances; ++i) {
      const Timestamp l = r.read_i64();
      auto& keys = instances_[l];
      const std::size_t n_keys = r.read_size();
      for (std::size_t k = 0; k < n_keys; ++k) {
        Key key = read_value<Key>(r);
        Bucket b;
        b.items = read_value<std::vector<Tuple<In>>>(r);
        b.fired = r.read_bool();
        occupancy_ += b.items.size();
        keys.emplace(std::move(key), std::move(b));
      }
    }
    dropped_late_ = r.read_u64();
    late_updates_ = r.read_u64();
    fired_instances_ = r.read_u64();
    peak_occupancy_ = occupancy_;
    peak_instances_ = instances_.size();
  }

 private:
  struct Bucket {
    std::vector<Tuple<In>> items;
    bool fired{false};
  };

  WindowSpec spec_;
  KeyFn key_fn_;
  std::map<Timestamp, std::unordered_map<Key, Bucket>> instances_;
  std::uint64_t dropped_late_{0};
  std::uint64_t late_updates_{0};
  std::uint64_t fired_instances_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::size_t peak_instances_{0};
  LateProbe late_probe_;
  Shedder* shedder_{nullptr};
};

/// Largest wall-clock stamp among a window's items (latency metadata: an
/// output is attributable to its most recent contributing ingress tuple).
template <typename In>
std::uint64_t max_stamp(const std::vector<Tuple<In>>& items) {
  std::uint64_t s = 0;
  for (const auto& t : items) s = t.stamp > s ? t.stamp : s;
  return s;
}

/// How an Aggregate hands a fired window instance to its user functions,
/// decided once per machine family by what the machine's fires deliver
/// (`Machine::Result`):
///   * Fn<R> — the type of f_O (and A++'s f_I) returning R;
///   * apply(f, l, size, key, result) — f applied to the instance;
///   * stamp(result) — the output's latency stamp;
///   * kStateCodec — whether the fired state has a StateCodec;
///   * Hub — the StateQuery hub a machine of this family can feed, or void.
/// A machine whose Result has no specialization cannot back an Aggregate.
/// The monoid family's specialization lives in core/swa/policy_base.hpp.
template <typename In, typename Key, typename Result>
struct FiredWindow;

/// Tuple-holding machines (WindowMachine, swa::SlicedWindowMachine): f_O
/// reads a WindowView, and an output carries the largest contributor stamp.
template <typename In, typename Key>
struct FiredWindow<In, Key, std::vector<Tuple<In>>> {
  template <typename R>
  using Fn = std::function<R(const WindowView<In, Key>&)>;
  using Hub = void;  ///< tuple windows are not served to StateQuery readers
  static constexpr bool kStateCodec = SnapshotSerializable<In>;

  template <typename F>
  static auto apply(const F& f, Timestamp l, Timestamp size, const Key& key,
                    const std::vector<Tuple<In>>& items) {
    return f(WindowView<In, Key>{l, size, key, items});
  }
  static std::uint64_t stamp(const std::vector<Tuple<In>>& items) {
    return max_stamp(items);
  }
};

}  // namespace aggspes
