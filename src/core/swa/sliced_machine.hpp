// The sliced window backend (DESIGN.md § 9): pane-store window state with
// WindowMachine-equivalent fire semantics.
//
// Where WindowMachine copies each tuple into every overlapping instance
// (an O(WS/WA) per-tuple blowup), SlicedEngine stores each tuple's
// contribution exactly once — in its gcd(WA,WS)-wide pane — and evaluates
// instances from the panes they span. The *semantics* are bit-identical
// to WindowMachine under the operator discipline (advance(w) before any
// add(t, w) at the same watermark, which is how every Aggregate drives
// its machine):
//
//   * per-instance Dataflow admission: a late tuple is counted dropped
//     once per instance past its lateness horizon, and admitted instances
//     re-fire immediately as updates (§ 2.4);
//   * instances fire once per (instance, key) at the watermark that
//     completes them, in instance order, and flush() fires the rest;
//   * floor_div instance math, so negative timestamps land in the same
//     instances and panes.
//
// The evaluation strategy is pluggable (Policy): ReplayPolicy fires a
// view that reads an instance's tuples in place, in global arrival order,
// from the panes they were stored in — the fallback for arbitrary f_O —
// while MonoidPolicy (monoid_machine.hpp) keeps per-pane partial
// aggregates and answers fires in amortized O(1) via per-key two-stacks.
//
// Instance bookkeeping is O(1) per tuple: no per-instance state is touched
// on the hot path. Completed instances are discovered by walking a cursor
// over the pane index (each instance is visited once), fired-flags are
// materialized only for instances that actually fire and are purged with
// the lateness horizon, and instances past the horizon are exactly the
// ones WindowMachine would have purged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/operators/window_machine.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/runtime/overload.hpp"
#include "core/swa/epoch.hpp"
#include "core/swa/late_probe.hpp"
#include "core/swa/pane.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

template <typename In, typename Key, typename Policy>
class SlicedEngine {
 public:
  using Cell = typename Policy::Cell;
  /// What a fire delivers: a TupleView over the stored tuples
  /// (ReplayPolicy) or a WindowAggregate (MonoidPolicy).
  using Result = typename Policy::Result;
  /// fire(l, key, result, is_late_update) — same contract as
  /// WindowMachine::FireFn.
  using FireFn =
      std::function<void(Timestamp, const Key&, const Result&, bool)>;
  /// added(l, key, result) — post-insert hook behind eager Aggregates.
  using AddedFn = std::function<void(Timestamp, const Key&, const Result&)>;
  using KeyFn = std::function<Key(const In&)>;
  /// MVCC-versioned pane store (epoch.hpp): policies read it through the
  /// same map surface as the former std::map-of-unordered_map; mutation
  /// goes through mutate() so frozen epochs stay isolated.
  using PaneMap = CowPaneMap<Key, Cell>;

  SlicedEngine(WindowSpec spec, KeyFn key_fn, Policy policy = Policy{})
      : spec_(spec),
        geom_(PaneGeometry::of(spec)),
        key_fn_(std::move(key_fn)),
        policy_(std::move(policy)),
        registry_(std::make_shared<EpochRegistry>()) {
    panes_.bind_registry(registry_);
  }

  const WindowSpec& spec() const { return spec_; }
  const PaneGeometry& geometry() const { return geom_; }
  Policy& policy() { return policy_; }
  const Policy& policy() const { return policy_; }

  /// Whether the policy accepts batched same-pane tuple runs (absorb_run).
  /// The monoid FIFO family does; ReplayPolicy — and holistic/order-
  /// sensitive folds generally — deliberately does not, so add_block
  /// degrades to per-tuple add() for them (DESIGN.md § 11/§ 16).
  static constexpr bool kHasBatchAbsorb =
      requires(Policy& p, const Key& k, Cell& c, const Tuple<In>* ts) {
        p.absorb_run(k, c, Timestamp{}, ts, std::size_t{}, std::uint64_t{});
      };

  /// Inserts `t` once (into its pane) and applies per-instance admission,
  /// eager hooks and late re-fires exactly like WindowMachine::add.
  void add(const Tuple<In>& t, Timestamp w, const FireFn& fire,
           const AddedFn& added = {}) {
    Key key = key_fn_(t.value);
    // Operator-level admission shedding, mirroring WindowMachine::add so
    // both window backends degrade identically under the same policy.
    if (shedder_ != nullptr &&
        !shedder_->admit(static_cast<std::uint64_t>(std::hash<Key>{}(key)),
                         t.ts, w)) {
      return;
    }
    add_admitted(t, w, fire, added, key);
  }

  /// Micro-batch ingest of a contiguous tuple run sharing one watermark
  /// (channel blocks never span a control element, so `w` is constant
  /// across the run). Detects maximal same-key, same-pane, in-order
  /// fast-path sub-runs and absorbs each with ONE policy call — the
  /// columnar kernel when the monoid is tagged — while anything needing
  /// the slow path (late/closing tuples, eager hooks, policies without
  /// absorb_run) falls back to the per-tuple route. Shedder admission is
  /// consulted exactly once per tuple in arrival order, so shed
  /// accounting and the shedder's deterministic decision stream are
  /// identical to calling add() per element.
  void add_block(const Tuple<In>* ts, std::size_t n, Timestamp w,
                 const FireFn& fire, const AddedFn& added = {}) {
    if constexpr (!kHasBatchAbsorb) {
      for (std::size_t i = 0; i < n; ++i) add(ts[i], w, fire, added);
    } else {
      if (added) {
        // Eager hooks observe every insert in order; no batching.
        for (std::size_t i = 0; i < n; ++i) add(ts[i], w, fire, added);
        return;
      }
      std::size_t i = 0;
      while (i < n) {
        const Tuple<In>& t = ts[i];
        Key key = key_fn_(t.value);
        const std::uint64_t key_hash =
            shedder_ != nullptr
                ? static_cast<std::uint64_t>(std::hash<Key>{}(key))
                : 0;
        if (shedder_ != nullptr && !shedder_->admit(key_hash, t.ts, w)) {
          ++i;
          continue;
        }
        const Timestamp first = spec_.first_instance(t.ts);
        if (spec_.closes(first, w)) {
          add_admitted(t, w, fire, {}, key);  // already admitted above
          ++i;
          continue;
        }
        if (!(spec_.size >= spec_.advance ||
              first <= spec_.last_instance(t.ts))) {
          ++i;  // WS < WA gap tuple: admitted but not stored (as in add)
          continue;
        }
        const Timestamp pane_l = geom_.pane_of(t.ts);
        const Timestamp pane_end = pane_l + geom_.width;
        bool shed_next = false;
        std::size_t j = i + 1;
        while (j < n) {
          const Tuple<In>& u = ts[j];
          // Instance membership is pane-constant: first_instance /
          // last_instance only change at WA- and (WS mod WA)-aligned
          // boundaries, both multiples of g, so every same-pane tuple
          // shares t's first/closes/gap verdicts (and its first_instance
          // — min_first is just `first`). Only the pane-range check, the
          // key and admission remain per tuple on the hot scan.
          if (u.ts < pane_l || u.ts >= pane_end) break;
          if (!(key_fn_(u.value) == key)) break;
          if (shedder_ != nullptr && !shedder_->admit(key_hash, u.ts, w)) {
            shed_next = true;  // u is dropped; the run ends before it
            break;
          }
          ++j;
        }
        store_run(key, pane_l, ts + i, j - i, first);
        i = shed_next ? j + 1 : j;
      }
    }
  }

  /// add() after the shedder admitted `t` (shared by the per-element and
  /// block paths so admission is never consulted twice for one tuple).
  void add_admitted(const Tuple<In>& t, Timestamp w, const FireFn& fire,
                    const AddedFn& added, const Key& key) {
    const Timestamp pane_l = geom_.pane_of(t.ts);
    const Timestamp first = spec_.first_instance(t.ts);
    if (!added && !spec_.closes(first, w)) {
      // Fast path: if the earliest overlapping instance has not closed,
      // none has (closes is antitone in l) and none is purgeable either
      // (purgeable implies closes). The tuple is in-order — store once
      // in O(1); all fires happen on advance(). With WS < WA a tuple can
      // fall in the gap between instances; those are not stored at all.
      if (spec_.size >= spec_.advance || first <= spec_.last_instance(t.ts)) {
        store_tuple(key, pane_l, t, first);
      }
      return;
    }
    bool stored = false;
    spec_.for_each_instance(t.ts, [&](Timestamp l) {
      if (!spec_.admits(l, w)) {
        ++dropped_late_;
        if (late_probe_) late_probe_({l, t.ts, w, /*dropped=*/true});
        return;
      }
      if (!stored) {
        // Admission is monotone in l, so every instance evaluated below
        // already sees the stored tuple.
        store_tuple(key, pane_l, t, first);
        stored = true;
      }
      if (added) {
        added(l, key, policy_.evaluate(panes_, spec_, geom_, l, key,
                                       /*sequential=*/false));
      }
      if (spec_.closes(l, w)) {
        bool& fired = fired_[l][key];
        const bool update = fired;
        fired = true;
        if (update) {
          ++late_updates_;
          if (late_probe_) late_probe_({l, t.ts, w, /*dropped=*/false});
        }
        fire(l, key,
             policy_.evaluate(panes_, spec_, geom_, l, key,
                              /*sequential=*/false),
             update);
      }
    });
  }

  /// Fires every instance completed by watermark `w` (ascending, once per
  /// key) and purges panes and fired-flags past the lateness horizon.
  void advance(Timestamp w, const FireFn& fire) {
    if (w < kMinTimestamp + spec_.size) return;  // nothing can close yet
    if (have_cursor_) {
      Timestamp l = std::max(cursor_, horizon_);
      while (true) {
        // Jump over instances with no pane in range: the first pane >= l
        // bounds the next instance that can have data.
        auto it = panes_.lower_bound(l);
        if (it == panes_.end()) break;
        const Timestamp first = spec_.first_instance(it->first);
        if (first > l) l = first;
        if (!spec_.closes(l, w)) break;
        fire_instance(l, fire);
        l += spec_.advance;
      }
    }
    // Everything left of first_instance(w) is closed: late arrivals there
    // re-fire through add(); the cursor never needs to revisit them.
    const Timestamp next_open = spec_.first_instance(w);
    if (!have_cursor_ || next_open > cursor_) cursor_ = next_open;
    have_cursor_ = true;
    purge(w);
  }

  /// Fires everything still unfired (end-of-stream flush), then clears.
  void flush(const FireFn& fire) {
    if (have_cursor_) {
      Timestamp l = std::max(cursor_, horizon_);
      while (true) {
        auto it = panes_.lower_bound(l);
        if (it == panes_.end()) break;
        const Timestamp first = spec_.first_instance(it->first);
        if (first > l) l = first;
        fire_instance(l, fire);
        l += spec_.advance;
      }
    }
    panes_.clear();
    fired_.clear();
    policy_.reset();
    active_keys_.clear();
    union_valid_ = false;
    pane_cache_ = nullptr;
    have_cursor_ = false;
    cursor_ = 0;
    occupancy_ = 0;
  }

  std::uint64_t dropped_late() const { return dropped_late_; }
  std::uint64_t late_updates() const { return late_updates_; }
  std::uint64_t fired_instances() const { return fired_instances_; }
  std::size_t open_panes() const { return panes_.size(); }

  /// Installs an operator-level load shedder consulted at add() admission
  /// (same contract as WindowMachine::set_shedder). The shedder owns the
  /// counters and must outlive the engine; nullptr disables shedding.
  void set_shedder(Shedder* shedder) { shedder_ = shedder; }
  std::uint64_t shed() const {
    return shedder_ != nullptr ? shedder_->shed() : 0;
  }

  /// Occupancy diagnostics: tuples currently stored (each exactly once —
  /// Policy::cell_count reports a cell's contribution, entries for replay,
  /// folded count for monoid partials) and high-water marks since the last
  /// reset_diagnostics().
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }
  std::uint64_t peak_panes() const { return peak_panes_; }
  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
    late_probe_.reset();
    // Policies with their own diagnostics (cache evictions, out-of-order
    // fixups, peak cached keys) clear them under the same call — the PR-3
    // convention that a reset leaves no counter from a previous run.
    if constexpr (requires(Policy& p) { p.reset_diagnostics(); }) {
      policy_.reset_diagnostics();
    }
  }

  /// Number of instances holding data and not yet purged (WindowMachine's
  /// open_instances analogue). O(instances) — diagnostics/tests only.
  std::size_t open_instances() const {
    if (panes_.empty()) return 0;
    std::size_t n = 0;
    Timestamp l =
        std::max(spec_.first_instance(panes_.begin()->first), horizon_);
    while (true) {
      auto it = panes_.lower_bound(l);
      if (it == panes_.end()) break;
      const Timestamp first = spec_.first_instance(it->first);
      if (first > l) l = first;
      ++n;
      l += spec_.advance;
    }
    return n;
  }

  /// Rate-limited late-tuple diagnostics (see late_probe.hpp).
  void set_late_probe(LateProbe::Fn fn, std::uint64_t every = 1024) {
    late_probe_.set(std::move(fn), every);
  }
  const LateProbe& late_probe() const { return late_probe_; }

  /// Policies with a bounded per-key cache (the monoid family) persist
  /// the bound with the state, so a restored machine keeps its memory knob.
  static constexpr bool kCacheBound = requires(Policy& p) {
    p.set_max_cached_keys(p.max_cached_keys());
  };

  /// Serializes the policy's cache bound (when it has one), pane cells,
  /// fired flags, cursors and counters. Policy caches (e.g. two-stacks)
  /// are rebuilt after load, never persisted — a snapshot cannot
  /// resurrect a stale cached aggregate.
  void save(SnapshotWriter& w) const {
    if constexpr (kCacheBound) w.write_u64(policy_.max_cached_keys());
    w.write_size(panes_.size());
    for (const auto& [p, cells] : panes_) {
      w.write_i64(p);
      w.write_size(cells.size());
      for (const auto& [key, cell] : cells) {
        write_value(w, key);
        policy_.save_cell(w, cell);
      }
    }
    w.write_size(fired_.size());
    for (const auto& [l, keys] : fired_) {
      w.write_i64(l);
      w.write_size(keys.size());
      for (const auto& [key, fired] : keys) {
        write_value(w, key);
        w.write_bool(fired);
      }
    }
    w.write_bool(have_cursor_);
    w.write_i64(cursor_);
    w.write_i64(horizon_);
    w.write_u64(next_seq_);
    w.write_u64(dropped_late_);
    w.write_u64(late_updates_);
    w.write_u64(fired_instances_);
  }

  void load(SnapshotReader& r) {
    if constexpr (kCacheBound) policy_.set_max_cached_keys(r.read_u64());
    panes_.clear();
    fired_.clear();
    occupancy_ = 0;
    const std::size_t n_panes = r.read_count();
    for (std::size_t i = 0; i < n_panes; ++i) {
      const Timestamp p = r.read_i64();
      auto& cells = panes_.mutate(p);
      const std::size_t n_cells = r.read_count();
      for (std::size_t c = 0; c < n_cells; ++c) {
        Key key = read_value<Key>(r);
        auto cell = cells.emplace(std::move(key), policy_.load_cell(r));
        occupancy_ += Policy::cell_count(cell.first->second);
      }
    }
    const std::size_t n_fired = r.read_count();
    for (std::size_t i = 0; i < n_fired; ++i) {
      const Timestamp l = r.read_i64();
      auto& keys = fired_[l];
      const std::size_t n_keys = r.read_count();
      for (std::size_t k = 0; k < n_keys; ++k) {
        Key key = read_value<Key>(r);
        const bool fired = r.read_bool();
        keys.emplace(std::move(key), fired);
      }
    }
    have_cursor_ = r.read_bool();
    cursor_ = r.read_i64();
    horizon_ = r.read_i64();
    next_seq_ = r.read_u64();
    dropped_late_ = r.read_u64();
    late_updates_ = r.read_u64();
    fired_instances_ = r.read_u64();
    policy_.reset();
    active_keys_.clear();
    union_valid_ = false;
    pane_cache_ = nullptr;
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
  }

  /// An immutable copy of the engine's recoverable state at one epoch:
  /// pane versions shared copy-on-write with the live map, plus the small
  /// scalar state save() persists. serialize() reproduces save()'s exact
  /// byte layout, so a frozen snapshot and a quiesced one are
  /// interchangeable on restore. The policy pointer is borrowed — a
  /// Frozen must not outlive its engine's flow (ThreadedFlow::run drains
  /// the async executor before nodes die; StateQuery reads are documented
  /// live-state reads).
  struct Frozen {
    PaneMap panes;
    std::map<Timestamp, std::unordered_map<Key, bool>> fired;
    bool have_cursor{false};
    Timestamp cursor{0};
    Timestamp horizon{kMinTimestamp};
    std::uint64_t next_seq{0};
    std::uint64_t dropped_late{0};
    std::uint64_t late_updates{0};
    std::uint64_t fired_instances{0};
    std::uint64_t max_cached_keys{0};  ///< the cache bound, if kCacheBound
    WindowSpec spec{};
    PaneGeometry geom{};
    const Policy* policy{nullptr};
    std::shared_ptr<EpochRegistry> registry;
    std::uint64_t epoch{0};

    void serialize(SnapshotWriter& w) const {
      if constexpr (kCacheBound) w.write_u64(max_cached_keys);
      w.write_size(panes.size());
      for (const auto& [p, cells] : panes) {
        w.write_i64(p);
        w.write_size(cells.size());
        for (const auto& [key, cell] : cells) {
          write_value(w, key);
          policy->save_cell(w, cell);
        }
      }
      w.write_size(fired.size());
      for (const auto& [l, keys] : fired) {
        w.write_i64(l);
        w.write_size(keys.size());
        for (const auto& [key, f] : keys) {
          write_value(w, key);
          w.write_bool(f);
        }
      }
      w.write_bool(have_cursor);
      w.write_i64(cursor);
      w.write_i64(horizon);
      w.write_u64(next_seq);
      w.write_u64(dropped_late);
      w.write_u64(late_updates);
      w.write_u64(fired_instances);
    }

    /// Cache-free window read at instance `l` for `key` — only for
    /// policies exposing fold_window (the monoid family). What StateQuery
    /// point/range reads evaluate against.
    typename Policy::Result fold(Timestamp l, const Key& key) const
      requires requires(const Policy& p) {
        p.fold_window(panes, l, l, key);
      }
    {
      return policy->fold_window(panes, l, l + spec.size, key);
    }
  };

  /// Freezes the current epoch: O(panes) shared-version copy, epoch
  /// advance + pin. The caller (the async snapshot job) must
  /// release_frozen() when done so retired versions can be collected.
  /// Invalidates the write-through pane cache — the next store clones any
  /// pane the snapshot still shares.
  Frozen freeze() {
    pane_cache_ = nullptr;
    Frozen f;
    f.epoch = registry_->advance();
    registry_->pin(f.epoch);
    f.panes = panes_.freeze();
    f.fired = fired_;
    f.have_cursor = have_cursor_;
    f.cursor = cursor_;
    f.horizon = horizon_;
    f.next_seq = next_seq_;
    f.dropped_late = dropped_late_;
    f.late_updates = late_updates_;
    f.fired_instances = fired_instances_;
    if constexpr (kCacheBound) f.max_cached_keys = policy_.max_cached_keys();
    f.spec = spec_;
    f.geom = geom_;
    f.policy = &policy_;
    f.registry = registry_;
    return f;
  }

  /// Unpins a frozen epoch and collects versions no snapshot can reach.
  /// Thread-safe (registry-internal locking); called from the async
  /// checkpoint worker's post hook.
  static void release_frozen(const Frozen& f) {
    f.registry->unpin(f.epoch);
    f.registry->collect();
  }

  const EpochRegistry& epochs() const { return *registry_; }
  std::uint64_t cow_clones() const { return panes_.cow_clones(); }

 private:
  /// Stores `t` exactly once into its pane cell and keeps the walk
  /// cursor and the key-union cache consistent. `pane_cache_` memoizes
  /// the last pane's cell map (std::map references are stable until
  /// erase) so runs of tuples landing in the same pane skip the lookup.
  void store_tuple(const Key& key, Timestamp pane_l, const Tuple<In>& t,
                   Timestamp first) {
    if (pane_cache_ == nullptr || pane_cache_l_ != pane_l) {
      pane_cache_ = &panes_.mutate(pane_l);
      pane_cache_l_ = pane_l;
    }
    auto [cell, inserted] = pane_cache_->try_emplace(key);
    policy_.absorb(key, cell->second, pane_l, t, next_seq_++);
    if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (panes_.size() > peak_panes_) peak_panes_ = panes_.size();
    if (inserted && union_valid_ && pane_l >= union_from_ &&
        pane_l < union_to_) {
      ++active_keys_[key];  // keep the fire walk's key-union exact
    }
    if (!have_cursor_ || first < cursor_) cursor_ = first;
    have_cursor_ = true;
  }

  /// store_tuple for a same-key, same-pane run: one pane lookup, one cell
  /// find-or-insert and one policy absorb for the whole run. Bookkeeping
  /// (occupancy, peaks, key-union, cursor) lands exactly where per-tuple
  /// stores would have left it, since the run grows occupancy monotonically
  /// within a single pane. `min_first` is the smallest first_instance
  /// across the run (the cursor may only move backwards to it).
  void store_run(const Key& key, Timestamp pane_l, const Tuple<In>* ts,
                 std::size_t n, Timestamp min_first) {
    if (n == 0) return;
    if (pane_cache_ == nullptr || pane_cache_l_ != pane_l) {
      pane_cache_ = &panes_.mutate(pane_l);
      pane_cache_l_ = pane_l;
    }
    auto [cell, inserted] = pane_cache_->try_emplace(key);
    if constexpr (kHasBatchAbsorb) {
      policy_.absorb_run(key, cell->second, pane_l, ts, n, next_seq_);
      next_seq_ += n;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        policy_.absorb(key, cell->second, pane_l, ts[i], next_seq_++);
      }
    }
    occupancy_ += n;
    if (occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (panes_.size() > peak_panes_) peak_panes_ = panes_.size();
    if (inserted && union_valid_ && pane_l >= union_from_ &&
        pane_l < union_to_) {
      ++active_keys_[key];
    }
    if (!have_cursor_ || min_first < cursor_) cursor_ = min_first;
    have_cursor_ = true;
  }

  /// Fires instance l for every key with data in it. The key-union over
  /// the instance's panes is maintained as a sliding multiset across the
  /// (monotone) fire walk, so each pane's cells are scanned once per pass
  /// instead of once per overlapping instance — this is what keeps the
  /// whole advance path O(1) amortized per tuple.
  void fire_instance(Timestamp l, const FireFn& fire) {
    const Timestamp end = l + spec_.size;
    if (!union_valid_ || union_from_ > l || union_to_ > end ||
        union_to_ < l) {
      // Rebuild from scratch when the walk jumped backwards (late
      // arrival) or the previous window is disjoint (WS < WA gaps, or a
      // cursor jump): sliding would walk panes that were never counted.
      active_keys_.clear();
      union_from_ = union_to_ = l;
      union_valid_ = true;
    }
    while (union_from_ < l) {
      drop_pane_keys(union_from_);
      union_from_ += geom_.width;
    }
    while (union_to_ < end) {
      count_pane_keys(union_to_);
      union_to_ += geom_.width;
    }
    if (active_keys_.empty()) return;
    auto& flags = fired_[l];
    for (const auto& [key, live_cells] : active_keys_) {
      bool& fired = flags[key];
      if (fired) continue;
      fired = true;
      ++fired_instances_;
      fire(l, key,
           policy_.evaluate(panes_, spec_, geom_, l, key,
                            /*sequential=*/true),
           false);
    }
  }

  void count_pane_keys(Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;
    for (const auto& [key, cell] : it->second) ++active_keys_[key];
  }

  void drop_pane_keys(Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;  // already purged (union decremented)
    for (const auto& [key, cell] : it->second) {
      auto k = active_keys_.find(key);
      if (k != active_keys_.end() && --k->second == 0) active_keys_.erase(k);
    }
  }

  void purge(Timestamp w) {
    if (w < kMinTimestamp + spec_.size + spec_.lateness) return;
    // A pane dies when the *last* instance containing it is purgeable.
    while (!panes_.empty()) {
      const Timestamp p = panes_.begin()->first;
      if (!spec_.purgeable(spec_.last_instance(p), w)) break;
      if (union_valid_ && p >= union_from_ && p < union_to_) {
        drop_pane_keys(p);  // keep a lagging key-union consistent
      }
      if (pane_cache_l_ == p) pane_cache_ = nullptr;
      for (const auto& [key, cell] : panes_.begin()->second) {
        occupancy_ -= Policy::cell_count(cell);
      }
      panes_.erase(panes_.begin());
    }
    // First non-purgeable instance: smallest multiple of WA > w - WS - L.
    const Timestamp h =
        (floor_div(w - spec_.size - spec_.lateness, spec_.advance) + 1) *
        spec_.advance;
    if (h > horizon_) {
      horizon_ = h;
      while (!fired_.empty() && fired_.begin()->first < horizon_) {
        fired_.erase(fired_.begin());
      }
    }
  }

  WindowSpec spec_;
  PaneGeometry geom_;
  KeyFn key_fn_;
  Policy policy_;
  PaneMap panes_;
  /// Fired flags per (instance, key), materialized at fire time only and
  /// kept until the instance's lateness horizon passes (they gate late
  /// update re-fires, mirroring WindowMachine's Bucket::fired).
  std::map<Timestamp, std::unordered_map<Key, bool>> fired_;
  /// Sliding key-union cache for fire_instance: per key, the number of
  /// live (pane, key) cells in panes [union_from_, union_to_). Rebuilt
  /// from the panes whenever the walk jumps backwards; never serialized.
  std::unordered_map<Key, std::uint32_t> active_keys_;
  Timestamp union_from_{0};
  Timestamp union_to_{0};
  bool union_valid_{false};
  /// Memoized cell map of the pane written by the previous store.
  /// Invalidated by purge of that pane AND by freeze(): after a freeze the
  /// slot is shared, so the next store must go through mutate() to clone.
  typename PaneMap::CellMap* pane_cache_{nullptr};
  Timestamp pane_cache_l_{0};
  bool have_cursor_{false};
  Timestamp cursor_{0};              ///< first instance advance() may still fire
  Timestamp horizon_{kMinTimestamp};  ///< instances below are purged
  std::uint64_t next_seq_{0};
  std::uint64_t dropped_late_{0};
  std::uint64_t late_updates_{0};
  std::uint64_t fired_instances_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::uint64_t peak_panes_{0};
  LateProbe late_probe_;
  Shedder* shedder_{nullptr};
  std::shared_ptr<EpochRegistry> registry_;
};

/// The replay fallback for arbitrary f_O: pane cells hold the tuples
/// themselves (each stored once, tagged with a global arrival sequence
/// number), and evaluation gathers pointers to an instance's entries and
/// sorts them into arrival order. A fire hands f_O a TupleView over those
/// pointers — the tuples are read in place, never copied — so fire
/// payloads are element-for-element identical to the buffering backend's
/// buckets. The view lives until the next evaluate() or store.
template <typename In>
class ReplayPolicy {
 public:
  /// A stored tuple and its arrival sequence number.
  struct Entry : Tuple<In> {
    std::uint64_t seq{0};
  };
  struct Cell {
    std::vector<Entry> entries;
  };
  using Result = TupleView<In>;

  template <typename Key>
  void absorb(const Key& /*key*/, Cell& c, Timestamp, const Tuple<In>& t,
              std::uint64_t seq) {
    c.entries.push_back(Entry{t, seq});
  }

  /// Tuples a cell contributes to the engine's occupancy diagnostics.
  static std::size_t cell_count(const Cell& c) { return c.entries.size(); }

  template <typename PaneMap, typename Key>
  Result evaluate(const PaneMap& panes, const WindowSpec& spec,
                  const PaneGeometry&, Timestamp l, const Key& key,
                  bool /*sequential*/) {
    scratch_.clear();
    const Timestamp end = l + spec.size;
    for (auto it = panes.lower_bound(l); it != panes.end() && it->first < end;
         ++it) {
      auto cell = it->second.find(key);
      if (cell == it->second.end()) continue;
      for (const Entry& e : cell->second.entries) scratch_.push_back(&e);
    }
    // Panes are time-ordered but arrival interleaves across panes; the seq
    // tags restore global arrival order. Every pointer in scratch_ points
    // at an Entry, so the downcast is exact.
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Tuple<In>* a, const Tuple<In>* b) {
                return static_cast<const Entry*>(a)->seq <
                       static_cast<const Entry*>(b)->seq;
              });
    return Result(scratch_.data(), scratch_.size());
  }

  void reset() {}

  /// Only instantiated for payloads with a StateCodec (operators guard
  /// with `if constexpr (SnapshotSerializable<...>)`).
  void save_cell(SnapshotWriter& w, const Cell& c) const {
    w.write_size(c.entries.size());
    for (const Entry& e : c.entries) {
      w.write_u64(e.seq);
      write_value(w, static_cast<const Tuple<In>&>(e));
    }
  }

  Cell load_cell(SnapshotReader& r) const {
    Cell c;
    const std::size_t n = r.read_count();
    c.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t seq = r.read_u64();
      c.entries.push_back(Entry{read_value<Tuple<In>>(r), seq});
    }
    return c;
  }

 private:
  /// The last evaluated instance's entries, in arrival order.
  std::vector<const Tuple<In>*> scratch_;
};

/// Drop-in WindowMachine replacement: same constructor shape, same FireFn
/// and AddedFn signatures, single-copy pane storage. Select it per
/// operator via the Machine template parameter of Aggregate/A+/A++.
template <typename In, typename Key>
using SlicedWindowMachine = SlicedEngine<In, Key, ReplayPolicy<In>>;

}  // namespace aggspes::swa
