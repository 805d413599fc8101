// Multi-query pane sharing (DESIGN.md § 14): one pane lattice serves Q
// concurrent window queries with differing (WS, WA) over the same keyed
// stream — the "Factor Windows" idea (Wu et al.) carried onto our
// gcd-pane substrate.
//
// The paper's Theorem-1/Table-1 equivalences mean distinct window queries
// reduce to the same pane-level partials: a pane of width
// g = gcd over all registered specs of gcd(WA_q, WS_q) tiles *every*
// query's instances exactly (g divides each l = k·WA_q and each WS_q), so
// each tuple is stored once — in its pane cell — and query q's instance
// [l, l + WS_q) is answered by folding the panes it spans. Everything
// per-query in SlicedEngine (fired flags, fire-walk cursor, lateness
// horizon, the sliding key-union cache, drop/update counters, the late
// probe) becomes per-Query state here; everything per-tuple (the pane
// cells, the arrival-sequence counter, occupancy) stays shared. The fire
// semantics of each registered query are bit-identical to a dedicated
// SlicedEngine over the same stream — the multi_query_fuzz differential
// suite pins that against all five single-query backends.
//
// Sharing has two semantic consequences handled explicitly:
//   * Lateness is per query: a tuple dead to query A (all of A's
//     instances past A's horizon) but live to query B is stored — A never
//     sees it because A's purged instances are never evaluated again, and
//     a pane only overlaps an instance that contains the tuple's
//     timestamp. A pane is physically erased only when every query's last
//     instance containing it is purgeable (pane lifetime = max over
//     queries).
//   * Shedding is a store-level decision: with shared cells a tuple
//     cannot be in the pane for B but not A, so the shedder is consulted
//     once at admission and a refusal is attributed to every query whose
//     instance set contained the tuple (Shedder::attribute_query) — no
//     flow-global mis-accounting.
//
// Evaluation policies: ReplayPolicy works unchanged (its evaluate takes
// the spec per call), giving the arbitrary-f_O fallback. For monoid f_O,
// LatticeMonoidPolicy (below) keeps one AggTreap per key over *all* live
// panes and answers any query's fold as an O(log P) range query
// (AggTreap::range_fold_or) — one tree serves every registered spec, and
// out-of-order absorbs are targeted node refreshes, never cross-key
// invalidation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/runtime/overload.hpp"
#include "core/swa/finger_tree.hpp"
#include "core/swa/late_probe.hpp"
#include "core/swa/pane.hpp"
#include "core/swa/policy_base.hpp"
#include "core/swa/sliced_machine.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

/// Pane width shared by a set of window specs: the gcd of every spec's
/// advance and size, so each spec's instances are exact pane unions.
inline Timestamp shared_pane_width(const std::vector<WindowSpec>& specs) {
  Timestamp g = 0;
  for (const WindowSpec& s : specs) {
    g = std::gcd(g, std::gcd(s.advance, s.size));
  }
  return g > 0 ? g : kDelta;
}

template <typename In, typename Key, typename Policy>
class SharedLattice {
 public:
  using Cell = typename Policy::Cell;
  using Result = typename Policy::Result;
  /// fire(query, l, key, result, is_late_update) — SlicedEngine's FireFn
  /// with the registered query's index prepended.
  using FireFn = std::function<void(int, Timestamp, const Key&,
                                    const Result&, bool)>;
  using KeyFn = std::function<Key(const In&)>;
  /// MVCC-versioned pane store shared by all queries (epoch.hpp); same
  /// read surface as the former std::map-of-unordered_map, mutation via
  /// mutate() so frozen epochs stay isolated.
  using PaneMap = CowPaneMap<Key, Cell>;

  SharedLattice(std::vector<WindowSpec> specs, KeyFn key_fn,
                Policy policy = Policy{})
      : geom_{shared_pane_width(specs)},
        key_fn_(std::move(key_fn)),
        policy_(std::move(policy)),
        registry_(std::make_shared<EpochRegistry>()) {
    panes_.bind_registry(registry_);
    queries_.reserve(specs.size());
    for (std::size_t q = 0; q < specs.size(); ++q) {
      Query qu;
      qu.spec = specs[q];
      qu.late_probe.set_query(static_cast<int>(q));
      queries_.push_back(std::move(qu));
    }
  }

  int query_count() const { return static_cast<int>(queries_.size()); }
  const WindowSpec& spec(int q) const {
    return queries_[static_cast<std::size_t>(q)].spec;
  }
  const PaneGeometry& geometry() const { return geom_; }
  Policy& policy() { return policy_; }
  const Policy& policy() const { return policy_; }

  /// Inserts `t` once (into its pane) and applies every query's
  /// per-instance admission and late re-fires — each query behaves exactly
  /// like a dedicated SlicedEngine::add over the same stream.
  void add(const Tuple<In>& t, Timestamp w, const FireFn& fire) {
    Key key = key_fn_(t.value);
    if (shedder_ != nullptr &&
        !shedder_->admit(static_cast<std::uint64_t>(std::hash<Key>{}(key)),
                         t.ts, w)) {
      // One store-level drop; attribute it to every query that would have
      // received the tuple (a tuple in query q's WS < WA gap sheds
      // nothing from q).
      for (int q = 0; q < query_count(); ++q) {
        if (contains(queries_[static_cast<std::size_t>(q)].spec, t.ts)) {
          shedder_->attribute_query(q);
        }
      }
      return;
    }
    const Timestamp pane_l = geom_.pane_of(t.ts);
    // Per-(pane, watermark) fast path. Pane and instance grids are both
    // sub-grids of width·Z (width divides every WA_q and WS_q), so
    // first_instance, last_instance — hence contains — are constant
    // across a pane, and closes(first, w) is fixed by (pane, w). When the
    // previous tuple of this (pane, w) took only gap-skip / in-order
    // branches for every query, this tuple takes exactly the same ones,
    // and their only effects are the store (key-independent decision) and
    // cursor touches that are no-ops on a repeat (cursor is already <=
    // this pane's firsts). Marginal per-tuple cost of an added query is
    // then O(1) amortized, not O(Q) — the sharing win bench_multiquery
    // measures.
    if (fast_valid_ && pane_l == fast_pane_ && w == fast_w_) {
      if (fast_store_) store_tuple(key, pane_l, t);
      return;
    }
    bool stored = false;
    bool all_fast = true;
    auto store_once = [&] {
      if (!stored) {
        store_tuple(key, pane_l, t);
        stored = true;
      }
    };
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (!contains(qu.spec, t.ts)) continue;  // WS < WA gap for this query
      const Timestamp first = qu.spec.first_instance(t.ts);
      if (!qu.spec.closes(first, w)) {
        // In-order for this query: no instance has closed (closes is
        // antitone in l), none is purgeable. Fires happen on advance().
        store_once();
        touch_cursor(qu, first);
        continue;
      }
      all_fast = false;  // late for this query: per-key fired flags matter
      qu.spec.for_each_instance(t.ts, [&](Timestamp l) {
        if (!qu.spec.admits(l, w)) {
          ++qu.dropped_late;
          if (qu.late_probe) qu.late_probe({l, t.ts, w, /*dropped=*/true});
          return;
        }
        // Admission is monotone in l: every instance evaluated below
        // already sees the stored tuple.
        store_once();
        touch_cursor(qu, first);
        if (qu.spec.closes(l, w)) {
          bool& fired = qu.fired[l][key];
          const bool update = fired;
          fired = true;
          if (update) {
            ++qu.late_updates;
            if (qu.late_probe) qu.late_probe({l, t.ts, w, /*dropped=*/false});
          }
          fire(q, l, key,
               policy_.evaluate(panes_, qu.spec, geom_, l, key,
                                /*sequential=*/false),
               update);
        }
      });
    }
    fast_valid_ = all_fast;
    fast_pane_ = pane_l;
    fast_w_ = w;
    fast_store_ = stored;
  }

  /// Fires, for every query, every instance completed by watermark `w`
  /// (ascending, once per (query, instance, key)), then purges panes the
  /// *last* query is done with and each query's fired flags past its own
  /// lateness horizon.
  void advance(Timestamp w, const FireFn& fire) {
    fast_valid_ = false;  // purge below may reshape the pane map
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (w < kMinTimestamp + qu.spec.size) continue;  // nothing closes yet
      if (qu.have_cursor) {
        Timestamp l = std::max(qu.cursor, qu.horizon);
        while (true) {
          auto it = panes_.lower_bound(l);
          if (it == panes_.end()) break;
          const Timestamp first = qu.spec.first_instance(it->first);
          if (first > l) l = first;
          if (!qu.spec.closes(l, w)) break;
          fire_instance(q, qu, l, fire);
          l += qu.spec.advance;
        }
      }
      const Timestamp next_open = qu.spec.first_instance(w);
      if (!qu.have_cursor || next_open > qu.cursor) qu.cursor = next_open;
      qu.have_cursor = true;
    }
    purge(w);
  }

  /// Fires everything still unfired across all queries (end-of-stream
  /// flush), then clears shared and per-query state.
  void flush(const FireFn& fire) {
    fast_valid_ = false;
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (!qu.have_cursor) continue;
      Timestamp l = std::max(qu.cursor, qu.horizon);
      while (true) {
        auto it = panes_.lower_bound(l);
        if (it == panes_.end()) break;
        const Timestamp first = qu.spec.first_instance(it->first);
        if (first > l) l = first;
        fire_instance(q, qu, l, fire);
        l += qu.spec.advance;
      }
    }
    panes_.clear();
    policy_.reset();
    pane_cache_ = nullptr;
    occupancy_ = 0;
    for (Query& qu : queries_) {
      qu.fired.clear();
      qu.active_keys.clear();
      qu.union_valid = false;
      qu.have_cursor = false;
      qu.cursor = 0;
    }
  }

  // --- Per-query diagnostics (SlicedEngine's counters, sliced by query).
  std::uint64_t dropped_late(int q) const {
    return queries_[static_cast<std::size_t>(q)].dropped_late;
  }
  std::uint64_t late_updates(int q) const {
    return queries_[static_cast<std::size_t>(q)].late_updates;
  }
  std::uint64_t fired_instances(int q) const {
    return queries_[static_cast<std::size_t>(q)].fired_instances;
  }
  std::uint64_t dropped_late_total() const {
    std::uint64_t n = 0;
    for (const Query& qu : queries_) n += qu.dropped_late;
    return n;
  }
  std::size_t open_panes() const { return panes_.size(); }
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }

  /// Installs the store-level load shedder (see the header comment: one
  /// decision per tuple, per-query attribution). The shedder must outlive
  /// the lattice; nullptr disables shedding.
  void set_shedder(Shedder* shedder) { shedder_ = shedder; }
  std::uint64_t shed() const {
    return shedder_ != nullptr ? shedder_->shed() : 0;
  }
  std::uint64_t shed_for_query(int q) const {
    return shedder_ != nullptr ? shedder_->shed_for_query(q) : 0;
  }

  /// Rate-limited late-tuple diagnostics for query q; events carry the
  /// query index (LateEvent::query).
  void set_late_probe(int q, LateProbe::Fn fn, std::uint64_t every = 1024) {
    queries_[static_cast<std::size_t>(q)].late_probe.set(std::move(fn),
                                                         every);
  }
  const LateProbe& late_probe(int q) const {
    return queries_[static_cast<std::size_t>(q)].late_probe;
  }

  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    for (Query& qu : queries_) qu.late_probe.reset();
    if constexpr (requires(Policy& p) { p.reset_diagnostics(); }) {
      policy_.reset_diagnostics();
    }
  }

  /// Serializes the shared pane cells once plus each query's fired flags,
  /// cursors and counters — one cut covers all Q queries. Policy caches
  /// (per-key trees) are rebuilt after load, never persisted.
  void save(SnapshotWriter& w) const {
    w.write_size(panes_.size());
    for (const auto& [p, cells] : panes_) {
      w.write_i64(p);
      w.write_size(cells.size());
      for (const auto& [key, cell] : cells) {
        write_value(w, key);
        policy_.save_cell(w, cell);
      }
    }
    w.write_u64(next_seq_);
    w.write_size(queries_.size());
    for (const Query& qu : queries_) {
      w.write_size(qu.fired.size());
      for (const auto& [l, keys] : qu.fired) {
        w.write_i64(l);
        w.write_size(keys.size());
        for (const auto& [key, fired] : keys) {
          write_value(w, key);
          w.write_bool(fired);
        }
      }
      w.write_bool(qu.have_cursor);
      w.write_i64(qu.cursor);
      w.write_i64(qu.horizon);
      w.write_u64(qu.dropped_late);
      w.write_u64(qu.late_updates);
      w.write_u64(qu.fired_instances);
    }
  }

  /// Restores a save(); the snapshot's query count must match the
  /// registered specs (the owning operator validates and reports).
  void load(SnapshotReader& r) {
    panes_.clear();
    occupancy_ = 0;
    pane_cache_ = nullptr;
    fast_valid_ = false;
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
    next_seq_ = r.read_u64();
    const std::size_t n_queries = r.read_count();
    if (n_queries != queries_.size()) {
      throw SnapshotError("SharedLattice snapshot holds " +
                          std::to_string(n_queries) + " queries, " +
                          std::to_string(queries_.size()) + " registered");
    }
    for (Query& qu : queries_) {
      qu.fired.clear();
      const std::size_t n_fired = r.read_count();
      for (std::size_t i = 0; i < n_fired; ++i) {
        const Timestamp l = r.read_i64();
        auto& keys = qu.fired[l];
        const std::size_t n_keys = r.read_count();
        for (std::size_t k = 0; k < n_keys; ++k) {
          Key key = read_value<Key>(r);
          const bool fired = r.read_bool();
          keys.emplace(std::move(key), fired);
        }
      }
      qu.have_cursor = r.read_bool();
      qu.cursor = r.read_i64();
      qu.horizon = r.read_i64();
      qu.dropped_late = r.read_u64();
      qu.late_updates = r.read_u64();
      qu.fired_instances = r.read_u64();
      qu.active_keys.clear();
      qu.union_valid = false;
    }
    policy_.reset();
    peak_occupancy_ = occupancy_;
  }

  /// Immutable copy of the lattice's recoverable state at one epoch: pane
  /// versions shared copy-on-write with the live map plus each query's
  /// scalar state. serialize() reproduces save()'s exact byte layout. The
  /// policy pointer is borrowed — a Frozen must not outlive the owning
  /// flow (the runtime drains the async executor before nodes die).
  struct Frozen {
    struct QueryState {
      WindowSpec spec;
      std::map<Timestamp, std::unordered_map<Key, bool>> fired;
      bool have_cursor{false};
      Timestamp cursor{0};
      Timestamp horizon{kMinTimestamp};
      std::uint64_t dropped_late{0};
      std::uint64_t late_updates{0};
      std::uint64_t fired_instances{0};
    };

    PaneMap panes;
    std::vector<QueryState> queries;
    std::uint64_t next_seq{0};
    const Policy* policy{nullptr};
    std::shared_ptr<EpochRegistry> registry;
    std::uint64_t epoch{0};

    void serialize(SnapshotWriter& w) const {
      w.write_size(panes.size());
      for (const auto& [p, cells] : panes) {
        w.write_i64(p);
        w.write_size(cells.size());
        for (const auto& [key, cell] : cells) {
          write_value(w, key);
          policy->save_cell(w, cell);
        }
      }
      w.write_u64(next_seq);
      w.write_size(queries.size());
      for (const QueryState& qu : queries) {
        w.write_size(qu.fired.size());
        for (const auto& [l, keys] : qu.fired) {
          w.write_i64(l);
          w.write_size(keys.size());
          for (const auto& [key, f] : keys) {
            write_value(w, key);
            w.write_bool(f);
          }
        }
        w.write_bool(qu.have_cursor);
        w.write_i64(qu.cursor);
        w.write_i64(qu.horizon);
        w.write_u64(qu.dropped_late);
        w.write_u64(qu.late_updates);
        w.write_u64(qu.fired_instances);
      }
    }

    /// Cache-free fold of query q's instance [l, l + WS_q) for one key —
    /// only for policies exposing fold_window (the monoid family).
    typename Policy::Result fold(int q, Timestamp l, const Key& key) const
      requires requires(const Policy& p) {
        p.fold_window(panes, l, l, key);
      }
    {
      const WindowSpec& s = queries[static_cast<std::size_t>(q)].spec;
      return policy->fold_window(panes, l, l + s.size, key);
    }
  };

  /// Freezes the current epoch (O(panes) shared-version copy + epoch
  /// advance/pin); invalidates the write-through pane cache so post-
  /// freeze stores clone shared slots. Pair with release_frozen().
  Frozen freeze() {
    pane_cache_ = nullptr;
    fast_valid_ = false;
    Frozen f;
    f.epoch = registry_->advance();
    registry_->pin(f.epoch);
    f.panes = panes_.freeze();
    f.queries.reserve(queries_.size());
    for (const Query& qu : queries_) {
      typename Frozen::QueryState qs;
      qs.spec = qu.spec;
      qs.fired = qu.fired;
      qs.have_cursor = qu.have_cursor;
      qs.cursor = qu.cursor;
      qs.horizon = qu.horizon;
      qs.dropped_late = qu.dropped_late;
      qs.late_updates = qu.late_updates;
      qs.fired_instances = qu.fired_instances;
      f.queries.push_back(std::move(qs));
    }
    f.next_seq = next_seq_;
    f.policy = &policy_;
    f.registry = registry_;
    return f;
  }

  /// Unpins a frozen epoch and collects unreachable versions; safe from
  /// the async checkpoint worker (registry-internal locking).
  static void release_frozen(const Frozen& f) {
    f.registry->unpin(f.epoch);
    f.registry->collect();
  }

  const EpochRegistry& epochs() const { return *registry_; }
  std::uint64_t cow_clones() const { return panes_.cow_clones(); }

 private:
  /// Everything a dedicated SlicedEngine keeps per engine, now per query.
  struct Query {
    WindowSpec spec;
    std::map<Timestamp, std::unordered_map<Key, bool>> fired;
    /// Sliding key-union cache for this query's fire walk (cells live in
    /// panes [union_from, union_to)); rebuilt on backward jumps, never
    /// serialized.
    std::unordered_map<Key, std::uint32_t> active_keys;
    Timestamp union_from{0};
    Timestamp union_to{0};
    bool union_valid{false};
    bool have_cursor{false};
    Timestamp cursor{0};
    Timestamp horizon{kMinTimestamp};
    std::uint64_t dropped_late{0};
    std::uint64_t late_updates{0};
    std::uint64_t fired_instances{0};
    LateProbe late_probe;
  };

  /// Whether ts falls inside at least one instance of `spec` (always true
  /// for overlapping/tumbling specs; WS < WA leaves gaps).
  static bool contains(const WindowSpec& spec, Timestamp ts) {
    return spec.size >= spec.advance ||
           spec.first_instance(ts) <= spec.last_instance(ts);
  }

  static void touch_cursor(Query& qu, Timestamp first) {
    if (!qu.have_cursor || first < qu.cursor) qu.cursor = first;
    qu.have_cursor = true;
  }

  /// Stores `t` exactly once into its shared pane cell and keeps *every*
  /// query's key-union cache consistent (the cell is visible to all fire
  /// walks).
  void store_tuple(const Key& key, Timestamp pane_l, const Tuple<In>& t) {
    if (pane_cache_ == nullptr || pane_cache_l_ != pane_l) {
      pane_cache_ = &panes_.mutate(pane_l);
      pane_cache_l_ = pane_l;
    }
    auto [cell, inserted] = pane_cache_->try_emplace(key);
    policy_.absorb(key, cell->second, pane_l, t, next_seq_++);
    if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (inserted) {
      for (Query& qu : queries_) {
        if (qu.union_valid && pane_l >= qu.union_from &&
            pane_l < qu.union_to) {
          ++qu.active_keys[key];
        }
      }
    }
  }

  void fire_instance(int q, Query& qu, Timestamp l, const FireFn& fire) {
    const Timestamp end = l + qu.spec.size;
    if (!qu.union_valid || qu.union_from > l || qu.union_to > end ||
        qu.union_to < l) {
      qu.active_keys.clear();
      qu.union_from = qu.union_to = l;
      qu.union_valid = true;
    }
    while (qu.union_from < l) {
      drop_pane_keys(qu, qu.union_from);
      qu.union_from += geom_.width;
    }
    while (qu.union_to < end) {
      count_pane_keys(qu, qu.union_to);
      qu.union_to += geom_.width;
    }
    if (qu.active_keys.empty()) return;
    auto& flags = qu.fired[l];
    for (const auto& [key, live_cells] : qu.active_keys) {
      bool& fired = flags[key];
      if (fired) continue;
      fired = true;
      ++qu.fired_instances;
      fire(q, l, key,
           policy_.evaluate(panes_, qu.spec, geom_, l, key,
                            /*sequential=*/true),
           false);
    }
  }

  void count_pane_keys(Query& qu, Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;
    for (const auto& [key, cell] : it->second) ++qu.active_keys[key];
  }

  void drop_pane_keys(Query& qu, Timestamp p) {
    auto it = panes_.find(p);
    if (it == panes_.end()) return;  // already purged
    for (const auto& [key, cell] : it->second) {
      auto k = qu.active_keys.find(key);
      if (k != qu.active_keys.end() && --k->second == 0) {
        qu.active_keys.erase(k);
      }
    }
  }

  /// A pane dies only when the last instance containing it is purgeable
  /// for *every* query; each query's fired flags are purged against its
  /// own lateness horizon, exactly as a dedicated engine would.
  void purge(Timestamp w) {
    while (!panes_.empty()) {
      const Timestamp p = panes_.begin()->first;
      bool dead = true;
      for (const Query& qu : queries_) {
        if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness ||
            !qu.spec.purgeable(qu.spec.last_instance(p), w)) {
          dead = false;
          break;
        }
      }
      if (!dead) break;
      for (Query& qu : queries_) {
        if (qu.union_valid && p >= qu.union_from && p < qu.union_to) {
          drop_pane_keys(qu, p);
        }
      }
      if (pane_cache_l_ == p) pane_cache_ = nullptr;
      for (const auto& [key, cell] : panes_.begin()->second) {
        occupancy_ -= Policy::cell_count(cell);
      }
      if constexpr (requires(Policy& pol) {
                      pol.on_pane_purged(p, panes_.begin()->second);
                    }) {
        policy_.on_pane_purged(p, panes_.begin()->second);
      }
      panes_.erase(panes_.begin());
    }
    for (Query& qu : queries_) {
      if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness) continue;
      const Timestamp h =
          (floor_div(w - qu.spec.size - qu.spec.lateness, qu.spec.advance) +
           1) *
          qu.spec.advance;
      if (h > qu.horizon) {
        qu.horizon = h;
        while (!qu.fired.empty() && qu.fired.begin()->first < qu.horizon) {
          qu.fired.erase(qu.fired.begin());
        }
      }
    }
  }

  PaneGeometry geom_;
  KeyFn key_fn_;
  Policy policy_;
  PaneMap panes_;
  std::vector<Query> queries_;
  /// Memoized cell map of the pane written by the previous store.
  /// Invalidated by purge of that pane AND by freeze() (post-freeze
  /// stores must go through mutate() to clone shared slots).
  typename PaneMap::CellMap* pane_cache_{nullptr};
  Timestamp pane_cache_l_{0};
  /// add()'s per-(pane, watermark) fast-path memo: valid when the last
  /// slow pass took only gap-skip / in-order branches for every query.
  /// Never serialized; invalidated by advance/flush/load.
  bool fast_valid_{false};
  bool fast_store_{false};
  Timestamp fast_pane_{0};
  Timestamp fast_w_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  Shedder* shedder_{nullptr};
  std::shared_ptr<EpochRegistry> registry_;
};

/// Monoid evaluation for the shared lattice: one AggTreap per key over
/// every live pane, shared by all registered queries. Any query's
/// [l, l + WS_q) fold is an O(log P) range query; an out-of-order absorb
/// refreshes exactly one node (no versioning, no cross-key invalidation —
/// the FingerTreePolicy property, now multi-query). The trees are caches:
/// rebuilt lazily from the authoritative pane cells after restore or LRU
/// eviction, kept exact by upserts on absorb and erases on pane purge.
template <typename In, typename Agg, typename Key>
class LatticeMonoidPolicy : public MonoidPolicyCore<In, Agg, Key> {
  using Base = MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  explicit LatticeMonoidPolicy(Monoid<In, Agg> m,
                               std::size_t max_cached_keys = 0)
      : Base(std::move(m)) {
    cache_.set_max(max_cached_keys);
  }

  void absorb(const Key& key, Cell& c, Timestamp pane_l, const Tuple<In>& t,
              std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    KeyTree* kt = cache_.find(key);
    if (kt != nullptr && kt->built) {
      // New or mutated pane: refresh its node from the authoritative cell
      // so the tree stays exact over all live panes. O(log P), whether the
      // arrival was in-order or late.
      kt->tree.upsert(pane_l, Result{c.agg, c.count, c.stamp},
                      this->combiner());
    }
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry&, Timestamp l, const Key& key,
                         bool /*sequential*/) {
    KeyTree& kt = cache_.touch(key);
    if (!kt.built) {
      kt.tree.clear();
      for (const auto& [p, cells] : panes) {
        auto cell = cells.find(key);
        if (cell == cells.end()) continue;
        kt.tree.upsert(p,
                       Result{cell->second.agg, cell->second.count,
                              cell->second.stamp},
                       this->combiner());
      }
      kt.built = true;
      ++rebuilds_;
    }
    this->result_ = kt.tree.range_fold_or(l, l + spec.size,
                                          this->identity_result(),
                                          this->combiner());
    return this->result_;
  }

  /// Lattice purge hook: drop the dead pane's node from every cached key
  /// tree it appears in.
  template <typename Cells>
  void on_pane_purged(Timestamp p, const Cells& cells) {
    for (const auto& [key, cell] : cells) {
      KeyTree* kt = cache_.find(key);
      if (kt != nullptr && kt->built) kt->tree.erase(p, this->combiner());
    }
  }

  void reset() { cache_.clear(); }

  /// Bounded per-key cache memory (0 = unbounded); evictions drop trees
  /// only, never pane state.
  void set_max_cached_keys(std::size_t n) { cache_.set_max(n); }
  std::size_t max_cached_keys() const { return cache_.max(); }
  std::size_t cached_keys() const { return cache_.size(); }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  std::uint64_t peak_cached_keys() const { return cache_.peak_size(); }
  /// Full per-key tree builds since the last reset (first fire after
  /// construction, restore, or eviction).
  std::uint64_t rebuilds() const { return rebuilds_; }
  void reset_diagnostics() {
    cache_.reset_diagnostics();
    rebuilds_ = 0;
  }

 private:
  struct KeyTree {
    AggTreap<Result> tree;  ///< one node per live pane holding this key
    bool built{false};
  };

  KeyCacheLru<Key, KeyTree> cache_;
  std::uint64_t rebuilds_{0};
};

/// The two lattice configurations MultiQueryOp deploys: replay for
/// arbitrary f_O, monoid range-folds where f_O is ⟨lift, combine, id⟩.
template <typename In, typename Key>
using ReplayLattice = SharedLattice<In, Key, ReplayPolicy<In>>;
template <typename In, typename Agg, typename Key>
using MonoidLattice = SharedLattice<In, Key, LatticeMonoidPolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
