// The pane engine (DESIGN.md § 9, § 14): gcd-pane window state with
// WindowMachine-equivalent fire semantics, for one window spec or several.
//
// Where WindowMachine copies each tuple into every overlapping instance
// (an O(WS/WA) per-tuple blowup), SlicedEngine stores each tuple's
// contribution exactly once — in its pane — and evaluates instances from
// the panes they span. The pane width g is the gcd of every registered
// spec's WA and WS (shared_pane_width), so g tiles every spec's instances
// exactly and Q concurrent queries over the same keyed stream share one
// store: the "Factor Windows" idea (Wu et al.) on the gcd-pane substrate.
// A single-query machine is the Q = 1 case.
//
// Per tuple, everything is shared: the pane cells, the arrival sequence,
// occupancy and its peaks, and the MVCC pane map. Per query
// the engine keeps what a dedicated single-query engine would: fired
// flags, the fire-walk cursor, the lateness horizon, the key-union cache,
// the drop/update/fire counters and the late probe. Each query's fires are
// therefore bit-identical to WindowMachine's under the operator
// discipline (advance(w) before any add(t, w) at the same watermark,
// which is how every Aggregate drives its machine):
//
//   * per-instance Dataflow admission: a late tuple is counted dropped
//     once per instance past its query's lateness horizon, and admitted
//     instances re-fire immediately as updates (§ 2.4);
//   * instances fire once per (instance, key) at the watermark that
//     completes them, in instance order, and flush() fires the rest;
//   * floor_div instance math, so negative timestamps land in the same
//     instances and panes.
//
// Sharing has one consequence handled explicitly: lateness is per query.
// A tuple dead to query A but live to query B is stored; A never sees it,
// because A's purged instances are never evaluated again. A pane is erased
// only when every query's last instance containing it is purgeable.
//
// The evaluation strategy is pluggable (Policy): ReplayPolicy fires a
// view that reads an instance's tuples in place, in global arrival order,
// from the panes they were stored in — the fallback for arbitrary f_O —
// while the monoid policies keep per-pane partial aggregates: the FIFO
// family (monoid_machine.hpp, daba.hpp) answers one spec's sliding fires
// in O(1), and LatticeMonoidPolicy (agg_tree.hpp) answers any spec's fold
// as an O(log P) range query off one tree per key.
//
// Instance bookkeeping is O(1) per tuple: g divides every WA and WS, so a
// tuple's instance verdicts are constant across its pane, and one memo per
// (pane, watermark) lets every in-order tuple skip the per-query work.
// Completed instances are discovered by walking a per-query cursor over
// the pane index (each instance is visited once), fired flags are
// materialized only for instances that actually fire and are purged with
// the lateness horizon, and instances past the horizon are exactly the
// ones WindowMachine would have purged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/operators/window_machine.hpp"
#include "core/recovery/snapshot.hpp"
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
  /// (ReplayPolicy) or a WindowAggregate (the monoid policies).
  using Result = typename Policy::Result;
  /// fire(l, key, result, is_late_update) — same contract as
  /// WindowMachine::FireFn. The fire entry points also take a callable
  /// fire(q, l, key, result, is_late_update) with the query index first.
  using FireFn =
      std::function<void(Timestamp, const Key&, const Result&, bool)>;
  /// added(l, key, result) — post-insert hook behind eager Aggregates.
  using AddedFn = std::function<void(Timestamp, const Key&, const Result&)>;
  using KeyFn = std::function<Key(const In&)>;
  /// MVCC-versioned pane store (epoch.hpp): policies read it through the
  /// same map surface as a std::map-of-unordered_map; mutation goes
  /// through mutate() so frozen epochs stay isolated.
  using PaneMap = CowPaneMap<Key, Cell>;
  using FiredFlags = std::map<Timestamp, std::unordered_map<Key, bool>>;

  SlicedEngine(WindowSpec spec, KeyFn key_fn, Policy policy = Policy{})
      : SlicedEngine(std::vector<WindowSpec>{spec}, std::move(key_fn),
                     std::move(policy)) {}

  SlicedEngine(std::vector<WindowSpec> specs, KeyFn key_fn,
               Policy policy = Policy{})
      : geom_{shared_pane_width(specs)},
        key_fn_(std::move(key_fn)),
        policy_(std::move(policy)),
        registry_(std::make_shared<EpochRegistry>()) {
    panes_.bind_registry(registry_);
    queries_.resize(specs.size());
    for (std::size_t q = 0; q < specs.size(); ++q) {
      queries_[q].spec = specs[q];
      queries_[q].late_probe.set_query(static_cast<int>(q));
    }
  }

  int query_count() const { return static_cast<int>(queries_.size()); }
  const WindowSpec& spec(int q = 0) const { return query(q).spec; }
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

  /// Inserts `t` once (into its pane) and applies every query's
  /// per-instance admission, eager hooks and late re-fires exactly like
  /// WindowMachine::add.
  template <typename Fire>
  void add(const Tuple<In>& t, Timestamp w, const Fire& fire,
           const AddedFn& added = {}) {
    Key key = key_fn_(t.value);
    const Timestamp pane_l = geom_.pane_of(t.ts);
    if (!added && in_order(pane_l, t.ts, w)) {
      if (memo_store_) store_tuple(key, pane_l, t);
      return;
    }
    add_slow(t, w, per_query(fire), added, key, pane_l);
  }

  /// Micro-batch ingest of a contiguous tuple run sharing one watermark
  /// (channel blocks never span a control element, so `w` is constant
  /// across the run). Detects maximal same-key, same-pane, in-order
  /// sub-runs and absorbs each with ONE policy call — the columnar kernel
  /// when the monoid is tagged — while anything needing the slow path
  /// (late/closing tuples, eager hooks, policies without absorb_run) takes
  /// the per-tuple route.
  template <typename Fire>
  void add_block(const Tuple<In>* ts, std::size_t n, Timestamp w,
                 const Fire& fire, const AddedFn& added = {}) {
    if (!kHasBatchAbsorb || added) {
      // Eager hooks observe every insert in order, and policies without
      // absorb_run take tuples one at a time: no batching.
      for (std::size_t i = 0; i < n; ++i) add(ts[i], w, fire, added);
      return;
    }
    std::size_t i = 0;
    while (i < n) {
      const Tuple<In>& t = ts[i];
      Key key = key_fn_(t.value);
      const Timestamp pane_l = geom_.pane_of(t.ts);
      if (!in_order(pane_l, t.ts, w)) {
        add_slow(t, w, per_query(fire), {}, key, pane_l);
        ++i;
        continue;
      }
      // Every same-pane tuple shares t's verdicts (see in_order), so only
      // the pane range and the key remain per tuple here.
      const Timestamp pane_end = pane_l + geom_.width;
      std::size_t j = i + 1;
      while (j < n) {
        const Tuple<In>& u = ts[j];
        if (u.ts < pane_l || u.ts >= pane_end) break;
        if (!(key_fn_(u.value) == key)) break;
        ++j;
      }
      if (memo_store_) store_run(key, pane_l, ts + i, j - i);
      i = j;
    }
  }

  /// Fires, for every query, every instance completed by watermark `w`
  /// (ascending, once per key), then purges the panes every query is done
  /// with and each query's fired flags past its own lateness horizon.
  template <typename Fire>
  void advance(Timestamp w, const Fire& fire) {
    const auto qfire = per_query(fire);
    memo_valid_ = false;
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (w < kMinTimestamp + qu.spec.size) continue;  // nothing closes yet
      if (qu.have_cursor) {
        walk(qu, std::max(qu.cursor, qu.horizon), [&](Timestamp l) {
          if (!qu.spec.closes(l, w)) return false;
          fire_instance(q, qu, l, qfire);
          return true;
        });
      }
      // Everything left of first_instance(w) is closed: late arrivals
      // there re-fire through add(); the cursor never revisits them.
      const Timestamp next_open = qu.spec.first_instance(w);
      if (!qu.have_cursor || next_open > qu.cursor) qu.cursor = next_open;
      qu.have_cursor = true;
    }
    purge(w);
  }

  /// Fires everything still unfired (end-of-stream flush), then clears.
  template <typename Fire>
  void flush(const Fire& fire) {
    const auto qfire = per_query(fire);
    memo_valid_ = false;
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (!qu.have_cursor) continue;
      walk(qu, std::max(qu.cursor, qu.horizon), [&](Timestamp l) {
        fire_instance(q, qu, l, qfire);
        return true;
      });
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

  std::uint64_t dropped_late(int q = 0) const { return query(q).dropped_late; }
  std::uint64_t late_updates(int q = 0) const { return query(q).late_updates; }
  std::uint64_t fired_instances(int q = 0) const {
    return query(q).fired_instances;
  }
  std::size_t open_panes() const { return panes_.size(); }

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
    for (Query& qu : queries_) qu.late_probe.reset();
    // Policies with their own diagnostics (tree rebuilds) clear them under
    // the same call, so a reset leaves no counter from a previous run.
    if constexpr (requires(Policy& p) { p.reset_diagnostics(); }) {
      policy_.reset_diagnostics();
    }
  }

  /// Number of query q's instances holding data and not yet purged
  /// (WindowMachine's open_instances analogue). O(instances) —
  /// diagnostics/tests only.
  std::size_t open_instances(int q = 0) const {
    if (panes_.empty()) return 0;
    const Query& qu = query(q);
    std::size_t n = 0;
    walk(qu,
         std::max(qu.spec.first_instance(panes_.begin()->first), qu.horizon),
         [&n](Timestamp) {
           ++n;
           return true;
         });
    return n;
  }

  /// Rate-limited late-tuple diagnostics for query q (see late_probe.hpp);
  /// events carry the query index (LateEvent::query).
  void set_late_probe(LateProbe::Fn fn, std::uint64_t every = 1024,
                      int q = 0) {
    queries_[static_cast<std::size_t>(q)].late_probe.set(std::move(fn),
                                                         every);
  }
  const LateProbe& late_probe(int q = 0) const { return query(q).late_probe; }

  /// The part of one query's state a snapshot carries.
  struct QueryState {
    WindowSpec spec;
    /// Fired flags per (instance, key), materialized at fire time only and
    /// kept until the instance's lateness horizon passes (they gate late
    /// update re-fires, mirroring WindowMachine's Bucket::fired).
    FiredFlags fired;
    bool have_cursor{false};
    Timestamp cursor{0};  ///< first instance advance() may still fire
    Timestamp horizon{kMinTimestamp};  ///< instances below are purged
    std::uint64_t dropped_late{0};
    std::uint64_t late_updates{0};
    std::uint64_t fired_instances{0};

    void save(SnapshotWriter& w) const {
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
      w.write_u64(dropped_late);
      w.write_u64(late_updates);
      w.write_u64(fired_instances);
    }

    void load(SnapshotReader& r) {
      fired.clear();
      const std::size_t n_fired = r.read_count();
      for (std::size_t i = 0; i < n_fired; ++i) {
        auto& keys = fired[r.read_i64()];
        const std::size_t n_keys = r.read_count();
        for (std::size_t k = 0; k < n_keys; ++k) {
          Key key = read_value<Key>(r);
          keys.emplace(std::move(key), r.read_bool());
        }
      }
      have_cursor = r.read_bool();
      cursor = r.read_i64();
      horizon = r.read_i64();
      dropped_late = r.read_u64();
      late_updates = r.read_u64();
      fired_instances = r.read_u64();
    }
  };

  /// Serializes the pane cells, the sequence counter, the query count and
  /// each query's state — one cut covers all Q queries. Policy caches (two-stacks, trees) are
  /// rebuilt after load, never persisted: a snapshot cannot resurrect a
  /// stale cached aggregate.
  void save(SnapshotWriter& w) const {
    write_state(w, panes_, next_seq_, queries_, policy_);
  }

  /// Restores a save(); the snapshot's query count must match the
  /// registered specs.
  void load(SnapshotReader& r) {
    panes_.clear();
    occupancy_ = 0;
    const std::size_t n_panes = r.read_count();
    for (std::size_t i = 0; i < n_panes; ++i) {
      auto& cells = panes_.mutate(r.read_i64());
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
      throw SnapshotError("pane engine snapshot holds " +
                          std::to_string(n_queries) + " queries, " +
                          std::to_string(queries_.size()) + " registered");
    }
    for (Query& qu : queries_) {
      qu.load(r);
      qu.active_keys.clear();
      qu.union_valid = false;
    }
    policy_.reset();
    pane_cache_ = nullptr;
    memo_valid_ = false;
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
  }

  /// An immutable copy of the engine's recoverable state at one epoch:
  /// pane versions shared copy-on-write with the live map, plus each
  /// query's state. serialize() reproduces save()'s exact byte layout, so
  /// a frozen snapshot and a quiesced one are interchangeable on restore.
  /// The policy pointer is borrowed — a Frozen must not outlive its
  /// engine's flow (ThreadedFlow::run drains the async executor before
  /// nodes die; StateQuery reads are documented live-state reads).
  struct Frozen {
    PaneMap panes;
    std::vector<QueryState> queries;
    std::uint64_t next_seq{0};
    const Policy* policy{nullptr};
    std::shared_ptr<EpochRegistry> registry;
    std::uint64_t epoch{0};

    void serialize(SnapshotWriter& w) const {
      write_state(w, panes, next_seq, queries, *policy);
    }

    /// Cache-free fold of query q's instance [l, l + WS_q) for one key —
    /// only for policies exposing fold_window (the monoid family). What
    /// StateQuery point/range reads evaluate against.
    typename Policy::Result fold(int q, Timestamp l, const Key& key) const
      requires requires(const Policy& p) {
        p.fold_window(panes, l, l, key);
      }
    {
      const WindowSpec& s = queries[static_cast<std::size_t>(q)].spec;
      return policy->fold_window(panes, l, l + s.size, key);
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
    f.queries.assign(queries_.begin(), queries_.end());
    f.next_seq = next_seq_;
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
  /// Everything a query keeps beyond its snapshot state: the sliding
  /// key-union cache for its fire walk (per key, the number of live
  /// (pane, key) cells in panes [union_from, union_to); rebuilt on
  /// backward jumps, never serialized) and its late probe.
  struct Query : QueryState {
    std::unordered_map<Key, std::uint32_t> active_keys;
    Timestamp union_from{0};
    Timestamp union_to{0};
    bool union_valid{false};
    LateProbe late_probe;
  };

  const Query& query(int q) const {
    return queries_[static_cast<std::size_t>(q)];
  }

  template <typename Queries>
  static void write_state(SnapshotWriter& w, const PaneMap& panes,
                          std::uint64_t next_seq, const Queries& queries,
                          const Policy& policy) {
    w.write_size(panes.size());
    for (const auto& [p, cells] : panes) {
      w.write_i64(p);
      w.write_size(cells.size());
      for (const auto& [key, cell] : cells) {
        write_value(w, key);
        policy.save_cell(w, cell);
      }
    }
    w.write_u64(next_seq);
    w.write_size(queries.size());
    for (const QueryState& qu : queries) qu.save(w);
  }

  /// The engine fires fire(q, l, key, result, update). A FireFn-shaped
  /// callable (no query index) is wrapped without allocating; one that
  /// takes the index is used by reference.
  template <typename Fire>
  static auto per_query(const Fire& fire) {
    if constexpr (std::is_invocable_v<const Fire&, int, Timestamp,
                                      const Key&, const Result&, bool>) {
      return std::cref(fire);
    } else {
      return [&fire](int, Timestamp l, const Key& key, const Result& r,
                     bool update) { fire(l, key, r, update); };
    }
  }

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

  /// The one verdict shortcut. g divides every WA and WS, so a tuple's
  /// first_instance, last_instance — hence whether a query contains it and
  /// whether its earliest instance has closed at `w` — are constant across
  /// its pane. in_order(pane, ts, w) holds when every query takes the
  /// in-order branch (or skips the tuple in a WS < WA gap): nothing
  /// closes, nothing is purgeable, fires wait for advance(), and the tuple
  /// is stored once iff some query contains it (memo_store_). The first
  /// call for a (pane, watermark) touches each containing query's cursor;
  /// repeats are one comparison, so the marginal per-tuple cost of an
  /// added query is O(1) amortized. advance, flush and load move cursors
  /// and invalidate the memo.
  bool in_order(Timestamp pane_l, Timestamp ts, Timestamp w) {
    if (memo_valid_ && pane_l == memo_pane_ && w == memo_w_) return true;
    for (const Query& qu : queries_) {
      if (contains(qu.spec, ts) &&
          qu.spec.closes(qu.spec.first_instance(ts), w)) {
        return false;
      }
    }
    memo_store_ = false;
    for (Query& qu : queries_) {
      if (!contains(qu.spec, ts)) continue;
      touch_cursor(qu, qu.spec.first_instance(ts));
      memo_store_ = true;
    }
    memo_valid_ = true;
    memo_pane_ = pane_l;
    memo_w_ = w;
    return true;
  }

  /// add() for a tuple some query sees late, or under an eager hook:
  /// per-query, per-instance admission, eager evaluation and late
  /// re-fires. The tuple is stored at most once, before the first
  /// instance that admits it (admission is monotone in l, so every
  /// instance evaluated after it already sees the tuple).
  template <typename QFire>
  void add_slow(const Tuple<In>& t, Timestamp w, const QFire& fire,
                const AddedFn& added, const Key& key, Timestamp pane_l) {
    bool stored = false;
    auto store_once = [&] {
      if (!stored) {
        store_tuple(key, pane_l, t);
        stored = true;
      }
    };
    for (int q = 0; q < query_count(); ++q) {
      Query& qu = queries_[static_cast<std::size_t>(q)];
      if (!contains(qu.spec, t.ts)) continue;
      const Timestamp first = qu.spec.first_instance(t.ts);
      if (!added && !qu.spec.closes(first, w)) {
        store_once();  // in order for this query
        touch_cursor(qu, first);
        continue;
      }
      qu.spec.for_each_instance(t.ts, [&](Timestamp l) {
        if (!qu.spec.admits(l, w)) {
          ++qu.dropped_late;
          if (qu.late_probe) qu.late_probe({l, t.ts, w, /*dropped=*/true});
          return;
        }
        store_once();
        touch_cursor(qu, first);
        if (added) {
          added(l, key, policy_.evaluate(panes_, qu.spec, geom_, l, key,
                                         /*sequential=*/false));
        }
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
  }

  /// Memoized cell map of pane `pane_l` (std::map references are stable
  /// until erase), so runs of tuples landing in the same pane skip the
  /// lookup.
  typename PaneMap::CellMap& pane_cells(Timestamp pane_l) {
    if (pane_cache_ == nullptr || pane_cache_l_ != pane_l) {
      pane_cache_ = &panes_.mutate(pane_l);
      pane_cache_l_ = pane_l;
    }
    return *pane_cache_;
  }

  /// Bookkeeping after `n` tuples landed in one cell: occupancy, peaks,
  /// and — for a new cell — every query's key-union cache (the cell is
  /// visible to all fire walks).
  void note_stored(const Key& key, Timestamp pane_l, std::size_t n,
                   bool inserted) {
    occupancy_ += n;
    if (occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (panes_.size() > peak_panes_) peak_panes_ = panes_.size();
    if (!inserted) return;
    for (Query& qu : queries_) {
      if (qu.union_valid && pane_l >= qu.union_from && pane_l < qu.union_to) {
        ++qu.active_keys[key];
      }
    }
  }

  /// Stores `t` exactly once into its pane cell.
  void store_tuple(const Key& key, Timestamp pane_l, const Tuple<In>& t) {
    auto [cell, inserted] = pane_cells(pane_l).try_emplace(key);
    policy_.absorb(key, cell->second, pane_l, t, next_seq_++);
    note_stored(key, pane_l, 1, inserted);
  }

  /// store_tuple for a same-key, same-pane run: one pane lookup, one cell
  /// find-or-insert and one policy absorb for the whole run; bookkeeping
  /// lands exactly where per-tuple stores would have left it.
  void store_run(const Key& key, Timestamp pane_l, const Tuple<In>* ts,
                 std::size_t n) {
    auto [cell, inserted] = pane_cells(pane_l).try_emplace(key);
    if constexpr (kHasBatchAbsorb) {
      policy_.absorb_run(key, cell->second, pane_l, ts, n, next_seq_);
      next_seq_ += n;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        policy_.absorb(key, cell->second, pane_l, ts[i], next_seq_++);
      }
    }
    note_stored(key, pane_l, n, inserted);
  }

  /// Calls visit(l) on query qu's instances from `l` on, ascending,
  /// skipping instances with no pane in range, until visit returns false
  /// or the panes run out.
  template <typename Visit>
  void walk(const Query& qu, Timestamp l, Visit visit) const {
    while (true) {
      // The first pane >= l bounds the next instance that can have data.
      auto it = panes_.lower_bound(l);
      if (it == panes_.end()) return;
      const Timestamp first = qu.spec.first_instance(it->first);
      if (first > l) l = first;
      if (!visit(l)) return;
      l += qu.spec.advance;
    }
  }

  /// Fires query q's instance l for every key with data in it. The
  /// key-union over the instance's panes is maintained as a sliding
  /// multiset across the (monotone) fire walk, so each pane's cells are
  /// scanned once per pass instead of once per overlapping instance — this
  /// is what keeps the whole advance path O(1) amortized per tuple.
  template <typename QFire>
  void fire_instance(int q, Query& qu, Timestamp l, const QFire& fire) {
    const Timestamp end = l + qu.spec.size;
    if (!qu.union_valid || qu.union_from > l || qu.union_to > end ||
        qu.union_to < l) {
      // Rebuild from scratch when the walk jumped backwards (late
      // arrival) or the previous window is disjoint (WS < WA gaps, or a
      // cursor jump): sliding would walk panes that were never counted.
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
    if (it == panes_.end()) return;  // already purged (union decremented)
    for (const auto& [key, cell] : it->second) {
      auto k = qu.active_keys.find(key);
      if (k != qu.active_keys.end() && --k->second == 0) {
        qu.active_keys.erase(k);
      }
    }
  }

  /// Whether every query's last instance containing pane p is purgeable.
  bool pane_dead(Timestamp p, Timestamp w) const {
    for (const Query& qu : queries_) {
      if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness ||
          !qu.spec.purgeable(qu.spec.last_instance(p), w)) {
        return false;
      }
    }
    return true;
  }

  /// A pane dies only when the last instance containing it is purgeable
  /// for *every* query; each query's fired flags are purged against its
  /// own lateness horizon, exactly as a dedicated engine would.
  void purge(Timestamp w) {
    while (!panes_.empty() && pane_dead(panes_.begin()->first, w)) {
      const Timestamp p = panes_.begin()->first;
      for (Query& qu : queries_) {
        if (qu.union_valid && p >= qu.union_from && p < qu.union_to) {
          drop_pane_keys(qu, p);  // keep a lagging key-union consistent
        }
      }
      if (pane_cache_l_ == p) pane_cache_ = nullptr;
      for (const auto& [key, cell] : panes_.begin()->second) {
        occupancy_ -= Policy::cell_count(cell);
      }
      if constexpr (requires(Policy& pol) { pol.on_pane_purged(panes_); }) {
        policy_.on_pane_purged(panes_);  // p is still panes_.begin()
      }
      panes_.erase(panes_.begin());
    }
    for (Query& qu : queries_) {
      if (w < kMinTimestamp + qu.spec.size + qu.spec.lateness) continue;
      // First non-purgeable instance: smallest multiple of WA > w - WS - L.
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
  /// Invalidated by purge of that pane AND by freeze(): after a freeze the
  /// slot is shared, so the next store must go through mutate() to clone.
  typename PaneMap::CellMap* pane_cache_{nullptr};
  Timestamp pane_cache_l_{0};
  /// in_order()'s (pane, watermark) memo and its store decision.
  bool memo_valid_{false};
  bool memo_store_{false};
  Timestamp memo_pane_{0};
  Timestamp memo_w_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::uint64_t peak_panes_{0};
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
    // An entry writes its seq (8 bytes) before its tuple.
    const std::size_t n = r.read_count(8 + kMinEncodedBytes<Tuple<In>>);
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
