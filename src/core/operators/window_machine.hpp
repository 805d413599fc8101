// Shared windowing state machine used by Aggregate, Aggregate+ and the
// dedicated Join: per-key, per-instance buckets with watermark-driven
// firing, Dataflow allowed-lateness admission (§ 2.4) and purging. Also
// home of FiredWindow, the contract by which A / A+ / A++ hand a fired
// instance to their user functions (DESIGN.md § 9).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hashing.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/swa/late_probe.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes {

/// Non-owning, read-only, indexable range of one window instance's
/// tuples in arrival order. It reads either a contiguous bucket
/// (WindowMachine) or an array of pointers into pane cells
/// (swa::ReplayPolicy); both yield `const Tuple<In>&`, so an f_O body does
/// not depend on the machine that fired it. Nothing is copied: the view
/// borrows the machine's state and is valid only for the duration of the
/// fire (or `added`) call that handed it out. The machine's next add,
/// advance, flush or evaluation may move or free what it points at, so
/// copy out whatever must outlive the call.
template <typename In>
class TupleView {
 public:
  /// Forward iterator yielding `const Tuple<In>&`: all a range-for needs.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple<In>;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple<In>*;
    using reference = const Tuple<In>&;

    iterator() = default;
    reference operator*() const { return v_[i_]; }
    pointer operator->() const { return &v_[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator it = *this;
      ++i_;
      return it;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class TupleView;
    iterator(TupleView v, std::size_t i) : v_(v), i_(i) {}
    TupleView v_;
    std::size_t i_{0};
  };

  TupleView() = default;
  /// Over a contiguous run of tuples.
  explicit TupleView(const std::vector<Tuple<In>>& items)
      : data_(items.data()), n_(items.size()) {}
  /// Over `n` tuples reached through `ptrs`, in that order.
  TupleView(const Tuple<In>* const* ptrs, std::size_t n)
      : ptrs_(ptrs), n_(n) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const Tuple<In>& operator[](std::size_t i) const {
    return ptrs_ != nullptr ? *ptrs_[i] : data_[i];
  }
  const Tuple<In>& front() const { return (*this)[0]; }
  const Tuple<In>& back() const { return (*this)[n_ - 1]; }
  iterator begin() const { return {*this, 0}; }
  iterator end() const { return {*this, n_}; }

 private:
  const Tuple<In>* data_{nullptr};
  const Tuple<In>* const* ptrs_{nullptr};
  std::size_t n_{0};
};

/// Read-only view of one window instance γ handed to user functions f_O.
/// Like its `items`, it is valid only during the call that receives it.
template <typename In, typename Key>
struct WindowView {
  Timestamp l;          ///< γ.l, left boundary (inclusive)
  Timestamp size;       ///< WS; right boundary is l + WS
  const Key& key;       ///< f_K value shared by all items
  TupleView<In> items;  ///< γ.ζ, in arrival order
};

/// f_K of a window keyed by *all* attributes (Listings 1–3): the key is
/// the payload itself. WindowMachine recognises it and stores no key at
/// all; every other machine calls it like any f_K.
struct KeyByAll {
  template <typename T>
  const T& operator()(const T& v) const {
    return v;
  }
};

/// Window-state bookkeeping. The owner provides a `fire` callback invoked
/// once per (instance, key) when the instance becomes complete, and again
/// for every admitted late arrival (the Dataflow "updated output" rule).
///
/// An instance keeps one group per key, in first-arrival order, found
/// through a hash index. A group keyed by KeyByAll is its own key — its
/// first tuple's payload — so each tuple is stored and hashed once, and
/// the `const Key&` handed to `fire` and `added` refers to that payload.
template <typename In, typename Key>
class WindowMachine {
 public:
  /// What a fire delivers: a view of the instance's bucket, in arrival
  /// order (valid for the duration of the call).
  using Result = TupleView<In>;
  /// fire(l, key, items, is_late_update)
  using FireFn =
      std::function<void(Timestamp, const Key&, const Result&, bool)>;
  using KeyFn = std::function<Key(const In&)>;

  WindowMachine(WindowSpec spec, KeyFn key_fn)
      : spec_(spec),
        key_fn_(std::move(key_fn)),
        by_all_(keys_by_all(key_fn_)) {}

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
    insert(t, w, fire, added);
  }
  /// As above, for a tuple the caller gives up: it is moved into the last
  /// instance it falls in, and copied into each earlier one.
  void add(Tuple<In>&& t, Timestamp w, const FireFn& fire,
           const AddedFn& added = {}) {
    insert(std::move(t), w, fire, added);
  }

  /// Fires every instance that became complete at watermark `w` and purges
  /// instances past their lateness horizon.
  void advance(Timestamp w, const FireFn& fire) {
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      if (!spec_.closes(it->first, w)) break;  // map is ordered by l
      fire_unfired(it->first, it->second, fire);
    }
    while (!instances_.empty() &&
           spec_.purgeable(instances_.begin()->first, w)) {
      occupancy_ -= stored(instances_.begin()->second);
      instances_.erase(instances_.begin());
    }
  }

  /// Fires everything still unfired (end-of-stream flush) and clears state.
  void flush(const FireFn& fire) {
    for (auto& [l, inst] : instances_) fire_unfired(l, inst, fire);
    instances_.clear();
    occupancy_ = 0;
  }

  std::uint64_t dropped_late() const { return dropped_late_; }
  std::uint64_t late_updates() const { return late_updates_; }
  std::uint64_t fired_instances() const { return fired_instances_; }
  std::size_t open_instances() const { return instances_.size(); }

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

  /// Serializes whether groups are their own keys, then every open
  /// instance — per group its key (unless keyed by all), items in arrival
  /// order and the `fired` flag — and the counters. The fired flag is
  /// what makes replay idempotent: a restored instance that already
  /// produced its one output will not fire again when replayed watermarks
  /// pass it.
  ///
  /// Only instantiated for payload/key types with a StateCodec (callers
  /// guard with `if constexpr (SnapshotSerializable<...>)`).
  void save(SnapshotWriter& w) const {
    w.write_bool(by_all_);
    w.write_size(instances_.size());
    for (const auto& [l, inst] : instances_) {
      w.write_i64(l);
      w.write_size(inst.groups.size());
      for (std::size_t i = 0; i < inst.groups.size(); ++i) {
        if (!by_all_) write_value(w, inst.keys[i]);
        write_value(w, inst.groups[i].items);
        w.write_bool(inst.groups[i].fired);
      }
    }
    w.write_u64(dropped_late_);
    w.write_u64(late_updates_);
    w.write_u64(fired_instances_);
  }

  void load(SnapshotReader& r) {
    instances_.clear();
    occupancy_ = 0;
    if (r.read_bool() != by_all_) {
      throw SnapshotError("WindowMachine: the state was saved under a " +
                          std::string(by_all_ ? "keyed" : "key-by-all") +
                          " window");
    }
    // An instance takes at least l and its group count (16 bytes), a
    // group its item count and fired flag (9).
    const std::size_t n_instances = r.read_count(16);
    for (std::size_t i = 0; i < n_instances; ++i) {
      const Timestamp l = r.read_i64();
      auto [it, fresh] = instances_.try_emplace(l);
      if (!fresh) {
        throw SnapshotError("WindowMachine: instance " + std::to_string(l) +
                            " saved twice");
      }
      Instance& inst = it->second;
      const std::size_t n_groups = r.read_count(9);
      for (std::size_t k = 0; k < n_groups; ++k) {
        if (!by_all_) inst.keys.push_back(read_value<Key>(r));
        Group g;
        g.items = read_value<std::vector<Tuple<In>>>(r);
        g.fired = r.read_bool();
        if (g.items.empty()) {
          throw SnapshotError("WindowMachine: empty group in instance " +
                              std::to_string(l));
        }
        occupancy_ += g.items.size();
        reserve_slot(inst);  // indexes the groups before this one
        inst.groups.push_back(std::move(g));
        const std::size_t at = inst.groups.size() - 1;
        const Key& key = key_of(inst, at);
        inst.groups[at].hash = std::hash<Key>{}(key);
        std::uint32_t& slot = probe(inst, inst.groups[at].hash, key);
        if (slot != 0) {
          throw SnapshotError("WindowMachine: key saved twice in instance " +
                              std::to_string(l));
        }
        slot = static_cast<std::uint32_t>(at + 1);
      }
    }
    dropped_late_ = r.read_u64();
    late_updates_ = r.read_u64();
    fired_instances_ = r.read_u64();
    peak_occupancy_ = occupancy_;
    peak_instances_ = instances_.size();
  }

 private:
  struct Group {
    std::vector<Tuple<In>> items;
    std::size_t hash{0};  ///< std::hash of the group's key
    bool fired{false};
  };

  /// One window instance: its groups in first-arrival order, their keys
  /// beside them (left empty when keyed by all: a group is then its own
  /// key), and an open-addressed index holding each group's position + 1
  /// (0 marks a free slot; linear probing, at most half full).
  struct Instance {
    std::vector<Group> groups;
    std::vector<Key> keys;
    std::vector<std::uint32_t> index;
  };

  static bool keys_by_all(const KeyFn& f) {
    if constexpr (std::is_same_v<Key, In>) {
      return f.template target<KeyByAll>() != nullptr;
    } else {
      return false;
    }
  }

  template <typename T>
  void insert(T&& t, Timestamp w, const FireFn& fire, const AddedFn& added) {
    if constexpr (std::is_same_v<Key, In>) {
      if (by_all_) {
        // t.value is the key until t moves into its last instance, and the
        // group's first payload after that.
        place(std::forward<T>(t), t.value, w, fire, added);
        return;
      }
    }
    const Key key = key_fn_(t.value);
    place(std::forward<T>(t), key, w, fire, added);
  }

  template <typename T>
  void place(T&& t, const Key& key, Timestamp w, const FireFn& fire,
             const AddedFn& added) {
    const std::size_t h = std::hash<Key>{}(key);
    const Timestamp ts = t.ts;  // `t` may move out before a late probe
    const Timestamp last = spec_.last_instance(ts);
    spec_.for_each_instance(ts, [&](Timestamp l) {
      if (!spec_.admits(l, w)) {
        ++dropped_late_;
        if (late_probe_) late_probe_({l, ts, w, /*dropped=*/true});
        return;
      }
      Instance& inst = instances_[l];
      const std::size_t i = group_of(inst, h, key);
      Group& g = inst.groups[i];
      if (l == last) {
        g.items.push_back(std::forward<T>(t));
      } else {
        g.items.push_back(t);
      }
      if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
      if (instances_.size() > peak_instances_) {
        peak_instances_ = instances_.size();
      }
      const Key& group_key = key_of(inst, i);
      if (added) added(l, group_key, Result(g.items));
      if (spec_.closes(l, w)) {
        // The instance's result was (or would have been) already produced:
        // emit an update right away.
        const bool update = g.fired;
        g.fired = true;
        if (update) {
          ++late_updates_;
          if (late_probe_) late_probe_({l, ts, w, /*dropped=*/false});
        }
        fire(l, group_key, Result(g.items), update);
      }
    });
  }

  void fire_unfired(Timestamp l, Instance& inst, const FireFn& fire) {
    for (std::size_t i = 0; i < inst.groups.size(); ++i) {
      Group& g = inst.groups[i];
      if (!g.fired) {
        g.fired = true;
        ++fired_instances_;
        fire(l, key_of(inst, i), Result(g.items), false);
      }
    }
  }

  static std::uint64_t stored(const Instance& inst) {
    std::uint64_t n = 0;
    for (const Group& g : inst.groups) n += g.items.size();
    return n;
  }

  const Key& key_of(const Instance& inst, std::size_t i) const {
    if constexpr (std::is_same_v<Key, In>) {
      if (by_all_) return inst.groups[i].items.front().value;
    }
    return inst.keys[i];
  }

  /// Position of `key`'s group in `inst`, appended (empty) if new.
  std::size_t group_of(Instance& inst, std::size_t h, const Key& key) {
    reserve_slot(inst);
    std::uint32_t& slot = probe(inst, h, key);
    if (slot == 0) {
      inst.groups.push_back(Group{{}, h, false});
      if (!by_all_) inst.keys.push_back(key);
      slot = static_cast<std::uint32_t>(inst.groups.size());
    }
    return slot - 1;
  }

  /// The index slot holding `key`'s group, or the free slot it would take.
  std::uint32_t& probe(Instance& inst, std::size_t h, const Key& key) const {
    const std::size_t mask = inst.index.size() - 1;
    for (std::size_t i = splitmix64(h) & mask;; i = (i + 1) & mask) {
      std::uint32_t& slot = inst.index[i];
      if (slot == 0 || (inst.groups[slot - 1].hash == h &&
                        key_of(inst, slot - 1) == key)) {
        return slot;
      }
    }
  }

  /// Keeps the index at most half full once one more group joins.
  static void reserve_slot(Instance& inst) {
    if (2 * (inst.groups.size() + 1) <= inst.index.size()) return;
    inst.index.assign(std::bit_ceil(4 * (inst.groups.size() + 1)), 0);
    const std::size_t mask = inst.index.size() - 1;
    for (std::size_t g = 0; g < inst.groups.size(); ++g) {
      std::size_t i = splitmix64(inst.groups[g].hash) & mask;
      while (inst.index[i] != 0) i = (i + 1) & mask;
      inst.index[i] = static_cast<std::uint32_t>(g + 1);
    }
  }

  WindowSpec spec_;
  KeyFn key_fn_;
  bool by_all_;  ///< f_K is KeyByAll: groups are their own keys
  std::map<Timestamp, Instance> instances_;
  std::uint64_t dropped_late_{0};
  std::uint64_t late_updates_{0};
  std::uint64_t fired_instances_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::size_t peak_instances_{0};
  LateProbe late_probe_;
};

/// Largest wall-clock stamp among a window's items (latency metadata: an
/// output is attributable to its most recent contributing ingress tuple).
template <typename In>
std::uint64_t max_stamp(const TupleView<In>& items) {
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
/// reads a WindowView over the fired TupleView, and an output carries the
/// largest contributor stamp.
template <typename In, typename Key>
struct FiredWindow<In, Key, TupleView<In>> {
  template <typename R>
  using Fn = std::function<R(const WindowView<In, Key>&)>;
  using Hub = void;  ///< tuple windows are not served to StateQuery readers
  static constexpr bool kStateCodec = SnapshotSerializable<In>;

  template <typename F>
  static auto apply(const F& f, Timestamp l, Timestamp size, const Key& key,
                    const TupleView<In>& items) {
    return f(WindowView<In, Key>{l, size, key, items});
  }
  static std::uint64_t stamp(const TupleView<In>& items) {
    return max_stamp(items);
  }
};

}  // namespace aggspes
