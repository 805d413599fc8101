// Shared pane store for the dedicated windowed Join (DESIGN.md § 9).
//
// The buffering J copies every tuple into each of its WS/WA overlapping
// instances; this store keeps both sides' tuples exactly once, in panes of
// width g = gcd(WA, WS) — the same slicing as SlicedEngine — and answers a
// probe of instance l from that instance's arrival index (below). Every
// stored tuple carries a global arrival sequence number shared across both
// sides, so a probe yields the other side's tuples in exactly the order the
// per-instance cell would have held them (arrival order), which is what
// keeps the pane-backed JoinOp's output element-identical to the buffering
// one.
//
// A pane dies once the *last* instance containing it is closed by the
// watermark (L = 0 for J, § 3): closes is monotone in w and antitone in l,
// so no open instance can still reach the pane.
//
// Arrival index: the join is eager, so every arrival probes the other
// side of each open instance it falls in. Each (instance, key, side)
// therefore keeps the list of its entries' pointers, appended when
// add_left/add_right stores the entry — once per *open* instance
// containing it (instances the store's horizon, the last purge_closed
// watermark, has closed never get a list). Appends happen in arrival
// order, so every list is already in global seq order and a probe is one
// lookup plus a walk of that list: O(WS/WA) list appends and lookups per
// arrival, independent of how many panes an instance spans. Cells are
// deques, so listed pointers survive later pushes. An entry in pane p is
// only listed in instances containing its ts, which all close no later
// than the last instance containing p; purge_closed drops closed
// instances' lists *before* it erases panes, so no dangling pointer
// survives even transiently. load() checks every entry's ts lies in its
// pane — the precondition of that argument — and rebuilds the lists in
// seq order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/swa/pane.hpp"
#include "core/types.hpp"
#include "core/window.hpp"

namespace aggspes::swa {

template <typename L, typename R, typename Key>
class JoinPaneStore {
 public:
  template <typename T>
  struct Entry {
    std::uint64_t seq{0};  ///< global arrival order across both sides
    Tuple<T> t;
  };
  struct Cell {
    std::deque<Entry<L>> lefts;
    std::deque<Entry<R>> rights;
  };
  using PaneMap = std::map<Timestamp, std::unordered_map<Key, Cell>>;

  explicit JoinPaneStore(WindowSpec spec)
      : spec_(spec), geom_(PaneGeometry::of(spec)) {}

  const WindowSpec& spec() const { return spec_; }
  const PaneGeometry& geometry() const { return geom_; }

  /// Stores `t` exactly once, in its pane, and lists it in every open
  /// instance containing it. Callers only store tuples that fall in at
  /// least one open instance.
  void add_left(const Key& key, const Tuple<L>& t) {
    Cell& c = cell(key, t.ts);
    c.lefts.push_back({next_seq_++, t});
    index(key, c.lefts.back(), &Lists::lefts);
    bump_occupancy();
  }

  void add_right(const Key& key, const Tuple<R>& t) {
    Cell& c = cell(key, t.ts);
    c.rights.push_back({next_seq_++, t});
    index(key, c.rights.back(), &Lists::rights);
    bump_occupancy();
  }

  /// Invokes fn(tuple) for every left-side tuple of `key` falling in
  /// instance l, in global arrival order — the contents the buffering
  /// join's per-instance cell would hold.
  template <typename Fn>
  void for_each_left(Timestamp l, const Key& key, Fn&& fn) const {
    if (const Lists* ls = lists(l, key)) {
      for (const Entry<L>* e : ls->lefts) fn(e->t);
    }
  }

  template <typename Fn>
  void for_each_right(Timestamp l, const Key& key, Fn&& fn) const {
    if (const Lists* ls = lists(l, key)) {
      for (const Entry<R>* e : ls->rights) fn(e->t);
    }
  }

  /// Erases panes no open instance can reach (the pane analogue of the
  /// buffering join's closed-instance discard) and advances the horizon:
  /// instances closed at w are never indexed again.
  void purge_closed(Timestamp w) {
    if (w > horizon_) horizon_ = w;
    // Closed instances can no longer be probed; drop their lists before
    // (not after) their panes go, so no dangling pointer survives even
    // transiently.
    while (!index_.empty() && spec_.closes(index_.begin()->first, w)) {
      index_.erase(index_.begin());
    }
    while (!panes_.empty()) {
      auto it = panes_.begin();
      if (!spec_.closes(spec_.last_instance(it->first), w)) break;
      for (const auto& [key, c] : it->second) {
        occupancy_ -= c.lefts.size() + c.rights.size();
      }
      panes_.erase(it);
    }
  }

  /// Empties the store; `horizon` is the watermark its owner resumes at
  /// (instances it closes are never indexed).
  void clear(Timestamp horizon) {
    panes_.clear();
    index_.clear();
    horizon_ = horizon;
    occupancy_ = 0;
    next_seq_ = 0;
  }

  /// Occupancy diagnostics: tuples currently stored (each exactly once),
  /// open panes, and high-water marks since the last reset_diagnostics().
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }
  std::size_t open_panes() const { return panes_.size(); }
  std::uint64_t peak_panes() const { return peak_panes_; }
  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
  }

  /// Serializes pane cells and the arrival-sequence cursor. Occupancy
  /// diagnostics are recomputed on load.
  void save(SnapshotWriter& w) const {
    w.write_size(panes_.size());
    for (const auto& [p, cells] : panes_) {
      w.write_i64(p);
      w.write_size(cells.size());
      for (const auto& [key, c] : cells) {
        write_value(w, key);
        save_entries(w, c.lefts);
        save_entries(w, c.rights);
      }
    }
    w.write_u64(next_seq_);
  }

  /// Restores what save() wrote and rebuilds the arrival index for the
  /// instances open at `horizon` (the owner's restored watermark). Bytes
  /// are hostile: counts are bounded by the bytes left, and a cut whose
  /// panes or keys repeat, whose entry lies outside its pane, or whose
  /// seqs are not strictly ascending per cell side, not unique, or not
  /// below the stored cursor raises SnapshotError.
  void load(SnapshotReader& r, Timestamp horizon) {
    clear(horizon);
    const std::size_t n_panes = r.read_count();
    for (std::size_t i = 0; i < n_panes; ++i) {
      const Timestamp p = r.read_i64();
      if (!panes_.empty() && p <= panes_.rbegin()->first) {
        throw SnapshotError("join pane " + std::to_string(p) +
                            " out of order");
      }
      auto& cells = panes_[p];
      const std::size_t n_cells = r.read_count();
      for (std::size_t c = 0; c < n_cells; ++c) {
        Key key = read_value<Key>(r);
        Cell cell;
        load_entries(r, p, cell.lefts);
        load_entries(r, p, cell.rights);
        occupancy_ += cell.lefts.size() + cell.rights.size();
        if (!cells.emplace(std::move(key), std::move(cell)).second) {
          throw SnapshotError("join pane " + std::to_string(p) +
                              " repeats a key");
        }
      }
    }
    next_seq_ = r.read_u64();
    rebuild_index();
    peak_occupancy_ = occupancy_;
    peak_panes_ = panes_.size();
  }

 private:
  /// One (instance, key)'s arrival index: both sides' entries of the
  /// instance, each list in global seq order.
  struct Lists {
    std::vector<const Entry<L>*> lefts;
    std::vector<const Entry<R>*> rights;
  };

  Cell& cell(const Key& key, Timestamp ts) {
    return panes_[geom_.pane_of(ts)][key];
  }

  const Lists* lists(Timestamp l, const Key& key) const {
    auto inst = index_.find(l);
    if (inst == index_.end()) return nullptr;
    auto it = inst->second.find(key);
    return it == inst->second.end() ? nullptr : &it->second;
  }

  /// Appends `e` to `side` of every open instance containing it.
  template <typename E>
  void index(const Key& key, const E& e, std::vector<const E*> Lists::*side) {
    spec_.for_each_instance(e.t.ts, [&](Timestamp l) {
      if (!spec_.closes(l, horizon_)) (index_[l][key].*side).push_back(&e);
    });
  }

  /// Re-derives the arrival index from the loaded entries: indexing them
  /// in seq order reproduces the lists the live store had built.
  void rebuild_index() {
    struct Arrival {
      std::uint64_t seq;
      const Key* key;
      const Entry<L>* left;
      const Entry<R>* right;
    };
    std::vector<Arrival> arrivals;
    arrivals.reserve(occupancy_);
    for (const auto& [p, cells] : panes_) {
      for (const auto& [key, c] : cells) {
        for (const Entry<L>& e : c.lefts) {
          arrivals.push_back({e.seq, &key, &e, nullptr});
        }
        for (const Entry<R>& e : c.rights) {
          arrivals.push_back({e.seq, &key, nullptr, &e});
        }
      }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival& a, const Arrival& b) { return a.seq < b.seq; });
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      if (a.seq >= next_seq_) {
        throw SnapshotError("join entry seq " + std::to_string(a.seq) +
                            " is not below the stored cursor " +
                            std::to_string(next_seq_));
      }
      if (i > 0 && arrivals[i - 1].seq == a.seq) {
        throw SnapshotError("join entry seq " + std::to_string(a.seq) +
                            " repeats");
      }
      if (a.left != nullptr) {
        index(*a.key, *a.left, &Lists::lefts);
      } else {
        index(*a.key, *a.right, &Lists::rights);
      }
    }
  }

  template <typename T>
  static void save_entries(SnapshotWriter& w, const std::deque<Entry<T>>& v) {
    w.write_size(v.size());
    for (const Entry<T>& e : v) {
      w.write_u64(e.seq);
      write_value(w, e.t);
    }
  }

  /// Reads one cell side of pane p: every entry must lie in p and the
  /// seqs must strictly ascend (the order the live store appended them).
  template <typename T>
  void load_entries(SnapshotReader& r, Timestamp p,
                    std::deque<Entry<T>>& v) const {
    const std::size_t n = r.read_count();
    for (std::size_t i = 0; i < n; ++i) {
      Entry<T> e;
      e.seq = r.read_u64();
      e.t = read_value<Tuple<T>>(r);
      if (geom_.pane_of(e.t.ts) != p) {
        throw SnapshotError("join entry ts " + std::to_string(e.t.ts) +
                            " outside its pane " + std::to_string(p));
      }
      if (!v.empty() && e.seq <= v.back().seq) {
        throw SnapshotError("join entry seqs not ascending in pane " +
                            std::to_string(p));
      }
      v.push_back(std::move(e));
    }
  }

  void bump_occupancy() {
    if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (panes_.size() > peak_panes_) peak_panes_ = panes_.size();
  }

  WindowSpec spec_;
  PaneGeometry geom_;
  PaneMap panes_;
  std::map<Timestamp, std::unordered_map<Key, Lists>> index_;
  Timestamp horizon_{kMinTimestamp};  ///< last purge_closed watermark
  std::uint64_t next_seq_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::uint64_t peak_panes_{0};
};

}  // namespace aggspes::swa
