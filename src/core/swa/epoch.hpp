// Epoch/MVCC versioning under the window backends (DESIGN.md § 15).
//
// Sealed pane partials are immutable monoid state, so the pane map is the
// natural unit of versioning: CowPaneMap keys each pane to a shared,
// refcounted cell-map *version*. freeze() produces an O(panes) copy that
// shares every version with the live map; the first post-freeze mutation
// of a pane clones its cell map (copy-on-write) and retires the shared
// version to the EpochRegistry. A snapshot thread can therefore serialize
// a frozen epoch while ingestion keeps appending to the live one — the
// non-quiescent checkpoint the async path is built on — and a StateQuery
// reader folds over the same frozen versions without ever observing a
// half-applied tuple.
//
// Reclamation is the classic epoch-based discipline: the registry's epoch
// advances at every freeze, readers pin the epoch they freeze at, retired
// versions are tagged with the epoch of their retirement, and collect()
// releases only versions retired strictly before the oldest pinned epoch.
// Memory *safety* never depends on collect() — every version is held by
// shared_ptr, so a collect at any point (including the chaos suite's
// kill-during-GC) can only release versions no snapshot still references.
// The epochs bound *when* memory is released, and give the GC a phase the
// crash matrix can kill deterministically.
//
// Single-mutator contract: all mutations of one CowPaneMap happen on its
// owning node's thread (the runtime drives each node from one thread), while
// frozen copies may be read — and released — from the async checkpoint
// worker or a query thread. The clone decision is a per-slot *shared*
// bit, set by freeze() and cleared by the clone: the live map never
// writes to a cell map any frozen epoch has ever seen. A use_count()
// test would clone less (it could skip the clone once the snapshot
// thread released its reference), but observing the count drop back to 1
// carries no acquire edge pairing with the reader's loads — it is a data
// race, not an optimization. The shared bit costs at most one clone per
// pane per freeze, which is the documented COW price anyway.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace aggspes::swa {

/// Epoch clock + deferred release of retired pane-map versions.
class EpochRegistry {
 public:
  std::uint64_t current() const {
    std::lock_guard<std::mutex> lk(mu_);
    return current_;
  }

  /// Advances the epoch (one freeze = one epoch) and returns the new one.
  std::uint64_t advance() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++current_;
  }

  /// A reader (snapshot serializer, state query) working at epoch `e`;
  /// collect() will not release versions retired at or after the oldest
  /// pin. Pins nest (multiset semantics).
  void pin(std::uint64_t e) {
    std::lock_guard<std::mutex> lk(mu_);
    ++pins_[e];
  }

  void unpin(std::uint64_t e) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pins_.find(e);
    if (it == pins_.end()) return;
    if (--it->second == 0) pins_.erase(it);
  }

  /// Hands a superseded version to the registry, tagged with the current
  /// epoch. The shared_ptr keeps it alive until collect() decides the
  /// epoch is unreachable (or the registry is destroyed).
  void retire(std::shared_ptr<const void> version) {
    std::lock_guard<std::mutex> lk(mu_);
    retired_.push_back({current_, std::move(version)});
    ++retired_total_;
  }

  /// Releases versions retired strictly before the oldest pinned epoch
  /// (all of them when nothing is pinned). Returns how many were dropped.
  std::size_t collect() {
    std::vector<std::shared_ptr<const void>> drop;  // destroy outside mu_
    {
      std::lock_guard<std::mutex> lk(mu_);
      const std::uint64_t floor =
          pins_.empty() ? current_ + 1 : pins_.begin()->first;
      std::size_t kept = 0;
      for (auto& entry : retired_) {
        if (entry.epoch < floor) {
          drop.push_back(std::move(entry.version));
        } else {
          retired_[kept++] = std::move(entry);
        }
      }
      retired_.resize(kept);
      collected_total_ += drop.size();
    }
    return drop.size();
  }

  /// Retired versions still held (awaiting an unpin + collect).
  std::size_t held() const {
    std::lock_guard<std::mutex> lk(mu_);
    return retired_.size();
  }
  std::uint64_t retired_total() const {
    std::lock_guard<std::mutex> lk(mu_);
    return retired_total_;
  }
  std::uint64_t collected_total() const {
    std::lock_guard<std::mutex> lk(mu_);
    return collected_total_;
  }

 private:
  struct Retired {
    std::uint64_t epoch;
    std::shared_ptr<const void> version;
  };

  mutable std::mutex mu_;
  std::uint64_t current_{0};
  std::map<std::uint64_t, std::uint32_t> pins_;  ///< epoch → pin count
  std::vector<Retired> retired_;
  std::uint64_t retired_total_{0};
  std::uint64_t collected_total_{0};
};

/// Copy-on-write pane map: drop-in for
/// std::map<Timestamp, std::unordered_map<Key, Cell>> wherever the map is
/// *read* (the evaluation policies use only find/lower_bound/iteration),
/// with all mutation funneled through mutate()/erase()/clear() so a live
/// map and its frozen copies can coexist.
template <typename Key, typename Cell>
class CowPaneMap {
 public:
  using CellMap = std::unordered_map<Key, Cell>;

  /// One pane's slot: a shared version of its cell map, readable through
  /// the same member calls policies make on a bare unordered_map.
  class Slot {
   public:
    Slot() : cells_(std::make_shared<CellMap>()) {}

    typename CellMap::const_iterator find(const Key& k) const {
      return std::as_const(*cells_).find(k);
    }
    typename CellMap::const_iterator begin() const {
      return std::as_const(*cells_).begin();
    }
    typename CellMap::const_iterator end() const {
      return std::as_const(*cells_).end();
    }
    std::size_t size() const { return cells_->size(); }
    bool empty() const { return cells_->empty(); }

   private:
    friend class CowPaneMap;
    std::shared_ptr<CellMap> cells_;
    /// True once a freeze() has shared this version; the next mutation
    /// must clone even if the snapshot already released its reference
    /// (see the header comment — a refcount test would race).
    bool shared_{false};
  };

  using Map = std::map<Timestamp, Slot>;
  using const_iterator = typename Map::const_iterator;
  using value_type = typename Map::value_type;

  const_iterator begin() const { return map_.begin(); }
  const_iterator end() const { return map_.end(); }
  const_iterator find(Timestamp p) const { return map_.find(p); }
  const_iterator lower_bound(Timestamp p) const {
    return map_.lower_bound(p);
  }
  bool empty() const { return map_.empty(); }
  std::size_t size() const { return map_.size(); }

  /// Binds the registry retired versions are handed to. Unbound, a
  /// superseded version is released as soon as its last snapshot lets go
  /// (pure refcounting — still correct, just not epoch-deferred).
  void bind_registry(std::shared_ptr<EpochRegistry> r) {
    registry_ = std::move(r);
  }

  /// Mutable cell map of pane `p`, inserted if absent. Clones the version
  /// first when any freeze has shared it (see the header comment for why
  /// the shared bit, not use_count(), is the clone test). The returned
  /// reference stays valid until the next freeze touches this pane —
  /// callers memoizing it must invalidate on freeze.
  CellMap& mutate(Timestamp p) {
    Slot& s = map_[p];
    if (s.shared_) {
      auto clone = std::make_shared<CellMap>(*s.cells_);
      if (registry_ != nullptr) registry_->retire(std::move(s.cells_));
      s.cells_ = std::move(clone);
      s.shared_ = false;
      ++cow_clones_;
    }
    return *s.cells_;
  }

  void erase(const_iterator it) {
    if (it->second.shared_ && registry_ != nullptr) {
      registry_->retire(it->second.cells_);
    }
    map_.erase(it);
  }

  void clear() {
    if (registry_ != nullptr) {
      for (auto& [p, slot] : map_) {
        if (slot.shared_) registry_->retire(slot.cells_);
      }
    }
    map_.clear();
  }

  /// O(panes) snapshot sharing every version with the live map, marking
  /// every live slot shared so the next mutation of each pane clones. The
  /// copy is immutable by convention: only the const surface is reachable
  /// from a frozen engine state.
  CowPaneMap freeze() {
    CowPaneMap f;
    f.map_ = map_;  // Slot copies = shared_ptr bumps
    f.registry_ = registry_;
    for (auto& [p, slot] : map_) slot.shared_ = true;
    return f;
  }

  /// Pane versions cloned by post-freeze mutations (diagnostics).
  std::uint64_t cow_clones() const { return cow_clones_; }

 private:
  Map map_;
  std::shared_ptr<EpochRegistry> registry_;
  std::uint64_t cow_clones_{0};
};

/// Freezes a pane engine (SlicedEngine, whatever its query count) into a
/// shared immutable epoch. The deleter releases the epoch (unpin +
/// retired-version collect) when the last holder — the async serialize
/// job and any StateQueryHub snapshot — lets go, so a long-held query
/// snapshot keeps its pane versions alive a little longer instead of
/// blocking collection for everyone else.
template <typename Machine>
std::shared_ptr<const typename Machine::Frozen> freeze_shared(Machine& m) {
  return std::shared_ptr<const typename Machine::Frozen>(
      new typename Machine::Frozen(m.freeze()),
      [](const typename Machine::Frozen* f) {
        Machine::release_frozen(*f);
        delete f;
      });
}

}  // namespace aggspes::swa
