// The tree evaluation policy (DESIGN.md § 11, § 14), after "General
// Incremental Sliding-Window Aggregation" (Tangwongsan et al.): each key's
// windows are answered from a balanced aggregation tree over pane
// partials instead of a FIFO.
//
// The FIFO policies (monoid_machine.hpp, daba.hpp) are O(1) per fire for
// one spec but fragile against disorder: one late tuple landing under any
// built FIFO bumps a global version and every key's cache rebuilds. Here
// one tree per key holds a node per live pane, so any window [l, l + WS)
// of any registered spec is an O(log P) range fold, and a late tuple is a
// targeted O(log P) refresh of one node in one key's tree — no version,
// no cross-key invalidation. The same tree therefore serves a single
// Aggregate (TreeWindowMachine) and every query of a multi-query engine.
// Measured against two-stacks it loses on throughput, in order and
// reordered (EXPERIMENTS.md); it stays as the multi-query monoid policy.
//
// The tree is a treap keyed by pane timestamp with per-node subtree
// aggregates, priorities drawn deterministically from the pane timestamp
// (seeded splitmix64) so runs reproduce bit-for-bit. Like every policy
// cache it is rebuilt from the authoritative pane cells after restore.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/recovery/snapshot.hpp"
#include "core/swa/policy_base.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes::swa {

/// Balanced BST (treap) keyed by Timestamp with monoid subtree
/// aggregates, folded in key order. Combine is passed per call, like the
/// FIFO aggregators.
template <typename V>
class AggTreap {
 public:
  template <typename Comb>
  void upsert(Timestamp key, V value, const Comb& comb) {
    root_ = insert(std::move(root_), key, std::move(value), comb);
  }

  template <typename Comb>
  void erase(Timestamp key, const Comb& comb) {
    root_ = remove(std::move(root_), key, comb);
  }

  /// Fold of every value in key order; `empty` when the tree is empty.
  template <typename Comb>
  const V& fold_or(const V& empty, const Comb&) const {
    return root_ ? root_->subtree : empty;
  }

  /// Fold of the values with keys in [lo, hi), in key order; `empty` when
  /// the range holds nothing (it must be an identity of `comb`, as
  /// WindowAggregate's count == 0 is). O(log n): the recursion touches
  /// only the two boundary spines and reuses whole-subtree aggregates in
  /// between. LatticeMonoidPolicy answers every query's [l, l + WS) fold
  /// from one tree per key this way.
  template <typename Comb>
  V range_fold_or(Timestamp lo, Timestamp hi, const V& empty,
                  const Comb& comb) const {
    if (lo >= hi) return empty;
    return range_both(root_.get(), lo, hi, empty, comb);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return root_ == nullptr; }
  void clear() {
    root_.reset();
    size_ = 0;
  }

 private:
  struct Node {
    Timestamp key;
    V value;
    V subtree;  ///< fold of the subtree's values in key order
    std::uint64_t prio;
    std::unique_ptr<Node> left, right;
  };
  using NodePtr = std::unique_ptr<Node>;

  /// Fold of the keys >= lo within n's subtree (left boundary spine).
  template <typename Comb>
  static V range_ge(const Node* n, Timestamp lo, const V& empty,
                    const Comb& comb) {
    if (n == nullptr) return empty;
    if (n->key < lo) return range_ge(n->right.get(), lo, empty, comb);
    V acc = comb(range_ge(n->left.get(), lo, empty, comb), n->value);
    if (n->right) acc = comb(acc, n->right->subtree);
    return acc;
  }

  /// Fold of the keys < hi within n's subtree (right boundary spine).
  template <typename Comb>
  static V range_lt(const Node* n, Timestamp hi, const V& empty,
                    const Comb& comb) {
    if (n == nullptr) return empty;
    if (n->key >= hi) return range_lt(n->left.get(), hi, empty, comb);
    V acc = n->left ? comb(n->left->subtree, n->value) : n->value;
    return comb(acc, range_lt(n->right.get(), hi, empty, comb));
  }

  /// Fold of the keys in [lo, hi): descends to the split node, then hands
  /// each side to its single-boundary helper.
  template <typename Comb>
  static V range_both(const Node* n, Timestamp lo, Timestamp hi,
                      const V& empty, const Comb& comb) {
    if (n == nullptr) return empty;
    if (n->key < lo) return range_both(n->right.get(), lo, hi, empty, comb);
    if (n->key >= hi) return range_both(n->left.get(), lo, hi, empty, comb);
    V acc = comb(range_ge(n->left.get(), lo, empty, comb), n->value);
    return comb(acc, range_lt(n->right.get(), hi, empty, comb));
  }

  /// Deterministic priority: reruns build identical shapes.
  static std::uint64_t prio_of(Timestamp key) {
    std::uint64_t x =
        static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  template <typename Comb>
  static void pull(Node& n, const Comb& comb) {
    n.subtree = n.value;
    if (n.left) n.subtree = comb(n.left->subtree, n.subtree);
    if (n.right) n.subtree = comb(n.subtree, n.right->subtree);
  }

  template <typename Comb>
  static NodePtr rot_right(NodePtr n, const Comb& comb) {
    NodePtr l = std::move(n->left);
    n->left = std::move(l->right);
    pull(*n, comb);
    l->right = std::move(n);
    pull(*l, comb);
    return l;
  }

  template <typename Comb>
  static NodePtr rot_left(NodePtr n, const Comb& comb) {
    NodePtr r = std::move(n->right);
    n->right = std::move(r->left);
    pull(*n, comb);
    r->left = std::move(n);
    pull(*r, comb);
    return r;
  }

  template <typename Comb>
  NodePtr insert(NodePtr n, Timestamp key, V value, const Comb& comb) {
    if (!n) {
      ++size_;
      auto m = std::make_unique<Node>();
      m->key = key;
      m->value = std::move(value);
      m->subtree = m->value;
      m->prio = prio_of(key);
      return m;
    }
    if (key == n->key) {
      n->value = std::move(value);
      pull(*n, comb);
      return n;
    }
    if (key < n->key) {
      n->left = insert(std::move(n->left), key, std::move(value), comb);
      if (n->left->prio > n->prio) return rot_right(std::move(n), comb);
    } else {
      n->right = insert(std::move(n->right), key, std::move(value), comb);
      if (n->right->prio > n->prio) return rot_left(std::move(n), comb);
    }
    pull(*n, comb);
    return n;
  }

  template <typename Comb>
  NodePtr merge(NodePtr a, NodePtr b, const Comb& comb) {
    if (!a) return b;
    if (!b) return a;
    if (a->prio > b->prio) {
      a->right = merge(std::move(a->right), std::move(b), comb);
      pull(*a, comb);
      return a;
    }
    b->left = merge(std::move(a), std::move(b->left), comb);
    pull(*b, comb);
    return b;
  }

  template <typename Comb>
  NodePtr remove(NodePtr n, Timestamp key, const Comb& comb) {
    if (!n) return n;
    if (key == n->key) {
      --size_;
      return merge(std::move(n->left), std::move(n->right), comb);
    }
    if (key < n->key) {
      n->left = remove(std::move(n->left), key, comb);
    } else {
      n->right = remove(std::move(n->right), key, comb);
    }
    pull(*n, comb);
    return n;
  }

  NodePtr root_;
  std::size_t size_{0};
};

/// Monoid evaluation off one AggTreap per key over every live pane, shared
/// by all of an engine's queries. Any query's [l, l + WS_q) fold is an
/// O(log P) range query; an absorb — in order or late — refreshes exactly
/// one node in place (no versioning, no cross-key invalidation). The trees
/// are caches: rebuilt lazily from the authoritative pane cells after
/// restore, kept exact by upserts on absorb and erases on
/// pane purge (SlicedEngine calls on_pane_purged).
template <typename In, typename Agg, typename Key>
class LatticeMonoidPolicy : public MonoidPolicyCore<In, Agg, Key> {
  using Base = MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  /// Implicit from a monoid, like the FIFO policies: how an Aggregate's
  /// monoid reaches its machine.
  LatticeMonoidPolicy(Monoid<In, Agg> m) : Base(std::move(m)) {}

  void absorb(const Key& key, Cell& c, Timestamp pane_l, const Tuple<In>& t,
              std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    auto kt = cache_.find(key);
    if (kt != cache_.end()) {
      // New or mutated pane: refresh its node from the authoritative cell
      // so the tree stays exact over all live panes. O(log P), whether the
      // arrival was in-order or late.
      kt->second.upsert(pane_l, Result{c.agg, c.count, c.stamp},
                             this->combiner());
    }
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry&, Timestamp l, const Key& key,
                         bool /*sequential*/) {
    auto [kt, fresh] = cache_.try_emplace(key);
    AggTreap<Result>& tree = kt->second;
    if (fresh) {
      for (const auto& [p, cells] : panes) {
        auto cell = cells.find(key);
        if (cell == cells.end()) continue;
        tree.upsert(p,
                    Result{cell->second.agg, cell->second.count,
                           cell->second.stamp},
                    this->combiner());
      }
      ++rebuilds_;
    }
    this->result_ = tree.range_fold_or(l, l + spec.size,
                                       this->identity_result(),
                                       this->combiner());
    return this->result_;
  }

  /// Purge hook, before the oldest pane (panes.begin()) is erased: drop
  /// its node from every cached key tree it appears in, and the tree of a
  /// key that held no other live pane.
  template <typename PaneMap>
  void on_pane_purged(const PaneMap& panes) {
    const auto& [p, cells] = *panes.begin();
    for (const auto& [key, cell] : cells) {
      auto kt = cache_.find(key);
      if (kt == cache_.end()) continue;
      kt->second.erase(p, this->combiner());
      if (kt->second.empty()) cache_.erase(kt);
    }
  }

  void reset() { cache_.clear(); }

  /// Keys holding a cached tree: at most the keys of the open panes.
  std::size_t cached_keys() const { return cache_.size(); }

  /// Full per-key tree builds since the last reset (first fire after
  /// construction or restore).
  std::uint64_t rebuilds() const { return rebuilds_; }
  void reset_diagnostics() { rebuilds_ = 0; }

 private:
  /// Per key, one tree node per live pane holding the key.
  std::unordered_map<Key, AggTreap<Result>> cache_;
  std::uint64_t rebuilds_{0};
};

/// Backs A / A+ / A++ wherever f_O is a monoid (Aggregate's Machine
/// parameter), and MultiQueryOp's monoid queries.
template <typename In, typename Agg, typename Key>
using TreeWindowMachine =
    SlicedEngine<In, Key, LatticeMonoidPolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
