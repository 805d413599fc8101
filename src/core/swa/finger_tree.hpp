// Out-of-order-robust incremental evaluation (DESIGN.md § 11), after
// "General Incremental Sliding-Window Aggregation" (Tangwongsan et al.)
// and its FiBA successor: each key's window is answered from a balanced
// aggregation tree over pane partials instead of a FIFO.
//
// The FIFO policies (monoid_machine.hpp, daba.hpp) are O(1) per fire but
// fragile against disorder: one late tuple landing under any built FIFO
// bumps a global version and every key's cache rebuilds from scratch —
// O(panes-per-window) per key on the next fire, across all keys. Here a
// late tuple is a *targeted* O(log P) update of one node in one key's
// tree (P = panes per window); no version, no frontier, no cross-key
// invalidation — the engine's absorb tells us exactly which (pane, key)
// cell changed, and the tree re-aggregates just that root path. In-order
// tuples land beyond the covered range and cost the tree nothing until
// the instance closes; the per-fire slide is then one leftmost erase and
// one rightmost insert, O(log P) each against the tree's cached end
// fingers (min/max spines).
//
// The tree is a treap keyed by pane timestamp with per-node subtree
// aggregates, priorities drawn deterministically from the pane timestamp
// (seeded splitmix64) so runs reproduce bit-for-bit. Like every policy
// cache it is rebuilt from the authoritative pane cells after restore and
// bounded per key count by the shared LRU knob.
#pragma once

#include <cstdint>
#include <memory>
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
  /// between. This is the range-query surface DESIGN.md § 11 promised —
  /// the shared lattice answers every query's [l, l + WS) fold from one
  /// tree per key.
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

/// The tree-backed policy: same authoritative cells and snapshot codec as
/// the FIFO policies, out-of-order absorbs handled in place.
template <typename In, typename Agg, typename Key>
class FingerTreePolicy : public MonoidPolicyCore<In, Agg, Key> {
  using Base = MonoidPolicyCore<In, Agg, Key>;

 public:
  using Cell = typename Base::Cell;
  using Result = typename Base::Result;

  /// Implicit from a monoid, like the FIFO policies: how an Aggregate's
  /// monoid reaches its machine.
  FingerTreePolicy(Monoid<In, Agg> m, std::size_t max_cached_keys = 0)
      : Base(std::move(m)) {
    cache_.set_max(max_cached_keys);
  }

  void absorb(const Key& key, Cell& c, Timestamp pane_l, const Tuple<In>& t,
              std::uint64_t /*seq*/) {
    this->fold_into(c, t);
    KeyTree* kt = cache_.find(key);
    if (kt == nullptr) return;
    if (pane_l >= kt->from && pane_l < kt->to) {
      // An already-covered pane mutated (out-of-order arrival): refresh
      // just its node from the authoritative cell. One O(log P) root
      // path; every other pane, key and cache is untouched.
      kt->tree.upsert(pane_l, Result{c.agg, c.count, c.stamp},
                      this->combiner());
      ++ooo_fixups_;
    }
    // In-order tuples land at or beyond kt->to and are picked up by the
    // slide when their instance fires.
  }

  template <typename PaneMap>
  const Result& evaluate(const PaneMap& panes, const WindowSpec& spec,
                         const PaneGeometry& geom, Timestamp l,
                         const Key& key, bool sequential) {
    const Timestamp end = l + spec.size;
    if (!sequential) {
      this->result_ = this->fold_range(panes, l, end, key);
      return this->result_;
    }
    KeyTree& kt = cache_.touch(key);
    if (kt.from > l || kt.to > end || kt.to < kt.from) {
      // The fire walk jumped backwards (late re-evaluation) or to a
      // disjoint window: restart coverage at this instance.
      kt.tree.clear();
      kt.from = kt.to = l;
    }
    while (kt.from < l) {
      if (kt.tree.empty()) {
        kt.from = kt.to = l;
        break;
      }
      kt.tree.erase(kt.from, this->combiner());
      kt.from += geom.width;
    }
    while (kt.to < end) {
      kt.tree.upsert(kt.to, this->pane_partial(panes, kt.to, key),
                     this->combiner());
      kt.to += geom.width;
    }
    this->result_ =
        kt.tree.fold_or(this->identity_result(), this->combiner());
    return this->result_;
  }

  void reset() { cache_.clear(); }

  /// Bounded per-key cache memory (0 = unbounded); evictions drop caches
  /// only, never window state.
  void set_max_cached_keys(std::size_t n) { cache_.set_max(n); }
  std::size_t max_cached_keys() const { return cache_.max(); }
  std::size_t cached_keys() const { return cache_.size(); }
  std::uint64_t cache_evictions() const { return cache_.evictions(); }
  std::uint64_t peak_cached_keys() const { return cache_.peak_size(); }
  /// Targeted out-of-order node refreshes since the last reset.
  std::uint64_t ooo_fixups() const { return ooo_fixups_; }
  void reset_diagnostics() {
    cache_.reset_diagnostics();
    ooo_fixups_ = 0;
  }

 private:
  /// Per-key covered pane range [from, to) mirrored into the tree.
  struct KeyTree {
    AggTreap<Result> tree;
    Timestamp from{0};
    Timestamp to{0};
  };

  KeyCacheLru<Key, KeyTree> cache_;
  std::uint64_t ooo_fixups_{0};
};

/// Backs A / A+ / A++ wherever f_O is a monoid (Aggregate's Machine
/// parameter).
template <typename In, typename Agg, typename Key>
using FingerTreeWindowMachine =
    SlicedEngine<In, Key, FingerTreePolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
