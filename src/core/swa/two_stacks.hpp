// Two-stacks sliding aggregation (the FIFO variant of "In-Order
// Sliding-Window Aggregation in Worst-Case Constant Time", Tangwongsan et
// al. — the classic amortized-O(1) two-stacks form; daba.hpp holds the
// de-amortized variant that spreads the flip, same interface and wire
// format).
//
// Maintains a FIFO of values from an associative monoid and answers
// "aggregate of everything currently in the FIFO, in insertion order" in
// O(1): a back stack accumulates a running prefix aggregate as values are
// pushed; when the front stack empties, the back is flipped into it with
// suffix aggregates precomputed, so query() is one combine of the front
// top's suffix with the back's prefix. Each value is moved exactly once,
// so push/evict/query are amortized O(1) with no per-element allocation.
//
// The combine operation is passed per call (not stored): the monoid
// machine owns one combine functor and feeds it to thousands of per-key
// stacks without copying captured state into each.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"

namespace aggspes::swa {

template <typename Agg>
class TwoStacks {
 public:
  /// Appends v as the newest FIFO element. combine(a, b) must be
  /// associative, with a preceding b in stream order.
  template <typename Combine>
  void push(Agg v, Combine&& combine) {
    if (back_.empty()) {
      back_agg_ = v;
    } else {
      back_agg_ = combine(back_agg_, v);
    }
    back_.push_back(std::move(v));
  }

  /// Removes the oldest FIFO element. Amortized O(1): the flip touches
  /// each element once per lifetime.
  template <typename Combine>
  void evict(Combine&& combine) {
    assert(size() > 0);
    if (front_.empty()) {
      // Flip: move back values into the front stack, precomputing for each
      // the aggregate of itself with everything newer already flipped, so
      // the top entry (oldest) carries the whole front's aggregate.
      front_.reserve(back_.size());
      for (std::size_t i = back_.size(); i-- > 0;) {
        Agg suffix = front_.empty()
                         ? back_[i]
                         : combine(back_[i], front_.back().second);
        front_.emplace_back(std::move(back_[i]), std::move(suffix));
      }
      back_.clear();
    }
    front_.pop_back();
  }

  /// Aggregate of the whole FIFO in insertion order; `empty_value` is
  /// returned when the FIFO is empty (the monoid identity).
  template <typename Combine>
  Agg query_or(const Agg& empty_value, Combine&& combine) const {
    const bool has_front = !front_.empty();
    const bool has_back = !back_.empty();
    if (!has_front && !has_back) return empty_value;
    if (!has_front) return back_agg_;
    if (!has_back) return front_.back().second;
    return combine(front_.back().second, back_agg_);
  }

  std::size_t size() const { return front_.size() + back_.size(); }
  bool empty() const { return size() == 0; }

  void clear() {
    front_.clear();
    back_.clear();
  }

  /// Serializes the raw FIFO values, oldest first. The derived aggregates
  /// are not written — load() recomputes them, so a snapshot can never
  /// resurrect a stale cached aggregate.
  void save(SnapshotWriter& w) const {
    w.write_size(size());
    for (std::size_t i = front_.size(); i-- > 0;) {
      write_value(w, front_[i].first);
    }
    for (const Agg& v : back_) write_value(w, v);
  }

  template <typename Combine>
  void load(SnapshotReader& r, Combine&& combine) {
    clear();
    const std::size_t n = r.read_count();
    for (std::size_t i = 0; i < n; ++i) {
      push(read_value<Agg>(r), combine);
    }
  }

 private:
  std::vector<Agg> back_;                    ///< raw values, oldest..newest
  Agg back_agg_{};                           ///< fold of back_ in order
  std::vector<std::pair<Agg, Agg>> front_;   ///< {raw, suffix agg}; top=oldest
};

}  // namespace aggspes::swa
