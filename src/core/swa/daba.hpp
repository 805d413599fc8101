// Worst-case O(1) sliding aggregation (DESIGN.md § 11): the de-amortized
// variant of TwoStacks, after "In-Order Sliding-Window Aggregation in
// Worst-Case Constant Time" (Tangwongsan, Hirzel, Schneider — DABA Lite).
//
// TwoStacks is amortized O(1): when its front stack drains, the whole
// back is flipped at once — an O(window) combine burst on a single evict,
// which is exactly the p99/p999 latency spike this structure removes. Here
// the flip is scheduled incrementally, Hood–Melville style: the moment the
// back grows past the front, the back is frozen and a replacement front
// (suffix-aggregated, covering the surviving old-front elements plus the
// frozen batch) is built a constant number of combines per subsequent
// operation. The old front keeps serving evictions and queries while the
// rebuild runs; the arithmetic below guarantees the replacement is ready
// strictly before the old front drains, so no single push/evict/query ever
// performs more than kEvictSteps combines or touches O(window) elements.
//
// Why the rebuild finishes in time: at freeze the front holds m elements
// and the frozen batch m + 1 (the trigger is back > front), so the rebuild
// needs (m + 1) + m' combine-and-push units, m' <= m being the front
// elements still alive when the copy phase reaches them. Each of the m
// evictions that could drain the front contributes kEvictSteps = 3 units,
// and 3m >= 2m + 1 for every m >= 1 (m = 0 freezes run to completion
// immediately). Pushes contribute kPushSteps = 1 bonus unit each — kept
// deliberately small so the rebuild is smeared across roughly half the
// generation instead of bursting right after the freeze, which keeps the
// per-op combine count nearly flat (p999 close to p50, the property
// bench_swa's worst_case_latency section records). A defensive
// force-finish guards the bound anyway.
//
// Interface-compatible with TwoStacks — combine is passed per call, the
// snapshot codec serializes the raw FIFO oldest-first and rebuilds on
// load — so FifoMonoidPolicy instantiates over either.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/swa/policy_base.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes::swa {

template <typename Agg>
class DabaLite {
 public:
  /// Appends v as the newest FIFO element. combine(a, b) must be
  /// associative, with a preceding b in stream order. Worst case
  /// kPushSteps + 1 combines.
  template <typename Combine>
  void push(Agg v, Combine&& combine) {
    if (back_.empty()) {
      back_agg_ = v;
    } else {
      back_agg_ = combine(back_agg_, v);
    }
    back_.push_back(std::move(v));
    maybe_freeze(combine);
    work(combine, kPushSteps);
  }

  /// Removes the oldest FIFO element. Worst case kEvictSteps combines —
  /// there is no flip burst.
  template <typename Combine>
  void evict(Combine&& combine) {
    assert(size() > 0);
    if (front_.empty() && rebuilding_) {
      // The step budget makes this unreachable; finish eagerly if the
      // constants are ever wrong rather than touch freed state.
      work(combine, remaining_work());
    }
    assert(!front_.empty());
    front_.pop_back();
    maybe_freeze(combine);
    work(combine, kEvictSteps);
  }

  /// Aggregate of the whole FIFO in insertion order; `empty_value` is
  /// returned when the FIFO is empty. At most 2 combines.
  template <typename Combine>
  Agg query_or(const Agg& empty_value, Combine&& combine) const {
    bool has = false;
    Agg acc{};
    auto fold = [&](const Agg& part) {
      acc = has ? combine(acc, part) : part;
      has = true;
    };
    if (!front_.empty()) fold(front_.back().second);
    if (!frozen_.empty()) fold(frozen_total_);
    if (!back_.empty()) fold(back_agg_);
    return has ? acc : empty_value;
  }

  std::size_t size() const {
    return front_.size() + frozen_.size() + back_.size();
  }
  bool empty() const { return size() == 0; }
  bool rebuild_in_progress() const { return rebuilding_; }

  void clear() {
    front_.clear();
    frozen_.clear();
    back_.clear();
    building_.clear();
    rebuilding_ = false;
    phase1_i_ = 0;
    copy_i_ = 0;
  }

  /// Serializes the raw FIFO values, oldest first — same wire format as
  /// TwoStacks, so a snapshot can be restored into either structure.
  void save(SnapshotWriter& w) const {
    w.write_size(size());
    for (std::size_t i = front_.size(); i-- > 0;) {
      write_value(w, front_[i].first);
    }
    for (const Agg& v : frozen_) write_value(w, v);
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

  /// Rebuild units spent per operation (each is one combine + one move).
  /// Evictions carry the correctness bound (3m >= 2m + 1, header proof);
  /// pushes add a single bonus unit to smear the rebuild thin.
  static constexpr std::size_t kEvictSteps = 3;
  static constexpr std::size_t kPushSteps = 1;

 private:
  template <typename Combine>
  void maybe_freeze(Combine&& combine) {
    if (rebuilding_ || back_.size() <= front_.size()) return;
    // swap, not move: back_ inherits the retired vector's capacity, so
    // steady-state pushes never reallocate (a move-and-regrow would put
    // an O(window) memcpy inside a single push — the exact latency spike
    // this structure exists to remove).
    frozen_.swap(back_);
    back_.clear();
    frozen_total_ = back_agg_;
    building_.clear();
    building_.reserve(front_.size() + frozen_.size());
    phase1_i_ = frozen_.size();
    copy_i_ = 0;
    rebuilding_ = true;
    if (front_.empty()) work(combine, remaining_work());
  }

  std::size_t remaining_work() const {
    return phase1_i_ + (front_.size() - std::min(copy_i_, front_.size()));
  }

  /// Runs up to `steps` rebuild units. Phase 1 suffix-aggregates the
  /// frozen batch newest→oldest; phase 2 re-bases the surviving old-front
  /// elements (raw values only — their old suffixes point at a dead
  /// generation) on top of it. The instant everything alive is covered,
  /// the replacement becomes the front: elements evicted mid-rebuild were
  /// simply never copied (the copy cursor can only trail the old front's
  /// shrinking end, never pass it).
  template <typename Combine>
  void work(Combine&& combine, std::size_t steps) {
    if (!rebuilding_) return;
    while (steps > 0) {
      if (phase1_i_ > 0) {
        const Agg& v = frozen_[--phase1_i_];
        Agg suffix =
            building_.empty() ? v : combine(v, building_.back().second);
        building_.emplace_back(v, std::move(suffix));
      } else if (copy_i_ < front_.size()) {
        const Agg& v = front_[copy_i_++].first;
        Agg suffix =
            building_.empty() ? v : combine(v, building_.back().second);
        building_.emplace_back(v, std::move(suffix));
      } else {
        break;
      }
      --steps;
    }
    if (phase1_i_ == 0 && copy_i_ >= front_.size()) {
      front_.swap(building_);  // building_ keeps the capacity (see freeze)
      building_.clear();
      frozen_.clear();
      rebuilding_ = false;
      copy_i_ = 0;
    }
  }

  /// {raw value, suffix aggregate to the generation's end}; back = oldest.
  std::vector<std::pair<Agg, Agg>> front_;
  std::vector<Agg> frozen_;  ///< batch being rebuilt; oldest first
  Agg frozen_total_{};       ///< fold of frozen_ in order
  std::vector<Agg> back_;    ///< raw values, oldest..newest
  Agg back_agg_{};           ///< fold of back_ in order
  std::vector<std::pair<Agg, Agg>> building_;  ///< replacement front
  bool rebuilding_{false};
  std::size_t phase1_i_{0};  ///< frozen_ elements not yet aggregated
  std::size_t copy_i_{0};    ///< old-front elements already re-based
};

/// MonoidPolicy with the flip spike removed: same cell format, same
/// version/frontier out-of-order rule, worst-case O(1) per-fire slide.
/// Inherits FifoMonoidPolicy::absorb_run, so the batched ingest path
/// (SlicedEngine::add_block + the columnar kernels of batch_kernels.hpp)
/// applies to DABA-backed aggregates exactly as to two-stacks ones — the
/// kernels feed the shared pane cells; only the per-key FIFO cache type
/// differs.
template <typename In, typename Agg, typename Key>
using DabaPolicy =
    FifoMonoidPolicy<In, Agg, Key, DabaLite<WindowAggregate<Agg>>>;

/// Backs A / A+ / A++ wherever f_O is a monoid (Aggregate's Machine
/// parameter).
template <typename In, typename Agg, typename Key>
using DabaWindowMachine = SlicedEngine<In, Key, DabaPolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
