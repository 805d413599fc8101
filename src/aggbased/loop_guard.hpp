// Listings 4 & 5 — stream-handling algorithms enforcing conditions C2 and
// C3 (§ 4.5) for SPEs, like ours, whose cyclic-graph support does not
// provide them natively (the paper's artifact does the same for Flink,
// which deadlocks on loops — FLINK-2497).
//
// C2 (for stream S_E, the input of X's looped A1): a watermark may reach A1
// only once it cannot make any in-flight looped tuple a discarded late
// arrival. The guard tracks, per window left-boundary τ, how many successor
// tuples are still expected back through the loop (succΓ), bounds the
// forwardable watermark by B = succΓ.firstKey() + L, and parks watermarks
// above B in pendingW.
//
// C3 (for stream S_A2, the output of A1): A1's watermark may reach its
// downstream peers only after all successors of the tuples it triggered.
// The guard derives safe watermarks from the successor bookkeeping itself.
//
// Faithfulness notes (also in DESIGN.md):
//  * Listing 5 line 5 tests t[2] = −1, but S_A2 only carries indexes ≥ 0;
//    the prose makes clear the first successor (index 0) registers its
//    |t[1]| − 1 outstanding siblings, so we test index == 0.
//  * Both listings remove a succΓ entry when it reaches 0 after a
//    decrement; we also drop entries that *start* at 0 (an envelope with
//    one embedded item has no outstanding siblings).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "aggbased/embedded.hpp"
#include "core/operators/operator_base.hpp"

namespace aggspes {

/// Listing 4. Sits at A1's input junction: port 0 receives S_E (tuples and
/// watermarks from the Embed operator), the loop port receives A1's own
/// outputs fed back (tuples only, P3). Everything is forwarded to A1, but
/// watermarks are delayed per C2. End-of-stream is held until the loop has
/// fully drained.
template <typename T>
class C2Guard final : public UnaryNode<Embedded<T>, Embedded<T>> {
 public:
  using Env = Embedded<T>;

  /// `lateness` is A1's L; Theorem 3 requires L >= D (C1's watermark
  /// spacing) for the guarded composition to lose no tuple.
  explicit C2Guard(Timestamp lateness)
      : UnaryNode<Env, Env>(1, 1), lateness_(lateness) {}

  Timestamp bound() const { return bound_; }
  std::size_t pending_watermarks() const { return pending_.size(); }
  std::size_t outstanding_groups() const { return succ_.size(); }
  /// A barrier is staged and the guard is recording loop-channel state
  /// until the marker comes back around the feedback edge.
  bool recording_loop() const { return logging_; }
  std::size_t logged_loop_tuples() const { return loop_log_.size(); }

  /// Everything Listing 4 tracks: the watermark bound, succΓ, pendingW and
  /// the held end-of-stream, plus the base watermark positions and any
  /// loop-channel tuples recorded for an in-flight barrier. A snapshot
  /// taken mid-loop must round-trip this so a restored guard neither
  /// admits late tuples nor releases a premature watermark.
  void snapshot_to(SnapshotWriter& w) const override {
    write_state(w);
    write_log(w, loop_log_);
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    bound_ = r.read_i64();
    succ_.clear();
    const std::size_t n_succ = r.read_count();
    for (std::size_t i = 0; i < n_succ; ++i) {
      const Timestamp ts = r.read_i64();
      succ_[ts] = r.read_i64();
    }
    pending_.clear();
    const std::size_t n_pending = r.read_count();
    for (std::size_t i = 0; i < n_pending; ++i) {
      pending_.push_back(r.read_i64());
    }
    end_pending_ = r.read_bool();
    logging_ = false;
    loop_log_.clear();
    // Loop-channel state at the cut: tuples that were in flight on the
    // feedback edge. Re-deliver them through the loop port so succΓ
    // drains and they reach A1 ahead of any replayed source element.
    if (r.read_bool()) {
      if constexpr (kSerializable) {
        const std::size_t n = r.read_count(kMinEncodedBytes<Tuple<Env>>);
        std::vector<Tuple<Env>> logged;
        logged.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          logged.push_back(read_value<Tuple<Env>>(r));
        }
        for (const Tuple<Env>& t : logged) on_tuple(1, t);
      } else {
        throw SnapshotError(
            "C2Guard snapshot carries loop tuples but the payload lacks a "
            "StateCodec");
      }
    }
  }

 protected:
  void on_tuple(int port, const Tuple<Env>& t) override {  // processT
    // Chandy-Lamport channel recording: between the barrier arriving on
    // the regular input and the marker returning around the loop, every
    // feedback arrival is part of the checkpoint's channel state.
    if (logging_ && port != 0) loop_log_.push_back(t);
    this->out_.push_tuple(t);
    if (t.value.from_embed()) {
      // γ with left boundary t.τ expects |t[1]| successors back.
      succ_[t.ts] += static_cast<std::int64_t>(t.value.items().size());
      if (succ_[t.ts] == 0) succ_.erase(t.ts);
    } else {
      auto it = succ_.find(t.ts);
      assert(it != succ_.end());
      if (--it->second == 0) succ_.erase(it);
    }
    bound_ = succ_.empty() ? kMaxTimestamp : succ_.begin()->first + lateness_;
    // Forward the latest parked watermark now within the bound, discarding
    // the earlier ones it supersedes (List. 4, L17-21).
    Timestamp next = kMinTimestamp;
    while (!pending_.empty() && pending_.front() <= bound_) {
      next = pending_.front();
      pending_.pop_front();
    }
    if (next != kMinTimestamp) this->out_.push_watermark(next);
    maybe_finish();
  }

  /// The loop head cannot wait for the feedback loop to quiesce before
  /// snapshotting: draining may need watermarks that sit *behind* the held
  /// marker channel (deadlock). Instead, stage the cut now, forward the
  /// marker, and record loop arrivals until the marker comes back around
  /// the cycle — the FIFO loop edge makes the returning marker an exact
  /// divider between in-flight pre-cut tuples (channel state, logged) and
  /// post-cut traffic. The barrier completes, and the runtime's channel
  /// hold releases, only when the marker returns; the round-trip needs no
  /// watermark progress, so it cannot stall.
  void on_marker(std::uint64_t id) override {
    if (logging_) seal_staged();  // overlapping barrier (no channel hold)
    staged_ = SnapshotWriter{};
    write_state(staged_);
    staged_id_ = id;
    logging_ = true;
    loop_log_.clear();
    this->out_.push(Element<Env>{CheckpointMarker{id}});
  }

  void on_loop_marker(std::uint64_t id) override {
    if (logging_ && id == staged_id_) seal_staged();
  }

  void on_watermark(Timestamp w) override {  // processW
    if (w <= bound_) {
      this->out_.push_watermark(w);
    } else {
      pending_.push_back(w);
    }
  }

  void on_end() override {
    end_pending_ = true;
    maybe_finish();
  }

 private:
  static constexpr bool kSerializable = SnapshotSerializable<Env>;

  /// Scalar guard state, without the loop log (shared by snapshot_to and
  /// the staged barrier cut).
  void write_state(SnapshotWriter& w) const {
    this->save_base(w);
    w.write_i64(bound_);
    w.write_size(succ_.size());
    for (const auto& [ts, n] : succ_) {
      w.write_i64(ts);
      w.write_i64(n);
    }
    w.write_size(pending_.size());
    for (Timestamp t : pending_) w.write_i64(t);
    w.write_bool(end_pending_);
  }

  void write_log(SnapshotWriter& w, const std::vector<Tuple<Env>>& log) const {
    if constexpr (kSerializable) {
      w.write_bool(true);
      w.write_size(log.size());
      for (const Tuple<Env>& t : log) write_value(w, t);
    } else {
      // Restore of an unserializable pipeline is refused by the operators
      // themselves; the guard degrades the same way and drops the log.
      w.write_bool(false);
    }
  }

  /// Completes the staged barrier: cut state + recorded loop tuples.
  void seal_staged() {
    logging_ = false;
    write_log(staged_, loop_log_);
    loop_log_.clear();
    this->complete_barrier_with(staged_id_, staged_.take());
  }

  void maybe_finish() {
    if (!end_pending_ || !succ_.empty()) return;
    if (!pending_.empty()) {
      this->out_.push_watermark(pending_.back());
      pending_.clear();
    }
    end_pending_ = false;
    this->out_.push_end();
  }

  Timestamp lateness_;
  Timestamp bound_{kMaxTimestamp};                // B
  std::map<Timestamp, std::int64_t> succ_;        // succΓ
  std::deque<Timestamp> pending_;                 // pendingW
  bool end_pending_{false};
  // Barrier in flight around the loop: staged cut + recorded channel state.
  SnapshotWriter staged_;
  std::uint64_t staged_id_{0};
  bool logging_{false};
  std::vector<Tuple<Env>> loop_log_;
};

/// Listing 5. Sits on A1's output stream S_A2 (which feeds both A2 and,
/// through a loop edge, the C2 guard). Tuples pass through immediately;
/// watermarks are re-derived so that a watermark W reaches A2 only after
/// succ(trig(W)) — i.e. A2 never observes a late arrival.
///
/// `max_step` (beyond Listing 5): consecutive forwarded watermarks differ
/// by at most this amount — large jumps are filled with intermediate
/// watermarks (always sound: they are smaller than an already-safe value).
/// This restores condition C1 for the composition's *output* stream, which
/// the C2 guard's park-and-release otherwise breaks (it discards earlier
/// parked watermarks, so a stage could emit, e.g., its final flush
/// watermark as one giant leap and deadlock a downstream X loop). With
/// max_step = L, a downstream AggBased stage with the same lateness
/// composes safely — the § 3 note that C1 "extends" to AggBased operators,
/// made constructive.
template <typename T>
class C3Guard final : public UnaryNode<Embedded<T>, Embedded<T>> {
 public:
  using Env = Embedded<T>;

  explicit C3Guard(Timestamp max_step = kMaxTimestamp)
      : UnaryNode<Env, Env>(1, 0), max_step_(max_step) {}

  Timestamp last_forwarded() const { return last_w_; }
  std::size_t outstanding_groups() const { return succ_.size(); }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    w.write_size(succ_.size());
    for (const auto& [ts, n] : succ_) {
      w.write_i64(ts);
      w.write_i64(n);
    }
    w.write_i64(last_w_);
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    succ_.clear();
    const std::size_t n_succ = r.read_count();
    for (std::size_t i = 0; i < n_succ; ++i) {
      const Timestamp ts = r.read_i64();
      succ_[ts] = r.read_i64();
    }
    last_w_ = r.read_i64();
  }

 protected:
  void on_tuple(int, const Tuple<Env>& t) override {  // processT
    this->out_.push_tuple(t);
    if (t.value.index == 0) {
      // First successor of an envelope: |t[1]| − 1 siblings outstanding
      // (t itself is one of the successors).
      succ_[t.ts] += static_cast<std::int64_t>(t.value.items().size()) - 1;
      if (succ_[t.ts] == 0) succ_.erase(t.ts);
    } else {
      auto it = succ_.find(t.ts);
      assert(it != succ_.end());
      if (--it->second == 0) succ_.erase(it);
    }
    if (succ_.empty()) {
      forward(t.ts);
    } else {
      forward(succ_.begin()->first - kDelta);
    }
  }

  void on_watermark(Timestamp w) override {  // processW
    if (succ_.empty()) {
      forward(w);
    } else {
      forward(succ_.begin()->first - kDelta);
    }
  }

  void on_end() override {
    // By C2, every successor chain completes before A1 forwards its end on
    // a clean run (succ_ is empty here). On a failure drain
    // (fail_downstream) the loop may be cut mid-envelope; forward the end
    // regardless so the graph winds down instead of aborting.
    this->out_.push_end();
  }

 private:
  void forward(Timestamp w) {
    if (w <= last_w_) return;
    // Step across large gaps so the output satisfies C1 with D = max_step
    // (skipped for the very first watermark: no previous reference point).
    if (last_w_ != kMinTimestamp && max_step_ != kMaxTimestamp) {
      while (w - last_w_ > max_step_) {
        last_w_ += max_step_;
        this->out_.push_watermark(last_w_);
      }
    }
    last_w_ = w;
    this->out_.push_watermark(w);
  }

  std::map<Timestamp, std::int64_t> succ_;  // succΓ
  Timestamp last_w_{kMinTimestamp};         // lastW
  Timestamp max_step_;
};

}  // namespace aggspes
