// Reusable node bases: watermark combining, end-of-stream accounting,
// loop-port wiring, and checkpoint-barrier alignment shared by every
// operator implementation.
//
// Barrier protocol (recovery subsystem): a CheckpointMarker arriving on a
// regular port counts toward alignment; once every *live* regular port
// (not yet ended) delivered marker `id`, the node completes the barrier —
// serializing its state through snapshot_to() — and forwards the marker.
// Unlike watermarks, markers DO traverse loop edges: a loop head stages
// its snapshot when the marker arrives, forwards it, and records feedback
// arrivals until the marker comes back around the cycle (Chandy-Lamport
// channel recording; see aggbased/loop_guard.hpp). The threaded runtime
// holds a channel that delivered a marker until the node completes the
// barrier, so no post-barrier element is processed before the snapshot is
// taken.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"
#include "core/watermark.hpp"

namespace aggspes {

/// What every operator node shares, whatever its input types: the output,
/// the watermark combined across its regular input ports, and the one
/// control-element path. A watermark advances the combined watermark; a
/// CheckpointMarker counts toward alignment; an end-of-stream retires its
/// port — a port that ended no longer counts toward a pending barrier —
/// and the last one ends the node.
template <typename Out>
class OperatorNode : public NodeBase {
 public:
  Outlet<Out>& out() { return out_; }

  int regular_ports() const { return combiner_.ports(); }

  Timestamp node_watermark() const override { return combiner_.current(); }

  void fail_downstream() override { out_.push_end(); }

 protected:
  explicit OperatorNode(int regular_ports)
      : combiner_(regular_ports), ends_expected_(regular_ports) {}

  /// Called when the combined watermark strictly increases; default
  /// forwards it.
  virtual void on_watermark(Timestamp w) { out_.push_watermark(w); }
  /// Called once every regular port delivered end-of-stream; default
  /// forwards it.
  virtual void on_end() { out_.push_end(); }
  /// Barrier `id` is aligned across the live regular ports. Default:
  /// snapshot state, then forward the marker. Loop heads override this to
  /// stage the snapshot and record feedback-channel state instead.
  virtual void on_marker(std::uint64_t id) { finish_marker(id); }

  /// Completes barrier `id` (records the snapshot, releases held
  /// channels) and forwards the marker downstream.
  void finish_marker(std::uint64_t id) {
    this->complete_barrier(id);
    out_.push(Element<Out>{CheckpointMarker{id}});
  }

  /// Current combined watermark W_O over the regular inputs.
  Timestamp watermark() const { return combiner_.current(); }

  /// Serializes the base bookkeeping (watermark positions). Stateful
  /// subclasses call this first in snapshot_to / restore_from so replayed
  /// streams resume against the checkpointed watermark, not kMinTimestamp.
  void save_base(SnapshotWriter& w) const { combiner_.save(w); }
  void load_base(SnapshotReader& r) { combiner_.load(r); }

  /// The control path: `e` is a watermark, marker or end-of-stream that
  /// arrived on regular port `port`.
  template <typename T>
  void on_control(int port, const Element<T>& e) {
    if (const auto* w = std::get_if<Watermark>(&e)) {
      if (combiner_.advance(port, w->ts)) on_watermark(combiner_.current());
      return;
    }
    if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
      pending_marker_id_ = m->id;
      ++markers_seen_;
      maybe_align();
      return;
    }
    ++ends_seen_;
    // A port that ended can no longer contribute to a pending barrier:
    // re-check alignment against the remaining live ports.
    if (markers_seen_ > 0) maybe_align();
    if (ends_seen_ == ends_expected_) on_end();
  }

  Outlet<Out> out_;

 private:
  void maybe_align() {
    const int live = ends_expected_ - ends_seen_;
    if (markers_seen_ >= live) {
      markers_seen_ = 0;
      on_marker(pending_marker_id_);
    }
  }

  WatermarkCombiner combiner_;
  int ends_expected_;
  int ends_seen_{0};
  int markers_seen_{0};
  std::uint64_t pending_marker_id_{0};
};

/// Single-input-type operator node with `regular_ports` watermark-carrying
/// inputs plus `loop_ports` feedback inputs (P3: loops deliver tuples only).
///
/// Subclasses implement `on_tuple` and may override the OperatorNode
/// control hooks (`on_watermark`, `on_end`, `on_marker`).
template <typename In, typename Out>
class UnaryNode : public OperatorNode<Out> {
 public:
  UnaryNode(int regular_ports, int loop_ports)
      : OperatorNode<Out>(regular_ports) {
    const int total = regular_ports + loop_ports;
    ports_.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
      const bool loop = i >= regular_ports;
      if (loop) {
        // Loop ports stay per-element: feedback tuples are sparse and
        // interleave with Chandy-Lamport marker recording.
        ports_.push_back(std::make_unique<Port<In>>(
            [this, i](const Element<In>& e) { dispatch(i, true, e); }));
      } else {
        ports_.push_back(std::make_unique<Port<In>>(
            [this, i](const Element<In>& e) { dispatch(i, false, e); },
            [this, i](const Tuple<In>* ts, std::size_t n) {
              on_tuple_block(i, ts, n);
            },
            [this, i](Tuple<In>* ts, std::size_t n) {
              on_taken_block(i, ts, n);
            }));
      }
    }
  }

  Consumer<In>& in(int port = 0) {
    return *ports_[static_cast<std::size_t>(port)];
  }
  /// First loop input port (port index `regular_ports`).
  Consumer<In>& loop_in(int i = 0) {
    return *ports_[static_cast<std::size_t>(this->regular_ports() + i)];
  }

 protected:
  virtual void on_tuple(int port, const Tuple<In>& t) = 0;

  /// Batched tuple delivery on a regular port: a contiguous run that never
  /// spans a watermark/EOS/marker (those always arrive via the per-element
  /// path), so the combined watermark is constant across the run. Default
  /// preserves per-element semantics exactly; block-aware operators
  /// (Map/Filter, the monoid aggregates) override.
  virtual void on_tuple_block(int port, const Tuple<In>* ts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) on_tuple(port, ts[i]);
  }

  /// on_tuple_block for a run the channel gave up (ThreadedFlow's block
  /// path): the node may move the tuples out. Default reads them in place.
  virtual void on_taken_block(int port, Tuple<In>* ts, std::size_t n) {
    on_tuple_block(port, ts, n);
  }

  /// The marker came back around a feedback loop (markers traverse loop
  /// edges, unlike watermarks). Only loop heads care; default ignores.
  virtual void on_loop_marker(std::uint64_t) {}

 private:
  void dispatch(int port, bool loop, const Element<In>& e) {
    if (const auto* t = std::get_if<Tuple<In>>(&e)) {
      on_tuple(port, *t);
      return;
    }
    // Loop channels deliver tuples and checkpoint markers only (P3 keeps
    // watermarks and end-of-stream out; the marker's round-trip bounds the
    // loop's in-flight state — Chandy-Lamport channel recording).
    if (loop) {
      if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
        on_loop_marker(m->id);
      }
      return;
    }
    this->on_control(port, e);
  }

  std::vector<std::unique_ptr<Port<In>>> ports_;
};

/// Two-input-type operator node (e.g. the dedicated Join). Port 0 carries
/// `L` elements, port 1 carries `R` elements; watermarks are min-combined
/// across both and barriers align across both.
template <typename L, typename R, typename Out>
class BinaryNode : public OperatorNode<Out> {
 public:
  // Tuple runs (never spanning a control element) go straight to
  // on_left/on_right, without re-wrapping each tuple in an Element.
  BinaryNode()
      : OperatorNode<Out>(2),
        left_([this](const Element<L>& e) { dispatch_left(e); },
              [this](const Tuple<L>* ts, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) on_left(ts[i]);
              }),
        right_([this](const Element<R>& e) { dispatch_right(e); },
               [this](const Tuple<R>* ts, std::size_t n) {
                 for (std::size_t i = 0; i < n; ++i) on_right(ts[i]);
               }) {}

  Consumer<L>& in_left() { return left_; }
  Consumer<R>& in_right() { return right_; }

 protected:
  virtual void on_left(const Tuple<L>& t) = 0;
  virtual void on_right(const Tuple<R>& t) = 0;

 private:
  void dispatch_left(const Element<L>& e) {
    if (const auto* t = std::get_if<Tuple<L>>(&e)) {
      on_left(*t);
      return;
    }
    this->on_control(0, e);
  }
  void dispatch_right(const Element<R>& e) {
    if (const auto* t = std::get_if<Tuple<R>>(&e)) {
      on_right(*t);
      return;
    }
    this->on_control(1, e);
  }

  Port<L> left_;
  Port<R> right_;
};

}  // namespace aggspes
