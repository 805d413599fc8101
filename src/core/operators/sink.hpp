// Egresses for the deterministic runtime: collect outputs for assertions
// and audit the stream's watermark contract.
#pragma once

#include <concepts>
#include <set>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Collects every tuple and watermark it receives and audits that
///  (a) watermarks are strictly increasing, and
///  (b) no tuple arrives with τ smaller than the last watermark
///      (i.e. the producing operator created no late arrivals — the C3
///      guarantee when it guards an X composition's output).
template <typename T>
class CollectorSink final : public NodeBase {
 public:
  CollectorSink()
      : port_([this](const Element<T>& e) { receive(e); }) {}

  Consumer<T>& in() { return port_; }

  const std::vector<Tuple<T>>& tuples() const { return tuples_; }
  const std::vector<Timestamp>& watermarks() const { return watermarks_; }
  bool ended() const { return ended_; }

  /// Number of tuples that arrived late w.r.t. the preceding watermark.
  int late_tuples() const { return late_tuples_; }
  /// Number of non-increasing watermark pairs observed.
  int watermark_regressions() const { return wm_regressions_; }

  /// Output payload×timestamp multiset, for order-insensitive equivalence
  /// checks between operator implementations.
  std::multiset<std::pair<Timestamp, T>> multiset() const
    requires std::totally_ordered<T>
  {
    std::multiset<std::pair<Timestamp, T>> m;
    for (const auto& t : tuples_) m.emplace(t.ts, t.value);
    return m;
  }

  /// Sinks are part of the consistent cut: restoring their collected
  /// output alongside the operators' state is what makes recovery
  /// output-equivalent to a fault-free run (the replayed suffix regrows
  /// exactly the post-checkpoint outputs, § exactly-once for in-memory
  /// egresses).
  void snapshot_to(SnapshotWriter& w) const override {
    if constexpr (SnapshotSerializable<T>) {
      w.write_bool(true);
      write_value(w, tuples_);
      w.write_size(watermarks_.size());
      for (Timestamp t : watermarks_) w.write_i64(t);
      w.write_i64(last_wm_);
      w.write_bool(ended_);
      w.write_i64(late_tuples_);
      w.write_i64(wm_regressions_);
    } else {
      w.write_bool(false);
    }
  }

  void restore_from(SnapshotReader& r) override {
    const bool has_state = r.read_bool();
    if constexpr (SnapshotSerializable<T>) {
      if (!has_state) return;
      tuples_ = read_value<std::vector<Tuple<T>>>(r);
      watermarks_.clear();
      const std::size_t n = r.read_count();
      for (std::size_t i = 0; i < n; ++i) watermarks_.push_back(r.read_i64());
      last_wm_ = r.read_i64();
      ended_ = r.read_bool();
      late_tuples_ = static_cast<int>(r.read_i64());
      wm_regressions_ = static_cast<int>(r.read_i64());
    } else if (has_state) {
      throw SnapshotError("CollectorSink payload lacks a StateCodec");
    }
  }

 private:
  void receive(const Element<T>& e) {
    if (const auto* t = std::get_if<Tuple<T>>(&e)) {
      if (t->ts < last_wm_) ++late_tuples_;
      tuples_.push_back(*t);
    } else if (const auto* w = std::get_if<Watermark>(&e)) {
      if (w->ts <= last_wm_ && !watermarks_.empty()) ++wm_regressions_;
      last_wm_ = w->ts;
      watermarks_.push_back(w->ts);
    } else if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
      this->complete_barrier(m->id);
    } else {
      ended_ = true;
    }
  }

  Port<T> port_;
  std::vector<Tuple<T>> tuples_;
  std::vector<Timestamp> watermarks_;
  Timestamp last_wm_{kMinTimestamp};
  bool ended_{false};
  int late_tuples_{0};
  int wm_regressions_{0};
};

}  // namespace aggspes
