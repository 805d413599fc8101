// Union (§ 3, P1): merges several same-typed physical streams into one
// logical stream. Tuples pass through in arrival order; the forwarded
// watermark is the minimum of the inputs' latest watermarks; end-of-stream
// propagates once every input ended.
//
// Two merge edge cases matter for sharded deployments (DESIGN.md § 13),
// and both are handled here rather than in the generic UnaryNode base so
// no other operator's observable output changes:
//
//  * An input that delivered EndOfStream is EXCLUDED from the min-merge
//    (WatermarkCombiner::mark_ended pins it to +∞). Without this, a shard
//    that finishes — or crashes and is failed downstream — freezes the
//    union's combined watermark at that shard's last value forever, and
//    every window past it stalls on the healthy shards too.
//  * Equal watermarks arriving from several inputs are deduplicated: the
//    union forwards only STRICT increases of the combined minimum, so N
//    shards broadcasting the same periodic watermark produce one output
//    watermark per period, not N (the C1 cadence is preserved through the
//    merge).
//
// SPEs like Flink require an explicit union call for streams of different
// logical origin — this is that operator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"
#include "core/watermark.hpp"

namespace aggspes {

template <typename T>
class UnionOp final : public NodeBase {
 public:
  explicit UnionOp(int inputs)
      : combiner_(inputs), ended_(static_cast<std::size_t>(inputs), false) {
    ports_.reserve(static_cast<std::size_t>(inputs));
    for (int i = 0; i < inputs; ++i) {
      ports_.push_back(std::make_unique<Port<T>>(
          [this, i](const Element<T>& e) { receive(i, e); }));
    }
  }

  Consumer<T>& in(int port = 0) {
    return *ports_[static_cast<std::size_t>(port)];
  }
  Outlet<T>& out() { return out_; }
  int inputs() const { return combiner_.ports(); }

  /// Inputs that already delivered EndOfStream (diagnostics: a sharded
  /// flow reads this to tell "drained" from "stalled" shards).
  int ended_inputs() const { return ends_seen_; }

  Timestamp node_watermark() const override { return combiner_.current(); }

  void fail_downstream() override { out_.push_end(); }

  /// Checkpoint codec v1: [u8 version][combiner][ended flags][ends_seen].
  /// The ended flags travel with the watermark slots because a restored
  /// union must keep excluding finished inputs from the min-merge.
  static constexpr std::uint8_t kCodecVersion = 1;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    combiner_.save(w);
    w.write_size(ended_.size());
    for (bool e : ended_) w.write_bool(e);
    w.write_i64(ends_seen_);
  }

  void restore_from(SnapshotReader& r) override {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("UnionOp: unknown codec version " +
                          std::to_string(version));
    }
    combiner_.load(r);
    const std::size_t n = r.read_count();
    if (n != ended_.size()) {
      throw SnapshotError("UnionOp: input count mismatch in snapshot");
    }
    for (auto&& flag : ended_) flag = r.read_bool();
    ends_seen_ = static_cast<int>(r.read_i64());
  }

 private:
  void receive(int port, const Element<T>& e) {
    if (is_tuple(e)) {
      out_.push(e);
      return;
    }
    if (const auto* w = std::get_if<Watermark>(&e)) {
      // advance() returns true only on a strict combined increase, which
      // is exactly the dedupe: N copies of the same watermark forward once.
      if (!ended_[static_cast<std::size_t>(port)] &&
          combiner_.advance(port, w->ts)) {
        out_.push_watermark(combiner_.current());
      }
      return;
    }
    if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
      pending_marker_id_ = m->id;
      ++markers_seen_;
      maybe_align();
      return;
    }
    // EndOfStream. Tolerate duplicates (a repaired shard's replay may
    // deliver a second end on the same port) without double-counting.
    if (ended_[static_cast<std::size_t>(port)]) return;
    ended_[static_cast<std::size_t>(port)] = true;
    ++ends_seen_;
    // Release the min: whatever this port was holding back no longer
    // applies, so the survivors' minimum may now advance.
    if (combiner_.mark_ended(port)) {
      out_.push_watermark(combiner_.current());
    }
    // A port that ended can no longer contribute to a pending barrier.
    if (markers_seen_ > 0) maybe_align();
    if (ends_seen_ == inputs()) out_.push_end();
  }

  void maybe_align() {
    const int live = inputs() - ends_seen_;
    if (markers_seen_ >= live) {
      markers_seen_ = 0;
      this->complete_barrier(pending_marker_id_);
      out_.push(Element<T>{CheckpointMarker{pending_marker_id_}});
    }
  }

  WatermarkCombiner combiner_;
  std::vector<bool> ended_;
  std::vector<std::unique_ptr<Port<T>>> ports_;
  int ends_seen_{0};
  int markers_seen_{0};
  std::uint64_t pending_marker_id_{0};
  Outlet<T> out_;
};

}  // namespace aggspes
