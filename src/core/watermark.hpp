// Watermark bookkeeping (§ 2.3 of the paper).
//
// An operator fed by several input streams stores the latest watermark seen
// on each and takes the minimum as its own watermark W_O. Loop inputs (P3)
// are excluded: a watermark forwarded by A is never fed back to A.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Tracks the combined watermark of a multi-input operator.
class WatermarkCombiner {
 public:
  /// `ports`: number of watermark-carrying inputs. Zero-port combiners (all
  /// inputs are loops) never advance.
  explicit WatermarkCombiner(int ports = 1)
      : latest_(static_cast<std::size_t>(ports), kMinTimestamp) {}

  int ports() const { return static_cast<int>(latest_.size()); }

  /// Records watermark `ts` on `port`. Returns true if the *combined*
  /// watermark strictly increased (the caller should then trigger windows
  /// and forward the new value).
  bool advance(int port, Timestamp ts) {
    auto& slot = latest_[static_cast<std::size_t>(port)];
    // Watermarks are monotonic per stream; ignore stale ones defensively.
    if (ts <= slot) return false;
    slot = ts;
    Timestamp combined = *std::min_element(latest_.begin(), latest_.end());
    if (combined > current()) {
      combined_.store(combined, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Excludes `port` from the min-merge because its stream ended: a
  /// finished input can never again hold the combined watermark back, so
  /// its slot is pinned to kMaxTimestamp (an ended stream has, by
  /// definition, watermark +∞). Returns true if the combined watermark
  /// strictly increased as a result — the caller should then fire windows
  /// and forward the released value. The combined watermark itself never
  /// takes on kMaxTimestamp: once EVERY port has ended it stays at the
  /// last real minimum (end-of-stream, not a sentinel watermark, is the
  /// final progress signal downstream).
  bool mark_ended(int port) {
    latest_[static_cast<std::size_t>(port)] = kMaxTimestamp;
    Timestamp combined = *std::min_element(latest_.begin(), latest_.end());
    if (combined != kMaxTimestamp && combined > current()) {
      combined_.store(combined, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The operator's current watermark W_O^ω. (Atomically readable so the
  /// runtime watchdog can report watermark positions from its own thread.)
  Timestamp current() const {
    return combined_.load(std::memory_order_relaxed);
  }

  /// Latest watermark seen on one port.
  Timestamp port_watermark(int port) const {
    return latest_[static_cast<std::size_t>(port)];
  }

  /// Checkpoint support: per-port positions plus the combined value.
  void save(SnapshotWriter& w) const {
    w.write_size(latest_.size());
    for (Timestamp t : latest_) w.write_i64(t);
    w.write_i64(current());
  }

  void load(SnapshotReader& r) {
    const std::size_t n = r.read_count();
    if (n != latest_.size()) {
      throw SnapshotError("watermark combiner port count mismatch");
    }
    for (auto& slot : latest_) slot = r.read_i64();
    combined_.store(r.read_i64(), std::memory_order_relaxed);
  }

 private:
  std::vector<Timestamp> latest_;
  std::atomic<Timestamp> combined_{kMinTimestamp};
};

}  // namespace aggspes
