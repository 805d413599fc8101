// Replayable ingress for the recovery subsystem.
//
// The source-rewind contract (DESIGN.md, "Failure model & recovery
// semantics"): a recoverable pipeline needs sources that can re-emit their
// stream from an arbitrary committed offset. ReplaySource keeps its whole
// script (tests and file replays already materialize it — see
// timed_script), tracks a cursor of elements emitted up to the last
// injected barrier, records that cursor as its checkpoint state, and on
// restore resumes emission from it.
//
// Barrier injection happens here, at the ingress (the coordinator role of
// aligned-checkpoint protocols): every `marker_every` script elements the
// source (1) commits its cursor, (2) completes its own barrier — snapshot
// of the cursor — and (3) pushes the CheckpointMarker downstream, where it
// fans out and aligns through the graph.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/source.hpp"
#include "core/types.hpp"

namespace aggspes {

template <typename T>
class ReplaySource final : public NodeBase {
 public:
  /// `marker_every` = 0 disables barrier injection (plain replayable
  /// source). Ids are 1-based and sequential per source, so multi-source
  /// graphs align marker k of one source with marker k of the others.
  explicit ReplaySource(std::vector<Element<T>> script,
                        std::size_t marker_every = 0)
      : script_(std::move(script)), marker_every_(marker_every) {}

  /// C1-compliant convenience constructor (see timed_script).
  ReplaySource(const std::vector<Tuple<T>>& tuples, Timestamp period,
               Timestamp flush_to, std::size_t marker_every = 0)
      : ReplaySource(timed_script(tuples, period, flush_to), marker_every) {}

  Outlet<T>& out() { return out_; }

  std::size_t cursor() const { return cursor_; }
  std::size_t script_size() const { return script_.size(); }
  std::uint64_t markers_injected() const { return next_marker_ - 1; }

  void pump() override {
    for (std::size_t i = cursor_; i < script_.size(); ++i) {
      if (marker_every_ > 0 && i > 0 && i % marker_every_ == 0 &&
          i != cursor_) {
        // Commit the cut [0, i) before anything past it leaves the source.
        cursor_ = i;
        const std::uint64_t id = next_marker_++;
        this->complete_barrier(id);
        out_.push(Element<T>{CheckpointMarker{id}});
      }
      out_.push(script_[i]);
    }
    cursor_ = script_.size();
  }

  /// Checkpoint codec v2: [u8 version][cursor][next_marker] — the
  /// committed cursor plus the next marker id (so a restored source
  /// continues the id sequence instead of reusing ids). DurableSource's
  /// v3 extends it with the durable frontier.
  static constexpr std::uint8_t kCodecVersion = 2;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    w.write_size(cursor_);
    w.write_u64(next_marker_);
  }

  void restore_from(SnapshotReader& r) override {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("ReplaySource: unknown codec version " +
                          std::to_string(version));
    }
    cursor_ = r.read_size();
    next_marker_ = r.read_u64();
  }

  void fail_downstream() override { out_.push_end(); }

 private:
  std::vector<Element<T>> script_;
  std::size_t marker_every_;
  std::size_t cursor_{0};
  std::uint64_t next_marker_{1};
  Outlet<T> out_;
};

}  // namespace aggspes
