// Durable ingress: a replayable source whose script is write-ahead logged
// before anything leaves the node. The contract that makes exactly-once
// restart work (restore-latest-checkpoint + replay-WAL-suffix):
//
//   emitted ⊆ durable ⊆ scripted
//
// Every element is appended to the InputLog and *group-committed* (fsynced)
// before it is pushed downstream, so nothing any operator — or any
// checkpoint — has seen can be lost by a crash. "Ack upstream" is the
// group-commit flush: acked() counts elements whose append has been made
// durable, which is the point at which a real upstream (socket, broker)
// could discard its copy. Batching the fsync over `group_commit` elements
// is what keeps throughput within the 20% envelope of the plain source
// (see BM_SourceIngest_* in bench_swa).
//
// Restart protocol (pump):
//   * cursor C — script position the restored checkpoint committed
//     (elements [0, C) are inside the cut; seqnos [1, C] in the log).
//   * durable D — the log's fsynced frontier after reopen (torn tails
//     already truncated by the open-scan).
//   * Elements [C, D) are *replayed from the WAL bytes* — they were acked
//     before the crash and must reappear identically without consulting
//     the script (a real upstream would no longer have them).
//   * Elements [D, N) are *ingested*: encode → append → group-commit →
//     emit, exactly as a first run would.
//
// Checkpoint markers are injected at the ingress every `marker_every`
// elements, as in ReplaySource; the pending batch is flushed first so a
// committed cut is always durable, and the (id → seqno) pair is noted on
// the log for the supervisor's retention pass.
//
// Snapshot codec v3: [u8=3][cursor][next_marker][durable-at-commit].
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/recovery/input_log.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Element-level WAL codec: [u8 tag][payload]. Tags are disjoint from
/// nothing else — the WAL frame already delimits records.
namespace wal_codec {

inline constexpr std::uint8_t kTagTuple = 0;
inline constexpr std::uint8_t kTagWatermark = 1;
inline constexpr std::uint8_t kTagEnd = 2;

template <typename T>
  requires SnapshotSerializable<T>
SnapshotWriter::Bytes encode(const Element<T>& e) {
  SnapshotWriter w;
  if (is_tuple(e)) {
    w.write_pod(kTagTuple);
    write_value(w, std::get<Tuple<T>>(e));
  } else if (is_watermark(e)) {
    w.write_pod(kTagWatermark);
    w.write_i64(std::get<Watermark>(e).ts);
  } else if (is_end(e)) {
    w.write_pod(kTagEnd);
  } else {
    // Markers are never logged: they are injected at the ingress on
    // replay exactly as on first run, so logging them would double them.
    throw SnapshotError("wal_codec: markers are not loggable");
  }
  return w.take();
}

template <typename T>
  requires SnapshotSerializable<T>
Element<T> decode(const SnapshotWriter::Bytes& b) {
  SnapshotReader r(b);
  const auto tag = r.read_pod<std::uint8_t>();
  switch (tag) {
    case kTagTuple: return Element<T>{read_value<Tuple<T>>(r)};
    case kTagWatermark: return Element<T>{Watermark{r.read_i64()}};
    case kTagEnd: return Element<T>{EndOfStream{}};
    default:
      throw SnapshotError("wal_codec: unknown tag " + std::to_string(tag));
  }
}

}  // namespace wal_codec

template <typename T>
  requires SnapshotSerializable<T>
class DurableSource final : public NodeBase {
 public:
  /// The InputLog is externally owned and outlives the source: it *is* the
  /// durable state that survives a crash, while the source (like the whole
  /// flow) is rebuilt per restart attempt. `group_commit` elements are
  /// appended per fsync (1 = sync every element); the log itself should
  /// run with group_commit_records = 0 (manual) so the source controls the
  /// exact flush points its emission batches ride behind.
  DurableSource(std::vector<Element<T>> script, InputLog& log,
                std::size_t marker_every = 0, std::size_t group_commit = 16)
      : script_(std::move(script)),
        log_(log),
        marker_every_(marker_every),
        group_commit_(group_commit == 0 ? 1 : group_commit) {}

  /// C1-compliant convenience constructor (see timed_script).
  DurableSource(const std::vector<Tuple<T>>& tuples, Timestamp period,
                Timestamp flush_to, InputLog& log,
                std::size_t marker_every = 0, std::size_t group_commit = 16)
      : DurableSource(timed_script(tuples, period, flush_to), log,
                      marker_every, group_commit) {}

  Outlet<T>& out() { return out_; }

  std::size_t cursor() const { return cursor_; }
  std::size_t script_size() const { return script_.size(); }
  std::uint64_t markers_injected() const { return next_marker_ - 1; }
  /// Elements acked upstream so far: appended *and* covered by a
  /// group-commit fsync. Equals the log's durable frontier by the time
  /// pump returns.
  std::uint64_t acked() const { return acked_; }
  /// Elements re-emitted from WAL bytes (not the script) this run.
  std::uint64_t replayed() const { return replayed_; }

  /// ThreadedFlow::install_faults arms every node; the durable source
  /// additionally listens for kKillDuringAppend / kTornWrite in its
  /// append path. Chaining up keeps the barrier path's freeze-phase
  /// faults (kKillDuringCheckpoint) armed here too.
  void arm_faults(FaultInjector* injector, std::size_t node_index) override {
    NodeBase::arm_faults(injector, node_index);
    faults_ = injector;
    fault_node_ = node_index;
  }

  void pump() override {
    log_.ensure_open();
    const std::uint64_t durable = log_.durable_seqno();
    // Seqno k holds script element k-1, so the durable prefix covers
    // script indices [0, durable).
    const auto replay_end = static_cast<std::size_t>(durable);

    // Collect the acked-but-uncheckpointed suffix [cursor_, replay_end):
    // these elements must reappear from the log's bytes, byte-identically.
    std::vector<Element<T>> suffix;
    if (cursor_ < replay_end) {
      suffix.reserve(replay_end - cursor_);
      log_.replay(static_cast<std::uint64_t>(cursor_) + 1,
                  [&](std::uint64_t, const InputLog::Bytes& payload) {
                    suffix.push_back(wal_codec::decode<T>(payload));
                  });
    }

    std::vector<Element<T>> pending;  // appended, not yet synced/emitted
    const auto flush = [&] {
      if (pending.empty()) return;
      log_.sync();
      acked_ += pending.size();
      for (const Element<T>& e : pending) out_.push(e);
      pending.clear();
    };

    const std::size_t n = script_.size();
    for (std::size_t i = cursor_; i < n; ++i) {
      if (marker_every_ > 0 && i > 0 && i % marker_every_ == 0 &&
          i != cursor_) {
        // Commit the cut [0, i): everything inside must be durable and
        // emitted before the barrier leaves the source.
        flush();
        cursor_ = i;
        const std::uint64_t id = next_marker_++;
        log_.note_checkpoint(id, static_cast<std::uint64_t>(i));
        this->complete_barrier(id);
        out_.push(Element<T>{CheckpointMarker{id}});
      }
      if (i < replay_end) {
        // WAL replay: already durable (acked before the crash), emit as-is.
        out_.push(suffix[i - cursor_start_of(suffix, replay_end)]);
        ++replayed_;
        continue;
      }
      // Ingest: append-ack-emit. The fault hook models dying *inside* the
      // append, after the frame bytes entered the page cache but before
      // the group commit — exactly the window a real kill would hit.
      const InputLog::Bytes bytes = wal_codec::encode<T>(script_[i]);
      log_.append(bytes);
      if (faults_ != nullptr) {
        if (const FaultEvent* ev =
                faults_->on_append(fault_node_, ++appends_)) {
          if (ev->kind == FaultKind::kTornWrite) {
            log_.crash_tear_unsynced();
            throw CrashInjected("torn write at append " +
                                std::to_string(appends_));
          }
          log_.crash_drop_unsynced();
          throw CrashInjected("kill during append " +
                              std::to_string(appends_));
        }
      }
      pending.push_back(script_[i]);
      if (pending.size() >= group_commit_) flush();
    }
    flush();
    cursor_ = n;
  }

  /// Codec v3: version byte, committed cursor, next marker id, and the
  /// durable frontier at commit time (diagnostic — replay bounds come from
  /// the log itself on restart, which may have advanced past it).
  static constexpr std::uint8_t kCodecVersion = 3;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    w.write_size(cursor_);
    w.write_u64(next_marker_);
    w.write_u64(log_.durable_seqno());
  }

  void restore_from(SnapshotReader& r) override {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("DurableSource: unknown codec version " +
                          std::to_string(version));
    }
    cursor_ = r.read_size();
    next_marker_ = r.read_u64();
    durable_at_commit_ = r.read_u64();
  }

  /// Durable frontier recorded by the checkpoint this source was restored
  /// from (0 when it started fresh).
  std::uint64_t durable_at_commit() const { return durable_at_commit_; }

  void fail_downstream() override { out_.push_end(); }

 private:
  /// Index into `suffix` for script position i is i - (first replayed
  /// index); the first replayed index is replay_end - suffix.size() (==
  /// the cursor at collection time — but cursor_ moves as markers commit,
  /// so derive it from the sizes instead of caching).
  static std::size_t cursor_start_of(const std::vector<Element<T>>& suffix,
                                     std::size_t replay_end) {
    return replay_end - suffix.size();
  }

  std::vector<Element<T>> script_;
  InputLog& log_;
  std::size_t marker_every_;
  std::size_t group_commit_;
  std::size_t cursor_{0};
  std::uint64_t next_marker_{1};
  std::uint64_t acked_{0};
  std::uint64_t replayed_{0};
  std::uint64_t appends_{0};
  std::uint64_t durable_at_commit_{0};
  FaultInjector* faults_{nullptr};
  std::size_t fault_node_{0};
  Outlet<T> out_;
};

}  // namespace aggspes
