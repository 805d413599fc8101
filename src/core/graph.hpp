// Dataflow graph plumbing: typed consumers, outlets, channels and the node
// base class. The runtimes that drive a graph, Flow (deterministic, on the
// caller's thread) and ThreadedFlow, are in core/runtime/threaded_runtime.hpp.
// Both poll a group's nodes in add() order and each node's inputs in
// connect() order, up to one block per edge per pass (Flow: edges connected
// without their nodes last). An output depends on that order only where
// the interleaving of inputs decides lateness or which watermark is the
// minimum; two tests pin it on purpose (DESIGN.md § 16, "One scheduler").
//
// Model properties from the paper (§ 3) are enforced here:
//   P1 — physical streams with the same type can feed the same operator:
//        any number of Outlet<T>s may connect to ports of one node.
//   P2 — a stream can feed several operators, delivering the same
//        tuples/watermarks in the same order: Outlet fan-out pushes every
//        element to all subscribed channels in subscription order.
//   P3 — loops: a channel marked `loop` carries tuples only; watermarks
//        (and end-of-stream markers) forwarded by an operator are never fed
//        back to it through the loop.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/recovery/fault_injection.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Receiving side of a stream of `Element<T>`.
template <typename T>
class Consumer {
 public:
  virtual ~Consumer() = default;
  virtual void receive(const Element<T>& e) = 0;

  /// Batched delivery of a contiguous run of tuples (never control
  /// elements — watermarks/EOS/markers always arrive via receive(), so a
  /// run never spans a marker). The default preserves per-element
  /// semantics exactly; block-aware consumers override.
  virtual void receive_block(const Tuple<T>* ts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) receive(Element<T>{ts[i]});
  }

  /// receive_block for a run the caller gives up: the consumer may move
  /// the tuples out. The default reads the run in place through
  /// receive_block, so a consumer that only overrides that one (a
  /// wrapping shim, say) still sees every run.
  virtual void take_block(Tuple<T>* ts, std::size_t n) {
    receive_block(ts, n);
  }
};

/// A consumer that forwards to a bound handler; nodes instantiate one per
/// input port so multi-port (and multi-type) operators need no inheritance
/// tricks. A port may additionally bind a block handler; without one,
/// receive_block falls back to per-element delivery through `handler_`.
/// A port may also bind a handler for the runs take_block gives up;
/// without one, take_block reads them through receive_block.
template <typename T>
class Port final : public Consumer<T> {
 public:
  using Handler = std::function<void(const Element<T>&)>;
  using BlockHandler = std::function<void(const Tuple<T>*, std::size_t)>;
  using TakeHandler = std::function<void(Tuple<T>*, std::size_t)>;
  explicit Port(Handler h) : handler_(std::move(h)) {}
  Port(Handler h, BlockHandler b, TakeHandler take = {})
      : handler_(std::move(h)),
        block_handler_(std::move(b)),
        take_handler_(std::move(take)) {}
  void receive(const Element<T>& e) override { handler_(e); }

  void receive_block(const Tuple<T>* ts, std::size_t n) override {
    if (block_handler_) {
      block_handler_(ts, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) handler_(Element<T>{ts[i]});
    }
  }

  void take_block(Tuple<T>* ts, std::size_t n) override {
    if (take_handler_) {
      take_handler_(ts, n);
    } else {
      receive_block(ts, n);
    }
  }

 private:
  Handler handler_;
  BlockHandler block_handler_;
  TakeHandler take_handler_;
};

/// Transport edge between an outlet and a consumer; the runtimes' one
/// implementation (threaded_runtime.hpp) queues what is pushed until the
/// consumer's group polls it. push takes the element over; a caller that
/// keeps its element passes a copy. push_block enqueues a tuple run.
template <typename T>
class Channel {
 public:
  virtual ~Channel() = default;
  virtual void push(Element<T>&& e) = 0;
  virtual void push_block(const Tuple<T>* ts, std::size_t n) = 0;
  virtual bool loop() const = 0;
};

/// Producing side of a stream: fans out to all subscribed channels (P2),
/// withholding watermarks and end-of-stream from loop channels (P3).
/// CheckpointMarkers DO traverse loop channels: the loop head uses the
/// returning marker as the Chandy-Lamport divider between in-flight
/// feedback tuples that belong to the checkpoint's channel state and
/// post-cut traffic (see C2Guard::on_loop_marker).
template <typename T>
class Outlet {
 public:
  void subscribe(Channel<T>* c) { channels_.push_back(c); }

  /// Takes the element over: every eligible channel but the last gets a
  /// copy, the last gets `e` itself — so a single subscriber costs no
  /// copy at all.
  void push(Element<T>&& e) {
    const bool through_loop = is_tuple(e) || is_marker(e);
    Channel<T>* last = nullptr;
    for (Channel<T>* c : channels_) {
      if (!through_loop && c->loop()) continue;
      if (last != nullptr) last->push(Element<T>(e));
      last = c;
    }
    if (last != nullptr) last->push(std::move(e));
  }

  /// Copying fan-out: one copy of `e`, then as above.
  void push(const Element<T>& e) { push(Element<T>(e)); }

  /// Bulk fan-out of a tuple run. Tuples traverse loop edges (P3 only
  /// withholds watermarks/EOS), so every channel sees the block.
  void push_block(const Tuple<T>* ts, std::size_t n) {
    if (n == 0) return;
    for (Channel<T>* c : channels_) c->push_block(ts, n);
  }

  void push_tuple(Tuple<T> t) { push(Element<T>{std::move(t)}); }
  void push_watermark(Timestamp ts) { push(Element<T>{Watermark{ts}}); }
  void push_end() { push(Element<T>{EndOfStream{}}); }

 private:
  std::vector<Channel<T>*> channels_;
};

/// Base class for graph nodes; exists so a Flow can own heterogeneous
/// nodes. Besides pump(), it carries the recovery hooks every node shares:
/// state (de)serialization, barrier completion accounting, and the
/// diagnostics the runtime's watchdog reads.
class NodeBase {
 public:
  virtual ~NodeBase() = default;
  /// Sources override this; the scheduler calls it once at startup.
  virtual void pump() {}

  /// Serializes this node's recoverable state. Stateless nodes write
  /// nothing; stateful operators override.
  virtual void snapshot_to(SnapshotWriter&) const {}
  /// Restores state produced by snapshot_to. Called before run().
  virtual void restore_from(SnapshotReader&) {}

  /// Restores from one checkpoint record, which restore_from must read to
  /// the last byte: a record with bytes left over is not a layout this
  /// node writes.
  void restore_record(const SnapshotWriter::Bytes& bytes) {
    SnapshotReader r(bytes);
    restore_from(r);
    if (!r.exhausted()) {
      throw SnapshotError("record has " + std::to_string(r.remaining()) +
                          " unread bytes");
    }
  }

  /// Current combined watermark, for watchdog diagnostics (kMinTimestamp
  /// for nodes without watermark bookkeeping).
  virtual Timestamp node_watermark() const { return kMinTimestamp; }

  /// Best-effort EndOfStream to downstream peers, used by the runtime when
  /// this node fails or aborts so the rest of the graph can drain.
  virtual void fail_downstream() {}

  /// Node-side fault arming: the runtime's install_faults hands every node
  /// the injector and its add()-order index. Channels cover the delivery
  /// path; the base keeps the injector so barrier completion can consult
  /// the checkpoint kill matrix (freeze phase). Nodes with their own fault
  /// surface (DurableSource's WAL append path) override and chain up.
  virtual void arm_faults(FaultInjector* injector,
                          std::size_t /*node_index*/) {
    faults_ = injector;
  }

  /// Binds this node to a checkpoint recorder under a stable index
  /// (the runtime's add() order, reproducible across rebuilds).
  void bind_recovery(CheckpointRecorder* recorder, std::size_t index) {
    recorder_ = recorder;
    node_index_ = index;
  }

  /// Attaches (or with nullptr detaches) the asynchronous snapshot
  /// executor; barrier completion then routes serialization and the
  /// store's durable commit off this node's thread.
  void bind_async(SnapshotExecutor* executor) { executor_ = executor; }

  /// Barriers completed by this node so far. Channels that delivered a
  /// marker hold further deliveries until this advances past the marker
  /// (alignment: no post-barrier element reaches the node before it
  /// snapshots).
  std::uint64_t completed_barriers() const {
    return barriers_done_.load(std::memory_order_acquire);
  }

 protected:
  bool async_enabled() const { return executor_ != nullptr; }

  /// Nodes with MVCC-versioned state override this to freeze an epoch at
  /// barrier time and return the deferred serialize/GC work; the default
  /// (nullopt) makes complete_barrier fall back to synchronous
  /// snapshot_to. A node may return nullopt even with an executor bound —
  /// its *bytes* are then still committed off-thread, only produced
  /// inline (freeze unsupported ≠ commit stall).
  virtual std::optional<FrozenJob> freeze_snapshot(std::uint64_t /*id*/) {
    return std::nullopt;
  }

  /// Records this node's state for checkpoint `id` (if a recorder is
  /// bound) and releases channels held for alignment.
  void complete_barrier(std::uint64_t id) { finish_barrier(id, std::nullopt); }

  /// complete_barrier variant for nodes whose checkpoint state is not
  /// "current state at completion time" — e.g. the loop head, which stages
  /// its state when the marker arrives and appends the loop channel's
  /// in-flight tuples before completing.
  void complete_barrier_with(std::uint64_t id, SnapshotWriter::Bytes bytes) {
    finish_barrier(id, std::move(bytes));
  }

 private:
  /// The single barrier-completion path. Order matters: the freeze-phase
  /// fault fires before any state is captured (a kill here leaves
  /// checkpoint `id` forever incomplete at this node — the cut can never
  /// commit, so restore falls back to the previous one); the barrier
  /// counter advances only after the job is handed off, so alignment
  /// holds until the freeze (or sync serialize) is done.
  void finish_barrier(std::uint64_t id,
                      std::optional<SnapshotWriter::Bytes> staged) {
    if (faults_ != nullptr &&
        faults_->on_checkpoint(id, CheckpointPhase::kFreeze) != nullptr) {
      throw CrashInjected("kill at epoch freeze of checkpoint " +
                          std::to_string(id));
    }
    std::optional<FrozenJob> job;
    if (staged.has_value()) {
      if (recorder_ != nullptr) {
        FrozenJob j;
        j.serialize = [b = std::move(*staged)]() mutable {
          return std::move(b);
        };
        job = std::move(j);
      }
    } else {
      // Freeze even without a recorder: StateQuery hubs are fed from the
      // frozen epoch regardless of whether checkpoints are recorded.
      job = freeze_snapshot(id);
      if (!job.has_value() && recorder_ != nullptr) {
        SnapshotWriter w;
        snapshot_to(w);
        FrozenJob j;
        j.serialize = [b = w.take()]() mutable { return std::move(b); };
        job = std::move(j);
      }
    }
    if (job.has_value()) {
      if (recorder_ != nullptr && executor_ != nullptr) {
        executor_->submit(recorder_, node_index_, id, std::move(*job));
      } else {
        if (recorder_ != nullptr) {
          recorder_->record(node_index_, id, job->serialize());
        }
        if (job->post) job->post();
      }
    }
    barriers_done_.fetch_add(1, std::memory_order_acq_rel);
  }

  FaultInjector* faults_{nullptr};
  CheckpointRecorder* recorder_{nullptr};
  SnapshotExecutor* executor_{nullptr};
  std::size_t node_index_{0};
  std::atomic<std::uint64_t> barriers_done_{0};
};

/// Whether an edge is a normal stream or a feedback loop (P3). On
/// ThreadedFlow a normal edge hands each drained tuple run over to the
/// consumer (Consumer::take_block); a lent edge only lends it
/// (receive_block), so whatever the consumer keeps it copies, allocated on
/// its own thread. Flow delivers per element either way.
enum class EdgeKind { kNormal, kLoop, kLent };

}  // namespace aggspes
