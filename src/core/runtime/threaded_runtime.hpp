// The two runtimes. Both drive a graph's nodes in node groups, through one
// poll pass (Runner::pass) over one channel type:
//
//  * ThreadedFlow, the benchmarks' runtime, runs each node group on its own
//    thread; a node no composition groups is a group of one. Edges between
//    threads are SPSC channels: bounded ones give backpressure, loop ones
//    are unbounded (and mutex-guarded) so feedback can never deadlock the
//    pipeline — our equivalent of the paper's workaround for FLINK-2497.
//    Edges inside a group are unbounded queues its thread writes and
//    drains without a lock. Tuple runs are delivered in blocks.
//  * Flow, the deterministic oracle, is one group holding every node,
//    driven on the caller's thread. Every edge is unbounded and delivers
//    per element, the run ThreadedFlow's block path is checked against.
//
// Poll order: a pass visits a group's members in add() order (a declared
// group's in group() order) and each member's inputs in connect() order,
// up to one block per edge; Flow then polls its edges connected without
// node references, in connect() order. A group pumps each member (sources
// generate here), then makes passes. A member with outputs is done once it
// pushed EndOfStream, a sink once every input delivered one; a ThreadedFlow
// thread exits when all its members are done, Flow when a pass delivers
// nothing.
//
// Robustness layer (recovery subsystem):
//  * A node whose handler throws is recorded as failed under its own
//    index; every live member of its group pushes a best-effort
//    EndOfStream so the healthy rest drains, and run() throws a FlowError
//    naming the node.
//  * Aligned checkpoints: after delivering a CheckpointMarker a channel
//    holds until its consumer completes the barrier, so no post-barrier
//    element is processed before the node's state is snapshotted.
//  * Channels are the fault-injection surface: an installed FaultInjector
//    crashes, stalls, delays, drops or duplicates a chosen delivery of a
//    chosen edge, deterministically per seed (fault_injection.hpp).
//  * A graph that stops short of its end fails with a queue-depth and
//    watermark diagnostic: ThreadedFlow's watchdog aborts it, and
//    Flow::run throws when it goes quiet with an edge held.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__GNUG__)
#include <cxxabi.h>

#include <cstdlib>
#endif

#include "core/graph.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/spsc_queue.hpp"

namespace aggspes {

/// A node failure, a wedged graph or a watchdog abort, surfaced by run().
class FlowError : public std::runtime_error {
 public:
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  FlowError(std::size_t node_index, std::string node_name,
            const std::string& what)
      : std::runtime_error("node " + std::to_string(node_index) + " (" +
                           node_name + ") failed: " + what),
        node_index_(node_index),
        node_name_(std::move(node_name)) {}

  /// Watchdog / whole-flow variant (no single node to blame).
  explicit FlowError(const std::string& what)
      : std::runtime_error(what), node_index_(kNoNode), node_name_("flow") {}

  std::size_t node_index() const { return node_index_; }
  const std::string& node_name() const { return node_name_; }

 private:
  std::size_t node_index_;
  std::string node_name_;
};

namespace detail {

/// Internal unwind signal for teardown after a watchdog abort; not derived
/// from std::exception so failure handlers cannot mistake it for a node
/// error.
struct FlowAborted {};

inline std::string demangle(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (d != nullptr) {
    std::string s = status == 0 ? d : name;
    std::free(d);
    return s;
  }
#endif
  return name;
}

/// What both runtimes share: the nodes (add() order) and the node groups
/// that drive them, the edges (connect() order), checkpoints and faults.
class GroupRuntime {
 public:
  /// Constructs a node in the flow and returns a reference to it.
  template <typename Node, typename... Args>
  Node& add(Args&&... args) {
    auto node = std::make_unique<Node>(std::forward<Args>(args)...);
    Node& ref = *node;
    members_.push_back(std::make_unique<Member>(
        std::move(node), members_.size(), demangle(typeid(Node).name())));
    Member* m = members_.back().get();
    if (one_group_ == nullptr) runners_.push_back(std::make_unique<Runner>());
    (one_group_ != nullptr ? one_group_ : runners_.back().get())->join(m);
    index_[&ref] = m;
    return ref;
  }

  /// Nodes/edges added so far, in add()/connect() order: stable indices,
  /// so builders (ShardedFlow) can record which ranges belong to which
  /// shard on either runtime.
  std::size_t node_count() const { return members_.size(); }
  std::size_t edge_count() const { return channels_.size(); }

  /// Binds every node to `store` under its add()-order index (stable
  /// across rebuilds of the same builder), and tells the store how many
  /// records make a checkpoint complete.
  void enable_checkpoints(CheckpointStore& store) {
    require_node_edges("enable_checkpoints");
    store.set_expected_nodes(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->node->bind_recovery(&store, i);
    }
  }

  /// Restores every node from the latest *complete* checkpoint in `store`.
  /// Must be called before run(). Returns the restored checkpoint id, or
  /// nullopt when the store has no complete checkpoint (the flow then
  /// starts from scratch — sources replay everything). A record its node
  /// cannot read exactly raises SnapshotError (NodeBase::restore_record).
  std::optional<std::uint64_t> restore_latest(const CheckpointStore& store) {
    const std::optional<std::uint64_t> id = store.latest_complete();
    if (!id) return std::nullopt;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (std::optional<CheckpointStore::Bytes> bytes = store.find(i, *id)) {
        members_[i]->node->restore_record(*bytes);
      }
    }
    return id;
  }

  /// Arms every channel with the injector's schedule. The injector is
  /// materialized against this flow's edge list (connect order — stable
  /// across rebuilds) on first call.
  void install_faults(FaultInjector& injector) {
    require_node_edges("install_faults");
    std::vector<EdgeInfo> edges;
    edges.reserve(channels_.size());
    for (const auto& ch : channels_) edges.push_back({ch->is_loop});
    injector.materialize(edges);
    for (auto& ch : channels_) ch->set_faults(&injector);
    // Node-side faults (durable-source append kinds) ride the same
    // injector; nodes without a fault surface inherit the no-op default.
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->node->arm_faults(&injector, i);
    }
  }

 protected:
  struct Runner;

  /// `one_group` is Flow's: every node joins it, every edge delivers per
  /// element. Null (ThreadedFlow): a group per node, tuple runs in blocks.
  explicit GroupRuntime(Runner* one_group = nullptr) : one_group_(one_group) {}

  struct Member;

  /// An edge as the runner, watchdog and diagnostics see it, untyped. An
  /// edge Flow connected without node references has no member ends.
  class ChannelBase {
   public:
    ChannelBase(std::size_t edge_id, bool loop, Member* from, Member* to)
        : id(edge_id), is_loop(loop), producer(from), consumer(to) {}
    virtual ~ChannelBase() = default;
    /// Delivers up to one block; returns whether it delivered anything.
    virtual bool deliver_one() = 0;
    virtual void set_faults(FaultInjector* injector) = 0;
    // Watchdog / overload-monitor gauges (cross-thread reads).
    virtual std::size_t depth() = 0;
    virtual std::size_t capacity() const = 0;

    bool delivered_end() const { return ended_.load(); }
    std::uint64_t stall_ns() const { return stall_ns_.load(); }
    std::size_t high_water() const { return high_water_.load(); }
    std::uint64_t delivered_count() const { return delivered_.load(); }
    bool held() const { return held_.load(); }

    const std::size_t id;  ///< connect() order
    const bool is_loop;
    Member* const producer;
    Member* const consumer;

   protected:
    std::atomic<bool> ended_{false};
    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> stall_ns_{0};
    std::atomic<std::size_t> high_water_{0};
    std::atomic<bool> held_{false};
  };

  /// One node and what the runtime tracks for it. End and exit are per
  /// node, not per thread: a group runs until every member is done.
  struct Member {
    Member(std::unique_ptr<NodeBase> n, std::size_t idx, std::string nm)
        : node(std::move(n)), index(idx), name(std::move(nm)) {}

    std::unique_ptr<NodeBase> node;
    std::size_t index;
    std::string name;
    Runner* runner{nullptr};  ///< the group that drives this node
    std::vector<ChannelBase*> inputs;
    bool has_outputs{false};
    std::atomic<bool> emitted_end{false};
    std::atomic<bool> exited{false};
  };

  /// One node group (a single node is a group of one) and the poll pass
  /// both runtimes deliver through.
  struct Runner {
    void join(Member* m) {
      m->runner = this;
      members.push_back(m);
      ++live;
    }

    /// Pumps every member: sources generate here.
    void pump() {
      for (Member* m : members) {
        at = m;
        m->node->pump();
      }
    }

    /// One poll pass: each member not yet done, in order, each of its inputs
    /// in connect() order, up to one block per edge; then the unattached
    /// edges. A member found done exits. Returns whether any delivered.
    bool pass() {
      bool any = false;
      for (Member* m : members) {
        if (m->exited.load(std::memory_order_relaxed)) continue;
        at = m;
        bool got = false;
        bool all_ended = !m->inputs.empty();
        for (ChannelBase* ch : m->inputs) {
          got |= ch->deliver_one();
          all_ended &= ch->delivered_end();
        }
        any |= got;
        // A node with outputs is done once it pushed End; source-only
        // nodes (no inputs) that never emit End would spin forever, so
        // pump() completion without End counts too. A sink is done once
        // every input delivered End.
        const bool done =
            m->has_outputs ? m->emitted_end.load(std::memory_order_acquire) ||
                                 (m->inputs.empty() && !got)
                           : all_ended;
        if (done) {
          m->exited.store(true, std::memory_order_release);
          --live;
        }
      }
      for (ChannelBase* ch : unattached) {
        at = nullptr;
        at_edge = ch->id;
        any |= ch->deliver_one();
      }
      return any;
    }

    /// Runs `step`; false if it threw. A node's exception is recorded
    /// (fail()); a watchdog abort unwinds quietly.
    template <typename Step>
    bool guard(GroupRuntime* rt, Step step) {
      try {
        step();
        return true;
      } catch (const FlowAborted&) {
      } catch (const std::exception& ex) {
        fail(rt, ex.what());
      } catch (...) {
        fail(rt, "unknown exception");
      }
      return false;
    }

    /// A ThreadedFlow thread: pump, then pass until every member is done.
    void run(GroupRuntime* rt) {
      guard(rt, [&] {
        pump();
        while (live > 0) {
          if (rt->abort_.load(std::memory_order_relaxed)) {
            throw FlowAborted{};
          }
          if (!pass()) std::this_thread::yield();
        }
      });
      for (Member* m : members) {
        m->exited.store(true, std::memory_order_release);
      }
    }

    /// Records the failure under the node whose code was running (or the
    /// edge without node references that was delivering), then lets every
    /// member still running end its outputs.
    void fail(GroupRuntime* rt, const std::string& what) {
      rt->record_failure(
          at ? FlowError(at->index, at->name, what)
             : FlowError("edge " + std::to_string(at_edge) + ": " + what));
      for (Member* m : members) {
        if (m->exited.load(std::memory_order_relaxed)) continue;
        try {
          m->node->fail_downstream();
        } catch (...) {
        }
      }
    }

    std::vector<Member*> members;  ///< polled in this order
    std::vector<ChannelBase*> unattached;  ///< Flow's edges without nodes
    std::size_t live{0};        ///< members not yet exited
    Member* at{nullptr};        ///< the member whose code is running
    std::size_t at_edge{0};     ///< ...or the unattached edge delivering
  };

  template <typename T>
  class ThreadedChannel final : public Channel<T>, public ChannelBase {
   public:
    ThreadedChannel(GroupRuntime* flow, Consumer<T>& target, EdgeKind kind,
                    std::size_t capacity, Member* producer, Member* consumer,
                    std::size_t edge_id)
        : ChannelBase(edge_id, kind == EdgeKind::kLoop, producer, consumer),
          flow_(flow),
          target_(target),
          lent_(kind == EdgeKind::kLent),
          local_(producer == nullptr || producer->runner == consumer->runner),
          per_element_(flow->one_group_ != nullptr),
          queue_(unbounded() ? 0 : capacity) {}  // unused when unbounded

    /// Takes `e` over. A failed try_push leaves it untouched, so a
    /// producer blocked on a full queue retries with the same element
    /// instead of copying it per attempt.
    void push(Element<T>&& e) override {
      if (is_end(e) && producer != nullptr) {
        producer->emitted_end.store(true, std::memory_order_release);
      }
      if (unbounded()) {
        push_unbounded([&] { deque_.push_back(std::move(e)); });
      } else {
        push_bounded([&] { return queue_.try_push(std::move(e)); });
      }
    }

    /// Bulk push of a tuple run (block-aware operators emit through
    /// Outlet::push_block). One push_n call publishes the whole run with a
    /// single head-store; on a full queue it makes partial progress and
    /// spins for the rest, charging the wait to stall_ns_ like push().
    /// Blocks never carry EndOfStream, so no emitted_end bookkeeping.
    void push_block(const Tuple<T>* ts, std::size_t n) override {
      if (n == 0) return;
      if (unbounded()) {
        push_unbounded([&] {
          for (std::size_t i = 0; i < n; ++i) {
            deque_.push_back(Element<T>{ts[i]});
          }
        });
        return;
      }
      out_scratch_.clear();
      out_scratch_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out_scratch_.push_back(Element<T>{ts[i]});
      }
      std::size_t done = 0;
      push_bounded([&] {
        done += queue_.push_n(out_scratch_.data() + done, n - done);
        return done == n;
      });
    }

    bool loop() const override { return is_loop; }

    void set_faults(FaultInjector* injector) override { faults_ = injector; }

    bool deliver_one() override {
      if (held_.load(std::memory_order_relaxed)) {
        // Barrier alignment: paused until the consumer completes the
        // barrier this channel delivered (a loop head completes only once
        // the marker returns around the feedback edge, which keeps
        // delivering through a *different* channel of this node).
        if (consumer->node->completed_barriers() < resume_when_) {
          return false;
        }
        held_.store(false, std::memory_order_relaxed);
      }
      // Refill the consumer-side scratch with up to one block: a bounded
      // edge with a single tail-store, which is where the hot path's
      // atomics amortize; an unbounded one under one lock (none inside a
      // group).
      if (pend_at_ >= pending_.size()) {
        pend_at_ = 0;
        pending_.clear();
        if (unbounded()) {
          std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
          if (!local_) lk.lock();
          const std::size_t got =
              std::min(deque_.size(), kElementBlockCapacity);
          if (got == 0) return false;
          const auto end = deque_.begin() + static_cast<std::ptrdiff_t>(got);
          std::move(deque_.begin(), end, std::back_inserter(pending_));
          deque_.erase(deque_.begin(), end);
          unbounded_depth_.store(deque_.size(), std::memory_order_relaxed);
        } else {
          pending_.resize(kElementBlockCapacity);
          const std::size_t got =
              queue_.pop_n(pending_.data(), kElementBlockCapacity);
          pending_.resize(got);
          if (got == 0) return false;
        }
      }
      // Deliver the scratch: contiguous tuple runs go through the block
      // path unless this is a Flow edge (per element by runtime type), a
      // fault-armed channel (fault injection is strictly per-delivery) or
      // a loop edge (a loop port is per-element: feedback interleaves with
      // the Chandy-Lamport recording); control elements and singleton
      // runs take the per-element path. A marker that the consumer does
      // not immediately complete holds the channel with the post-marker
      // remainder still staged here — alignment semantics are identical
      // to per-element delivery because a run never spans a marker.
      bool delivered = false;
      while (pend_at_ < pending_.size()) {
        if (held_.load(std::memory_order_relaxed)) {
          if (consumer->node->completed_barriers() < resume_when_) {
            return delivered;
          }
          held_.store(false, std::memory_order_relaxed);
        }
        if (!per_element_ && faults_ == nullptr && !is_loop &&
            is_tuple(pending_[pend_at_])) {
          std::size_t run_end = pend_at_ + 1;
          while (run_end < pending_.size() && is_tuple(pending_[run_end])) {
            ++run_end;
          }
          const std::size_t n = run_end - pend_at_;
          if (n > 1) {
            run_.clear();
            for (std::size_t i = pend_at_; i < run_end; ++i) {
              run_.push_back(std::get<Tuple<T>>(std::move(pending_[i])));
            }
            pend_at_ = run_end;
            delivered_.fetch_add(n, std::memory_order_relaxed);
            if (lent_) {
              target_.receive_block(run_.data(), n);
            } else {
              target_.take_block(run_.data(), n);  // run_ is scratch
            }
            delivered = true;
            continue;
          }
        }
        Element<T> e = std::move(pending_[pend_at_]);
        ++pend_at_;
        if (is_end(e)) ended_.store(true, std::memory_order_release);
        const std::uint64_t d =
            delivered_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (faults_ != nullptr) apply_fault(e, d);
        // An edge without a consumer node cannot tell when it aligned.
        const bool hold = is_marker(e) && !is_loop && consumer;
        const std::uint64_t before =
            hold ? consumer->node->completed_barriers() : 0;
        target_.receive(e);
        delivered = true;
        if (hold && consumer->node->completed_barriers() == before) {
          resume_when_ = before + 1;
          held_.store(true, std::memory_order_relaxed);
        }
      }
      return delivered;
    }

    std::size_t depth() override {
      return unbounded() ? unbounded_depth_.load(std::memory_order_relaxed)
                         : queue_.size();
    }
    std::size_t capacity() const override {
      return unbounded() ? 0 : queue_.capacity();
    }

   private:
    /// A loop edge and an edge inside a node group never block their
    /// producer: both append to deque_.
    bool unbounded() const { return is_loop || local_; }

    void note_depth(std::size_t d) {
      if (d > high_water_.load(std::memory_order_relaxed)) {
        high_water_.store(d, std::memory_order_relaxed);
      }
    }

    /// Runs `append` on deque_, unless the flow aborted (throws) or the
    /// consumer exited (drops). Only a loop edge between two threads takes
    /// the lock: an edge inside a group has one thread at both ends.
    template <typename Append>
    void push_unbounded(Append append) {
      if (flow_->abort_.load(std::memory_order_relaxed)) {
        throw FlowAborted{};
      }
      if (consumer != nullptr &&
          consumer->exited.load(std::memory_order_acquire)) {
        return;
      }
      std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
      if (!local_) lk.lock();
      append();
      unbounded_depth_.store(deque_.size(), std::memory_order_relaxed);
      note_depth(deque_.size());
    }

    /// Retries `attempt` until it reports the push complete. Blocked on a
    /// full queue, the producer yields, and gives up when the flow aborts
    /// (throws) or the consumer exited (drops: a dead consumer never
    /// drains, so the producer can finish and the graph wind down). The
    /// whole wait, abandoned ones included, is charged to stall_ns_: it is
    /// the overload monitor's most direct backpressure signal.
    template <typename Attempt>
    void push_bounded(Attempt attempt) {
      if (!attempt()) {
        const auto blocked_at = std::chrono::steady_clock::now();
        const auto charge_stall = [&] {
          stall_ns_.fetch_add(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - blocked_at)
                      .count()),
              std::memory_order_relaxed);
        };
        for (;;) {
          if (flow_->abort_.load(std::memory_order_relaxed)) {
            charge_stall();
            throw FlowAborted{};
          }
          if (consumer->exited.load(std::memory_order_acquire)) {
            charge_stall();
            return;
          }
          std::this_thread::yield();
          if (attempt()) break;
        }
        charge_stall();
      }
      note_depth(queue_.size());
    }

    /// Runs in the consumer thread, between pop and receive. Crash-style
    /// faults throw CrashInjected, which the runner records as this node's
    /// failure.
    void apply_fault(const Element<T>& e, std::uint64_t delivery) {
      const FaultEvent* ev = faults_->on_delivery(id, delivery);
      if (ev == nullptr) return;
      switch (ev->kind) {
        case FaultKind::kCrash:
          throw CrashInjected("edge " + std::to_string(id) + " delivery " +
                              std::to_string(delivery));
        case FaultKind::kStall:
        case FaultKind::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(ev->param_ms));
          return;
        case FaultKind::kDropCrash:
          // Element discarded; the link dies with it so the rewind
          // re-emits the dropped element (at-least-once healing).
          throw CrashInjected("drop on edge " + std::to_string(id) +
                              " delivery " + std::to_string(delivery));
        case FaultKind::kDupCrash:
          // Only data tuples duplicate (a retransmitted packet); control
          // elements don't — a doubled marker would double-align a
          // multi-input node and persist an inconsistent snapshot before
          // the crash lands.
          if (is_tuple(e)) {
            target_.receive(e);  // the element, delivered twice...
            target_.receive(e);
          }
          // ...then the link dies; restore wipes the double-counted state.
          throw CrashInjected("dup on edge " + std::to_string(id) +
                              " delivery " + std::to_string(delivery));
        case FaultKind::kSlowConsumer:
          // Per-delivery pacing over a delivery range: the producer backs
          // up behind this edge, which is the overload the shed policies
          // react to. Semantics unaffected (FIFO order preserved).
          std::this_thread::sleep_for(
              std::chrono::milliseconds(ev->param_ms));
          return;
        case FaultKind::kSaturate:
          // Park until the input queue is full (or param_ms elapses): an
          // immediate high-water spike without per-delivery pacing. An
          // unbounded edge never fills, and inside a group only this
          // thread could fill it: no wait.
          if (!unbounded()) {
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ev->param_ms);
            while (queue_.size() < queue_.capacity() &&
                   std::chrono::steady_clock::now() < deadline &&
                   !flow_->abort_.load(std::memory_order_relaxed) &&
                   !producer->exited.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
          }
          return;
        case FaultKind::kKillDuringAppend:
        case FaultKind::kTornWrite:
        case FaultKind::kKillDuringCheckpoint:
        case FaultKind::kTornCheckpoint:
          // Non-channel kinds: on_delivery filters them out (their `edge`
          // field is a node index or checkpoint phase), so they never
          // reach a channel.
          return;
      }
    }

    GroupRuntime* flow_;
    Consumer<T>& target_;
    bool lent_;         ///< runs reach the consumer read-only (kLent)
    bool local_;        ///< both ends in one node group
    bool per_element_;  ///< a Flow edge: never delivers a block
    SpscQueue<Element<T>> queue_;
    std::mutex mu_;  ///< guards deque_ on a loop edge between threads
    std::deque<Element<T>> deque_;
    std::atomic<std::size_t> unbounded_depth_{0};  ///< deque_.size()
    FaultInjector* faults_{nullptr};
    std::uint64_t resume_when_{0};  // consumer-thread only
    // Micro-batch scratch. pending_/pend_at_/run_ are consumer-thread
    // only; out_scratch_ is producer-thread only. None are visible to the
    // watchdog (depth() intentionally reads just the queue, so gauges may
    // under-report by at most one block while a batch is staged).
    std::vector<Element<T>> pending_;
    std::size_t pend_at_{0};
    std::vector<Tuple<T>> run_;
    std::vector<Element<T>> out_scratch_;
  };

  /// Wires an edge; `producer`/`consumer` are null for one without node
  /// references, which the group polls after its members.
  template <typename T>
  void connect_edge(Member* producer, Outlet<T>& from, Member* consumer,
                    Consumer<T>& to, EdgeKind kind, std::size_t capacity) {
    auto chan = std::make_unique<ThreadedChannel<T>>(
        this, to, kind, capacity, producer, consumer, channels_.size());
    from.subscribe(chan.get());
    if (producer != nullptr) producer->has_outputs = true;
    (consumer != nullptr ? consumer->inputs : one_group_->unattached)
        .push_back(chan.get());
    channels_.push_back(std::move(chan));
  }

  void record_failure(FlowError e) {
    std::lock_guard<std::mutex> lk(fail_mu_);
    failures_.push_back(std::move(e));
  }

  bool has_failure() {
    std::lock_guard<std::mutex> lk(fail_mu_);
    return !failures_.empty();
  }

  /// Throws the first recorded failure, if there is one.
  void rethrow_failure() {
    std::lock_guard<std::mutex> lk(fail_mu_);
    if (!failures_.empty()) throw failures_.front();
  }

  std::uint64_t total_deliveries() const {
    std::uint64_t n = 0;
    for (const auto& ch : channels_) n += ch->delivered_count();
    return n;
  }

  /// Per-node watermark positions and per-edge queue depths: the state a
  /// human needs to see *which* edge wedged and *whose* watermark stopped.
  std::string diagnostic() {
    std::ostringstream os;
    os << "nodes:\n";
    for (const auto& m : members_) {
      os << "  [" << m->index << "] " << m->name
         << " watermark=" << m->node->node_watermark()
         << " barriers=" << m->node->completed_barriers();
      // A grouped node names its group by the group's first node.
      if (m->runner->members.size() > 1 && m->runner != one_group_) {
        os << " group=" << m->runner->members.front()->index;
      }
      os << (m->exited.load(std::memory_order_acquire) ? " exited" : "")
         << (m->emitted_end.load(std::memory_order_acquire) ? " ended" : "")
         << "\n";
    }
    os << "edges:\n";
    for (const auto& ch : channels_) {
      os << "  [" << ch->id << "] ";
      if (ch->consumer != nullptr) {
        os << ch->producer->index << "->" << ch->consumer->index;
      } else {
        os << "unattached";
      }
      os << " depth=" << ch->depth() << " delivered=" << ch->delivered_count()
         << (ch->held() ? " HELD" : "") << (ch->is_loop ? " loop" : "") << "\n";
    }
    return os.str();
  }

  std::vector<std::unique_ptr<Member>> members_;  ///< add() order
  std::vector<std::unique_ptr<Runner>> runners_;  ///< one per node group
  std::vector<std::unique_ptr<ChannelBase>> channels_;
  std::unordered_map<const NodeBase*, Member*> index_;
  Runner* const one_group_;
  std::atomic<bool> abort_{false};
  std::mutex fail_mu_;
  std::vector<FlowError> failures_;

 private:
  /// An edge without a consumer node cannot hold for barrier alignment,
  /// so no checkpoint or fault schedule may rely on one.
  void require_node_edges(const char* what) const {
    for (const auto& ch : channels_) {
      if (ch->consumer != nullptr) continue;
      throw std::logic_error(std::string("Flow::") + what + ": edge " +
                             std::to_string(ch->id) +
                             " has no node references and cannot hold");
    }
  }
};

}  // namespace detail

class ThreadedFlow : public detail::GroupRuntime {
 public:
  struct RunOptions {
    /// Abort the run when *no channel delivers anything* for this long.
    /// Zero disables the watchdog.
    std::chrono::milliseconds watchdog_timeout{std::chrono::seconds(20)};
    std::chrono::milliseconds watchdog_poll{50};
    /// After a node failure is recorded, abort the run once deliveries
    /// stop for this long. fail_downstream() lets the healthy suffix
    /// drain (that is the progress this grace period watches); whatever
    /// still runs when deliveries cease is waiting on the dead node
    /// forever — e.g. a loop head whose barrier marker can never return
    /// through the dead loop interior. Zero disables the fast teardown
    /// (the regular watchdog still applies).
    std::chrono::milliseconds failure_drain{500};
  };

  /// Declares a node group: one thread drives all of `nodes`, polling them
  /// in the order given. An edge between two members becomes an unbounded
  /// queue that thread writes and drains; every node keeps its add() index
  /// and every edge its connect() index, gauges and faults. Call it before
  /// any member is connected (an edge's transport is fixed at connect());
  /// groups that share a node merge. run() rejects a group that a path
  /// leaves and re-enters.
  void group(const std::vector<NodeBase*>& nodes) {
    if (nodes.empty()) return;
    for (NodeBase* n : nodes) {
      for (const Member* m : index_.at(n)->runner->members) {
        if (m->has_outputs || !m->inputs.empty()) {
          throw std::logic_error("ThreadedFlow::group: node " +
                                 std::to_string(m->index) + " (" + m->name +
                                 ") is already connected");
        }
      }
    }
    Runner* into = index_.at(nodes.front())->runner;
    for (NodeBase* n : nodes) {
      Runner* from = index_.at(n)->runner;
      if (from == into) continue;
      for (Member* m : from->members) into->join(m);
      from->members.clear();
    }
    std::erase_if(runners_, [](const std::unique_ptr<Runner>& r) {
      return r->members.empty();
    });
  }

  /// Connects `from_node`'s outlet to `to_node`'s consumer port. Both nodes
  /// must have been created with add().
  template <typename T>
  void connect(NodeBase& from_node, Outlet<T>& from, NodeBase& to_node,
               Consumer<T>& to, EdgeKind kind = EdgeKind::kNormal,
               std::size_t capacity = kDefaultCapacity) {
    connect_edge(index_.at(&from_node), from, index_.at(&to_node), to, kind,
                 capacity);
  }

  /// Threads run() starts for the nodes: one per node group.
  std::size_t thread_count() const { return runners_.size(); }

  /// Indexes (connect order) of the feedback-loop edges; what a chaos test
  /// needs to aim a fault at a loop without hardcoding wiring order.
  std::vector<std::size_t> loop_edges() const {
    std::vector<std::size_t> v;
    for (const auto& ch : channels_) {
      if (ch->is_loop) v.push_back(ch->id);
    }
    return v;
  }

  /// Attaches (nullptr detaches) the asynchronous snapshot executor: every
  /// node's barrier completion then hands its serialize + durable-commit
  /// work to the executor's worker thread instead of blocking the node.
  /// The executor must outlive run(), which drains it before returning
  /// (frozen jobs reference node-owned state).
  void attach_async(SnapshotExecutor* executor) {
    executor_ = executor;
    if (executor != nullptr) executor->begin_attempt();
    for (auto& m : members_) m->node->bind_async(executor);
  }

  /// Records a whole-flow failure (no single node to blame) and aborts the
  /// run. Used by the async checkpointer's fatal handler: a checkpoint-path
  /// crash models the process dying, so the flow must come down and the
  /// supervisor restart it from the last complete cut.
  void fail_flow(const std::string& what) {
    record_failure(FlowError("async-checkpoint: " + what));
    abort_.store(true, std::memory_order_relaxed);
  }

  /// Attaches an overload monitor: the watchdog thread samples every
  /// channel's occupancy/stall gauges and the node watermark spread into it
  /// each poll (and keeps the watchdog alive even with timeouts disabled).
  /// The monitor must outlive run(). Pass nullptr to detach.
  void attach_overload(OverloadMonitor* monitor) { monitor_ = monitor; }

  /// A scoped monitor observes only a subset of the flow — the edges and
  /// nodes of one shard — so a sharded deployment classifies each shard's
  /// health independently (one slow shard reads overloaded while its
  /// siblings stay healthy; a single whole-flow monitor would blur that
  /// into "somewhat pressured everywhere"). `edges` are connect-order
  /// channel indices, `nodes` add-order node indices. The scope's lag is
  /// measured against the GLOBAL watermark frontier: "how far does this
  /// shard trail the sources", which is the number a per-shard shedder
  /// should react to. Scopes compose with (and are sampled after) the
  /// whole-flow monitor; each monitor must outlive run().
  struct OverloadScope {
    OverloadMonitor* monitor;
    std::vector<std::size_t> edges;
    std::vector<std::size_t> nodes;
  };

  void attach_overload_scope(OverloadMonitor* monitor,
                             std::vector<std::size_t> edges,
                             std::vector<std::size_t> nodes) {
    scopes_.push_back({monitor, std::move(edges), std::move(nodes)});
  }

  /// Snapshot of every channel's gauges, in connect order (capacity 0 =
  /// unbounded loop edge). Safe to call from any thread.
  std::vector<ChannelGauge> channel_gauges() {
    std::vector<ChannelGauge> gauges;
    gauges.reserve(channels_.size());
    for (auto& ch : channels_) {
      gauges.push_back(
          {ch->depth(), ch->capacity(), ch->stall_ns(), ch->high_water()});
    }
    return gauges;
  }

  /// Runs every node group on its own thread; returns when the whole graph
  /// completed. Throws FlowError if a node failed or the watchdog tripped.
  void run() { run(RunOptions{}); }

  void run(RunOptions opts) {
    check_groups();
    abort_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(fail_mu_);
      failures_.clear();
    }
    dog_stop_ = false;

    std::vector<std::thread> threads;
    threads.reserve(runners_.size());
    for (auto& r : runners_) {
      threads.emplace_back([this, raw = r.get()] { raw->run(this); });
    }
    std::thread dog;
    if (opts.watchdog_timeout.count() > 0 || opts.failure_drain.count() > 0 ||
        monitor_ != nullptr || !scopes_.empty()) {
      dog = std::thread([this, opts] { watchdog(opts); });
    }
    for (auto& t : threads) t.join();
    if (dog.joinable()) {
      {
        std::lock_guard<std::mutex> lk(dog_mu_);
        dog_stop_ = true;
      }
      dog_cv_.notify_all();
      dog.join();
    }
    // Settle in-flight async snapshots while the nodes (whose frozen state
    // the jobs reference) are still alive. A checkpoint-path failure during
    // the drain lands in failures_ via fail_flow and is surfaced below.
    if (executor_ != nullptr) executor_->drain();
    rethrow_failure();
  }

  static constexpr std::size_t kDefaultCapacity = 1024;

 private:
  /// A path that leaves a group and comes back into it could deadlock:
  /// a member blocked on a full edge out of the group would wait for its
  /// own thread to drain the way back in.
  void check_groups() const {
    std::vector<std::vector<std::size_t>> out(members_.size());
    for (const auto& ch : channels_) {
      out[ch->producer->index].push_back(ch->consumer->index);
    }
    for (const auto& r : runners_) {
      if (r->members.size() < 2) continue;
      std::vector<bool> seen(members_.size(), false);
      std::vector<std::size_t> todo;
      for (const Member* m : r->members) {
        for (std::size_t c : out[m->index]) {
          if (members_[c]->runner != r.get()) todo.push_back(c);
        }
      }
      while (!todo.empty()) {
        const std::size_t n = todo.back();
        todo.pop_back();
        if (members_[n]->runner == r.get()) {
          throw std::logic_error(
              "ThreadedFlow: a path leaves the group of node " +
              std::to_string(r->members.front()->index) +
              " and re-enters it at node " + std::to_string(n));
        }
        if (seen[n]) continue;
        seen[n] = true;
        for (std::size_t c : out[n]) todo.push_back(c);
      }
    }
  }

  /// One overload-monitor sample. Each monitor gets its edges' gauges and
  /// the spread between the frontier (the whole flow's fastest node,
  /// typically a source) and its slowest consuming node, so a stalled
  /// shard's scope shows the full distance it trails the sources, not just
  /// its internal spread. Watchdog thread only.
  void sample_overload() {
    if (monitor_ == nullptr && scopes_.empty()) return;
    Timestamp frontier = kMinTimestamp;
    for (const auto& m : members_) {
      frontier = std::max(frontier, m->node->node_watermark());
    }
    // `scope` null: every edge and node.
    const auto observe = [&](OverloadMonitor& mon, const OverloadScope* scope) {
      std::vector<ChannelGauge> gauges;
      const std::size_t edges = scope ? scope->edges.size() : channels_.size();
      for (std::size_t i = 0; i < edges; ++i) {
        ChannelBase& ch = *channels_[scope ? scope->edges[i] : i];
        gauges.push_back(
            {ch.depth(), ch.capacity(), ch.stall_ns(), ch.high_water()});
      }
      Timestamp laggard = kMinTimestamp;
      const std::size_t nodes = scope ? scope->nodes.size() : members_.size();
      for (std::size_t i = 0; i < nodes; ++i) {
        const Member& m = *members_[scope ? scope->nodes[i] : i];
        const Timestamp w = m.node->node_watermark();
        if (w == kMinTimestamp || m.inputs.empty()) continue;
        if (laggard == kMinTimestamp || w < laggard) laggard = w;
      }
      mon.observe(gauges, frontier, laggard);
    };
    if (monitor_ != nullptr) observe(*monitor_, nullptr);
    for (const OverloadScope& scope : scopes_) observe(*scope.monitor, &scope);
  }

  void watchdog(RunOptions opts) {
    std::unique_lock<std::mutex> lk(dog_mu_);
    std::uint64_t last = total_deliveries();
    auto last_change = std::chrono::steady_clock::now();
    sample_overload();
    while (!dog_stop_) {
      dog_cv_.wait_for(lk, opts.watchdog_poll);
      // Sample before the stop check so even a run shorter than one poll
      // interval records a final (often the only) observation.
      sample_overload();
      if (dog_stop_) return;
      const std::uint64_t now_count = total_deliveries();
      const auto now = std::chrono::steady_clock::now();
      if (now_count != last) {
        last = now_count;
        last_change = now;
        continue;
      }
      // Fast teardown after a node failure: the drain triggered by
      // fail_downstream has gone quiet, so the survivors are wedged on the
      // dead node. Abort without a watchdog report — run() surfaces the
      // recorded node failure itself.
      if (opts.failure_drain.count() > 0 &&
          now - last_change >= opts.failure_drain && has_failure()) {
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
      if (opts.watchdog_timeout.count() > 0 &&
          now - last_change >= opts.watchdog_timeout) {
        std::ostringstream os;
        os << "watchdog: no delivery progress for "
           << std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - last_change)
                  .count()
           << "ms; aborting\n"
           << diagnostic();
        // Reported ahead of any node failure: the wedge is the news.
        std::lock_guard<std::mutex> flk(fail_mu_);
        failures_.insert(failures_.begin(), FlowError(os.str()));
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  SnapshotExecutor* executor_{nullptr};
  OverloadMonitor* monitor_{nullptr};
  std::vector<OverloadScope> scopes_;
  std::mutex dog_mu_;
  std::condition_variable dog_cv_;
  bool dog_stop_{false};
};

/// The deterministic runtime: one node group holding every node, driven on
/// the caller's thread by the pass ThreadedFlow's threads make. Every edge
/// is unbounded and delivers per element: Flow is the per-element oracle of
/// ThreadedFlow's block path. Checkpoints, restores, fault schedules and
/// alignment holds work as on ThreadedFlow, with no thread timing.
class Flow : public detail::GroupRuntime {
 public:
  Flow() : GroupRuntime(&group_) {}

  /// ThreadedFlow's connect without a capacity (a Flow edge is unbounded),
  /// so compositions wire identically on either runtime.
  template <typename T>
  void connect(NodeBase& from_node, Outlet<T>& from, NodeBase& to_node,
               Consumer<T>& to, EdgeKind kind = EdgeKind::kNormal) {
    connect_edge(index_.at(&from_node), from, index_.at(&to_node), to, kind,
                 0);
  }

  /// Connects without naming the nodes. A pass polls such an edge after
  /// every node's inputs; it cannot hold for barrier alignment, so a flow
  /// with one refuses enable_checkpoints and install_faults.
  template <typename T>
  void connect(Outlet<T>& from, Consumer<T>& to,
               EdgeKind kind = EdgeKind::kNormal) {
    connect_edge<T>(nullptr, from, nullptr, to, kind, 0);
  }

  /// ThreadedFlow's group declaration: Flow's one group holds every node.
  void group(const std::vector<NodeBase*>&) {}

  /// Pumps every node, then drains. Throws FlowError when a node fails, or
  /// when the graph is wedged: it went quiet with an edge still held for a
  /// barrier that can no longer align.
  void run(std::size_t max_deliveries = kDefaultMaxDeliveries) {
    group_.guard(this, [this] { group_.pump(); });
    rethrow_failure();
    drain(max_deliveries);
    for (const auto& ch : channels_) {
      if (!ch->held()) continue;
      throw FlowError("Flow: wedged: edge " + std::to_string(ch->id) +
                      " is HELD for a barrier that cannot align\n" +
                      diagnostic());
    }
  }

  /// Makes passes until one delivers nothing, without pumping (a test that
  /// feeds ports by hand calls it between steps). Throws FlowError when a
  /// node fails or past `max_deliveries` (a cycle that does not quiesce).
  void drain(std::size_t max_deliveries = kDefaultMaxDeliveries) {
    const std::uint64_t start = total_deliveries();
    bool more = true;
    while (more && group_.guard(this, [&] { more = group_.pass(); })) {
      if (total_deliveries() - start > max_deliveries) {
        throw FlowError("Flow: more than " + std::to_string(max_deliveries) +
                        " deliveries; a cycle that does not quiesce?\n" +
                        diagnostic());
      }
    }
    rethrow_failure();
  }

  static constexpr std::size_t kDefaultMaxDeliveries = 200'000'000;

 private:
  Runner group_;
};

}  // namespace aggspes
