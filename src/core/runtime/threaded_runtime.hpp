// Thread-per-node physical runtime used by the benchmarks: every node of
// the logical graph becomes one worker thread, every edge an SPSC channel.
// Bounded channels give backpressure; loop channels are unbounded (and
// mutex-guarded) so feedback can never deadlock the pipeline — this is our
// equivalent of the paper's own loop-handling workaround for FLINK-2497.
//
// Lifecycle: a node thread pumps (sources generate here), then polls its
// input channels round-robin. A node with outputs exits once it has pushed
// EndOfStream downstream; a sink exits once all its inputs delivered
// EndOfStream.
//
// Robustness layer (recovery subsystem):
//  * A node whose handler throws no longer takes the process down: the
//    runner records the failure, pushes a best-effort EndOfStream to the
//    node's downstream peers so the healthy part of the graph drains, and
//    run() rethrows the failure as a FlowError naming the node.
//  * Channels participate in aligned checkpointing: after delivering a
//    CheckpointMarker a channel holds further deliveries until its
//    consumer completes the barrier, so no post-barrier element is
//    processed before the node's state is snapshotted.
//  * Channels are the fault-injection surface: an installed FaultInjector
//    can crash, stall, delay, drop or duplicate a specific delivery of a
//    specific edge, deterministically per seed (see
//    core/recovery/fault_injection.hpp).
//  * A watchdog thread aborts the run with a queue-depth/watermark
//    diagnostic instead of letting a wedged graph hang forever.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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

/// A node failure (or watchdog abort) surfaced by ThreadedFlow::run().
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

}  // namespace detail

class ThreadedFlow {
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

  template <typename Node, typename... Args>
  Node& add(Args&&... args) {
    auto node = std::make_unique<Node>(std::forward<Args>(args)...);
    Node& ref = *node;
    runners_.push_back(std::make_unique<Runner>(
        std::move(node), runners_.size(),
        detail::demangle(typeid(Node).name())));
    index_[&ref] = runners_.back().get();
    return ref;
  }

  /// Connects `from_node`'s outlet to `to_node`'s consumer port. Both nodes
  /// must have been created with add().
  template <typename T>
  void connect(NodeBase& from_node, Outlet<T>& from, NodeBase& to_node,
               Consumer<T>& to, EdgeKind kind = EdgeKind::kNormal,
               std::size_t capacity = kDefaultCapacity) {
    Runner* producer = index_.at(&from_node);
    Runner* consumer = index_.at(&to_node);
    auto chan = std::make_unique<ThreadedChannel<T>>(
        this, to, kind == EdgeKind::kLoop, capacity, producer, consumer,
        channels_.size());
    from.subscribe(chan.get());
    producer->has_outputs = true;
    consumer->inputs.push_back(chan.get());
    channels_.push_back(std::move(chan));
  }

  std::size_t node_count() const { return runners_.size(); }
  std::size_t edge_count() const { return channels_.size(); }

  /// Indexes (connect order) of the feedback-loop edges; what a chaos test
  /// needs to aim a fault at a loop without hardcoding wiring order.
  std::vector<std::size_t> loop_edges() const {
    std::vector<std::size_t> v;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if (channels_[i]->loop_edge()) v.push_back(i);
    }
    return v;
  }

  /// Binds every node to `store` under its add()-order index (stable
  /// across rebuilds of the same builder), and tells the store how many
  /// records make a checkpoint complete.
  void enable_checkpoints(CheckpointStore& store) {
    store.set_expected_nodes(runners_.size());
    for (std::size_t i = 0; i < runners_.size(); ++i) {
      runners_[i]->node->bind_recovery(&store, i);
    }
  }

  /// Restores every node from the latest *complete* checkpoint in `store`.
  /// Must be called before run(). Returns the restored checkpoint id, or
  /// nullopt when the store has no complete checkpoint (the flow then
  /// starts from scratch — sources replay everything).
  std::optional<std::uint64_t> restore_latest(const CheckpointStore& store) {
    const std::optional<std::uint64_t> id = store.latest_complete();
    if (!id) return std::nullopt;
    for (std::size_t i = 0; i < runners_.size(); ++i) {
      if (std::optional<CheckpointStore::Bytes> bytes = store.find(i, *id)) {
        SnapshotReader r(*bytes);
        runners_[i]->node->restore_from(r);
      }
    }
    return id;
  }

  /// Arms every channel with the injector's schedule. The injector is
  /// materialized against this flow's edge list (connect order — stable
  /// across rebuilds) on first call.
  void install_faults(FaultInjector& injector) {
    std::vector<EdgeInfo> edges;
    edges.reserve(channels_.size());
    for (const auto& ch : channels_) edges.push_back({ch->loop_edge()});
    injector.materialize(edges);
    for (auto& ch : channels_) ch->set_faults(&injector);
    // Node-side faults (durable-source append kinds) ride the same
    // injector; nodes without a fault surface inherit the no-op default.
    for (std::size_t i = 0; i < runners_.size(); ++i) {
      runners_[i]->node->arm_faults(&injector, i);
    }
  }

  /// Attaches (nullptr detaches) the asynchronous snapshot executor: every
  /// node's barrier completion then hands its serialize + durable-commit
  /// work to the executor's worker thread instead of blocking the node.
  /// The executor must outlive run(), which drains it before returning
  /// (frozen jobs reference node-owned state).
  void attach_async(SnapshotExecutor* executor) {
    executor_ = executor;
    if (executor != nullptr) executor->begin_attempt();
    for (auto& r : runners_) r->node->bind_async(executor);
  }

  /// Records a whole-flow failure (no single node to blame) and aborts the
  /// run. Used by the async checkpointer's fatal handler: a checkpoint-path
  /// crash models the process dying, so the flow must come down and the
  /// supervisor restart it from the last complete cut.
  void fail_flow(const std::string& what) {
    record_failure(FlowError::kNoNode, "async-checkpoint", what);
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

  void clear_overload_scopes() { scopes_.clear(); }

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

  /// Runs every node on its own thread; returns when the whole graph
  /// completed. Throws FlowError if a node failed or the watchdog tripped.
  void run() { run(RunOptions{}); }

  void run(RunOptions opts) {
    abort_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(fail_mu_);
      failures_.clear();
      watchdog_report_.clear();
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

    std::lock_guard<std::mutex> lk(fail_mu_);
    if (!watchdog_report_.empty()) throw FlowError(watchdog_report_);
    if (!failures_.empty()) {
      const Failure& f = failures_.front();
      if (f.node_index == FlowError::kNoNode) {
        throw FlowError(f.node_name + ": " + f.what);
      }
      throw FlowError(f.node_index, f.node_name, f.what);
    }
  }

  static constexpr std::size_t kDefaultCapacity = 1024;

  /// Micro-batch size for the channel hot path (DESIGN.md § 16): how many
  /// elements a consumer drains per deliver_one and how many a bulk
  /// push_block hands to push_n. Values <= 1 disable batching (legacy
  /// per-element transfer). Must be set before run() starts threads.
  void set_batch_block(std::size_t n) { batch_block_ = n; }
  std::size_t batch_block() const { return batch_block_; }

 private:
  struct Runner;

  struct Failure {
    std::size_t node_index;
    std::string node_name;
    std::string what;
  };

  class ChannelBase {
   public:
    virtual ~ChannelBase() = default;
    /// Delivers one element if available; returns whether it did.
    virtual bool deliver_one() = 0;
    virtual bool delivered_end() const = 0;
    virtual bool loop_edge() const = 0;
    virtual void set_faults(FaultInjector* injector) = 0;
    // Watchdog / overload-monitor gauges (cross-thread reads).
    virtual std::size_t depth() = 0;
    virtual std::size_t capacity() const = 0;
    virtual std::uint64_t stall_ns() const = 0;
    virtual std::size_t high_water() const = 0;
    virtual std::uint64_t delivered_count() const = 0;
    virtual bool held() const = 0;
    virtual std::size_t producer_index() const = 0;
    virtual std::size_t consumer_index() const = 0;
  };

  struct Runner {
    Runner(std::unique_ptr<NodeBase> n, std::size_t idx, std::string nm)
        : node(std::move(n)), index(idx), name(std::move(nm)) {}

    void run(ThreadedFlow* flow) {
      try {
        node->pump();
        for (;;) {
          if (flow->abort_.load(std::memory_order_relaxed)) {
            throw detail::FlowAborted{};
          }
          bool any = false;
          bool all_ended = !inputs.empty();
          for (ChannelBase* ch : inputs) {
            any |= ch->deliver_one();
            all_ended &= ch->delivered_end();
          }
          if (has_outputs) {
            if (emitted_end.load(std::memory_order_acquire)) break;
            // Source-only nodes (no inputs) that never emit End would spin
            // forever; treat pump() completion without End as done.
            if (inputs.empty() && !any) break;
          } else if (all_ended) {
            break;
          }
          if (!any) std::this_thread::yield();
        }
      } catch (const detail::FlowAborted&) {
        // Watchdog teardown: exit quietly; every runner does the same.
      } catch (const std::exception& ex) {
        flow->record_failure(index, name, ex.what());
        try {
          node->fail_downstream();
        } catch (...) {
        }
      } catch (...) {
        flow->record_failure(index, name, "unknown exception");
        try {
          node->fail_downstream();
        } catch (...) {
        }
      }
      exited.store(true, std::memory_order_release);
    }

    std::unique_ptr<NodeBase> node;
    std::size_t index;
    std::string name;
    std::vector<ChannelBase*> inputs;
    bool has_outputs{false};
    std::atomic<bool> emitted_end{false};
    std::atomic<bool> exited{false};
  };

  template <typename T>
  class ThreadedChannel final : public Channel<T>, public ChannelBase {
   public:
    ThreadedChannel(ThreadedFlow* flow, Consumer<T>& target, bool loop,
                    std::size_t capacity, Runner* producer, Runner* consumer,
                    std::size_t edge_id)
        : flow_(flow),
          target_(target),
          loop_(loop),
          queue_(capacity),
          producer_(producer),
          consumer_(consumer),
          edge_id_(edge_id) {}

    /// Takes `e` over. A failed try_push leaves it untouched, so a
    /// producer blocked on a full queue retries with the same element
    /// instead of copying it per attempt.
    void push(Element<T>&& e) override {
      if (is_end(e)) {
        producer_->emitted_end.store(true, std::memory_order_release);
      }
      if (loop_) {
        if (flow_->abort_.load(std::memory_order_relaxed)) {
          throw detail::FlowAborted{};
        }
        if (consumer_->exited.load(std::memory_order_acquire)) return;
        std::lock_guard<std::mutex> lk(mu_);
        overflow_.push_back(std::move(e));
        if (overflow_.size() > high_water_.load(std::memory_order_relaxed)) {
          high_water_.store(overflow_.size(), std::memory_order_relaxed);
        }
      } else {
        if (!queue_.try_push(std::move(e))) {
          // Blocked on a full queue: producer stall time is the overload
          // monitor's most direct backpressure signal, so charge the whole
          // wait (including aborted/abandoned ones) to stall_ns_.
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
              throw detail::FlowAborted{};
            }
            // A dead consumer never drains its queue; dropping instead of
            // blocking lets the producer finish and the graph wind down.
            if (consumer_->exited.load(std::memory_order_acquire)) {
              charge_stall();
              return;
            }
            std::this_thread::yield();
            if (queue_.try_push(std::move(e))) break;
          }
          charge_stall();
        }
        const std::size_t d = queue_.size();
        if (d > high_water_.load(std::memory_order_relaxed)) {
          high_water_.store(d, std::memory_order_relaxed);
        }
      }
    }

    /// Bulk push of a tuple run (block-aware operators emit through
    /// Outlet::push_block). One push_n call publishes the whole run with a
    /// single head-store; on a full queue it makes partial progress and
    /// spins for the rest, charging the wait to stall_ns_ like push().
    /// Blocks never carry EndOfStream, so no emitted_end bookkeeping.
    void push_block(const Tuple<T>* ts, std::size_t n) override {
      if (n == 0) return;
      if (loop_) {
        if (flow_->abort_.load(std::memory_order_relaxed)) {
          throw detail::FlowAborted{};
        }
        if (consumer_->exited.load(std::memory_order_acquire)) return;
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < n; ++i) {
          overflow_.push_back(Element<T>{ts[i]});
        }
        if (overflow_.size() > high_water_.load(std::memory_order_relaxed)) {
          high_water_.store(overflow_.size(), std::memory_order_relaxed);
        }
        return;
      }
      if (flow_->batch_block_ <= 1) {
        for (std::size_t i = 0; i < n; ++i) push(Element<T>{ts[i]});
        return;
      }
      out_scratch_.clear();
      out_scratch_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out_scratch_.push_back(Element<T>{ts[i]});
      }
      std::size_t done = queue_.push_n(out_scratch_.data(), n);
      if (done < n) {
        const auto blocked_at = std::chrono::steady_clock::now();
        const auto charge_stall = [&] {
          stall_ns_.fetch_add(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - blocked_at)
                      .count()),
              std::memory_order_relaxed);
        };
        while (done < n) {
          if (flow_->abort_.load(std::memory_order_relaxed)) {
            charge_stall();
            throw detail::FlowAborted{};
          }
          if (consumer_->exited.load(std::memory_order_acquire)) {
            charge_stall();
            return;
          }
          std::this_thread::yield();
          done += queue_.push_n(out_scratch_.data() + done, n - done);
        }
        charge_stall();
      }
      const std::size_t d = queue_.size();
      if (d > high_water_.load(std::memory_order_relaxed)) {
        high_water_.store(d, std::memory_order_relaxed);
      }
    }

    bool loop() const override { return loop_; }
    bool loop_edge() const override { return loop_; }

    void set_faults(FaultInjector* injector) override { faults_ = injector; }

    bool deliver_one() override {
      if (held_.load(std::memory_order_relaxed)) {
        // Barrier alignment: paused until the consumer completes the
        // barrier this channel delivered (a loop head completes only once
        // the marker returns around the feedback edge, which keeps
        // delivering through a *different* channel of this node).
        if (consumer_->node->completed_barriers() < resume_when_) {
          return false;
        }
        held_.store(false, std::memory_order_relaxed);
      }
      // Refill the consumer-side scratch. Loop edges stay per-element (the
      // overflow deque is mutex-guarded and feedback traffic is sparse);
      // regular edges drain up to one block per call with a single
      // tail-store, which is where the hot path's atomics amortize.
      if (pend_at_ >= pending_.size()) {
        pend_at_ = 0;
        pending_.clear();
        if (loop_) {
          std::lock_guard<std::mutex> lk(mu_);
          if (overflow_.empty()) return false;
          pending_.push_back(std::move(overflow_.front()));
          overflow_.pop_front();
        } else {
          const std::size_t want =
              flow_->batch_block_ > 1 ? flow_->batch_block_ : 1;
          pending_.resize(want);
          const std::size_t got = queue_.pop_n(pending_.data(), want);
          pending_.resize(got);
          if (got == 0) return false;
        }
      }
      // Deliver the scratch: contiguous tuple runs go through the block
      // path when no faults are armed (fault injection is strictly
      // per-delivery); control elements, singleton runs, and fault-armed
      // channels take the per-element path unchanged. A marker that the
      // consumer does not immediately complete holds the channel with the
      // post-marker remainder still staged here — alignment semantics are
      // identical to per-element delivery because a run never spans a
      // marker.
      bool delivered = false;
      while (pend_at_ < pending_.size()) {
        if (held_.load(std::memory_order_relaxed)) {
          if (consumer_->node->completed_barriers() < resume_when_) {
            return delivered;
          }
          held_.store(false, std::memory_order_relaxed);
        }
        if (faults_ == nullptr && is_tuple(pending_[pend_at_])) {
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
            target_.receive_block(run_.data(), n);
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
        const bool marker = is_marker(e);
        const std::uint64_t before =
            marker ? consumer_->node->completed_barriers() : 0;
        target_.receive(e);
        delivered = true;
        if (marker && !loop_ &&
            consumer_->node->completed_barriers() == before) {
          resume_when_ = before + 1;
          held_.store(true, std::memory_order_relaxed);
        }
      }
      return delivered;
    }

    bool delivered_end() const override {
      return ended_.load(std::memory_order_acquire);
    }

    std::size_t depth() override {
      if (loop_) {
        std::lock_guard<std::mutex> lk(mu_);
        return overflow_.size();
      }
      return queue_.size();
    }
    std::size_t capacity() const override {
      return loop_ ? 0 : queue_.capacity();
    }
    std::uint64_t stall_ns() const override {
      return stall_ns_.load(std::memory_order_relaxed);
    }
    std::size_t high_water() const override {
      return high_water_.load(std::memory_order_relaxed);
    }
    std::uint64_t delivered_count() const override {
      return delivered_.load(std::memory_order_relaxed);
    }
    bool held() const override {
      return held_.load(std::memory_order_relaxed);
    }
    std::size_t producer_index() const override { return producer_->index; }
    std::size_t consumer_index() const override { return consumer_->index; }

   private:
    /// Runs in the consumer thread, between pop and receive. Crash-style
    /// faults throw CrashInjected, which the runner records as this node's
    /// failure.
    void apply_fault(const Element<T>& e, std::uint64_t delivery) {
      const FaultEvent* ev = faults_->on_delivery(edge_id_, delivery);
      if (ev == nullptr) return;
      switch (ev->kind) {
        case FaultKind::kCrash:
          throw CrashInjected("edge " + std::to_string(edge_id_) +
                              " delivery " + std::to_string(delivery));
        case FaultKind::kStall:
        case FaultKind::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(ev->param_ms));
          return;
        case FaultKind::kDropCrash:
          // Element discarded; the link dies with it so the rewind
          // re-emits the dropped element (at-least-once healing).
          throw CrashInjected("drop on edge " + std::to_string(edge_id_) +
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
          throw CrashInjected("dup on edge " + std::to_string(edge_id_) +
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
          // immediate high-water spike without per-delivery pacing.
          if (!loop_) {
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ev->param_ms);
            while (queue_.size() < queue_.capacity() &&
                   std::chrono::steady_clock::now() < deadline &&
                   !flow_->abort_.load(std::memory_order_relaxed) &&
                   !producer_->exited.load(std::memory_order_acquire)) {
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

    ThreadedFlow* flow_;
    Consumer<T>& target_;
    bool loop_;
    SpscQueue<Element<T>> queue_;
    std::mutex mu_;
    std::deque<Element<T>> overflow_;
    Runner* producer_;
    Runner* consumer_;
    std::size_t edge_id_;
    FaultInjector* faults_{nullptr};
    std::atomic<bool> ended_{false};
    std::atomic<std::uint64_t> delivered_{0};
    std::atomic<std::uint64_t> stall_ns_{0};
    std::atomic<std::size_t> high_water_{0};
    std::atomic<bool> held_{false};
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

  void record_failure(std::size_t node_index, const std::string& name,
                      const std::string& what) {
    std::lock_guard<std::mutex> lk(fail_mu_);
    failures_.push_back({node_index, name, what});
  }

  bool has_failure() {
    std::lock_guard<std::mutex> lk(fail_mu_);
    return !failures_.empty();
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
    for (const auto& r : runners_) {
      os << "  [" << r->index << "] " << r->name
         << " watermark=" << r->node->node_watermark()
         << " barriers=" << r->node->completed_barriers()
         << (r->exited.load(std::memory_order_acquire) ? " exited" : "")
         << (r->emitted_end.load(std::memory_order_acquire) ? " ended" : "")
         << "\n";
    }
    os << "edges:\n";
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      ChannelBase& ch = *channels_[i];
      os << "  [" << i << "] " << ch.producer_index() << "->"
         << ch.consumer_index() << " depth=" << ch.depth()
         << " delivered=" << ch.delivered_count()
         << (ch.held() ? " HELD" : "") << (ch.loop_edge() ? " loop" : "")
         << "\n";
    }
    return os.str();
  }

  /// One overload-monitor sample: every channel's gauges plus the node
  /// watermark spread (frontier = fastest node, typically a source;
  /// laggard = slowest consuming node). Watchdog thread only.
  void sample_overload() {
    if (monitor_ == nullptr && scopes_.empty()) return;
    Timestamp frontier = kMinTimestamp;
    Timestamp laggard = kMinTimestamp;
    for (const auto& r : runners_) {
      const Timestamp w = r->node->node_watermark();
      if (w == kMinTimestamp) continue;
      if (w > frontier) frontier = w;
      if (!r->inputs.empty() && (laggard == kMinTimestamp || w < laggard)) {
        laggard = w;
      }
    }
    if (monitor_ != nullptr) {
      monitor_->observe(channel_gauges(), frontier, laggard);
    }
    for (const OverloadScope& scope : scopes_) {
      std::vector<ChannelGauge> gauges;
      gauges.reserve(scope.edges.size());
      for (std::size_t e : scope.edges) {
        ChannelBase& ch = *channels_[e];
        gauges.push_back(
            {ch.depth(), ch.capacity(), ch.stall_ns(), ch.high_water()});
      }
      // Scope laggard: slowest consuming node inside the scope; lag is
      // measured against the global frontier (the sources), so a stalled
      // shard shows the full distance it trails, not just internal spread.
      Timestamp scope_laggard = kMinTimestamp;
      for (std::size_t n : scope.nodes) {
        const Runner& r = *runners_[n];
        const Timestamp w = r.node->node_watermark();
        if (w == kMinTimestamp || r.inputs.empty()) continue;
        if (scope_laggard == kMinTimestamp || w < scope_laggard) {
          scope_laggard = w;
        }
      }
      scope.monitor->observe(gauges, frontier, scope_laggard);
    }
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
        {
          std::lock_guard<std::mutex> flk(fail_mu_);
          watchdog_report_ = os.str();
        }
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::unique_ptr<ChannelBase>> channels_;
  std::unordered_map<const NodeBase*, Runner*> index_;

  std::atomic<bool> abort_{false};
  std::size_t batch_block_{kElementBlockCapacity};
  SnapshotExecutor* executor_{nullptr};
  OverloadMonitor* monitor_{nullptr};
  std::vector<OverloadScope> scopes_;
  std::mutex fail_mu_;
  std::vector<Failure> failures_;
  std::string watchdog_report_;
  std::mutex dog_mu_;
  std::condition_variable dog_cv_;
  bool dog_stop_{false};
};

}  // namespace aggspes
