// ShardedFlow: deploy one logical operator as N key-partitioned shards
// (DESIGN.md § 13).
//
//   in → KeySplitter ─┬→ op copy₀ ─┬→ UnionOp → out
//                     ├→ op copy₁ ─┤   (+ per-shard tap)
//                     └→ …         ┘
//
// The splitter routes by mix(hash(f_K)) mod N (co-location contract in
// key_partition.hpp) and is every shard's admission edge: per output it
// holds the shard's Shedder gate and, in durable mode, the shard-local WAL
// partition, appending every admitted element before it is pushed so the
// shard's input can be replayed without touching its siblings. The union
// merges watermarks end-aware (union_op.hpp). Between them each shard owns
// its whole failure domain:
//
//  * the operator copy built by a caller-supplied factory (any Table-1
//    registry entry — the factory just wires the same nodes it would wire
//    for a 1-shard flow);
//  * an optional output tap (CollectorSink) recording the shard's output
//    inside the consistent cut, which is what makes single-shard repair
//    exactly-once: the repair flow restores the tap to the cut and regrows
//    only that shard's post-cut suffix (shard_supervisor.hpp).
//
// Per-shard overload control: on ThreadedFlow, each shard gets its own
// OverloadMonitor scoped to the shard's edges/nodes (the watchdog samples
// all scopes), and its Shedder reads that monitor — one slow shard sheds
// without its healthy siblings dropping a single tuple.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/key_partition.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/union_op.hpp"
#include "core/recovery/input_log.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/sharded/shard_plan.hpp"
#include "core/types.hpp"

namespace aggspes {

/// What a shard factory hands back: the operator copy's endpoints plus
/// every node it added, in add() order. The node list is the repair
/// contract — re-invoking the factory on a fresh flow re-adds the same
/// nodes in the same order, so the supervisor restores checkpointed state
/// positionally (shard_supervisor.hpp).
template <typename In, typename Out>
struct ShardEndpoints {
  NodeBase* in_node{nullptr};
  Consumer<In>* in{nullptr};
  NodeBase* out_node{nullptr};
  Outlet<Out>* out{nullptr};
  std::vector<NodeBase*> nodes;
  /// Optional occupancy probe: (peak stored, peak panes) for diagnostics.
  std::function<std::pair<std::size_t, std::size_t>()> occupancy;
};

/// Builder: wires splitter → N×(factory subgraph [→ tap]) → union into
/// an existing Flow or ThreadedFlow and keeps the handles (plan, per-shard
/// monitors/shedders/taps) the supervisor and harness need. The
/// ShardedFlow object must outlive run().
template <typename In, typename Out, typename Key = In>
class ShardedFlow {
 public:
  using KeyFn = std::function<Key(const In&)>;
  /// factory(flow, shard) builds one operator copy inside `flow`.
  template <typename FlowT>
  using Factory =
      std::function<ShardEndpoints<In, Out>(FlowT&, int shard)>;

  struct Options {
    KeyFn key_fn;
    /// Per-shard shedding at the splitter (ShedPolicy::kNone attaches no
    /// shedder at all, so a disabled gate leaves the hot path
    /// byte-identical).
    ShedConfig shed{};
    /// Per-shard monitor thresholds (ThreadedFlow only; each shard's
    /// shedder reads its own monitor).
    OverloadThresholds thresholds{};
    /// Shard-local WAL partitions, one per shard (empty = not durable).
    /// Externally owned; they ARE the durable state that survives crashes.
    std::vector<InputLog*> wals{};
    /// Record each shard's output in a CollectorSink inside the cut
    /// (required for single-shard repair; off for pure benchmarking).
    bool tap_outputs{false};
  };

  template <typename FlowT, typename FactoryT>
  ShardedFlow(FlowT& flow, int shards, Options opts, FactoryT&& factory)
      : plan_(shards), opts_(std::move(opts)) {
    if (shards < 1) {
      throw std::invalid_argument("ShardedFlow: shards must be >= 1, got " +
                                  std::to_string(shards));
    }
    if (!opts_.wals.empty() &&
        opts_.wals.size() != static_cast<std::size_t>(shards)) {
      throw std::invalid_argument(
          "ShardedFlow: " + std::to_string(opts_.wals.size()) +
          " WALs for " + std::to_string(shards) + " shards");
    }
    constexpr bool threaded = requires {
      flow.attach_overload_scope(nullptr, std::vector<std::size_t>{},
                                 std::vector<std::size_t>{});
    };

    std::vector<Shedder*> gates;
    for (int s = 0; s < shards; ++s) {
      OverloadMonitor* monitor = nullptr;
      if constexpr (threaded) {
        monitors_.push_back(
            std::make_unique<OverloadMonitor>(opts_.thresholds));
        monitor = monitors_.back().get();
      }
      if (opts_.shed.policy != ShedPolicy::kNone) {
        ShedConfig cfg = opts_.shed;
        // Decorrelate the per-shard random draws; same idiom as the
        // fair-epoch rotation (seeded, so runs reproduce).
        cfg.seed = splitmix64(cfg.seed ^ static_cast<std::uint64_t>(s));
        shedders_.push_back(std::make_unique<Shedder>(cfg, monitor));
        gates.push_back(shedders_.back().get());
      }
    }

    splitter_index_ = flow.node_count();
    splitter_ = &flow.template add<KeySplitter<In, Key>>(
        shards, opts_.key_fn, std::move(gates), opts_.wals);
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      Shard sh;
      const std::size_t node_lo = flow.node_count();
      const std::size_t edge_lo = flow.edge_count();
      ShardEndpoints<In, Out> ep = factory(flow, s);
      for (std::size_t i = node_lo; i < flow.node_count(); ++i) {
        sh.op_indices.push_back(i);
      }
      // An empty node list opts out of positional repair (composite
      // factories that cannot enumerate their nodes — bench-only shards,
      // which repair_shard refuses); a non-empty one must cover every
      // node the factory added, or a repair would restore the wrong nodes.
      if (!ep.nodes.empty() && ep.nodes.size() != sh.op_indices.size()) {
        throw std::invalid_argument(
            "ShardedFlow: shard " + std::to_string(s) + "'s factory lists " +
            std::to_string(ep.nodes.size()) + " nodes but added " +
            std::to_string(sh.op_indices.size()));
      }
      if (opts_.tap_outputs) {
        sh.tap_index = flow.node_count();
        sh.tap = &flow.template add<CollectorSink<Out>>();
      }
      sh.occupancy = std::move(ep.occupancy);

      if constexpr (threaded) {
        // The splitter → copy edge holds two default capacities: at one,
        // the splitter stalls sooner on whichever shard queue is full, and
        // sharded A and A+ lost 13–15 % of their saturation throughput on
        // fm-wiki-sharded4 (4-core host).
        //
        // It is lent: a shard copies what its windows keep on its own
        // thread. Moved in, every shard's window state stayed in the
        // allocator arena of the one thread that built the tuples; glibc
        // keeps a thread arena's top resident after the flow ends, so
        // flows rebuilt one after another (fresh threads, arenas handed
        // round) raised peak RSS on fm-wiki-sharded4 by a quarter.
        flow.connect(*splitter_, splitter_->out(s), *ep.in_node, *ep.in,
                     EdgeKind::kLent, 2 * FlowT::kDefaultCapacity);
      } else {
        flow.connect(*splitter_, splitter_->out(s), *ep.in_node, *ep.in);
      }
      if (sh.tap != nullptr) {
        flow.connect(*ep.out_node, *ep.out, *sh.tap, sh.tap->in());
      }
      sh.out_node = ep.out_node;
      sh.out = ep.out;

      for (std::size_t i = node_lo; i < flow.node_count(); ++i) {
        plan_.assign(i, s);
      }
      if constexpr (threaded) {
        std::vector<std::size_t> edges;
        // The union-input edge is wired after this capture (the union
        // does not exist yet); the shard's backlog shows on the
        // splitter→copy and internal edges, which is what the scope
        // needs — union-input depth reflects the MERGE, not the shard.
        for (std::size_t e = edge_lo; e < flow.edge_count(); ++e) {
          edges.push_back(e);
        }
        flow.attach_overload_scope(monitor(s), std::move(edges),
                                   plan_.nodes_of(s));
      }
      shards_.push_back(std::move(sh));
    }

    union_ = &flow.template add<UnionOp<Out>>(shards);
    for (int s = 0; s < shards; ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      flow.connect(*sh.out_node, *sh.out, *union_, union_->in(s));
    }
  }

  // Logical endpoints: wire the upstream source into in(), downstream
  // consumers onto out() — same shape as any single operator node.
  NodeBase& in_node() { return *splitter_; }
  Consumer<In>& in() { return splitter_->in(); }
  NodeBase& out_node() { return *union_; }
  Outlet<Out>& out() { return union_->out(); }

  int shards() const { return plan_.shards(); }
  const ShardPlan& plan() const { return plan_; }

  KeySplitter<In, Key>& splitter() { return *splitter_; }
  std::size_t splitter_index() const { return splitter_index_; }
  UnionOp<Out>& union_op() { return *union_; }
  CollectorSink<Out>* tap(int s) {
    return shards_[static_cast<std::size_t>(s)].tap;
  }
  OverloadMonitor* monitor(int s) const {
    return monitors_.empty() ? nullptr
                             : monitors_[static_cast<std::size_t>(s)].get();
  }
  Shedder* shedder(int s) const {
    return shedders_.empty() ? nullptr
                             : shedders_[static_cast<std::size_t>(s)].get();
  }
  InputLog* wal(int s) const {
    return opts_.wals.empty() ? nullptr
                              : opts_.wals[static_cast<std::size_t>(s)];
  }
  const std::vector<std::size_t>& op_indices(int s) const {
    return shards_[static_cast<std::size_t>(s)].op_indices;
  }
  std::size_t tap_index(int s) const {
    return shards_[static_cast<std::size_t>(s)].tap_index;
  }

  /// Post-run per-shard diagnostics (routed, shed, worst health, peak
  /// occupancy) — the RunResult payload.
  std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> out;
    out.reserve(shards_.size());
    for (int s = 0; s < shards(); ++s) {
      const Shard& sh = shards_[static_cast<std::size_t>(s)];
      ShardStats st;
      st.routed = splitter_->routed(s);
      if (Shedder* g = shedder(s)) st.shed = g->shed();
      if (OverloadMonitor* m = monitor(s)) st.health = m->worst();
      if (sh.occupancy) {
        const auto [stored, panes] = sh.occupancy();
        st.peak_stored = stored;
        st.peak_panes = panes;
      }
      out.push_back(st);
    }
    return out;
  }

 private:
  struct Shard {
    CollectorSink<Out>* tap{nullptr};
    NodeBase* out_node{nullptr};
    Outlet<Out>* out{nullptr};
    std::vector<std::size_t> op_indices;
    std::size_t tap_index{0};
    std::function<std::pair<std::size_t, std::size_t>()> occupancy;
  };

  ShardPlan plan_;
  Options opts_;
  KeySplitter<In, Key>* splitter_{nullptr};
  std::size_t splitter_index_{0};
  UnionOp<Out>* union_{nullptr};
  std::vector<std::unique_ptr<OverloadMonitor>> monitors_;
  std::vector<std::unique_ptr<Shedder>> shedders_;
  std::vector<Shard> shards_;
};

}  // namespace aggspes
