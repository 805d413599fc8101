// ShardedFlow: deploy one logical operator as N key-partitioned shards
// (DESIGN.md § 13).
//
//   in → KeySplitter ─┬→ ShardIngress₀ → op copy₀ ─┬→ UnionOp → out
//                     ├→ ShardIngress₁ → op copy₁ ─┤      (+ per-shard tap)
//                     └→ …                         ┘
//
// The splitter routes by mix(hash(f_K)) mod N (co-location contract in
// key_partition.hpp), the union merges watermarks end-aware (union_op.hpp),
// and between them each shard owns its whole failure domain:
//
//  * a ShardIngress — the shard's admission edge: per-shard Shedder gate,
//    routed/admitted accounting, and (in durable mode) the shard-local
//    WAL partition, appending every admitted element before it is pushed
//    so the shard's input can be replayed without touching its siblings;
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

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/key_partition.hpp"
#include "core/operators/operator_base.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/union_op.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/input_log.hpp"
#include "core/runtime/overload.hpp"
#include "core/runtime/sharded/shard_plan.hpp"
#include "core/types.hpp"

namespace aggspes {

/// One shard's admission edge: shed gate, accounting, and (durable mode)
/// the shard-local WAL partition. Sits between the splitter and the
/// shard's operator copy.
///
/// WAL protocol: every admitted tuple and every watermark is encoded
/// (wal_codec) and appended BEFORE being pushed downstream, so the log is
/// always a superset of what the operator copy has seen; `logged()` is the
/// shard-local sequence number (== InputLog seqno on a fresh partition).
/// On a CheckpointMarker the ingress syncs the log and notes the cut
/// (checkpoint id covers [1, logged()]) before completing its barrier, so
/// the snapshotted cursor and the noted cut always agree. EndOfStream is
/// not logged (it is a shutdown signal, not data — the repair replay
/// appends its own); it only forces a final sync.
template <typename T>
class ShardIngress final : public UnaryNode<T, T> {
 public:
  using HashFn = std::function<std::uint64_t(const T&)>;

  ShardIngress(HashFn hash, Shedder* shedder, InputLog* wal)
      : UnaryNode<T, T>(1, 0),
        hash_(std::move(hash)),
        shedder_(shedder),
        wal_(wal) {
    if constexpr (!SnapshotSerializable<T>) {
      if (wal_ != nullptr) {
        throw std::invalid_argument(
            "ShardIngress: a WAL needs a payload with a StateCodec");
      }
    }
  }

  /// Tuples routed to this shard (pre-shedding).
  std::uint64_t routed() const { return routed_; }
  /// Elements appended to the shard WAL so far (the replay cursor).
  std::uint64_t logged() const { return seq_; }

  /// Checkpoint codec v2: [u8 version][seq][combiner][routed]. The
  /// cursor leads so decode_logged reads it without knowing the
  /// combiner's layout.
  static constexpr std::uint8_t kCodecVersion = 2;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    w.write_u64(seq_);
    this->save_base(w);
    w.write_u64(routed_);
  }

  void restore_from(SnapshotReader& r) override {
    seq_ = read_seq(r);
    this->load_base(r);
    routed_ = r.read_u64();
  }

  /// Parses the logged-cursor out of a snapshot produced by snapshot_to,
  /// without needing a live node: the supervisor reads the failed shard's
  /// cut cursor straight from the CheckpointStore.
  static std::uint64_t decode_logged(const SnapshotWriter::Bytes& bytes) {
    SnapshotReader r(bytes);
    return read_seq(r);
  }

 protected:
  void on_tuple(int, const Tuple<T>& t) override {
    ++routed_;
    if (shedder_ != nullptr &&
        !shedder_->admit(hash_(t.value), t.ts, this->watermark())) {
      return;
    }
    append(Element<T>{t});
    this->out_.push_tuple(t);
  }

  void on_watermark(Timestamp w) override {
    append(Element<T>{Watermark{w}});
    this->out_.push_watermark(w);
  }

  void on_end() override {
    if constexpr (SnapshotSerializable<T>) {
      if (wal_ != nullptr) wal_->sync();
    }
    this->out_.push_end();
  }

  void on_marker(std::uint64_t id) override {
    if constexpr (SnapshotSerializable<T>) {
      if (wal_ != nullptr) {
        wal_->sync();
        wal_->note_checkpoint(id, seq_);
      }
    }
    this->finish_marker(id);
  }

 private:
  static std::uint64_t read_seq(SnapshotReader& r) {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("ShardIngress: unknown codec version " +
                          std::to_string(version));
    }
    return r.read_u64();
  }

  void append(const Element<T>& e) {
    if constexpr (SnapshotSerializable<T>) {
      if (wal_ == nullptr) return;
      wal_->append(wal_codec::encode<T>(e));
      ++seq_;
    }
  }

  HashFn hash_;
  Shedder* shedder_;
  InputLog* wal_;
  std::uint64_t seq_{0};
  std::uint64_t routed_{0};
};

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

/// Builder: wires splitter → N×(ingress → factory subgraph [→ tap]) →
/// union into an existing Flow or ThreadedFlow and keeps the handles
/// (plan, per-shard monitors/shedders/ingresses/taps) the supervisor and
/// harness need. The ShardedFlow object must outlive run().
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
    /// Per-shard shedding (ShedPolicy::kNone attaches no shedder at all —
    /// the PR-4 convention: a disabled gate leaves the hot path
    /// byte-identical).
    ShedConfig shed{};
    /// Per-shard monitor thresholds (ThreadedFlow only; each shard's
    /// shedder reads its own monitor).
    OverloadThresholds thresholds{};
    bool per_shard_monitors{true};
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

    KeyFn key = opts_.key_fn;
    auto hash = [key](const In& v) -> std::uint64_t {
      return static_cast<std::uint64_t>(std::hash<Key>{}(key(v)));
    };

    splitter_ = &flow.template add<KeySplitter<In, Key>>(shards, key);
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      Shard sh;
      if constexpr (threaded) {
        if (opts_.per_shard_monitors) {
          monitors_.push_back(
              std::make_unique<OverloadMonitor>(opts_.thresholds));
          sh.monitor = monitors_.back().get();
        }
      }
      if (opts_.shed.policy != ShedPolicy::kNone) {
        ShedConfig cfg = opts_.shed;
        // Decorrelate the per-shard random draws; same idiom as the
        // fair-epoch rotation (seeded, so runs reproduce).
        cfg.seed = splitmix64(cfg.seed ^ static_cast<std::uint64_t>(s));
        shedders_.push_back(std::make_unique<Shedder>(cfg, sh.monitor));
        sh.shedder = shedders_.back().get();
      }
      InputLog* wal =
          opts_.wals.empty() ? nullptr : opts_.wals[static_cast<size_t>(s)];
      sh.wal = wal;

      const std::size_t node_lo = flow.node_count();
      const std::size_t edge_lo = flow.edge_count();
      sh.ingress_index = node_lo;
      sh.ingress =
          &flow.template add<ShardIngress<In>>(hash, sh.shedder, wal);
      ShardEndpoints<In, Out> ep =
          factory(flow, s);
      sh.op_indices.reserve(ep.nodes.size());
      for (std::size_t i = node_lo + 1; i < flow.node_count(); ++i) {
        sh.op_indices.push_back(i);
      }
      // An empty node list opts out of positional repair (composite
      // factories that cannot enumerate their nodes — bench-only shards);
      // a non-empty one must cover every node the factory added.
      assert(ep.nodes.empty() || sh.op_indices.size() == ep.nodes.size());
      if (opts_.tap_outputs) {
        sh.tap_index = flow.node_count();
        sh.tap = &flow.template add<CollectorSink<Out>>();
      }
      sh.occupancy = std::move(ep.occupancy);

      flow.connect(*splitter_, splitter_->out(s), *sh.ingress,
                   sh.ingress->in());
      flow.connect(*sh.ingress, sh.ingress->out(), *ep.in_node, *ep.in);
      if (sh.tap != nullptr) {
        flow.connect(*ep.out_node, *ep.out, *sh.tap, sh.tap->in());
      }
      sh.out_node = ep.out_node;
      sh.out = ep.out;

      for (std::size_t i = node_lo; i < flow.node_count(); ++i) {
        plan_.assign(i, s);
      }
      if constexpr (threaded) {
        if (sh.monitor != nullptr) {
          std::vector<std::size_t> edges;
          // The union-input edge is wired after this capture (the union
          // does not exist yet); the shard's backlog shows on the
          // splitter→ingress and internal edges, which is what the scope
          // needs — union-input depth reflects the MERGE, not the shard.
          for (std::size_t e = edge_lo; e < flow.edge_count(); ++e) {
            edges.push_back(e);
          }
          flow.attach_overload_scope(sh.monitor, std::move(edges),
                                     plan_.nodes_of(s));
        }
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
  UnionOp<Out>& union_op() { return *union_; }
  ShardIngress<In>& ingress(int s) {
    return *shards_[static_cast<std::size_t>(s)].ingress;
  }
  CollectorSink<Out>* tap(int s) {
    return shards_[static_cast<std::size_t>(s)].tap;
  }
  OverloadMonitor* monitor(int s) {
    return shards_[static_cast<std::size_t>(s)].monitor;
  }
  Shedder* shedder(int s) {
    return shards_[static_cast<std::size_t>(s)].shedder;
  }
  InputLog* wal(int s) { return shards_[static_cast<std::size_t>(s)].wal; }
  std::size_t ingress_index(int s) const {
    return shards_[static_cast<std::size_t>(s)].ingress_index;
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
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& sh = shards_[s];
      ShardStats st;
      st.routed = splitter_->routed(static_cast<int>(s));
      if (sh.shedder != nullptr) st.shed = sh.shedder->shed();
      if (sh.monitor != nullptr) st.health = sh.monitor->worst();
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
    ShardIngress<In>* ingress{nullptr};
    CollectorSink<Out>* tap{nullptr};
    NodeBase* out_node{nullptr};
    Outlet<Out>* out{nullptr};
    OverloadMonitor* monitor{nullptr};
    Shedder* shedder{nullptr};
    InputLog* wal{nullptr};
    std::size_t ingress_index{0};
    std::vector<std::size_t> op_indices;
    std::size_t tap_index{0};
    std::function<std::pair<std::size_t, std::size_t>()> occupancy;
  };

  ShardPlan plan_;
  Options opts_;
  KeySplitter<In, Key>* splitter_{nullptr};
  UnionOp<Out>* union_{nullptr};
  std::vector<std::unique_ptr<OverloadMonitor>> monitors_;
  std::vector<std::unique_ptr<Shedder>> shedders_;
  std::vector<Shard> shards_;
};

}  // namespace aggspes
