// The paper's minimalistic Aggregate operator (§ 2.1):
//
//   S_O = A(Γ(WA, WS, S_I, f_K, L), f_O)
//
// f_O(γ) computes the values of **up to one** output tuple from a window
// instance γ; A itself sets the output's event time to γ.l + WS − δ. Upon a
// watermark W, A produces the results of every instance whose right
// boundary is ≤ W and only then forwards W (§ 2.3), so Observation 1
// (t_o.τ ≥ t_i.τ) and downstream watermark correctness hold.
//
// This single operator — plus key-by partitioning and loops — is the core
// set the paper proves sufficient for F, M, FM and J.
//
// A, A+ (aggregate_plus.hpp) and A++ (aggregate_eager.hpp) are each one
// class template over a window machine (DESIGN.md § 9, § 11):
//
//   * WindowMachine (default) — each tuple copied into every instance it
//     overlaps (moved into the last); keyed by all, stored once per
//     instance with no separate key;
//   * swa::SlicedWindowMachine — each tuple stored once, in its pane;
//   * swa::MonoidWindowMachine / DabaWindowMachine / TreeWindowMachine —
//     per-pane monoid partials; f_O then reads the instance's
//     WindowAggregate, and the constructor takes the monoid after f_K.
//
// FiredWindow (window_machine.hpp, swa/policy_base.hpp) decides per machine
// family what f_O receives and which stamp an output carries;
// WindowOpCore below holds everything else the three operators share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/operators/window_machine.hpp"
#include "core/swa/epoch.hpp"

namespace aggspes {

/// Snapshot layout of every Aggregate: the base watermark state, one
/// version byte — 0 when the state has no StateCodec, this value
/// otherwise — then the machine's own save(). A node accepts only the
/// byte it writes.
inline constexpr std::uint8_t kAggregateCodecVersion = 6;

namespace detail {

/// The part of A / A+ / A++ that does not depend on how a fire becomes
/// outputs: the machine, tuple and block ingest, the watermark discipline
/// (results first, then the watermark), the end-of-stream flush, the
/// snapshot codec, the MVCC freeze and StateQuery publication. Each
/// operator sets `fire_` (and A++ `added_`) to its own handler.
template <typename In, typename Out, typename Key, typename Machine>
class WindowOpCore : public UnaryNode<In, Out> {
 public:
  using KeyFn = typename Machine::KeyFn;
  using Fired = FiredWindow<In, Key, typename Machine::Result>;
  using Hub = typename Fired::Hub;

  const Machine& machine() const { return machine_; }
  Machine& machine() { return machine_; }

  /// Serve read-only live-state queries (monoid machines): every barrier
  /// (and the end of the stream, as checkpoint id 0) publishes a
  /// consistent frozen cut to `hub`. The hub must outlive the flow; reads
  /// against its snapshots are valid while the flow (or the report
  /// holding it) is alive.
  void serve_state(Hub* hub)
    requires(!std::is_void_v<Hub>)
  {
    hub_ = hub;
  }

  /// Recoverable state: watermark positions plus the window machine
  /// (panes, fired flags, counters, the policy's cache bound).
  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kAggregateCodecVersion);
      machine_.save(w);
    } else {
      w.write_pod<std::uint8_t>(0);
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const auto version = r.read_pod<std::uint8_t>();
    if constexpr (kSerializable) {
      if (version != kAggregateCodecVersion) {
        throw SnapshotError("unknown Aggregate codec version " +
                            std::to_string(version));
      }
      machine_.load(r);
    } else if (version != 0) {
      throw SnapshotError("Aggregate state lacks a StateCodec");
    }
  }

 protected:
  template <typename... MachineArgs>
  WindowOpCore(int regular_inputs, int loop_inputs, bool flush_on_end,
               MachineArgs&&... machine_args)
      : UnaryNode<In, Out>(regular_inputs, loop_inputs),
        machine_(std::forward<MachineArgs>(machine_args)...),
        flush_on_end_(flush_on_end) {}

  void on_tuple(int, const Tuple<In>& t) override {
    machine_.add(t, this->watermark(), fire_, added_);
  }

  void on_tuple_block(int, const Tuple<In>* ts, std::size_t n) override {
    add_run(ts, n);
  }

  void on_taken_block(int, Tuple<In>* ts, std::size_t n) override {
    add_run(ts, n);
  }

  void on_watermark(Timestamp w) override {
    machine_.advance(w, fire_);
    this->out_.push_watermark(w);  // results first, then the watermark
  }

  void on_end() override {
    if constexpr (kQueryable) {
      // Publish the final pre-flush cut: every window still inside the
      // lateness horizon stays queryable after the stream ends.
      if (hub_ != nullptr) publish_cut(swa::freeze_shared(machine_), 0);
    }
    if (flush_on_end_) machine_.flush(fire_);
    this->out_.push_end();
  }

  /// Non-quiescent barrier path for machines that can freeze() an epoch
  /// (the SlicedEngine family): freeze on the operator thread (a cheap
  /// shared-version copy), publish a StateQuery cut if a hub is attached,
  /// and hand serialization — the exact bytes snapshot_to would write —
  /// to the async executor. Without a hub or executor, and for
  /// WindowMachine, the synchronous snapshot_to path is kept.
  std::optional<FrozenJob> freeze_snapshot(std::uint64_t id) override {
    if constexpr (kFreezable) {
      if (hub_ == nullptr && !this->async_enabled()) return std::nullopt;
      auto frozen = swa::freeze_shared(machine_);
      if constexpr (kQueryable) {
        if (hub_ != nullptr) publish_cut(frozen, id);
      }
      if constexpr (kSerializable) {
        SnapshotWriter head;
        this->save_base(head);
        head.write_pod<std::uint8_t>(kAggregateCodecVersion);
        FrozenJob job;
        job.serialize = [frozen = std::move(frozen), head = head.take()]() {
          SnapshotWriter w;
          w.write_raw(head.data(), head.size());
          frozen->serialize(w);
          return w.take();
        };
        return job;
      }
    }
    return std::nullopt;  // sync path (or the no-state marker byte)
  }

  /// Emits `outs` for instance `l` at γ.l + WS − δ, stamped as the
  /// machine family decides.
  void emit(Timestamp l, const typename Machine::Result& r,
            std::vector<Out> outs) {
    if (outs.empty()) return;
    const Timestamp ts = machine_.spec().output_ts(l);
    const std::uint64_t stamp = Fired::stamp(r);
    for (Out& o : outs) {
      this->out_.push_tuple(Tuple<Out>{ts, stamp, std::move(o)});
    }
  }

  /// Machines with a batched ingest (SlicedEngine) take the run whole;
  /// WindowMachine keeps per-element semantics, and moves each tuple in
  /// when the run was given up (`T` non-const: std::move then picks its
  /// Tuple&& add; a const run binds the copying one).
  template <typename T>
  void add_run(T* ts, std::size_t n) {
    if constexpr (requires { machine_.add_block(ts, n, Timestamp{}, fire_,
                                                added_); }) {
      machine_.add_block(ts, n, this->watermark(), fire_, added_);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        machine_.add(std::move(ts[i]), this->watermark(), fire_, added_);
      }
    }
  }

  Machine machine_;
  typename Machine::FireFn fire_;
  typename Machine::AddedFn added_;  ///< A++'s eager hook; empty otherwise

 private:
  static constexpr bool kSerializable =
      Fired::kStateCodec && SnapshotSerializable<Key>;
  static constexpr bool kFreezable = requires(Machine& m) { m.freeze(); };
  static constexpr bool kQueryable = kFreezable && !std::is_void_v<Hub>;

  template <typename Frozen>
  void publish_cut(std::shared_ptr<const Frozen> frozen,
                   std::uint64_t checkpoint_id) {
    using Value = typename Hub::Value;
    auto s = std::make_shared<typename Hub::Snapshot>();
    s->epoch = frozen->epoch;
    s->checkpoint_id = checkpoint_id;
    s->watermark = this->watermark();
    s->point = [frozen](const Key& key, Timestamp l) -> std::optional<Value> {
      Value wa = frozen->fold(0, l, key);
      if (wa.count == 0) return std::nullopt;
      return wa;
    };
    s->range = [frozen](const Key& key, Timestamp from, Timestamp to) {
      std::vector<std::pair<Timestamp, Value>> out;
      const Timestamp adv = frozen->queries[0].spec.advance;
      for (Timestamp l = floor_div(from + adv - 1, adv) * adv; l < to;
           l += adv) {
        Value wa = frozen->fold(0, l, key);
        if (wa.count != 0) out.emplace_back(l, std::move(wa));
      }
      return out;
    };
    hub_->publish(std::move(s));
  }

  bool flush_on_end_;
  Hub* hub_{nullptr};
};

}  // namespace detail

template <typename In, typename Out, typename Key,
          typename Machine = WindowMachine<In, Key>>
class AggregateOp final
    : public detail::WindowOpCore<In, Out, Key, Machine> {
  using Core = detail::WindowOpCore<In, Out, Key, Machine>;
  using Fired = typename Core::Fired;

 public:
  using KeyFn = typename Core::KeyFn;
  /// f_O: returns the output's payload, or nullopt (∅) for no output.
  using AggFn = typename Fired::template Fn<std::optional<Out>>;

  /// `regular_inputs` watermark-carrying ports (P1: several same-typed
  /// streams may feed one A) plus `loop_inputs` feedback ports (P3).
  /// `flush_on_end`: fire still-open instances at end-of-stream. Disable
  /// for A's that feed a loop (their residual instances are by-design
  /// unreported; firing them would emit after end-of-stream).
  AggregateOp(WindowSpec spec, KeyFn f_k, AggFn f_o, int regular_inputs = 1,
              int loop_inputs = 0, bool flush_on_end = true)
      : Core(regular_inputs, loop_inputs, flush_on_end, spec, std::move(f_k)),
        f_o_(std::move(f_o)) {
    bind();
  }

  /// Monoid machines: the monoid follows f_K and reaches the machine's
  /// evaluation policy; f_O lowers the instance's WindowAggregate.
  template <typename F = Fired>
  AggregateOp(WindowSpec spec, KeyFn f_k, typename F::Monoid m, AggFn f_o,
              int regular_inputs = 1, int loop_inputs = 0,
              bool flush_on_end = true)
      : Core(regular_inputs, loop_inputs, flush_on_end, spec, std::move(f_k),
             std::move(m)),
        f_o_(std::move(f_o)) {
    bind();
  }

 private:
  void bind() {
    this->fire_ = [this](Timestamp l, const Key& key,
                         const typename Machine::Result& r, bool) {
      const WindowSpec& spec = this->machine_.spec();
      if (std::optional<Out> o = Fired::apply(f_o_, l, spec.size, key, r)) {
        this->out_.push_tuple(
            Tuple<Out>{spec.output_ts(l), Fired::stamp(r), std::move(*o)});
      }
    };
  }

  AggFn f_o_;
};

}  // namespace aggspes
