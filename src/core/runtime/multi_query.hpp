// MultiQueryOp (DESIGN.md § 14): one operator node hosting Q concurrent
// window queries over the same keyed stream, served from one pane engine
// (swa::SlicedEngine with Q specs). Each registered query gets its own
// outlet; every fire for query q goes out outlet q with that query's
// output event time (γ.l + WS_q − δ), and watermarks / end-of-stream /
// checkpoint markers are broadcast to all outlets after the engine has
// fired, so per-outlet ordering (results before the watermark that
// completed them) matches a dedicated single-query operator exactly.
//
// The Machine parameter picks the evaluation, and FiredWindow decides —
// as for A / A+ / A++ — what each query's f_O receives and which stamp an
// output carries:
//   * swa::TreeWindowMachine (agg_tree.hpp) — f_O is a monoid shared by
//     all queries; each query's f_O lowers (key, WindowAggregate), and
//     fires are O(log P) range folds off one tree per key;
//   * swa::SlicedWindowMachine (the default) — arbitrary per-query f_O
//     over a view of the instance's stored tuples, the fallback when f_O
//     is not a monoid homomorphism.
//
// Recovery: the snapshot is [base][version][engine save], written once —
// a single barrier cut covers all Q queries. Restoring into an operator
// with a different query count is a SnapshotError, not silent
// misattribution.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/operators/window_machine.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {

/// Snapshot layout of MultiQueryOp: the base watermark state, one version
/// byte — 0 when the state has no StateCodec, this value otherwise — then
/// the engine's save(). A node accepts only the byte it writes.
inline constexpr std::uint8_t kMultiQueryCodecVersion = 3;

template <typename In, typename Out, typename Key,
          typename Machine = swa::SlicedWindowMachine<In, Key>>
class MultiQueryOp final : public UnaryNode<In, Out> {
 public:
  using KeyFn = typename Machine::KeyFn;
  using Fired = FiredWindow<In, Key, typename Machine::Result>;
  /// f_O: returns the output's payload, or nullopt (∅) for no output.
  using AggFn = typename Fired::template Fn<std::optional<Out>>;

  /// One registered query: its window spec and its f_O.
  struct Query {
    WindowSpec spec;
    AggFn f_o;
  };

  MultiQueryOp(std::vector<Query> queries, KeyFn f_k)
      : UnaryNode<In, Out>(1, 0),
        queries_(std::move(queries)),
        machine_(specs_of(queries_), std::move(f_k)),
        outs_(queries_.size()) {}

  /// Monoid machines: the monoid shared by every query follows f_K.
  template <typename F = Fired>
  MultiQueryOp(std::vector<Query> queries, KeyFn f_k, typename F::Monoid m)
      : UnaryNode<In, Out>(1, 0),
        queries_(std::move(queries)),
        machine_(specs_of(queries_), std::move(f_k), std::move(m)),
        outs_(queries_.size()) {}

  /// Outlet carrying query q's results (the inherited out() is unused —
  /// it would collapse all queries onto one stream).
  Outlet<Out>& out(int q) { return outs_[static_cast<std::size_t>(q)]; }
  int query_count() const { return machine_.query_count(); }

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }

  void fail_downstream() override {
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
      machine_.save(w);
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (payload lacks a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if constexpr (kSerializable) {
      if (version != kMultiQueryCodecVersion) {
        throw SnapshotError("unknown MultiQueryOp codec version " +
                            std::to_string(version));
      }
      machine_.load(r);
    } else if (version != 0) {
      throw SnapshotError("MultiQueryOp state lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    machine_.add(t, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    machine_.advance(w, fire_);
    for (Outlet<Out>& o : outs_) o.push_watermark(w);
  }

  void on_end() override {
    machine_.flush(fire_);
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void on_marker(std::uint64_t id) override {
    this->complete_barrier(id);
    for (Outlet<Out>& o : outs_) {
      o.push(Element<Out>{CheckpointMarker{id}});
    }
  }

  /// Non-quiescent barrier path: one engine freeze covers all Q queries;
  /// serialization of the shared cut runs on the async executor.
  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter head;
      this->save_base(head);
      head.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
      FrozenJob job;
      job.serialize = [frozen = swa::freeze_shared(machine_),
                       head = head.take()]() {
        SnapshotWriter w;
        w.write_raw(head.data(), head.size());
        frozen->serialize(w);
        return w.take();
      };
      return job;
    } else {
      return std::nullopt;
    }
  }

 private:
  static std::vector<WindowSpec> specs_of(const std::vector<Query>& qs) {
    std::vector<WindowSpec> specs;
    specs.reserve(qs.size());
    for (const Query& q : qs) specs.push_back(q.spec);
    return specs;
  }

  static constexpr bool kSerializable =
      Fired::kStateCodec && SnapshotSerializable<Key>;

  std::vector<Query> queries_;
  Machine machine_;
  std::vector<Outlet<Out>> outs_;
  std::function<void(int, Timestamp, const Key&,
                     const typename Machine::Result&, bool)>
      fire_ = [this](int q, Timestamp l, const Key& key,
                     const typename Machine::Result& r, bool) {
        const Query& query = queries_[static_cast<std::size_t>(q)];
        if (std::optional<Out> o =
                Fired::apply(query.f_o, l, query.spec.size, key, r)) {
          outs_[static_cast<std::size_t>(q)].push_tuple(Tuple<Out>{
              query.spec.output_ts(l), Fired::stamp(r), std::move(*o)});
        }
      };
};

}  // namespace aggspes
