// MultiQueryOp (DESIGN.md § 14): one operator node hosting Q concurrent
// window queries over the same keyed stream, served from a SharedLattice.
// Each registered query gets its own outlet; every fire for query q goes
// out outlet q with that query's output event time (γ.l + WS_q − δ), and
// watermarks / end-of-stream / checkpoint markers are broadcast to all
// outlets after the lattice has fired, so per-outlet ordering (results
// before the watermark that completed them) matches a dedicated
// single-query operator exactly.
//
// Two variants mirror the single-query operator families:
//   * MultiQueryMonoidOp — f_O is a monoid shared by all queries, with a
//     per-query `lower` step; fires are O(log P) range folds off one
//     per-key tree (LatticeMonoidPolicy).
//   * MultiQueryReplayOp — arbitrary per-query f_O over a view of the
//     instance's stored tuples (ReplayPolicy), the fallback when f_O is
//     not a monoid homomorphism.
//
// Recovery: the snapshot codec is versioned (JoinOp precedent) and writes
// the shared lattice once — a single barrier cut covers all Q queries.
// Restoring into an operator with a different query count is a
// SnapshotError, not silent misattribution.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/operators/window_machine.hpp"
#include "core/swa/shared_lattice.hpp"

namespace aggspes {

inline constexpr std::uint8_t kMultiQueryCodecVersion = 1;

/// One registered monoid query: its window spec plus the per-query
/// lowering from the shared monoid's WindowAggregate to output payloads.
template <typename Out, typename Key, typename Agg>
struct MonoidQuery {
  WindowSpec spec;
  std::function<std::optional<Out>(const Key&,
                                   const swa::WindowAggregate<Agg>&)>
      lower;
};

/// One registered replay query: its window spec plus an arbitrary f_O
/// over a view of the instance's stored tuples.
template <typename In, typename Out, typename Key>
struct ReplayQuery {
  WindowSpec spec;
  std::function<std::optional<Out>(const WindowView<In, Key>&)> f_o;
};

/// Q monoid queries over one shared lattice: per-query O(log P) range
/// folds off one tree per key.
template <typename In, typename Out, typename Key, typename Agg>
class MultiQueryMonoidOp final : public UnaryNode<In, Out> {
 public:
  using Lattice = swa::MonoidLattice<In, Agg, Key>;
  using KeyFn = typename Lattice::KeyFn;
  using Query = MonoidQuery<Out, Key, Agg>;

  MultiQueryMonoidOp(std::vector<Query> queries, KeyFn f_k,
                     swa::Monoid<In, Agg> m)
      : UnaryNode<In, Out>(1, 0),
        queries_(std::move(queries)),
        lattice_(specs_of(queries_), std::move(f_k),
                 swa::LatticeMonoidPolicy<In, Agg, Key>(std::move(m))),
        outs_(queries_.size()) {}

  /// Outlet carrying query q's results (the inherited out() is unused —
  /// it would collapse all queries onto one stream).
  Outlet<Out>& out(int q) { return outs_[static_cast<std::size_t>(q)]; }
  int query_count() const { return lattice_.query_count(); }

  Lattice& lattice() { return lattice_; }
  const Lattice& lattice() const { return lattice_; }

  void fail_downstream() override {
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
      w.write_u64(lattice_.policy().max_cached_keys());
      lattice_.save(w);
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (aggregate lacks a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      if (version != kMultiQueryCodecVersion) {
        throw SnapshotError("unknown MultiQueryMonoidOp codec version " +
                            std::to_string(version));
      }
      lattice_.policy().set_max_cached_keys(r.read_u64());
      lattice_.load(r);
    } else {
      throw SnapshotError("MultiQueryMonoidOp aggregate lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    lattice_.add(t, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    lattice_.advance(w, fire_);
    for (Outlet<Out>& o : outs_) o.push_watermark(w);
  }

  void on_end() override {
    lattice_.flush(fire_);
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void on_marker(std::uint64_t id) override {
    this->complete_barrier(id);
    for (Outlet<Out>& o : outs_) {
      o.push(Element<Out>{CheckpointMarker{id}});
    }
  }

  /// Non-quiescent barrier path: one lattice freeze covers all Q queries;
  /// serialization of the shared cut runs on the async executor.
  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter base;
      this->save_base(base);
      FrozenJob job;
      job.serialize = [frozen = swa::freeze_shared(lattice_),
                       head = base.take(),
                       knob = lattice_.policy().max_cached_keys()]() {
        SnapshotWriter w;
        w.write_raw(head.data(), head.size());
        w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
        w.write_u64(knob);
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

  void fire(int q, Timestamp l, const Key& key,
            const swa::WindowAggregate<Agg>& wa) {
    Query& query = queries_[static_cast<std::size_t>(q)];
    if (std::optional<Out> o = query.lower(key, wa)) {
      outs_[static_cast<std::size_t>(q)].push_tuple(
          Tuple<Out>{query.spec.output_ts(l), wa.stamp, std::move(*o)});
    }
  }

  static constexpr bool kSerializable =
      SnapshotSerializable<Agg> && SnapshotSerializable<Key>;

  std::vector<Query> queries_;
  Lattice lattice_;
  std::vector<Outlet<Out>> outs_;
  typename Lattice::FireFn fire_ =
      [this](int q, Timestamp l, const Key& k,
             const swa::WindowAggregate<Agg>& wa, bool) { fire(q, l, k, wa); };
};

/// Q arbitrary-f_O queries over one shared lattice: each fire hands query
/// q's f_O a WindowView over the instance's stored tuples, read in place
/// in arrival order — the replay fallback, exactly the buffering semantics.
template <typename In, typename Out, typename Key>
class MultiQueryReplayOp final : public UnaryNode<In, Out> {
 public:
  using Lattice = swa::ReplayLattice<In, Key>;
  using KeyFn = typename Lattice::KeyFn;
  using Query = ReplayQuery<In, Out, Key>;

  MultiQueryReplayOp(std::vector<Query> queries, KeyFn f_k)
      : UnaryNode<In, Out>(1, 0),
        queries_(std::move(queries)),
        lattice_(specs_of(queries_), std::move(f_k)),
        outs_(queries_.size()) {}

  Outlet<Out>& out(int q) { return outs_[static_cast<std::size_t>(q)]; }
  int query_count() const { return lattice_.query_count(); }

  Lattice& lattice() { return lattice_; }
  const Lattice& lattice() const { return lattice_; }

  void fail_downstream() override {
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
      w.write_u64(0);  // replay lattice has no cache knob; keep one layout
      lattice_.save(w);
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (payload lacks a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;
    if constexpr (kSerializable) {
      if (version != kMultiQueryCodecVersion) {
        throw SnapshotError("unknown MultiQueryReplayOp codec version " +
                            std::to_string(version));
      }
      r.read_u64();  // cache knob slot (unused by the replay lattice)
      lattice_.load(r);
    } else {
      throw SnapshotError("MultiQueryReplayOp payload lacks a StateCodec");
    }
  }

 protected:
  void on_tuple(int, const Tuple<In>& t) override {
    lattice_.add(t, this->watermark(), fire_);
  }

  void on_watermark(Timestamp w) override {
    lattice_.advance(w, fire_);
    for (Outlet<Out>& o : outs_) o.push_watermark(w);
  }

  void on_end() override {
    lattice_.flush(fire_);
    for (Outlet<Out>& o : outs_) o.push_end();
  }

  void on_marker(std::uint64_t id) override {
    this->complete_barrier(id);
    for (Outlet<Out>& o : outs_) {
      o.push(Element<Out>{CheckpointMarker{id}});
    }
  }

  std::optional<FrozenJob> freeze_snapshot(std::uint64_t) override {
    if constexpr (kSerializable) {
      if (!this->async_enabled()) return std::nullopt;
      SnapshotWriter base;
      this->save_base(base);
      FrozenJob job;
      job.serialize = [frozen = swa::freeze_shared(lattice_),
                       head = base.take()]() {
        SnapshotWriter w;
        w.write_raw(head.data(), head.size());
        w.write_pod<std::uint8_t>(kMultiQueryCodecVersion);
        w.write_u64(0);  // cache knob slot (replay lattice has none)
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

  void fire(int q, Timestamp l, const Key& key, const TupleView<In>& items) {
    Query& query = queries_[static_cast<std::size_t>(q)];
    WindowView<In, Key> view{l, query.spec.size, key, items};
    if (std::optional<Out> o = query.f_o(view)) {
      outs_[static_cast<std::size_t>(q)].push_tuple(Tuple<Out>{
          query.spec.output_ts(l), max_stamp(items), std::move(*o)});
    }
  }

  static constexpr bool kSerializable =
      SnapshotSerializable<In> && SnapshotSerializable<Key>;

  std::vector<Query> queries_;
  Lattice lattice_;
  std::vector<Outlet<Out>> outs_;
  typename Lattice::FireFn fire_ =
      [this](int q, Timestamp l, const Key& k, const TupleView<In>& items,
             bool) { fire(q, l, k, items); };
};

}  // namespace aggspes
