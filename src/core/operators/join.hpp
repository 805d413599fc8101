// The Dedicated windowed Join of § 2.1:
//
//   S_O = J(Γ(WA, WS, S_I1, f_K¹, L), Γ(WA, WS, S_I2, f_K², L), f_P)
//
// Pairs t1 ∈ S_I1, t2 ∈ S_I2 falling in *aligned* instances (γ1.l = γ2.l)
// with f_K¹(t1) = f_K²(t2) are tested with f_P; matches are forwarded as
// ⟨γ.l + WS − δ, t1 ⌢ t2⟩. As in SPE-native joins (§ 6.2), matching is
// *eager*: each arriving tuple is immediately probed against the stored
// tuples of the other side, so results do not wait for watermarks. The
// watermark is used to discard instance pairs that can produce no further
// result (γ.l + WS ≤ W, § 2.3). Per § 3 the paper assumes L = 0 for J.
//
// Storage goes through the JoinPaneStore (DESIGN.md § 9): each tuple is
// held once, in its gcd(WA, WS)-wide pane, and a probe of instance l walks
// that instance's arrival-ordered pointer list — so output, comparison
// counts and late-drop counts are element-identical to the per-instance
// BufferingJoinOp (core/operators/join_buffering.hpp), each tuple's
// payload is stored once instead of WS/WA times, and an arrival costs
// O(WS/WA) list lookups however many panes an instance spans.
//
// Snapshot codec: versioned. Version 2 persists the pane store; the
// pre-pane layout (whose first post-base byte was a has_state bool of 0/1,
// disjoint from version tags >= 2) is read as version 1 and migrated: each
// tuple of the per-instance snapshot is accepted from the first live
// instance containing it and dropped from later ones. Per-(instance, key)
// arrival order of each side is preserved; the exact cross-instance
// interleaving is not recorded in the legacy format and is reconstructed
// in instance order.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/swa/join_store.hpp"
#include "core/window.hpp"

namespace aggspes {

template <typename L, typename R, typename Key>
class JoinOp final : public BinaryNode<L, R, std::pair<L, R>> {
 public:
  using Out = std::pair<L, R>;
  using LeftKeyFn = std::function<Key(const L&)>;
  using RightKeyFn = std::function<Key(const R&)>;
  using Predicate = std::function<bool(const L&, const R&)>;
  using Store = swa::JoinPaneStore<L, R, Key>;

  JoinOp(WindowSpec spec, LeftKeyFn f_k1, RightKeyFn f_k2, Predicate f_p)
      : spec_(spec),
        f_k1_(std::move(f_k1)),
        f_k2_(std::move(f_k2)),
        f_p_(std::move(f_p)),
        store_(spec) {}

  using LeftEquiHash = typename Store::LeftEquiHash;
  using RightEquiHash = typename Store::RightEquiHash;

  /// Declares f_P equi-only: f_P(a, b) can only hold when
  /// h_l(a) == h_r(b). Probes then walk just the matching hash bucket of
  /// the stored side instead of every candidate of the key — f_P is
  /// still applied to each candidate, so hash collisions cost
  /// comparisons, never correctness, and output stays element-identical
  /// to the unindexed (and buffering) paths.
  void declare_equi(LeftEquiHash h_l, RightEquiHash h_r) {
    equi_l_ = std::move(h_l);
    equi_r_ = std::move(h_r);
    store_.declare_equi(equi_l_, equi_r_);
  }

  std::uint64_t comparisons() const { return comparisons_; }
  std::uint64_t dropped_late() const { return dropped_late_; }

  const Store& store() const { return store_; }
  std::uint64_t peak_occupancy() const { return store_.peak_occupancy(); }
  std::uint64_t peak_panes() const { return store_.peak_panes(); }
  void reset_diagnostics() { store_.reset_diagnostics(); }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_pod<std::uint8_t>(kCodecVersion);
      store_.save(w);
      w.write_u64(comparisons_);
      w.write_u64(dropped_late_);
    } else {
      w.write_pod<std::uint8_t>(0);  // no state (payload lacks a codec)
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const std::uint8_t version = r.read_pod<std::uint8_t>();
    if (version == 0) return;  // snapshot taken without a codec
    if constexpr (kSerializable) {
      if (version == 1) {
        migrate_per_instance(r);
      } else if (version == kCodecVersion) {
        store_.load(r, this->watermark());
      } else {
        throw SnapshotError("unknown JoinOp codec version " +
                            std::to_string(version));
      }
      comparisons_ = r.read_u64();
      dropped_late_ = r.read_u64();
    } else {
      throw SnapshotError("JoinOp payload lacks a StateCodec");
    }
  }

 protected:
  void on_left(const Tuple<L>& t) override {
    const Key key = f_k1_(t.value);
    const bool equi = static_cast<bool>(equi_l_);
    const std::uint64_t h = equi ? equi_l_(t.value) : 0;
    bool stored = false;
    for_each_open_instance(t.ts, [&](Timestamp l) {
      auto test = [&](const Tuple<R>& r) {
        ++comparisons_;
        if (f_p_(t.value, r.value)) emit(l, t, r);
      };
      if (equi) {
        store_.for_each_right_equi(l, key, h, test);
      } else {
        store_.for_each_right(l, key, test);
      }
      if (!stored) {
        store_.add_left(key, t);
        stored = true;
      }
    });
  }

  void on_right(const Tuple<R>& t) override {
    const Key key = f_k2_(t.value);
    const bool equi = static_cast<bool>(equi_r_);
    const std::uint64_t h = equi ? equi_r_(t.value) : 0;
    bool stored = false;
    for_each_open_instance(t.ts, [&](Timestamp l) {
      auto test = [&](const Tuple<L>& lft) {
        ++comparisons_;
        if (f_p_(lft.value, t.value)) emit(l, lft, t);
      };
      if (equi) {
        store_.for_each_left_equi(l, key, h, test);
      } else {
        store_.for_each_left(l, key, test);
      }
      if (!stored) {
        store_.add_right(key, t);
        stored = true;
      }
    });
  }

  void on_watermark(Timestamp w) override {
    store_.purge_closed(w);
    this->out_.push_watermark(w);
  }

 private:
  template <typename Fn>
  void for_each_open_instance(Timestamp ts, Fn&& fn) {
    const Timestamp w = this->watermark();
    spec_.for_each_instance(ts, [&](Timestamp l) {
      if (spec_.closes(l, w)) {
        ++dropped_late_;  // instance already discarded (L = 0 for J, § 3)
        return;
      }
      fn(l);
    });
  }

  /// Reads a version-1 (per-instance) snapshot into the pane store. The
  /// legacy layout stores a tuple once per live instance containing it;
  /// live instances form a suffix of the instance sequence and stream in
  /// ascending order, so a tuple's first appearance is in the earliest
  /// live instance containing it: accept it there — i.e. when the
  /// previously processed instance precedes first_instance(ts) — and skip
  /// the later duplicates.
  void migrate_per_instance(SnapshotReader& r) {
    store_.clear(this->watermark());
    bool have_prev = false;
    Timestamp prev_l = 0;
    const std::size_t n_instances = r.read_count();
    for (std::size_t i = 0; i < n_instances; ++i) {
      const Timestamp l = r.read_i64();
      const std::size_t n_keys = r.read_count();
      for (std::size_t k = 0; k < n_keys; ++k) {
        Key key = read_value<Key>(r);
        auto lefts = read_value<std::vector<Tuple<L>>>(r);
        auto rights = read_value<std::vector<Tuple<R>>>(r);
        for (const Tuple<L>& t : lefts) {
          if (!have_prev || prev_l < spec_.first_instance(t.ts)) {
            store_.add_left(key, t);
          }
        }
        for (const Tuple<R>& t : rights) {
          if (!have_prev || prev_l < spec_.first_instance(t.ts)) {
            store_.add_right(key, t);
          }
        }
      }
      have_prev = true;
      prev_l = l;
    }
  }

  void emit(Timestamp l, const Tuple<L>& a, const Tuple<R>& b) {
    this->out_.push_tuple(
        Tuple<Out>{spec_.output_ts(l), a.stamp > b.stamp ? a.stamp : b.stamp,
                   Out{a.value, b.value}});
  }

  static constexpr bool kSerializable = SnapshotSerializable<L> &&
                                        SnapshotSerializable<R> &&
                                        SnapshotSerializable<Key>;
  static constexpr std::uint8_t kCodecVersion = 2;

  WindowSpec spec_;
  LeftKeyFn f_k1_;
  RightKeyFn f_k2_;
  Predicate f_p_;
  LeftEquiHash equi_l_;
  RightEquiHash equi_r_;
  Store store_;
  std::uint64_t comparisons_{0};
  std::uint64_t dropped_late_{0};
};

}  // namespace aggspes
