// The per-instance ("buffering") dedicated windowed Join — the original
// storage discipline of § 2.1's J, kept as the buffering backend of the
// Table-1 harness and as the differential-test oracle for the pane-backed
// JoinOp (core/operators/join.hpp):
//
//   S_O = J(Γ(WA, WS, S_I1, f_K¹, L), Γ(WA, WS, S_I2, f_K², L), f_P)
//
// Each tuple is copied into *every* open instance it falls in, so memory
// scales with the WS/WA overlap ratio; matching is eager (arrivals probe
// the other side's stored tuples per aligned instance) and the watermark
// discards instance pairs that can produce no further result. Per § 3 the
// paper assumes L = 0 for J.
//
// The snapshot layout is the pre-pane JoinOp codec (a has_state bool of
// 0/1 right after the base state); the pane-backed JoinOp reads it as its
// legacy version and migrates it into pane form.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/operators/operator_base.hpp"
#include "core/window.hpp"

namespace aggspes {

template <typename L, typename R, typename Key>
class BufferingJoinOp final : public BinaryNode<L, R, std::pair<L, R>> {
 public:
  using Out = std::pair<L, R>;
  using LeftKeyFn = std::function<Key(const L&)>;
  using RightKeyFn = std::function<Key(const R&)>;
  using Predicate = std::function<bool(const L&, const R&)>;

  BufferingJoinOp(WindowSpec spec, LeftKeyFn f_k1, RightKeyFn f_k2,
                  Predicate f_p)
      : spec_(spec),
        f_k1_(std::move(f_k1)),
        f_k2_(std::move(f_k2)),
        f_p_(std::move(f_p)) {}

  std::uint64_t comparisons() const { return comparisons_; }
  std::uint64_t dropped_late() const { return dropped_late_; }

  /// Occupancy diagnostics: tuple *copies* currently buffered across all
  /// open instances (the per-instance fan-out the pane store eliminates),
  /// and the high-water marks since the last reset_diagnostics().
  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t peak_occupancy() const { return peak_occupancy_; }
  std::size_t open_instances() const { return instances_.size(); }
  std::uint64_t peak_panes() const { return peak_instances_; }
  void reset_diagnostics() {
    peak_occupancy_ = occupancy_;
    peak_instances_ = instances_.size();
  }

  void snapshot_to(SnapshotWriter& w) const override {
    this->save_base(w);
    if constexpr (kSerializable) {
      w.write_bool(true);
      w.write_size(instances_.size());
      for (const auto& [l, keys] : instances_) {
        w.write_i64(l);
        w.write_size(keys.size());
        for (const auto& [key, cell] : keys) {
          write_value(w, key);
          write_value(w, cell.lefts);
          write_value(w, cell.rights);
        }
      }
      w.write_u64(comparisons_);
      w.write_u64(dropped_late_);
    } else {
      w.write_bool(false);
    }
  }

  void restore_from(SnapshotReader& r) override {
    this->load_base(r);
    const bool has_state = r.read_bool();
    if constexpr (kSerializable) {
      if (!has_state) return;
      instances_.clear();
      occupancy_ = 0;
      const std::size_t n_instances = r.read_count();
      for (std::size_t i = 0; i < n_instances; ++i) {
        const Timestamp l = r.read_i64();
        auto& keys = instances_[l];
        const std::size_t n_keys = r.read_count();
        for (std::size_t k = 0; k < n_keys; ++k) {
          Key key = read_value<Key>(r);
          Cell cell;
          cell.lefts = read_value<std::vector<Tuple<L>>>(r);
          cell.rights = read_value<std::vector<Tuple<R>>>(r);
          occupancy_ += cell.lefts.size() + cell.rights.size();
          keys.emplace(std::move(key), std::move(cell));
        }
      }
      comparisons_ = r.read_u64();
      dropped_late_ = r.read_u64();
      peak_occupancy_ = occupancy_;
      peak_instances_ = instances_.size();
    } else if (has_state) {
      throw SnapshotError("BufferingJoinOp payload lacks a StateCodec");
    }
  }

 protected:
  void on_left(const Tuple<L>& t) override {
    const Key key = f_k1_(t.value);
    for_each_open_instance(t.ts, [&](Timestamp l) {
      Cell& cell = instances_[l][key];
      for (const Tuple<R>& r : cell.rights) {
        ++comparisons_;
        if (f_p_(t.value, r.value)) emit(l, t, r);
      }
      cell.lefts.push_back(t);
      bump_occupancy();
    });
  }

  void on_right(const Tuple<R>& t) override {
    const Key key = f_k2_(t.value);
    for_each_open_instance(t.ts, [&](Timestamp l) {
      Cell& cell = instances_[l][key];
      for (const Tuple<L>& lft : cell.lefts) {
        ++comparisons_;
        if (f_p_(lft.value, t.value)) emit(l, lft, t);
      }
      cell.rights.push_back(t);
      bump_occupancy();
    });
  }

  void on_watermark(Timestamp w) override {
    // Discard aligned instance pairs that cannot produce further results.
    while (!instances_.empty() && spec_.closes(instances_.begin()->first, w)) {
      for (const auto& [key, cell] : instances_.begin()->second) {
        occupancy_ -= cell.lefts.size() + cell.rights.size();
      }
      instances_.erase(instances_.begin());
    }
    this->out_.push_watermark(w);
  }

 private:
  struct Cell {
    std::vector<Tuple<L>> lefts;
    std::vector<Tuple<R>> rights;
  };

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

  void bump_occupancy() {
    if (++occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    if (instances_.size() > peak_instances_) {
      peak_instances_ = instances_.size();
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

  WindowSpec spec_;
  LeftKeyFn f_k1_;
  RightKeyFn f_k2_;
  Predicate f_p_;
  std::map<Timestamp, std::unordered_map<Key, Cell>> instances_;
  std::uint64_t comparisons_{0};
  std::uint64_t dropped_late_{0};
  std::uint64_t occupancy_{0};
  std::uint64_t peak_occupancy_{0};
  std::size_t peak_instances_{0};
};

}  // namespace aggspes
