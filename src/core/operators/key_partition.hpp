// Shared-nothing key-by parallelism (§ 2.2): a logical stateful operator is
// deployed as N physical instances; tuples sharing the same f_K value are
// routed to the same instance, while watermarks and end-of-stream are
// broadcast so every instance can make progress.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/hashing.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Shard index for a key-hash: splitmix64-mix, then mod. The mix is part
/// of the routing contract (see KeySplitter below) — every component that
/// needs to predict a tuple's shard (per-shard shedders keying their
/// random-p draws, tests constructing hot-key skew, the shard supervisor
/// attributing WAL records) must compute it through this one function.
inline std::size_t shard_of_hash(std::size_t h, std::size_t n) {
  return static_cast<std::size_t>(splitmix64(h)) % n;
}

/// Routes tuples to one of `n` outlets by mix(hash(f_K(t))) mod n;
/// broadcasts watermarks, markers and end-of-stream to all outlets.
///
/// Routing contract (Theorem 1 support): two tuples with EQUAL f_K values
/// always land on the same output — the route is a pure function of the
/// key's std::hash value, independent of arrival order, splitter restarts,
/// or what other keys are in flight. AggBased compositions key by the
/// whole payload (f_K = identity), so "identical tuples co-locate" and
/// each shard's Aggregate observes every occurrence of a given payload,
/// which is what lets shard-local per-key states compose into the logical
/// operator's state. The hash is FINALIZED through splitmix64 before the
/// mod: std::hash<integral> is the identity on libstdc++, and composed
/// payload hashes (hash_values) correlate in their low bits across related
/// payloads — either way, raw `hash % N` routes arithmetic patterns in the
/// key space straight into shard skew. The mix makes the route depend on
/// all 64 hash bits. (Equal hashes of UNEQUAL keys also co-locate; that is
/// harmless — co-location is required, separation is best-effort.)
template <typename T, typename Key>
class KeySplitter final : public NodeBase {
 public:
  using KeyFn = std::function<Key(const T&)>;

  KeySplitter(int n, KeyFn key_fn)
      : key_fn_(std::move(key_fn)),
        outs_(static_cast<std::size_t>(n)),
        routed_(static_cast<std::size_t>(n), 0),
        port_([this](const Element<T>& e) { receive(e); }) {}

  Consumer<T>& in() { return port_; }
  Outlet<T>& out(int i) { return outs_[static_cast<std::size_t>(i)]; }
  int instances() const { return static_cast<int>(outs_.size()); }

  /// Tuples routed to output `i` so far (diagnostics: the harness surfaces
  /// these as per-shard routed counts; the skew test reads them to show a
  /// hot key concentrating on one shard).
  std::uint64_t routed(int i) const {
    return routed_[static_cast<std::size_t>(i)];
  }
  const std::vector<std::uint64_t>& routed_counts() const { return routed_; }
  void reset_diagnostics() {
    for (auto& c : routed_) c = 0;
  }

  /// Checkpoint codec v2: [u8 version][per-output routed counters].
  static constexpr std::uint8_t kCodecVersion = 2;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    w.write_size(routed_.size());
    for (std::uint64_t c : routed_) w.write_u64(c);
  }

  void restore_from(SnapshotReader& r) override {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("KeySplitter: unknown codec version " +
                          std::to_string(version));
    }
    const std::size_t n = r.read_count();
    if (n != routed_.size()) {
      throw SnapshotError("KeySplitter: output count mismatch in snapshot");
    }
    for (auto& c : routed_) c = r.read_u64();
  }

 private:
  void receive(const Element<T>& e) {
    if (const auto* t = std::get_if<Tuple<T>>(&e)) {
      const std::size_t idx =
          shard_of_hash(std::hash<Key>{}(key_fn_(t->value)), outs_.size());
      ++routed_[idx];
      outs_[idx].push(e);
    } else {
      // Watermarks, markers and end-of-stream are broadcast; a marker
      // additionally closes this node's barrier (snapshotting the routing
      // counters) before fanning out, so alignment proceeds per physical
      // instance downstream.
      if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
        this->complete_barrier(m->id);
      }
      for (auto& o : outs_) o.push(e);
    }
  }

  KeyFn key_fn_;
  std::vector<Outlet<T>> outs_;
  std::vector<std::uint64_t> routed_;
  Port<T> port_;
};

/// Routes tuples round-robin (valid for stateless operators, § 2.2);
/// broadcasts watermarks and end-of-stream.
template <typename T>
class RoundRobinSplitter final : public NodeBase {
 public:
  explicit RoundRobinSplitter(int n)
      : outs_(static_cast<std::size_t>(n)),
        port_([this](const Element<T>& e) { receive(e); }) {}

  Consumer<T>& in() { return port_; }
  Outlet<T>& out(int i) { return outs_[static_cast<std::size_t>(i)]; }
  int instances() const { return static_cast<int>(outs_.size()); }

  /// The round-robin cursor is state: replayed tuples must route to the
  /// same instances they reached before the failure.
  void snapshot_to(SnapshotWriter& w) const override {
    w.write_size(next_);
  }
  void restore_from(SnapshotReader& r) override {
    const std::size_t next = r.read_size();
    if (next >= outs_.size()) {
      throw SnapshotError("RoundRobinSplitter: cursor " +
                          std::to_string(next) + " out of " +
                          std::to_string(outs_.size()) + " outputs");
    }
    next_ = next;
  }

 private:
  void receive(const Element<T>& e) {
    if (is_tuple(e)) {
      outs_[next_].push(e);
      next_ = (next_ + 1) % outs_.size();
    } else {
      if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
        this->complete_barrier(m->id);
      }
      for (auto& o : outs_) o.push(e);
    }
  }

  std::vector<Outlet<T>> outs_;
  std::size_t next_{0};
  Port<T> port_;
};

}  // namespace aggspes
