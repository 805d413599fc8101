// Shared-nothing key-by parallelism (§ 2.2): a logical stateful operator is
// deployed as N physical instances; tuples sharing the same f_K value are
// routed to the same instance, while watermarks and end-of-stream are
// broadcast so every instance can make progress.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/hashing.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/input_log.hpp"
#include "core/runtime/overload.hpp"
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
///
/// The splitter is also every output's admission edge (DESIGN.md § 13).
/// Per output s it may hold:
///  * a Shedder, asked `admit(key hash, ts, last watermark seen)` before
///    the push; a refused tuple counts as routed but is never sent;
///  * a WAL partition. Every admitted tuple and every watermark is encoded
///    (wal_codec) and appended BEFORE the push, so the log always holds
///    what output s has seen; `logged(s)` is the partition's sequence
///    number (== InputLog seqno on a fresh partition). On a
///    CheckpointMarker every log syncs and notes the cut (checkpoint id
///    covers [1, logged(s)]) before the barrier completes, so the
///    snapshotted cursor and the noted cut always agree. EndOfStream is
///    not logged (it is a shutdown signal, not data — a repair replay
///    appends its own); it only forces a final sync.
template <typename T, typename Key>
class KeySplitter final : public NodeBase {
 public:
  using KeyFn = std::function<Key(const T&)>;

  /// `shedders` and `wals` are each empty (no gate / not durable) or hold
  /// one externally owned entry per output.
  KeySplitter(int n, KeyFn key_fn, std::vector<Shedder*> shedders = {},
              std::vector<InputLog*> wals = {})
      : key_fn_(std::move(key_fn)),
        outs_(static_cast<std::size_t>(n)),
        shedders_(std::move(shedders)),
        wals_(std::move(wals)),
        routed_(outs_.size(), 0),
        logged_(outs_.size(), 0),
        port_([this](const Element<T>& e) { receive(e); },
              [this](const Tuple<T>* ts, std::size_t k) {
                for (std::size_t i = 0; i < k; ++i) route(ts[i]);
              }) {
    if ((!shedders_.empty() && shedders_.size() != outs_.size()) ||
        (!wals_.empty() && wals_.size() != outs_.size())) {
      throw std::invalid_argument(
          "KeySplitter: shedders and WALs must be empty or one per output");
    }
    if constexpr (!SnapshotSerializable<T>) {
      if (!wals_.empty()) {
        throw std::invalid_argument(
            "KeySplitter: a WAL needs a payload with a StateCodec");
      }
    }
  }

  Consumer<T>& in() { return port_; }
  Outlet<T>& out(int i) { return outs_[static_cast<std::size_t>(i)]; }
  int instances() const { return static_cast<int>(outs_.size()); }

  /// Tuples routed to output `i` so far, shed ones included (the harness
  /// surfaces these as per-shard routed counts; the skew test reads them
  /// to show a hot key concentrating on one shard).
  std::uint64_t routed(int i) const {
    return routed_[static_cast<std::size_t>(i)];
  }
  const std::vector<std::uint64_t>& routed_counts() const { return routed_; }
  void reset_diagnostics() {
    for (auto& c : routed_) c = 0;
  }

  /// Elements appended to output `i`'s WAL so far (its replay cursor).
  std::uint64_t logged(int i) const {
    return logged_[static_cast<std::size_t>(i)];
  }

  /// Checkpoint codec v3: [u8 version][n][routed_s, logged_s]×n.
  static constexpr std::uint8_t kCodecVersion = 3;

  void snapshot_to(SnapshotWriter& w) const override {
    w.write_pod(kCodecVersion);
    w.write_size(outs_.size());
    for (std::size_t s = 0; s < outs_.size(); ++s) {
      w.write_u64(routed_[s]);
      w.write_u64(logged_[s]);
    }
  }

  void restore_from(SnapshotReader& r) override {
    const auto cursors = read_cursors(r);
    if (cursors.size() != outs_.size()) {
      throw SnapshotError("KeySplitter: output count mismatch in snapshot");
    }
    for (std::size_t s = 0; s < cursors.size(); ++s) {
      routed_[s] = cursors[s].first;
      logged_[s] = cursors[s].second;
    }
  }

  /// Output `shard`'s logged cursor in a whole record written by
  /// snapshot_to, read without a live node: the shard supervisor takes
  /// the failed shard's cut cursor straight from the CheckpointStore.
  static std::uint64_t decode_logged(const SnapshotWriter::Bytes& bytes,
                                     int shard) {
    SnapshotReader r(bytes);
    const auto cursors = read_cursors(r);
    if (!r.exhausted()) {
      throw SnapshotError("KeySplitter: record has " +
                          std::to_string(r.remaining()) + " unread bytes");
    }
    if (shard < 0 || static_cast<std::size_t>(shard) >= cursors.size()) {
      throw SnapshotError("KeySplitter: shard " + std::to_string(shard) +
                          " out of " + std::to_string(cursors.size()));
    }
    return cursors[static_cast<std::size_t>(shard)].second;
  }

 private:
  static std::vector<std::pair<std::uint64_t, std::uint64_t>> read_cursors(
      SnapshotReader& r) {
    const auto version = r.read_pod<std::uint8_t>();
    if (version != kCodecVersion) {
      throw SnapshotError("KeySplitter: unknown codec version " +
                          std::to_string(version));
    }
    // A shard's cursor pair takes 16 bytes.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cursors(
        r.read_count(2 * sizeof(std::uint64_t)));
    for (auto& [routed, logged] : cursors) {
      routed = r.read_u64();
      logged = r.read_u64();
    }
    return cursors;
  }

  void route(const Tuple<T>& t) {
    const std::uint64_t h = std::hash<Key>{}(key_fn_(t.value));
    const std::size_t s = shard_of_hash(h, outs_.size());
    ++routed_[s];
    if (!shedders_.empty() && !shedders_[s]->admit(h, t.ts, watermark_)) {
      return;
    }
    Element<T> e{t};
    append(s, e);
    outs_[s].push(std::move(e));
  }

  void receive(const Element<T>& e) {
    if (const auto* t = std::get_if<Tuple<T>>(&e)) {
      route(*t);
      return;
    }
    if (const auto* w = std::get_if<Watermark>(&e)) {
      watermark_ = std::max(watermark_, w->ts);
      for (std::size_t s = 0; s < outs_.size(); ++s) append(s, e);
    } else if (const auto* m = std::get_if<CheckpointMarker>(&e)) {
      // The logs note the cut before the barrier snapshots the cursors;
      // alignment then proceeds per physical instance downstream.
      for (std::size_t s = 0; s < wals_.size(); ++s) {
        wals_[s]->sync();
        wals_[s]->note_checkpoint(m->id, logged_[s]);
      }
      this->complete_barrier(m->id);
    } else {
      for (InputLog* wal : wals_) wal->sync();
    }
    for (auto& o : outs_) o.push(e);
  }

  void append(std::size_t s, const Element<T>& e) {
    if constexpr (SnapshotSerializable<T>) {
      if (wals_.empty()) return;
      wals_[s]->append(wal_codec::encode<T>(e));
      ++logged_[s];
    }
  }

  KeyFn key_fn_;
  std::vector<Outlet<T>> outs_;
  std::vector<Shedder*> shedders_;
  std::vector<InputLog*> wals_;
  std::vector<std::uint64_t> routed_;
  std::vector<std::uint64_t> logged_;
  Timestamp watermark_{kMinTimestamp};
  Port<T> port_;
};

}  // namespace aggspes
