// Shard plan: the static side of a sharded deployment (DESIGN.md § 13).
//
// A ShardedFlow deploys one logical Table-1 operator as
//
//   source → KeySplitter → [operator copy → tap]×N → UnionOp
//
// and the plan records what the *dynamic* machinery needs to know about
// that shape after the fact: which add()-order node indices belong to
// which shard (checkpoint-cut composition and crash attribution key off
// node indices), and where each shard's WAL partition lives on disk. The
// splitter is shared: it gates and logs every shard's input, and its
// record in a cut carries each shard's WAL cursor.
//
// Consistent-cut composition. Post-routing, shards are shared-nothing:
// there is no edge between two nodes of different shards, only
// splitter→shard and shard→union edges. The aligned-barrier protocol
// already guarantees each node's recorded state for checkpoint `id` is
// consistent with its neighbours along every edge; with no cross-shard
// edges, the union of per-shard cuts for the same `id` (plus the shared
// splitter/union/source/sink records) is therefore itself a consistent
// global cut — no Chandy-Lamport channel state between shards can exist.
// That is what lets single-shard recovery restore ONE shard from the
// composed checkpoint while the others keep their live state.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/runtime/overload.hpp"

namespace aggspes {

/// Post-run diagnostics for one shard, assembled by ShardedFlow and
/// surfaced as RunResult::per_shard (per-shard routed counts, shed,
/// health, peak occupancy).
struct ShardStats {
  std::uint64_t routed{0};       ///< tuples the splitter sent this shard
  std::uint64_t shed{0};         ///< tuples this shard's Shedder dropped
  FlowHealth health{FlowHealth::kHealthy};  ///< worst health observed
  std::size_t peak_stored{0};    ///< peak tuples/partials held by the shard
  std::size_t peak_panes{0};     ///< peak open panes/instances
};

/// Maps flow node indices to shard ownership and names shard-local WAL
/// partitions. Indices are add()-order (stable across rebuilds of the
/// same builder — the invariant the whole recovery subsystem rests on).
class ShardPlan {
 public:
  static constexpr int kShared = -1;

  explicit ShardPlan(int shards = 0) : shards_(shards) {}

  int shards() const { return shards_; }

  /// Marks `node_index` as owned by `shard` (kShared nodes — splitter,
  /// union, source, sink — are simply never assigned).
  void assign(std::size_t node_index, int shard) {
    if (owner_.size() <= node_index) {
      owner_.resize(node_index + 1, kShared);
    }
    owner_[node_index] = shard;
  }

  /// Owner of `node_index`, or kShared when the node is not shard-local.
  int shard_of_node(std::size_t node_index) const {
    return node_index < owner_.size() ? owner_[node_index] : kShared;
  }

  /// Shard-owned node indices, in add() order (the order a repair flow's
  /// factory re-adds them, which is how restore maps old state to new
  /// nodes positionally).
  std::vector<std::size_t> nodes_of(int shard) const {
    std::vector<std::size_t> v;
    for (std::size_t i = 0; i < owner_.size(); ++i) {
      if (owner_[i] == shard) v.push_back(i);
    }
    return v;
  }

  /// Shard-local WAL partition directory: `<base>/shard-NNN`. One
  /// InputLog per shard keeps the failure domain aligned with the
  /// recovery domain — replaying shard 3's suffix never touches the
  /// other partitions.
  static std::filesystem::path wal_dir(const std::filesystem::path& base,
                                       int shard) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "shard-%03d", shard);
    return base / buf;
  }

 private:
  int shards_;
  std::vector<int> owner_;
};

}  // namespace aggspes
