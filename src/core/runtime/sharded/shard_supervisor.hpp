// Shard-aware supervisor: single-shard crash recovery that replays ONLY
// the failed shard's WAL suffix (DESIGN.md § 13).
//
// Failure model. A node inside shard s throws mid-run. The threaded
// runtime records the failure, the dead node fails-downstream an
// EndOfStream (so the union stops waiting on port s — end-aware min-merge
// keeps the healthy watermarks flowing), and everything OUTSIDE shard s
// keeps running to completion: the splitter routes the rest of the input
// (pushes into the dead shard's channel are dropped by the runtime; the
// splitter appends shard s's slice to the shard WAL before each push
// regardless, so the log holds the shard's COMPLETE admitted input), and
// the healthy shards drain normally, leaving their full output streams in
// their taps. run() then surfaces the failure as a FlowError.
//
// Repair pass. Instead of rebuilding the whole flow and replaying every
// shard (what run_with_recovery does for whole-flow faults), the
// supervisor rebuilds shard s ALONE as a three-stage single-threaded
// flow —
//
//   WalReplaySource(shard WAL, cut cursor + 1) → operator copy → sink
//
// — restores the operator copy and the sink (the shard's tap) from the
// last complete consistent cut, and runs it to quiescence. Because the
// composed cut is consistent per shard (shard_plan.hpp) and the splitter
// noted `checkpoint id ⇔ WAL seqno` at the same barrier that snapshotted
// its per-shard cursors, "restore at cut + replay (cut, durable]" regrows
// exactly the shard's post-cut output: the merged result (healthy taps +
// repaired shard output) is multiset-identical to a fault-free run. Work
// replayed is bounded by one shard's barrier interval, not the whole flow's
// input.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/recovery/checkpoint_store.hpp"
#include "core/recovery/durable_source.hpp"
#include "core/recovery/input_log.hpp"
#include "core/runtime/sharded/sharded_flow.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/types.hpp"

namespace aggspes {

/// Replays one shard's WAL partition from `from_seqno` (inclusive) and
/// ends the stream. The splitter never logs EndOfStream, so the replay
/// bounds the stream itself; logged watermarks replay in order, which is
/// what fires the restored operator's remaining windows.
template <typename T>
  requires SnapshotSerializable<T>
class WalReplaySource final : public NodeBase {
 public:
  WalReplaySource(InputLog& log, std::uint64_t from_seqno)
      : log_(log), from_(from_seqno) {}

  Outlet<T>& out() { return out_; }
  std::uint64_t replayed() const { return replayed_; }

  void pump() override {
    log_.replay(from_, [&](std::uint64_t, const InputLog::Bytes& b) {
      out_.push(wal_codec::decode<T>(b));
      ++replayed_;
    });
    out_.push_end();
  }

  void fail_downstream() override { out_.push_end(); }

 private:
  InputLog& log_;
  std::uint64_t from_;
  std::uint64_t replayed_{0};
  Outlet<T> out_;
};

/// What one repair pass did: which cut it restored, where the WAL replay
/// started, how many records it replayed, and the shard's complete
/// (regrown) output stream.
template <typename Out>
struct ShardRepairReport {
  int shard{ShardPlan::kShared};
  std::optional<std::uint64_t> restored_checkpoint;
  std::uint64_t replay_from{1};
  std::uint64_t replayed{0};
  std::vector<Tuple<Out>> outputs;
};

/// Rebuilds shard `shard` of `sf` alone, restores it from the latest
/// complete cut in `store`, replays its WAL suffix, and returns the
/// shard's complete output. `factory` must be the same factory `sf` was
/// built with (it re-adds the operator copy's nodes in the same order;
/// state is restored positionally, so it must list them in
/// ShardEndpoints::nodes). Requires the ShardedFlow to have been built
/// with per-shard WALs and tap_outputs.
template <typename In, typename Out, typename Key, typename FactoryT>
ShardRepairReport<Out> repair_shard(ShardedFlow<In, Out, Key>& sf, int shard,
                                    const CheckpointStore& store,
                                    FactoryT&& factory) {
  InputLog* wal = sf.wal(shard);
  if (wal == nullptr || sf.tap(shard) == nullptr) {
    throw std::logic_error(
        "repair_shard: shard was not built with a WAL partition and an "
        "output tap");
  }
  // Make every append the splitter issued before the crash replayable
  // (same process, so the group-commit buffer survived the thread death;
  // a real process crash would instead lose the unsynced tail AND the
  // downstream effects of those elements — still consistent).
  wal->sync();

  ShardRepairReport<Out> rep;
  rep.shard = shard;
  rep.restored_checkpoint = store.latest_complete();
  if (rep.restored_checkpoint) {
    if (auto bytes = store.find(sf.splitter_index(),
                                *rep.restored_checkpoint)) {
      rep.replay_from =
          KeySplitter<In, Key>::decode_logged(*bytes, shard) + 1;
    }
  }

  Flow repair;
  auto& src = repair.add<WalReplaySource<In>>(*wal, rep.replay_from);
  ShardEndpoints<In, Out> ep = factory(repair, shard);
  auto& sink = repair.add<CollectorSink<Out>>();
  repair.connect(src.out(), *ep.in);
  repair.connect(*ep.out, sink.in());

  if (rep.restored_checkpoint) {
    const std::vector<std::size_t>& ops = sf.op_indices(shard);
    if (ep.nodes.size() != ops.size()) {
      throw std::logic_error(
          "repair_shard: the factory lists " +
          std::to_string(ep.nodes.size()) + " nodes, the cut holds " +
          std::to_string(ops.size()));
    }
    for (std::size_t k = 0; k < ops.size(); ++k) {
      if (auto bytes = store.find(ops[k], *rep.restored_checkpoint)) {
        ep.nodes[k]->restore_record(*bytes);
      }
    }
    // The tap is the exactly-once device: rewinding it to the cut
    // discards whatever the shard emitted between the cut and the crash,
    // which is precisely what the replay is about to regrow.
    if (auto bytes =
            store.find(sf.tap_index(shard), *rep.restored_checkpoint)) {
      sink.restore_record(*bytes);
    }
  }

  repair.run();
  rep.replayed = src.replayed();
  rep.outputs = sink.tuples();
  return rep;
}

/// Result of a supervised sharded run: per-shard complete output streams
/// (healthy shards from their taps, a crashed shard from its repair pass)
/// plus the repair report when a repair ran.
template <typename Out>
struct ShardedRunOutcome {
  bool shard_failed{false};
  ShardRepairReport<Out> repair;
  std::vector<std::vector<Tuple<Out>>> per_shard;

  std::vector<Tuple<Out>> merged() const {
    std::vector<Tuple<Out>> all;
    for (const auto& v : per_shard) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
};

/// Runs `flow`, and if exactly one shard of `sf` fails, repairs it from
/// its WAL suffix and returns the merged outcome. Failures outside any
/// shard (source, splitter, union, watchdog) are rethrown — those need
/// the whole-flow supervisor (run_with_recovery), not a shard repair.
template <typename In, typename Out, typename Key, typename FactoryT>
ShardedRunOutcome<Out> run_sharded_with_repair(
    ThreadedFlow& flow, ShardedFlow<In, Out, Key>& sf,
    const CheckpointStore& store, FactoryT&& factory,
    ThreadedFlow::RunOptions opts = {}) {
  ShardedRunOutcome<Out> outcome;
  int failed_shard = ShardPlan::kShared;
  try {
    flow.run(opts);
  } catch (const FlowError& e) {
    if (e.node_index() == FlowError::kNoNode) throw;
    failed_shard = sf.plan().shard_of_node(e.node_index());
    if (failed_shard == ShardPlan::kShared) throw;
    outcome.shard_failed = true;
  }

  outcome.per_shard.resize(static_cast<std::size_t>(sf.shards()));
  for (int s = 0; s < sf.shards(); ++s) {
    if (s == failed_shard) continue;
    if (sf.tap(s) == nullptr) {
      throw std::logic_error("run_sharded_with_repair: taps required");
    }
    outcome.per_shard[static_cast<std::size_t>(s)] = sf.tap(s)->tuples();
  }
  if (failed_shard != ShardPlan::kShared) {
    outcome.repair =
        repair_shard(sf, failed_shard, store, std::forward<FactoryT>(factory));
    outcome.per_shard[static_cast<std::size_t>(failed_shard)] =
        outcome.repair.outputs;
  }
  return outcome;
}

}  // namespace aggspes
