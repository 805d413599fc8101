// Incremental evaluation policy for SlicedEngine (DESIGN.md § 9): pane
// cells hold monoid partial aggregates (one combine per tuple), and each
// key's window sequence is answered by a TwoStacks over pane partials —
// amortized O(1) per fire on the in-order path, independent of WS/WA.
//
// Out-of-order robustness: the sequential fast path assumes panes stop
// mutating once a newer instance has been evaluated (true for any input
// that respects the watermark, since evaluation happens at instance
// close). When a pane that is already inside some key's stacks absorbs a
// late tuple, the policy bumps a global version; every key's stacks
// rebuild lazily from the (always current) pane partials on next use.
// Correctness never depends on the stacks — they are a cache over the
// authoritative pane cells, which is also why snapshots persist only the
// cells and reset() drops the stacks wholesale.
//
// The policy machinery (cell format, combiner, per-key caches,
// version/frontier invalidation) lives in policy_base.hpp, shared with
// DabaPolicy (daba.hpp — same sliding FIFO, worst-case O(1) evict) and
// LatticeMonoidPolicy (agg_tree.hpp — no invalidation on out-of-order).
#pragma once

#include "core/swa/policy_base.hpp"
#include "core/swa/sliced_machine.hpp"
#include "core/swa/two_stacks.hpp"

namespace aggspes::swa {

/// The PR-2 incremental policy: per-key two-stacks over pane partials.
template <typename In, typename Agg, typename Key>
using MonoidPolicy =
    FifoMonoidPolicy<In, Agg, Key, TwoStacks<WindowAggregate<Agg>>>;

/// The incremental sliced backend: construct with
/// `MonoidWindowMachine<In, Agg, Key>(spec, key_fn, MonoidPolicy(m))`.
/// FireFn delivers a WindowAggregate<Agg> instead of an item vector.
template <typename In, typename Agg, typename Key>
using MonoidWindowMachine = SlicedEngine<In, Key, MonoidPolicy<In, Agg, Key>>;

}  // namespace aggspes::swa
