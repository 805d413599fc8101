// A+-based FM and J (§ 5.1): with an Aggregate allowed to emit an arbitrary
// number of tuples per window instance, the Embed operator forwards its
// would-be-embedded tuples directly, the Unfold operator disappears, and
// conditions C1-C3 (and the loop, P3) are no longer needed.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "aggbased/embed_flatmap.hpp"
#include "aggbased/embed_join.hpp"
#include "core/operators/aggregate_plus.hpp"

namespace aggspes {

/// A+-based FlatMap: a single A+ with a δ-tumbling window keyed by all
/// attributes, emitting every f_FM output directly (Listing 1 minus the
/// envelope). `MachineT` selects the window backend.
template <typename In, typename Out,
          template <typename, typename> class MachineT = WindowMachine,
          typename FlowT>
AggregatePlusOp<In, Out, In, MachineT<In, In>>& make_aplus_flatmap(
    FlowT& flow, FlatMapFn<In, Out> f_fm) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  auto f_o = [f = std::move(f_fm)](const WindowView<In, In>& w) {
    std::vector<Out> all;
    for (const Tuple<In>& t : w.items) {
      std::vector<Out> produced = f(t.value);
      all.insert(all.end(), std::make_move_iterator(produced.begin()),
                 std::make_move_iterator(produced.end()));
    }
    return all;
  };
  return flow.template add<AggregatePlusOp<In, Out, In, MachineT<In, In>>>(
      spec, KeyByAll{}, std::move(f_o));
}

/// A+-based Join: Listing 2's A1/A2 side wrappers (still minimal A's — one
/// output per instance) feeding an A+ A3 that emits each matching pair as
/// its own tuple. `MachineT` selects the backend of the A3 match window
/// (the only window that overlaps; A1/A2 are δ-tumbling and stay default).
template <typename L, typename R, typename Key,
          template <typename, typename> class MachineT = WindowMachine>
class AplusJoin {
 public:
  using Sides = JoinSides<L, R>;
  using Out = std::pair<L, R>;
  using Match = AggregatePlusOp<Sides, Out, Key, MachineT<Sides, Key>>;

  template <typename FlowT>
  AplusJoin(FlowT& flow, WindowSpec join_spec,
            std::function<Key(const L&)> f_k1,
            std::function<Key(const R&)> f_k2,
            std::function<bool(const L&, const R&)> f_p)
      : a1_(detail::make_left_wrapper<L, R>(flow)),
        a2_(detail::make_right_wrapper<L, R>(flow)),
        a3_(make_match(flow, join_spec, std::move(f_k1), std::move(f_k2),
                       std::move(f_p))) {
    flow.connect(a1_, a1_.out(), a3_, a3_.in(0));
    flow.connect(a2_, a2_.out(), a3_, a3_.in(1));
  }

  Consumer<L>& left_in() { return a1_.in(); }
  Consumer<R>& right_in() { return a2_.in(); }
  Outlet<Out>& out() { return a3_.out(); }
  NodeBase& left_in_node() { return a1_; }
  NodeBase& right_in_node() { return a2_; }
  NodeBase& out_node() { return a3_; }

  Match& match() { return a3_; }

 private:
  template <typename FlowT>
  static Match& make_match(FlowT& flow, WindowSpec spec,
                           std::function<Key(const L&)> f_k1,
                           std::function<Key(const R&)> f_k2,
                           std::function<bool(const L&, const R&)> f_p) {
    auto f_k = detail::make_side_key<L, R, Key>(std::move(f_k1),
                                                std::move(f_k2));
    auto f_o = [f_p = std::move(f_p)](const WindowView<Sides, Key>& w) {
      std::vector<Out> pairs;
      detail::cartesian_match<L, R, Key>(
          w, f_p,
          [&pairs](const L& l, const R& r) { pairs.emplace_back(l, r); });
      return pairs;
    };
    return flow.template add<Match>(spec, std::move(f_k), std::move(f_o),
                           /*regular_inputs=*/2);
  }

  AggregateOp<L, Sides, L>& a1_;
  AggregateOp<R, Sides, R>& a2_;
  Match& a3_;
};

}  // namespace aggspes
