// Listing 2 — the composition of Aggregates enforcing E_J's semantics
// (Theorem 2, Figure 3).
//
//   A1 wraps each S_I1 tuple group into ⟨τ ⌢ T ⌢ {}⟩ (δ-tumbling window,
//      keyed by all attributes, so T holds identical tuples);
//   A2 symmetrically wraps S_I2 into ⟨τ ⌢ {} ⌢ T⟩;
//   A3 consumes the union of both output streams (P1), keys each envelope
//      with f_K¹ or f_K² depending on its originating side, and runs the
//      in-order cartesian match over the window Γ(WA, WS), embedding all
//      matching pairs in one envelope ⟨γ.l + WS − δ ⌢ T ⌢ −1⟩.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "aggbased/embedded.hpp"
#include "core/operators/aggregate.hpp"

namespace aggspes {

namespace detail {

/// Listing 2's A1: wraps each group of identical S_I1 tuples (δ-tumbling,
/// keyed by all attributes) into ⟨τ ⌢ T ⌢ {}⟩.
template <typename L, typename R, typename FlowT>
AggregateOp<L, JoinSides<L, R>, L>& make_left_wrapper(FlowT& flow) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  return flow.template add<AggregateOp<L, JoinSides<L, R>, L>>(
      spec, KeyByAll{},
      [](const WindowView<L, L>& w) -> std::optional<JoinSides<L, R>> {
        JoinSides<L, R> s;
        for (const Tuple<L>& t : w.items) s.left.push_back(t.value);
        return s;
      });
}

/// Listing 2's A2: wraps S_I2 tuples into ⟨τ ⌢ {} ⌢ T⟩.
template <typename L, typename R, typename FlowT>
AggregateOp<R, JoinSides<L, R>, R>& make_right_wrapper(FlowT& flow) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  return flow.template add<AggregateOp<R, JoinSides<L, R>, R>>(
      spec, KeyByAll{},
      [](const WindowView<R, R>& w) -> std::optional<JoinSides<L, R>> {
        JoinSides<L, R> s;
        for (const Tuple<R>& t : w.items) s.right.push_back(t.value);
        return s;
      });
}

/// Listing 2's f'_K (L11-15): key by the first wrapped tuple, using the key
/// function of the side the envelope came from. All wrapped tuples are
/// identical (the wrappers key by all attributes), so any representative
/// works.
template <typename L, typename R, typename Key>
std::function<Key(const JoinSides<L, R>&)> make_side_key(
    std::function<Key(const L&)> f_k1, std::function<Key(const R&)> f_k2) {
  return [f_k1 = std::move(f_k1),
          f_k2 = std::move(f_k2)](const JoinSides<L, R>& s) -> Key {
    return s.from_left() ? f_k1(s.left[0]) : f_k2(s.right[0]);
  };
}

/// Listing 2's f_O core (L16-36): the in-order cartesian match. Invokes
/// `sink(l, r)` for every matching pair, in the listing's order. win1 and
/// win2 point into the fired window, so only the pairs `sink` keeps are
/// ever copied.
template <typename L, typename R, typename Key, typename Sink>
void cartesian_match(const WindowView<JoinSides<L, R>, Key>& w,
                     const std::function<bool(const L&, const R&)>& f_p,
                     Sink&& sink) {
  std::vector<const L*> win1;
  std::vector<const R*> win2;
  for (const Tuple<JoinSides<L, R>>& t : w.items) {
    if (t.value.from_left()) {
      for (const L& l : t.value.left) {
        for (const R* r : win2) {
          if (f_p(l, *r)) sink(l, *r);
        }
        win1.push_back(&l);
      }
    } else {
      for (const R& r : t.value.right) {
        for (const L* l : win1) {
          if (f_p(*l, r)) sink(*l, r);
        }
        win2.push_back(&r);
      }
    }
  }
}

}  // namespace detail

/// The three Listing 2 Aggregates, wired A1/A2 → A3. Feed the two input
/// streams to `left_in()` / `right_in()`; consume `out()`. `MachineT`
/// selects the backend of A3's Γ(WA, WS) window — the only one that
/// overlaps (A1/A2 are δ-tumbling and keep the default).
template <typename L, typename R, typename Key,
          template <typename, typename> class MachineT = WindowMachine>
class EmbedJoin {
 public:
  using Sides = JoinSides<L, R>;
  using Out = Embedded<std::pair<L, R>>;
  using Match = AggregateOp<Sides, Out, Key, MachineT<Sides, Key>>;
  using LeftKeyFn = std::function<Key(const L&)>;
  using RightKeyFn = std::function<Key(const R&)>;
  using Predicate = std::function<bool(const L&, const R&)>;

  template <typename FlowT>
  EmbedJoin(FlowT& flow, WindowSpec join_spec, LeftKeyFn f_k1,
            RightKeyFn f_k2, Predicate f_p)
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
  static Match& make_match(FlowT& flow, WindowSpec spec, LeftKeyFn f_k1,
                           RightKeyFn f_k2, Predicate f_p) {
    auto f_k = detail::make_side_key<L, R, Key>(std::move(f_k1),
                                                std::move(f_k2));
    // f_O (List. 2, L16-36): embed all matching pairs in one envelope.
    auto f_o = [f_p = std::move(f_p)](const WindowView<Sides, Key>& w)
        -> std::optional<Out> {
      std::vector<std::pair<L, R>> pairs;
      detail::cartesian_match<L, R, Key>(
          w, f_p, [&pairs](const L& l, const R& r) {
            pairs.emplace_back(l, r);
          });
      if (pairs.empty()) return std::nullopt;
      return Out{std::move(pairs), kFromEmbed};
    };
    return flow.template add<Match>(spec, std::move(f_k), std::move(f_o),
                           /*regular_inputs=*/2);
  }

  AggregateOp<L, Sides, L>& a1_;
  AggregateOp<R, Sides, R>& a2_;
  Match& a3_;
};

}  // namespace aggspes
