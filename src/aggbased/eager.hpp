// A++-based FM and J — the paper's proposed "intermediate results"
// relaxation (§ 6.2), implemented to quantify its hypothesis: with eager
// per-arrival emission, the Aggregate-based operators should approach the
// Dedicated implementations' latency, because results no longer wait for
// watermarks at all.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "aggbased/embed_flatmap.hpp"
#include "aggbased/embed_join.hpp"
#include "core/operators/aggregate_eager.hpp"

namespace aggspes {

/// A++-based FlatMap: δ-tumbling window keyed by all attributes whose
/// incremental function applies f_FM to each arriving tuple — outputs leave
/// the operator immediately, like the Dedicated FM.
template <typename In, typename Out, typename FlowT>
AggregateEagerOp<In, Out, In>& make_eager_flatmap(FlowT& flow,
                                                  FlatMapFn<In, Out> f_fm) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  auto f_i = [f = std::move(f_fm)](const WindowView<In, In>& w) {
    return f(w.items.back().value);  // just-arrived tuple
  };
  auto f_o = [](const WindowView<In, In>&) { return std::vector<Out>{}; };
  return flow.template add<AggregateEagerOp<In, Out, In>>(
      spec, KeyByAll{}, std::move(f_i), std::move(f_o));
}

/// A++-based Join: side wrappers as in Listing 2, with an eager A3 that
/// matches each arriving envelope against the other side's earlier window
/// content — the Dedicated join's behavior, expressed as an Aggregate.
namespace detail {

/// Eager side wrapper: emits ⟨τ ⌢ [t] ⌢ {}⟩ (or the symmetric right form)
/// the moment t arrives, instead of waiting for the δ-window to close.
/// Duplicates become separate single-tuple groups, which A3's cartesian
/// match treats identically to one merged group, so join semantics are
/// unchanged — only the waiting disappears.
template <typename L, typename R, typename FlowT>
AggregateEagerOp<L, JoinSides<L, R>, L>& make_eager_left_wrapper(
    FlowT& flow) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  return flow.template add<AggregateEagerOp<L, JoinSides<L, R>, L>>(
      spec, KeyByAll{},
      [](const WindowView<L, L>& w) {
        return std::vector<JoinSides<L, R>>{
            JoinSides<L, R>{{w.items.back().value}, {}}};
      },
      [](const WindowView<L, L>&) {
        return std::vector<JoinSides<L, R>>{};
      });
}

template <typename L, typename R, typename FlowT>
AggregateEagerOp<R, JoinSides<L, R>, R>& make_eager_right_wrapper(
    FlowT& flow) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  return flow.template add<AggregateEagerOp<R, JoinSides<L, R>, R>>(
      spec, KeyByAll{},
      [](const WindowView<R, R>& w) {
        return std::vector<JoinSides<L, R>>{
            JoinSides<L, R>{{}, {w.items.back().value}}};
      },
      [](const WindowView<R, R>&) {
        return std::vector<JoinSides<L, R>>{};
      });
}

}  // namespace detail

template <typename L, typename R, typename Key>
class EagerJoin {
 public:
  using Sides = JoinSides<L, R>;
  using Out = std::pair<L, R>;

  template <typename FlowT>
  EagerJoin(FlowT& flow, WindowSpec join_spec,
            std::function<Key(const L&)> f_k1,
            std::function<Key(const R&)> f_k2,
            std::function<bool(const L&, const R&)> f_p)
      : a1_(detail::make_eager_left_wrapper<L, R>(flow)),
        a2_(detail::make_eager_right_wrapper<L, R>(flow)),
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

 private:
  using Match = AggregateEagerOp<Sides, Out, Key>;

  template <typename FlowT>
  static Match& make_match(FlowT& flow, WindowSpec spec,
                           std::function<Key(const L&)> f_k1,
                           std::function<Key(const R&)> f_k2,
                           std::function<bool(const L&, const R&)> f_p) {
    auto f_k = detail::make_side_key<L, R, Key>(std::move(f_k1),
                                                std::move(f_k2));
    // Incremental match: the new envelope (view.items.back()) against every
    // earlier envelope of the other side — Listing 2's traversal order,
    // evaluated as tuples arrive instead of on expiration.
    auto f_i = [f_p = std::move(f_p)](const WindowView<Sides, Key>& w) {
      std::vector<Out> pairs;
      const Sides& fresh = w.items.back().value;
      for (std::size_t i = 0; i + 1 < w.items.size(); ++i) {
        const Sides& old = w.items[i].value;
        if (fresh.from_left() && !old.from_left()) {
          for (const L& l : fresh.left) {
            for (const R& r : old.right) {
              if (f_p(l, r)) pairs.emplace_back(l, r);
            }
          }
        } else if (!fresh.from_left() && old.from_left()) {
          for (const R& r : fresh.right) {
            for (const L& l : old.left) {
              if (f_p(l, r)) pairs.emplace_back(l, r);
            }
          }
        }
      }
      return pairs;
    };
    auto f_o = [](const WindowView<Sides, Key>&) {
      return std::vector<Out>{};  // everything was emitted eagerly
    };
    return flow.template add<Match>(spec, std::move(f_k), std::move(f_i),
                                    std::move(f_o), /*regular_inputs=*/2);
  }

  AggregateEagerOp<L, Sides, L>& a1_;
  AggregateEagerOp<R, Sides, R>& a2_;
  Match& a3_;
};

}  // namespace aggspes
