// Listing 1 — the Aggregate enforcing E_FM's semantics (Theorem 1).
//
//   S_E = A(Γ(δ, δ, S_I1, T(S_I1)), f_O)
//
// A δ-tumbling window keyed by *all* input attributes means every window
// instance γ holds one or more *identical* tuples (Lemma 1: γ.l = t.τ and
// outputs inherit the inputs' τ). f_O runs f_FM once per tuple in γ.ζ and
// concatenates the results, so duplicated inputs contribute their outputs
// with the correct multiplicity; the concatenation is embedded in a single
// envelope ⟨τ ⌢ T ⌢ −1⟩ for X to unfold later.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "aggbased/embedded.hpp"
#include "core/operators/aggregate.hpp"

namespace aggspes {

template <typename In, typename Out>
using FlatMapFn = std::function<std::vector<Out>(const In&)>;

/// Builds the Listing 1 Aggregate. `In` must be equality-comparable and
/// hashable (it is used as the key). `MachineT` selects the window backend
/// of the embedding A — WindowMachine (buffering) or
/// swa::SlicedWindowMachine (single-copy pane storage).
template <typename In, typename Out,
          template <typename, typename> class MachineT = WindowMachine,
          typename FlowT>
AggregateOp<In, Embedded<Out>, In, MachineT<In, In>>& make_embed_flatmap(
    FlowT& flow, FlatMapFn<In, Out> f_fm) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  auto f_o = [f = std::move(f_fm)](const WindowView<In, In>& w)
      -> std::optional<Embedded<Out>> {
    std::vector<Out> outputs;
    for (const Tuple<In>& t : w.items) {
      std::vector<Out> produced = f(t.value);
      outputs.insert(outputs.end(),
                     std::make_move_iterator(produced.begin()),
                     std::make_move_iterator(produced.end()));
    }
    if (outputs.empty()) return std::nullopt;  // f_FM returned no tuples
    return Embedded<Out>{std::move(outputs), kFromEmbed};
  };
  return flow.template add<AggregateOp<In, Embedded<Out>, In, MachineT<In, In>>>(
      spec, KeyByAll{}, std::move(f_o));
}

}  // namespace aggspes
