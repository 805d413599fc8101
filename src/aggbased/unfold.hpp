// Listing 3 — the Unfold operator X as a composition of two Aggregates and
// a loop (Theorem 3, Figure 4).
//
//   A1 (δ-tumbling, keyed by all attributes, allowed lateness L):
//     * envelope from E (index −1): concatenates the embedded items of the
//       — necessarily identical-key — envelopes in the instance and emits
//       ⟨τ ⌢ T ⌢ 0⟩;
//     * looped envelope with index i: emits ⟨τ ⌢ T ⌢ i+1⟩ while i+1 is a
//       valid position, else nothing (terminating the loop).
//   A2 (δ-tumbling, keyed by all attributes): emits t[1][t[2]].
//
// A1's output stream feeds A2 *and* loops back into A1; the C2/C3 guards of
// Listing 4/5 (loop_guard.hpp) make the loop watermark-safe. Theorem 3
// requires C1 to hold for S_E and L >= D.
//
// Faithfulness note (also in DESIGN.md): the listing steps the index with
// "if t[2] < |t[1]| then return t[1] ⌢ (t[2]+1)", which for an n-item
// envelope would emit index n and make A2 read out of bounds; we implement
// the clearly intended bound (re-emit only while t[2]+1 < |t[1]|), matching
// the theorem (each embedded tuple output exactly once).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "aggbased/embedded.hpp"
#include "aggbased/loop_guard.hpp"
#include "core/operators/aggregate.hpp"

namespace aggspes {

/// The Listing 3 composition, guards included:
///
///   S_E ──► C2Guard ──► A1 ──► C3Guard ──► A2 ──► S_O
///              ▲                   │
///              └──────(loop)───────┘
///
/// The four nodes form one node group (ThreadedFlow::group).
template <typename T>
class UnfoldX {
 public:
  using Env = Embedded<T>;

  /// `lateness` is A1's L; pass the source's watermark spacing D (or more).
  template <typename FlowT>
  UnfoldX(FlowT& flow, Timestamp lateness)
      : c2_(flow.template add<C2Guard<T>>(lateness)),
        a1_(make_a1(flow, lateness)),
        c3_(flow.template add<C3Guard<T>>(/*max_step=*/lateness)),
        a2_(make_a2(flow)) {
    // The four nodes are cheap next to the handoffs between them: one
    // thread drives them all, so their edges, the loop included, never
    // cross threads.
    flow.group({&c2_, &a1_, &c3_, &a2_});
    flow.connect(c2_, c2_.out(), a1_, a1_.in(0));
    flow.connect(a1_, a1_.out(), c3_, c3_.in(0));
    flow.connect(c3_, c3_.out(), a2_, a2_.in(0));
    flow.connect(c3_, c3_.out(), c2_, c2_.loop_in(), EdgeKind::kLoop);
  }

  Consumer<Env>& in() { return c2_.in(0); }
  Outlet<T>& out() { return a2_.out(); }
  NodeBase& in_node() { return c2_; }
  NodeBase& out_node() { return a2_; }

  const C2Guard<T>& c2() const { return c2_; }
  const C3Guard<T>& c3() const { return c3_; }
  /// Windowing statistics of the looped A1 / of A2 (tests, diagnostics).
  const WindowMachine<Embedded<T>, Embedded<T>>& a1_machine() const {
    return a1_.machine();
  }
  const WindowMachine<Embedded<T>, Embedded<T>>& a2_machine() const {
    return a2_.machine();
  }

 private:
  using A1 = AggregateOp<Env, Env, Env>;
  using A2 = AggregateOp<Env, T, Env>;

  template <typename FlowT>
  static A1& make_a1(FlowT& flow, Timestamp lateness) {
    WindowSpec spec{.advance = kDelta, .size = kDelta, .lateness = lateness};
    auto f_o = [](const WindowView<Env, Env>& w) -> std::optional<Env> {
      const Env& t = w.items[0].value;
      if (t.from_embed()) {
        if (w.items.size() == 1) {
          // Common case: a single envelope — share its list unchanged.
          if (t.items().empty()) return std::nullopt;  // defensive
          return Env{t, 0};
        }
        // Duplicate envelopes share the key (= payload): concatenate their
        // items so duplicates unfold with the right multiplicity.
        std::vector<T> merged;
        for (const Tuple<Env>& e : w.items) {
          merged.insert(merged.end(), e.value.items().begin(),
                        e.value.items().end());
        }
        if (merged.empty()) return std::nullopt;  // defensive: empty E
        return Env{std::move(merged), 0};
      }
      if (t.index + 1 < static_cast<std::int64_t>(t.items().size())) {
        return Env{t, t.index + 1};  // O(1) loop hop
      }
      return std::nullopt;  // done looping
    };
    return flow.template add<A1>(
        spec, KeyByAll{}, std::move(f_o),
        /*regular_inputs=*/1, /*loop_inputs=*/0, /*flush_on_end=*/false);
  }

  template <typename FlowT>
  static A2& make_a2(FlowT& flow) {
    WindowSpec spec{.advance = kDelta, .size = kDelta};
    auto f_o = [](const WindowView<Env, Env>& w) -> std::optional<T> {
      const Env& t = w.items[0].value;
      return t.items()[static_cast<std::size_t>(t.index)];
    };
    return flow.template add<A2>(spec, KeyByAll{}, std::move(f_o));
  }

  C2Guard<T>& c2_;
  A1& a1_;
  C3Guard<T>& c3_;
  A2& a2_;
};

}  // namespace aggspes
