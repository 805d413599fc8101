// Test support for the machine × operator matrix: one keyed integer sum
// (and count) written once and handed to A, A+ or A++ over any of the five
// window machines. Tuple-holding machines get WindowView functions; monoid
// machines get the sum monoid plus (key, WindowAggregate) functions — the
// split FiredWindow draws (core/operators/window_machine.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/aggregate_eager.hpp"
#include "core/operators/aggregate_plus.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/finger_tree.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes::machine_matrix {

template <typename Machine>
using Fired = FiredWindow<int, int, typename Machine::Result>;

/// True for the machines that fold a monoid (f_O reads a WindowAggregate).
template <typename Machine>
inline constexpr bool kFoldsMonoid =
    requires { typename Fired<Machine>::Monoid; };

template <typename Op>
using MachineOf =
    std::remove_cvref_t<decltype(std::declval<Op&>().machine())>;

/// Lifts g(sum, count) into the user-function type Machine's family takes.
template <typename R, typename Machine, typename G>
typename Fired<Machine>::template Fn<R> over_sum(G g) {
  if constexpr (kFoldsMonoid<Machine>) {
    return [g](const int&, const auto& wa) {
      return g(static_cast<long>(wa.agg), wa.count);
    };
  } else {
    return [g](const WindowView<int, int>& w) {
      long s = 0;
      for (const auto& t : w.items) s += t.value;
      return g(s, static_cast<std::uint64_t>(w.items.size()));
    };
  }
}

/// Adds Op (A, A+ or A++ over some machine) to `flow` with the given user
/// functions, passing the sum monoid first when the machine folds one.
template <typename Op, typename FlowT, typename KeyF, typename... Fns>
Op& add_over(FlowT& flow, WindowSpec spec, KeyF key, Fns&&... fns) {
  using Machine = MachineOf<Op>;
  if constexpr (kFoldsMonoid<Machine>) {
    using Monoid = typename Fired<Machine>::Monoid;
    using Agg = decltype(std::declval<typename Machine::Result>().agg);
    Monoid sum{Agg{}, [](const int& v) { return static_cast<Agg>(v); },
               [](const Agg& a, const Agg& b) { return a + b; }};
    return flow.template add<Op>(spec, key, std::move(sum),
                                 std::forward<Fns>(fns)...);
  } else {
    return flow.template add<Op>(spec, key, std::forward<Fns>(fns)...);
  }
}

/// The workload every matrix suite runs, one per operator. A: the keyed
/// sum of each instance.
template <typename Out, typename M, typename FlowT, typename KeyF>
AggregateOp<int, Out, int, M>& add_sum(FlowT& flow, WindowSpec spec,
                                       KeyF key) {
  return add_over<AggregateOp<int, Out, int, M>>(
      flow, spec, key,
      over_sum<std::optional<Out>, M>(
          [](long s, std::uint64_t) -> std::optional<Out> {
            return static_cast<Out>(s);
          }));
}

/// A+: the sum and the count of each instance.
template <typename Out, typename M, typename FlowT, typename KeyF>
AggregatePlusOp<int, Out, int, M>& add_sum_count(FlowT& flow,
                                                 WindowSpec spec, KeyF key) {
  return add_over<AggregatePlusOp<int, Out, int, M>>(
      flow, spec, key,
      over_sum<std::vector<Out>, M>([](long s, std::uint64_t n) {
        return std::vector<Out>{static_cast<Out>(s), static_cast<Out>(n)};
      }));
}

/// A++: the running count on every arrival, then the sum on expiration.
template <typename Out, typename M, typename FlowT, typename KeyF>
AggregateEagerOp<int, Out, int, M>& add_eager(FlowT& flow, WindowSpec spec,
                                              KeyF key) {
  return add_over<AggregateEagerOp<int, Out, int, M>>(
      flow, spec, key,
      over_sum<std::vector<Out>, M>([](long, std::uint64_t n) {
        return std::vector<Out>{static_cast<Out>(n)};
      }),
      over_sum<std::vector<Out>, M>([](long s, std::uint64_t) {
        return std::vector<Out>{static_cast<Out>(s)};
      }));
}

/// Calls fn.template operator()<Machine>(name) for each of the five
/// machines, buffering first (the oracle); monoid partials are `Agg`.
template <typename Agg, typename Fn>
void for_each_machine(Fn&& fn) {
  fn.template operator()<WindowMachine<int, int>>("buffering");
  fn.template operator()<swa::SlicedWindowMachine<int, int>>("sliced-replay");
  fn.template operator()<swa::MonoidWindowMachine<int, Agg, int>>("monoid");
  fn.template operator()<swa::DabaWindowMachine<int, Agg, int>>("daba");
  fn.template operator()<swa::FingerTreeWindowMachine<int, Agg, int>>(
      "finger-tree");
}

}  // namespace aggspes::machine_matrix
