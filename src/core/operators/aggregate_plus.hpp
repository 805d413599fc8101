// A+ — the semantically richer Aggregate of § 5.1: identical windowing to
// the minimal A, but f_O may return an arbitrary number of output tuples
// per window instance (as Flink's window functions allow). With A+, the
// Embed/Unfold machinery and conditions C1–C3 are unnecessary, which § 6
// shows buys back most of the performance gap to Dedicated operators.
#pragma once

#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"

namespace aggspes {

/// Machine: see AggregateOp — any window machine, buffering by default.
template <typename In, typename Out, typename Key,
          typename Machine = WindowMachine<In, Key>>
class AggregatePlusOp final
    : public detail::WindowOpCore<In, Out, Key, Machine> {
  using Core = detail::WindowOpCore<In, Out, Key, Machine>;
  using Fired = typename Core::Fired;

 public:
  using KeyFn = typename Core::KeyFn;
  /// f_O: returns any number of output payloads for the window instance.
  using AggFn = typename Fired::template Fn<std::vector<Out>>;

  AggregatePlusOp(WindowSpec spec, KeyFn f_k, AggFn f_o,
                  int regular_inputs = 1, int loop_inputs = 0)
      : Core(regular_inputs, loop_inputs, /*flush_on_end=*/true, spec,
             std::move(f_k)),
        f_o_(std::move(f_o)) {
    bind();
  }

  /// Monoid machines: the monoid follows f_K (see AggregateOp).
  template <typename F = Fired>
  AggregatePlusOp(WindowSpec spec, KeyFn f_k, typename F::Monoid m,
                  AggFn f_o, int regular_inputs = 1, int loop_inputs = 0)
      : Core(regular_inputs, loop_inputs, /*flush_on_end=*/true, spec,
             std::move(f_k), std::move(m)),
        f_o_(std::move(f_o)) {
    bind();
  }

 private:
  void bind() {
    this->fire_ = [this](Timestamp l, const Key& key,
                         const typename Machine::Result& r, bool) {
      this->emit(l, r,
                 Fired::apply(f_o_, l, this->machine_.spec().size, key, r));
    };
  }

  AggFn f_o_;
};

}  // namespace aggspes
