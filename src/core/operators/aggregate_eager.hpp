// A++ — an eager Aggregate, the paper's proposed next relaxation (§ 6.2
// closing discussion): "an even semantically richer A that could e.g. also
// produce intermediate results rather than only results computed on the
// expiration of a window instance, could further narrow [the performance]
// gap".
//
// A++ keeps A+'s windowing and adds an incremental function f_I invoked
// every time a tuple lands in a window instance; its outputs are forwarded
// immediately. Eager outputs carry the instance's event time
// γ.l + WS − δ, which is strictly ahead of the operator's watermark, so
// they are watermark-safe (Observation 1 still holds, and no downstream
// peer sees a late arrival). f_O still runs on expiration for whatever the
// incremental path does not cover (pass a function returning {} when eager
// emission is complete, as the eager join does).
#pragma once

#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"

namespace aggspes {

/// Machine: see AggregateOp — any window machine, buffering by default.
/// Over a monoid machine f_I reads the instance's *running* aggregate.
template <typename In, typename Out, typename Key,
          typename Machine = WindowMachine<In, Key>>
class AggregateEagerOp final
    : public detail::WindowOpCore<In, Out, Key, Machine> {
  using Core = detail::WindowOpCore<In, Out, Key, Machine>;
  using Fired = typename Core::Fired;

 public:
  using KeyFn = typename Core::KeyFn;
  /// f_I: the window view *includes* the just-arrived tuple as its last
  /// item; outputs are emitted immediately.
  using IncFn = typename Fired::template Fn<std::vector<Out>>;
  /// f_O: run on instance expiration, as in A+.
  using FinalFn = typename Fired::template Fn<std::vector<Out>>;

  AggregateEagerOp(WindowSpec spec, KeyFn f_k, IncFn f_i, FinalFn f_o,
                   int regular_inputs = 1)
      : Core(regular_inputs, 0, /*flush_on_end=*/true, spec, std::move(f_k)),
        f_i_(std::move(f_i)),
        f_o_(std::move(f_o)) {
    bind();
  }

  /// Monoid machines: the monoid follows f_K (see AggregateOp).
  template <typename F = Fired>
  AggregateEagerOp(WindowSpec spec, KeyFn f_k, typename F::Monoid m,
                   IncFn f_i, FinalFn f_o, int regular_inputs = 1)
      : Core(regular_inputs, 0, /*flush_on_end=*/true, spec, std::move(f_k),
             std::move(m)),
        f_i_(std::move(f_i)),
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
    this->added_ = [this](Timestamp l, const Key& key,
                          const typename Machine::Result& r) {
      this->emit(l, r,
                 Fired::apply(f_i_, l, this->machine_.spec().size, key, r));
    };
  }

  IncFn f_i_;
  FinalFn f_o_;
};

}  // namespace aggspes
