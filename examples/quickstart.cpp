// Quickstart — the smallest useful aggspes program.
//
// Builds the same FlatMap three ways — Dedicated, AggBased (the paper's
// Aggregate-only composition: Listing 1 + Listing 3 with the Listing 4/5
// guards), and A+ (§ 5.1) — runs them on one stream, and shows that all
// three produce identical results: the paper's Theorem 1, live.
//
//   $ ./quickstart
#include <iostream>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/flatmap.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

using namespace aggspes;

int main() {
  // The input stream: one integer reading per tick, watermarks every 5
  // ticks (condition C1 with D = 5).
  std::vector<Tuple<int>> readings;
  for (Timestamp ts = 0; ts < 20; ++ts) {
    readings.push_back({ts, 0, static_cast<int>(ts) * 3 % 7});
  }
  constexpr Timestamp kWatermarkPeriod = 5;

  // f_FM: duplicate even values, drop odd ones (selectivity 0 or 2).
  FlatMapFn<int, int> f_fm = [](const int& v) {
    return v % 2 == 0 ? std::vector<int>{v, v * 10} : std::vector<int>{};
  };

  auto run = [&](auto&& wire) {
    Flow flow;
    auto& src = flow.add<TimedSource<int>>(readings, kWatermarkPeriod,
                                           /*flush_to=*/40);
    auto& sink = flow.add<CollectorSink<int>>();
    wire(flow, src, sink);
    flow.run();
    return sink.multiset();
  };

  auto dedicated = run([&](Flow& f, auto& src, auto& sink) {
    auto& op = f.add<FlatMapOp<int, int>>(f_fm);
    f.connect(src.out(), op.in());
    f.connect(op.out(), sink.in());
  });

  auto aggbased = run([&](Flow& f, auto& src, auto& sink) {
    // The paper's construction: Embed (one minimal Aggregate) + Unfold
    // (two Aggregates, a loop, and the C2/C3 watermark guards).
    AggBasedFlatMap<int, int> op(f, f_fm, /*lateness=*/kWatermarkPeriod);
    f.connect(src.out(), op.in());
    f.connect(op.out(), sink.in());
  });

  auto aplus = run([&](Flow& f, auto& src, auto& sink) {
    auto& op = make_aplus_flatmap<int, int>(f, f_fm);
    f.connect(src.out(), op.in());
    f.connect(op.out(), sink.in());
  });

  std::cout << "outputs: dedicated=" << dedicated.size()
            << " aggbased=" << aggbased.size() << " a+=" << aplus.size()
            << "\n";
  std::cout << "aggbased == dedicated: " << std::boolalpha
            << (aggbased == dedicated) << "\n";
  std::cout << "a+       == dedicated: " << (aplus == dedicated) << "\n";
  for (const auto& [ts, v] : dedicated) {
    std::cout << "  t=" << ts << " value=" << v << "\n";
  }
  return aggbased == dedicated && aplus == dedicated ? 0 : 1;
}
