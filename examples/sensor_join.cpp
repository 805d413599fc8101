// sensor_join — the paper's edge-side scenario (§ 6.1): match 2D
// rangefinder scans from two sensors that observed (almost) the same
// geometry, within aligned time windows — the llj/alj/hlj experiments.
//
// The join runs five ways — Dedicated on the pane store, Dedicated on the
// per-instance buffering store, AggBased (Listing 2 + Listing 3) on both
// the buffering and the sliced-replay window backend, and A+ — and the
// example verifies all five agree (Theorem 2, live) while printing each
// backend's peak occupancy: the pane store holds each scan once where the
// buffering stores hold one copy per overlapping instance.
//
//   $ ./sensor_join
#include <iostream>
#include <memory>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/operators/join_buffering.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/swa/sliced_machine.hpp"
#include "workloads/scans.hpp"

using namespace aggspes;
using scans::Scan2D;

int main() {
  // Two sensors at 50 scans/s of event time for 4 s; watermarks every
  // 100 ms (D = 100).
  scans::ScanGenerator sensor_a(7), sensor_b(8);
  std::vector<Tuple<Scan2D>> stream_a, stream_b;
  for (Timestamp ts = 0; ts < 4000; ts += 20) {
    stream_a.push_back(
        {ts, 0, sensor_a.make(static_cast<std::uint64_t>(ts))});
    stream_b.push_back(
        {ts + 3, 0, sensor_b.make(static_cast<std::uint64_t>(ts) + 1)});
  }

  // llj parameters: WA = 0.5 s, WS = 1 s; match scans whose readings
  // differ by less than 0.7 m in total; key by quantized mean range.
  const WindowSpec spec{.advance = 500, .size = 1000};
  auto key = [](const Scan2D& s) { return scans::mean_bucket(s); };
  auto pred = [](const Scan2D& a, const Scan2D& b) {
    return a.id != b.id && scans::sum_abs_diff(a, b) < 0.7;
  };

  using Match = std::pair<Scan2D, Scan2D>;
  // wire(...) builds the pipeline and returns a closure reporting the
  // backend's peak tuple occupancy once the run finished.
  auto run = [&](const char* name, auto&& wire) {
    Flow flow;
    auto& src_a = flow.add<TimedSource<Scan2D>>(stream_a, /*period=*/100,
                                                /*flush_to=*/5500);
    auto& src_b = flow.add<TimedSource<Scan2D>>(stream_b, /*period=*/100,
                                                /*flush_to=*/5500);
    auto& sink = flow.add<CollectorSink<Match>>();
    auto peak = wire(flow, src_a, src_b, sink);
    flow.run();
    std::multiset<std::pair<Timestamp, std::pair<int, int>>> ids;
    for (const auto& t : sink.tuples()) {
      ids.emplace(t.ts,
                  std::make_pair(t.value.first.id, t.value.second.id));
    }
    std::cout << "  " << name << ": matches=" << ids.size()
              << " peak_stored=" << peak() << "\n";
    return ids;
  };

  auto dedicated = run("dedicated/pane      ",
                       [&](Flow& f, auto& a, auto& b, auto& sink) {
    auto& op = f.add<JoinOp<Scan2D, Scan2D, int>>(spec, key, key, pred);
    f.connect(a.out(), op.in_left());
    f.connect(b.out(), op.in_right());
    f.connect(op.out(), sink.in());
    return [&op] { return op.peak_occupancy(); };
  });

  auto buffering = run("dedicated/buffering ",
                       [&](Flow& f, auto& a, auto& b, auto& sink) {
    auto& op =
        f.add<BufferingJoinOp<Scan2D, Scan2D, int>>(spec, key, key, pred);
    f.connect(a.out(), op.in_left());
    f.connect(b.out(), op.in_right());
    f.connect(op.out(), sink.in());
    return [&op] { return op.peak_occupancy(); };
  });

  auto aggbased = run("aggbased/buffering  ",
                      [&](Flow& f, auto& a, auto& b, auto& sink) {
    auto op = std::make_shared<AggBasedJoin<Scan2D, Scan2D, int>>(
        f, spec, key, key, pred, /*lateness=*/100);
    f.connect(a.out(), op->left_in());
    f.connect(b.out(), op->right_in());
    f.connect(op->out(), sink.in());
    return [op] { return op->match().machine().peak_occupancy(); };
  });

  auto sliced = run("aggbased/sliced     ",
                    [&](Flow& f, auto& a, auto& b, auto& sink) {
    auto op = std::make_shared<
        AggBasedJoin<Scan2D, Scan2D, int, swa::SlicedWindowMachine>>(
        f, spec, key, key, pred, /*lateness=*/100);
    f.connect(a.out(), op->left_in());
    f.connect(b.out(), op->right_in());
    f.connect(op->out(), sink.in());
    return [op] { return op->match().machine().peak_occupancy(); };
  });

  auto aplus = run("a+                  ",
                   [&](Flow& f, auto& a, auto& b, auto& sink) {
    auto op = std::make_shared<AplusJoin<Scan2D, Scan2D, int>>(f, spec, key,
                                                               key, pred);
    f.connect(a.out(), op->left_in());
    f.connect(b.out(), op->right_in());
    f.connect(op->out(), sink.in());
    return [op] { return op->match().machine().peak_occupancy(); };
  });

  std::cout << "pane      == buffering: " << std::boolalpha
            << (dedicated == buffering) << "\n";
  std::cout << "aggbased  == dedicated: " << (aggbased == dedicated) << "\n";
  std::cout << "sliced    == dedicated: " << (sliced == dedicated) << "\n";
  std::cout << "a+        == dedicated: " << (aplus == dedicated) << "\n";
  int shown = 0;
  for (const auto& [ts, ids] : dedicated) {
    if (++shown > 5) break;
    std::cout << "  window ending t=" << ts << ": scan #" << ids.first
              << " ~ scan #" << ids.second << "\n";
  }
  return dedicated == buffering && aggbased == dedicated &&
                 sliced == dedicated && aplus == dedicated
             ? 0
             : 1;
}
