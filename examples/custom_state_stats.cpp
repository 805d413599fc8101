// custom_state_stats — the paper's § 5.2 extension: an operator with state
// that is *unbounded in event time*, built purely from FlatMap + a
// sliding-window Aggregate with a state-carrying loop (Listing 6 /
// Lemma 5).
//
// Scenario: per-sensor lifetime statistics (count / mean / min / max of
// every reading ever seen), reported once per second — something a
// time-windowed Aggregate alone cannot express, because the state must
// survive across windows forever.
//
//   $ ./custom_state_stats
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "aggbased/custom_state.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

using namespace aggspes;

namespace {

struct Reading {
  int sensor;
  double value;
};

struct Stats {
  long count{0};
  double sum{0};
  double min{0};
  double max{0};
};

struct Report {
  int sensor;
  long count;
  double mean;
  double min;
  double max;
};

}  // namespace

int main() {
  // Three sensors, one reading each every 100 ms for 5 s of event time.
  std::vector<Tuple<Reading>> readings;
  for (Timestamp ts = 0; ts < 5000; ts += 100) {
    for (int sensor = 0; sensor < 3; ++sensor) {
      const double v =
          10.0 * (sensor + 1) +
          5.0 * std::sin(static_cast<double>(ts) / 700.0 + sensor);
      readings.push_back({ts + sensor, 0, {sensor, v}});
    }
  }

  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(readings, /*period=*/250,
                                             /*flush_to=*/7000);

  // The O operator: f_c creates the state from the first reading, f_a
  // folds a reading in, f_m merges partial states (the loop's poured state
  // with a fresh one), f_o reports once per period P = 1 s.
  CustomStateOp<Reading, Stats, Report, int> lifetime_stats(
      flow, /*period=*/1000,
      /*f_k=*/[](const Reading& r) { return r.sensor; },
      /*f_c=*/
      [](const Reading& r) {
        return Stats{1, r.value, r.value, r.value};
      },
      /*f_a=*/
      [](Stats s, const Reading& r) {
        return Stats{s.count + 1, s.sum + r.value, std::min(s.min, r.value),
                     std::max(s.max, r.value)};
      },
      /*f_m=*/
      [](Stats a, Stats b) {
        return Stats{a.count + b.count, a.sum + b.sum, std::min(a.min, b.min),
                     std::max(a.max, b.max)};
      },
      /*f_o=*/
      [](const Stats& s) {
        return std::vector<Report>{
            {-1, s.count, s.sum / static_cast<double>(s.count), s.min,
             s.max}};
      });
  flow.connect(src.out(), lifetime_stats.in());

  auto& sink = flow.add<CollectorSink<Report>>();
  flow.connect(lifetime_stats.out(), sink.in());
  flow.run();

  std::cout << "readings:            " << readings.size() << "\n";
  std::cout << "periodic reports:    " << sink.tuples().size() << "\n\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const auto& t : sink.tuples()) {
    std::cout << "t=" << std::setw(5) << t.ts << "  count=" << std::setw(4)
              << t.value.count << "  mean=" << std::setw(6) << t.value.mean
              << "  min=" << std::setw(6) << t.value.min
              << "  max=" << std::setw(6) << t.value.max << "\n";
  }
  // Sanity: the final reports must cover all readings (3 sensors).
  long final_total = 0;
  Timestamp last_ts = sink.tuples().empty() ? 0 : sink.tuples().back().ts;
  for (const auto& t : sink.tuples()) {
    if (t.ts == last_ts) final_total += t.value.count;
  }
  std::cout << "\nreadings covered by final reports: " << final_total
            << " / " << readings.size() << "\n";
  return final_total == static_cast<long>(readings.size()) ? 0 : 1;
}
