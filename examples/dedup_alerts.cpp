// dedup_alerts — the § 5.2 pattern library in action: an alerting pipeline
// where every stage beyond the source is built from Aggregate compositions.
//
//   sensor readings ──► AggBased Filter (threshold)
//                    ──► Deduplicate (each alert code reported once ever,
//                        via the Listing 6 loop-carried state)
//                    ──► RunningCount (alerts per sensor, lifetime)
//
// Prints the deduplicated alert feed and the periodic per-sensor totals.
//
//   $ ./dedup_alerts
#include <iomanip>
#include <iostream>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "aggbased/patterns.hpp"
#include "core/hashing.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

using namespace aggspes;

namespace {

struct Reading {
  int sensor;
  int code;   // alert code raised by the sensor firmware
  int level;  // severity 0-100
  friend bool operator==(const Reading&, const Reading&) = default;
};

}  // namespace

template <>
struct std::hash<Reading> {
  size_t operator()(const Reading& r) const {
    return aggspes::hash_values(r.sensor, r.code, r.level);
  }
};

int main() {
  // Synthetic feed: 4 sensors, recurring alert codes, varying severity.
  std::vector<Tuple<Reading>> readings;
  for (Timestamp ts = 0; ts < 4000; ts += 25) {
    const int sensor = static_cast<int>(ts / 25) % 4;
    const int code = static_cast<int>((ts / 100) % 6);
    const int level = static_cast<int>((ts * 31 + sensor * 57) % 101);
    readings.push_back({ts, 0, {sensor, code, level}});
  }

  Flow flow;
  auto& src = flow.add<TimedSource<Reading>>(readings, /*period=*/250,
                                             /*flush_to=*/6000);

  // Stage 1 — severity filter, as the paper's AggBased composition.
  auto severe = make_aggbased_filter<Reading>(
      flow, [](const Reading& r) { return r.level >= 60; },
      /*lateness=*/250);
  flow.connect(src.out(), severe.in());

  // Stage 2 — deduplicate alert codes per sensor, forever (Listing 6
  // state loop): each (sensor, code) pair alerts at most once.
  auto dedup = patterns::make_deduplicate<Reading, int, int>(
      flow, /*period=*/1000, [](const Reading& r) { return r.sensor; },
      [](const Reading& r) { return r.code; });
  flow.connect(severe.out(), dedup.in());
  auto& alert_sink = flow.add<CollectorSink<int>>();
  flow.connect(dedup.out(), alert_sink.in());

  // Stage 3 — lifetime alert totals per sensor, reported each second.
  auto totals = patterns::make_running_count<Reading, int>(
      flow, /*period=*/1000, [](const Reading& r) { return r.sensor; });
  flow.connect(severe.out(), totals.in());
  auto& totals_sink =
      flow.add<CollectorSink<std::pair<int, std::uint64_t>>>();
  flow.connect(totals.out(), totals_sink.in());

  flow.run();

  std::cout << "readings:           " << readings.size() << "\n";
  std::cout << "deduplicated alerts:" << alert_sink.tuples().size() << "\n";
  for (const auto& t : alert_sink.tuples()) {
    std::cout << "  t=" << std::setw(5) << t.ts << "  new alert code "
              << t.value << "\n";
  }
  std::cout << "\nper-sensor lifetime totals (last report):\n";
  Timestamp last = totals_sink.tuples().empty()
                       ? 0
                       : totals_sink.tuples().back().ts;
  std::uint64_t sum = 0;
  for (const auto& t : totals_sink.tuples()) {
    if (t.ts == last) {
      std::cout << "  sensor " << t.value.first << ": " << t.value.second
                << " severe readings\n";
      sum += t.value.second;
    }
  }
  // Self-check: totals must cover every severe reading.
  std::uint64_t severe_count = 0;
  for (const auto& r : readings) severe_count += (r.value.level >= 60);
  std::cout << "covered " << sum << " / " << severe_count << "\n";
  return sum == severe_count && !alert_sink.tuples().empty() ? 0 : 1;
}
