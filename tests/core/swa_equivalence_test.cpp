// Randomized, seeded property test (DESIGN.md § 9): every window machine —
// sliced replay and the three incremental-monoid policies — must emit
// exactly the buffering WindowMachine's (ts, value) stream under A, A+
// and A++, across random WA/WS/L combinations, out-of-order input, late
// arrivals (both admitted re-fires and drops) and negative timestamps.
// Output multisets are compared because per-instance key fire order is
// unordered_map-dependent; counters pin the lateness bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "machine_matrix.hpp"

namespace aggspes {
namespace {

using machine_matrix::add_eager;
using machine_matrix::add_sum;
using machine_matrix::add_sum_count;
using machine_matrix::for_each_machine;

std::vector<Tuple<int>> random_tuples(unsigned seed, int n, Timestamp start) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 20);
  std::vector<Tuple<int>> v;
  Timestamp ts = start;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

/// Locally-shuffled script with *aggressive* watermarks: each watermark
/// trails the running max timestamp by a small random slack, so shuffled
/// tuples genuinely arrive late — some within L (re-fires), some beyond
/// it (drops). All backends see the identical element sequence.
std::vector<Element<int>> lateish_script(std::vector<Tuple<int>> tuples,
                                         int k, int wm_every,
                                         Timestamp flush_to, unsigned seed) {
  std::mt19937 rng(seed);
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + static_cast<std::size_t>(k)));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  std::uniform_int_distribution<Timestamp> slack(0, 4);
  std::vector<Element<int>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back(tuples[i]);
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % static_cast<std::size_t>(wm_every) == 0) {
      const Timestamp w = max_ts - slack(rng);
      if (w > last_wm) {
        script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  script.push_back(Watermark{flush_to});
  script.push_back(EndOfStream{});
  return script;
}

struct RunResult {
  std::multiset<std::pair<Timestamp, int>> out;
  std::uint64_t dropped;
  std::uint64_t late_updates;
};

/// Runs `script` through Op (added by `add`) and collects its output and
/// lateness counters.
template <typename AddOp>
RunResult run(const std::vector<Element<int>>& script, AddOp add) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = add(flow);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  return {sink.multiset(), agg.machine().dropped_late(),
          agg.machine().late_updates()};
}

int key3(const int& v) { return v % 3; }
int key2(const int& v) { return v % 2; }

template <typename M>
RunResult run_a(const std::vector<Element<int>>& script, WindowSpec spec) {
  return run(script, [&](Flow& f) -> auto& {
    return add_sum<int, M>(f, spec, key3);
  });
}

template <typename M>
RunResult run_aplus(const std::vector<Element<int>>& script,
                    WindowSpec spec) {
  return run(script, [&](Flow& f) -> auto& {
    return add_sum_count<int, M>(f, spec, key2);
  });
}

template <typename M>
RunResult run_eager(const std::vector<Element<int>>& script,
                    WindowSpec spec) {
  return run(script, [&](Flow& f) -> auto& {
    return add_eager<int, M>(f, spec, key2);
  });
}

void expect_same(const RunResult& got, const RunResult& want,
                 const std::string& trace) {
  EXPECT_EQ(got.out, want.out) << trace;
  EXPECT_EQ(got.dropped, want.dropped) << trace;
  EXPECT_EQ(got.late_updates, want.late_updates) << trace;
}

TEST(SwaEquivalence, RandomizedAggregateAcrossSpecsAndSeeds) {
  const std::vector<WindowSpec> specs = {
      {.advance = 1, .size = 5, .lateness = 0},
      {.advance = 4, .size = 10, .lateness = 5},   // gcd 2: true panes
      {.advance = 5, .size = 5, .lateness = 3},    // tumbling
      {.advance = 7, .size = 3, .lateness = 0},    // sampling (WA > WS)
      {.advance = 10, .size = 25, .lateness = 40}, // everything admitted
      {.advance = 3, .size = 17, .lateness = 8},   // coprime: width-1 panes
  };
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const WindowSpec spec = specs[si];
    for (unsigned seed : {1u, 2u, 3u}) {
      // Negative start: instances and panes straddle zero.
      auto tuples = random_tuples(seed * 7 + static_cast<unsigned>(si), 200,
                                  /*start=*/-50);
      const Timestamp flush = tuples.back().ts + spec.size + spec.lateness + 5;
      auto script = lateish_script(std::move(tuples), /*k=*/8,
                                   /*wm_every=*/7, flush, seed);

      const RunResult buffering = run_a<WindowMachine<int, int>>(script, spec);
      EXPECT_GT(buffering.out.size(), 0u);
      for_each_machine<int>([&]<typename M>(const char* name) {
        expect_same(run_a<M>(script, spec), buffering,
                    std::string(name) + " spec " + std::to_string(si) +
                        " seed " + std::to_string(seed));
      });
    }
  }
}

TEST(SwaEquivalence, AggregatePlusEmitsIdenticalMultiOutputs) {
  const WindowSpec spec{.advance = 4, .size = 10, .lateness = 6};
  auto tuples = random_tuples(42, 150, -20);
  const Timestamp flush = tuples.back().ts + 30;
  auto script = lateish_script(std::move(tuples), 6, 9, flush, 42);

  const RunResult buffering =
      run_aplus<WindowMachine<int, int>>(script, spec);
  EXPECT_GT(buffering.out.size(), 0u);
  for_each_machine<int>([&]<typename M>(const char* name) {
    expect_same(run_aplus<M>(script, spec), buffering, name);
  });
}

TEST(SwaEquivalence, EagerBackendsEmitIdenticalIncrementalStreams) {
  const WindowSpec spec{.advance = 5, .size = 15, .lateness = 0};
  auto tuples = random_tuples(7, 120, 0);
  const Timestamp flush = tuples.back().ts + 20;
  auto script = lateish_script(std::move(tuples), 4, 8, flush, 7);

  const RunResult buffering =
      run_eager<WindowMachine<int, int>>(script, spec);
  EXPECT_GT(buffering.out.size(), 0u);
  for_each_machine<int>([&]<typename M>(const char* name) {
    expect_same(run_eager<M>(script, spec), buffering, name);
  });
}

}  // namespace
}  // namespace aggspes
