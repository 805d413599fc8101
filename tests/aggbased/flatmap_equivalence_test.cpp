// Theorem 1, end to end: the AggBased FlatMap (Listing 1 + Listing 3 with
// the Listing 4/5 guards) produces exactly the Dedicated FlatMap's outputs
// — same payloads, same event times, same multiplicities — for randomized
// streams, selectivities, and watermark spacings. Filter and Map follow as
// special cases (§ 4). The A+-based FM (§ 5.1) is checked too.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/flatmap.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using Outputs = std::multiset<std::pair<Timestamp, int>>;

Outputs run_dedicated(const std::vector<Tuple<int>>& in,
                      FlatMapFn<int, int> fm, Timestamp period,
                      Timestamp flush_to) {
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, period, flush_to);
  auto& op = flow.add<FlatMapOp<int, int>>(std::move(fm));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  return sink.multiset();
}

Outputs run_aggbased(const std::vector<Tuple<int>>& in,
                     FlatMapFn<int, int> fm, Timestamp period,
                     Timestamp flush_to) {
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, period, flush_to);
  AggBasedFlatMap<int, int> op(flow, std::move(fm), /*lateness=*/period);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);            // C3: no late arrivals
  EXPECT_EQ(sink.watermark_regressions(), 0);  // watermarks monotonic
  return sink.multiset();
}

Outputs run_aplus(const std::vector<Tuple<int>>& in, FlatMapFn<int, int> fm,
                  Timestamp period, Timestamp flush_to) {
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, period, flush_to);
  auto& op = make_aplus_flatmap<int, int>(flow, std::move(fm));
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  return sink.multiset();
}

void expect_all_equal(const std::vector<Tuple<int>>& in,
                      const FlatMapFn<int, int>& fm, Timestamp period) {
  Timestamp max_ts = 0;
  for (const auto& t : in) max_ts = std::max(max_ts, t.ts);
  const Timestamp flush = max_ts + 3 * period + 5;
  Outputs d = run_dedicated(in, fm, period, flush);
  Outputs a = run_aggbased(in, fm, period, flush);
  Outputs ap = run_aplus(in, fm, period, flush);
  EXPECT_EQ(a, d) << "AggBased != Dedicated";
  EXPECT_EQ(ap, d) << "A+ != Dedicated";
}

TEST(FlatMapEquivalence, SelectivityTwo) {
  std::vector<Tuple<int>> in{{0, 0, 1}, {2, 0, 2}, {5, 0, 3}};
  expect_all_equal(
      in, [](const int& v) { return std::vector<int>{v, v * 10}; }, 3);
}

TEST(FlatMapEquivalence, FilterLikeSelectivity) {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 30; ++ts) in.push_back({ts, 0, int(ts) % 7});
  expect_all_equal(
      in,
      [](const int& v) {
        return v % 2 == 0 ? std::vector<int>{v} : std::vector<int>{};
      },
      4);
}

TEST(FlatMapEquivalence, MapLikeSelectivity) {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 20; ts += 2) in.push_back({ts, 0, int(ts)});
  expect_all_equal(in, [](const int& v) { return std::vector<int>{v + 1}; },
                   5);
}

TEST(FlatMapEquivalence, ZeroSelectivityEverywhere) {
  std::vector<Tuple<int>> in{{1, 0, 1}, {2, 0, 2}};
  expect_all_equal(in, [](const int&) { return std::vector<int>{}; }, 3);
}

TEST(FlatMapEquivalence, DuplicateInputTuples) {
  // FM must produce each duplicate's outputs: 3 identical inputs ->
  // 3 copies of each output.
  std::vector<Tuple<int>> in{{4, 0, 9}, {4, 0, 9}, {4, 0, 9}};
  expect_all_equal(
      in, [](const int& v) { return std::vector<int>{v, v + 1}; }, 3);
}

TEST(FlatMapEquivalence, BurstsAtSameTimestamp) {
  std::vector<Tuple<int>> in;
  for (int i = 0; i < 10; ++i) in.push_back({7, 0, i});
  expect_all_equal(
      in, [](const int& v) { return std::vector<int>{v * 2, v * 3}; }, 4);
}

TEST(AggBasedFilter, BehavesLikeDedicatedFilter) {
  Flow dflow;
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 25; ++ts) in.push_back({ts, 0, int(ts * 3)});
  auto& dsrc = dflow.add<TimedSource<int>>(in, 4, 40);
  auto& dfilter = dflow.add<FilterOp<int>>([](int v) { return v % 2 == 0; });
  auto& dsink = dflow.add<CollectorSink<int>>();
  dflow.connect(dsrc.out(), dfilter.in());
  dflow.connect(dfilter.out(), dsink.in());
  dflow.run();

  Flow aflow;
  auto& asrc = aflow.add<TimedSource<int>>(in, 4, 40);
  auto afilter = make_aggbased_filter<int>(
      aflow, [](const int& v) { return v % 2 == 0; }, /*lateness=*/4);
  auto& asink = aflow.add<CollectorSink<int>>();
  aflow.connect(asrc.out(), afilter.in());
  aflow.connect(afilter.out(), asink.in());
  aflow.run();

  EXPECT_EQ(asink.multiset(), dsink.multiset());
}

TEST(AggBasedMap, BehavesLikeDedicatedMap) {
  Flow dflow;
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 25; ts += 3) in.push_back({ts, 0, int(ts)});
  auto& dsrc = dflow.add<TimedSource<int>>(in, 4, 40);
  auto& dmap = dflow.add<MapOp<int, int>>([](const int& v) { return -v; });
  auto& dsink = dflow.add<CollectorSink<int>>();
  dflow.connect(dsrc.out(), dmap.in());
  dflow.connect(dmap.out(), dsink.in());
  dflow.run();

  Flow aflow;
  auto& asrc = aflow.add<TimedSource<int>>(in, 4, 40);
  auto amap = make_aggbased_map<int, int>(
      aflow, [](const int& v) { return -v; }, /*lateness=*/4);
  auto& asink = aflow.add<CollectorSink<int>>();
  aflow.connect(asrc.out(), amap.in());
  aflow.connect(amap.out(), asink.in());
  aflow.run();

  EXPECT_EQ(asink.multiset(), dsink.multiset());
}

// Property sweep: Theorem 1 on randomized streams across selectivity
// classes and watermark spacings.
class FlatMapEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, Timestamp>> {};

TEST_P(FlatMapEquivalenceSweep, AggBasedMatchesDedicated) {
  auto [seed, max_outputs, period] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed * 977 + max_outputs));
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 50);

  std::vector<Tuple<int>> in;
  Timestamp ts = 0;
  for (int i = 0; i < 60; ++i) {
    ts += gap(rng);
    in.push_back({ts, 0, val(rng)});
  }
  // Deterministic f_FM whose fan-out depends on the value: 0..max_outputs.
  const int mo = max_outputs;
  auto fm = [mo](const int& v) {
    std::vector<int> outs;
    for (int i = 0; i < (v % (mo + 1)); ++i) outs.push_back(v * 100 + i);
    return outs;
  };
  expect_all_equal(in, fm, period);
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, FlatMapEquivalenceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(Timestamp{1}, Timestamp{4},
                                         Timestamp{9})));

}  // namespace
}  // namespace aggspes
