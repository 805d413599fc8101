// Tests for the § 5.2 pattern library: reusable event-time-unbounded
// stateful operators, all expressed through the Listing 6 construction.
#include "aggbased/patterns.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
};

std::function<int(const Ev&)> by_key() {
  return [](const Ev& e) { return e.key; };
}
std::function<int(const Ev&)> by_val() {
  return [](const Ev& e) { return e.val; };
}

TEST(RunningCount, CountsPerKeyForever) {
  Flow flow;
  std::vector<Tuple<Ev>> in{{1, 0, {0, 1}}, {2, 0, {1, 1}}, {3, 0, {0, 1}},
                            {12, 0, {0, 1}}};
  auto& src = flow.add<TimedSource<Ev>>(in, 5, 32);
  auto op = patterns::make_running_count<Ev, int>(flow, 10, by_key());
  auto& sink = flow.add<CollectorSink<std::pair<int, std::uint64_t>>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();

  // τ=10: key0 -> 2, key1 -> 1; τ=20: key0 -> 3, key1 -> 1; τ=30: same.
  std::multiset<std::pair<Timestamp, std::pair<int, std::uint64_t>>> got;
  for (const auto& t : sink.tuples()) got.emplace(t.ts, t.value);
  std::multiset<std::pair<Timestamp, std::pair<int, std::uint64_t>>>
      expected{
          {10, {0, 2}}, {10, {1, 1}}, {20, {0, 3}},
          {20, {1, 1}}, {30, {0, 3}}, {30, {1, 1}},
      };
  EXPECT_EQ(got, expected);
}

TEST(RunningTopK, KeepsLargestAcrossPeriods) {
  Flow flow;
  std::vector<Tuple<Ev>> in{{1, 0, {0, 5}},  {2, 0, {0, 9}}, {3, 0, {0, 2}},
                            {11, 0, {0, 7}}, {12, 0, {0, 1}}};
  auto& src = flow.add<TimedSource<Ev>>(in, 5, 32);
  auto op =
      patterns::make_running_topk<Ev, int, int>(flow, 10, 2, by_key(),
                                                by_val());
  auto& sink = flow.add<CollectorSink<std::vector<int>>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();

  ASSERT_GE(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].ts, 10);
  EXPECT_EQ(sink.tuples()[0].value, (std::vector<int>{9, 5}));
  EXPECT_EQ(sink.tuples()[1].ts, 20);
  EXPECT_EQ(sink.tuples()[1].value, (std::vector<int>{9, 7}));
}

TEST(TopKState, InsertKeepsDescendingBounded) {
  patterns::TopK<int> s{3, {}};
  for (int v : {4, 9, 1, 7, 3, 8}) s.insert(v);
  EXPECT_EQ(s.values, (std::vector<int>{9, 8, 7}));
}

TEST(DistinctCount, CountsUniquesForever) {
  Flow flow;
  std::vector<Tuple<Ev>> in{{1, 0, {0, 5}},  {2, 0, {0, 5}}, {3, 0, {0, 7}},
                            {11, 0, {0, 5}}, {12, 0, {0, 8}}};
  auto& src = flow.add<TimedSource<Ev>>(in, 5, 32);
  auto op = patterns::make_distinct_count<Ev, int, int>(flow, 10, by_key(),
                                                        by_val());
  auto& sink = flow.add<CollectorSink<std::size_t>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();

  ASSERT_GE(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].value, 2u);  // {5, 7}
  EXPECT_EQ(sink.tuples()[1].value, 3u);  // {5, 7, 8}
}

TEST(Deduplicate, EachValueForwardedExactlyOnce) {
  Flow flow;
  std::vector<Tuple<Ev>> in{{1, 0, {0, 5}},  {2, 0, {0, 5}},
                            {3, 0, {0, 7}},  {11, 0, {0, 5}},
                            {12, 0, {0, 8}}, {21, 0, {0, 7}}};
  auto& src = flow.add<TimedSource<Ev>>(in, 5, 42);
  auto op = patterns::make_deduplicate<Ev, int, int>(flow, 10, by_key(),
                                                     by_val());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();

  // Period [0,10): first occurrences 5, 7 -> reported at τ=10.
  // Period [10,20): new value 8 -> reported at τ=20.
  // Period [20,30): 7 already seen -> nothing new (no report content).
  std::multiset<std::pair<Timestamp, int>> got = sink.multiset();
  std::multiset<std::pair<Timestamp, int>> expected{
      {10, 5}, {10, 7}, {20, 8}};
  EXPECT_EQ(got, expected);
}

TEST(Deduplicate, PerKeyIndependence) {
  Flow flow;
  std::vector<Tuple<Ev>> in{{1, 0, {0, 5}}, {2, 0, {1, 5}}};
  auto& src = flow.add<TimedSource<Ev>>(in, 5, 22);
  auto op = patterns::make_deduplicate<Ev, int, int>(flow, 10, by_key(),
                                                     by_val());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  // Value 5 appears once per key: forwarded twice (distinct key states).
  EXPECT_EQ(sink.tuples().size(), 2u);
}

}  // namespace
}  // namespace aggspes
