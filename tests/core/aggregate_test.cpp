// Unit tests for the minimalistic Aggregate A and the relaxed A+
// (§ 2.1, § 2.3, § 2.4, § 5.1).
#include "core/operators/aggregate.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/hashing.hpp"

#include "core/operators/aggregate_plus.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Reading {
  int sensor;
  int value;
  friend bool operator==(const Reading&, const Reading&) = default;
};

}  // namespace
}  // namespace aggspes

template <>
struct std::hash<aggspes::Reading> {
  size_t operator()(const aggspes::Reading& r) const {
    return aggspes::hash_values(r.sensor, r.value);
  }
};

namespace aggspes {
namespace {

using SumAgg = AggregateOp<Reading, int, int>;

SumAgg::KeyFn by_sensor() {
  return [](const Reading& r) { return r.sensor; };
}

SumAgg::AggFn sum_values() {
  return [](const WindowView<Reading, int>& w) -> std::optional<int> {
    int s = 0;
    for (const auto& t : w.items) s += t.value.value;
    return s;
  };
}

TEST(Aggregate, TumblingSumPerKey) {
  Flow flow;
  std::vector<Tuple<Reading>> in{
      {0, 0, {1, 10}}, {1, 0, {1, 20}}, {2, 0, {2, 5}},
      {10, 0, {1, 7}}, {11, 0, {2, 8}},
  };
  auto& src = flow.add<TimedSource<Reading>>(in, /*period=*/5,
                                             /*flush_to=*/30);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();

  // Window [0,10): key1 -> 30, key2 -> 5; window [10,20): key1 -> 7,
  // key2 -> 8. Output τ = γ.l + WS − δ.
  auto m = sink.multiset();
  std::multiset<std::pair<Timestamp, int>> expected{
      {9, 30}, {9, 5}, {19, 7}, {19, 8}};
  EXPECT_EQ(m, expected);
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.watermark_regressions(), 0);
}

TEST(Aggregate, SlidingWindowCountsEachTupleInEveryInstance) {
  Flow flow;
  std::vector<Tuple<Reading>> in{{4, 0, {1, 1}}, {7, 0, {1, 1}},
                                 {12, 0, {1, 1}}};
  auto& src = flow.add<TimedSource<Reading>>(in, 5, 40);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 5, .size = 15},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();

  // ts=4 falls in instances l ∈ {-10,-5,0}; ts=7 in {-5,0,5};
  // ts=12 in {0,5,10}.
  auto m = sink.multiset();
  std::multiset<std::pair<Timestamp, int>> expected{
      {4, 1},   // l=-10: {4}
      {9, 2},   // l=-5:  {4,7}
      {14, 3},  // l=0:   {4,7,12}
      {19, 2},  // l=5:   {7,12}
      {24, 1},  // l=10:  {12}
  };
  EXPECT_EQ(m, expected);
}

TEST(Aggregate, EmptyResultSuppressesOutput) {
  Flow flow;
  std::vector<Tuple<Reading>> in{{0, 0, {1, 10}}, {10, 0, {1, 3}}};
  auto& src = flow.add<TimedSource<Reading>>(in, 5, 30);
  auto& agg = flow.add<SumAgg>(
      WindowSpec{.advance = 10, .size = 10}, by_sensor(),
      [](const WindowView<Reading, int>& w) -> std::optional<int> {
        int s = 0;
        for (const auto& t : w.items) s += t.value.value;
        if (s < 5) return std::nullopt;  // f_O returns ∅
        return s;
      });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value, 10);
}

TEST(Aggregate, WatermarkForwardedAfterResults) {
  // § 2.3: upon a watermark growing W_A, A outputs all due windows and only
  // then forwards the watermark.
  Flow flow;
  std::vector<Element<Reading>> script{
      Tuple<Reading>{0, 0, {1, 4}},
      Watermark{10},  // closes [0,10)
      EndOfStream{},
  };
  auto& src = flow.add<ScriptSource<Reading>>(script);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].ts, 9);
  ASSERT_EQ(sink.watermarks().size(), 1u);
  // The result (τ=9) must not be late w.r.t. the forwarded watermark order.
  EXPECT_EQ(sink.late_tuples(), 0);
}

TEST(Aggregate, ObservationOneHolds) {
  // Observation 1: t_o.τ >= t_i.τ for every input of the instance.
  Flow flow;
  std::vector<Tuple<Reading>> in;
  for (Timestamp ts = 0; ts < 50; ts += 3) in.push_back({ts, 0, {1, 1}});
  auto& src = flow.add<TimedSource<Reading>>(in, 4, 80);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 7, .size = 14},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_FALSE(sink.tuples().empty());
  EXPECT_EQ(sink.late_tuples(), 0);  // no output precedes its watermark
}

TEST(Aggregate, LateArrivalWithinLatenessProducesUpdate) {
  // § 2.4: a tuple falling in γ after γ produced a result is still added
  // and can produce an updated output if γ.l + WS <= W + L.
  Flow flow;
  std::vector<Element<Reading>> script{
      Tuple<Reading>{2, 0, {1, 10}},
      Watermark{12},                 // closes [0,10): result 10
      Tuple<Reading>{5, 0, {1, 5}},  // late; admitted (L = 5: 10+5 > 12)
      Watermark{20},
      EndOfStream{},
  };
  auto& src = flow.add<ScriptSource<Reading>>(script);
  auto& agg = flow.add<SumAgg>(
      WindowSpec{.advance = 10, .size = 10, .lateness = 5}, by_sensor(),
      sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].value, 10);
  EXPECT_EQ(sink.tuples()[1].value, 15);  // the updated result
  EXPECT_EQ(sink.tuples()[1].ts, 9);
  EXPECT_EQ(sink.late_tuples(), 1);  // the update is late downstream
  EXPECT_EQ(agg.machine().late_updates(), 1u);
}

TEST(Aggregate, LateArrivalBeyondLatenessDropped) {
  Flow flow;
  std::vector<Element<Reading>> script{
      Tuple<Reading>{2, 0, {1, 10}},
      Watermark{16},                 // [0,10) purgeable: 10 + 5 <= 16
      Tuple<Reading>{5, 0, {1, 5}},  // beyond lateness: dropped
      Watermark{30},
      EndOfStream{},
  };
  auto& src = flow.add<ScriptSource<Reading>>(script);
  auto& agg = flow.add<SumAgg>(
      WindowSpec{.advance = 10, .size = 10, .lateness = 5}, by_sensor(),
      sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value, 10);
  EXPECT_EQ(agg.machine().dropped_late(), 1u);
}

TEST(Aggregate, ZeroLatenessDropsAllLateArrivals) {
  Flow flow;
  std::vector<Element<Reading>> script{
      Tuple<Reading>{2, 0, {1, 10}},
      Watermark{10},
      Tuple<Reading>{5, 0, {1, 5}},
      Watermark{20},
      EndOfStream{},
  };
  auto& src = flow.add<ScriptSource<Reading>>(script);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(agg.machine().dropped_late(), 1u);
}

TEST(Aggregate, OutOfOrderWithinWatermarkBoundIsCorrect)
{
  // Tuples may arrive out of timestamp order; as long as they respect the
  // watermark, windows still see the full content.
  Flow flow;
  std::vector<Element<Reading>> script{
      Tuple<Reading>{7, 0, {1, 1}},
      Tuple<Reading>{2, 0, {1, 2}},  // older than previous, but no WM yet
      Tuple<Reading>{5, 0, {1, 4}},
      Watermark{10},
      EndOfStream{},
  };
  auto& src = flow.add<ScriptSource<Reading>>(script);
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value, 7);
}

TEST(Aggregate, MultipleInputStreamsCombineWatermarks) {
  // P1 + § 2.3: with two input streams, W_A is the min of the latest
  // watermark per stream; windows fire only when both streams allow.
  Flow flow;
  auto& s1 = flow.add<ScriptSource<Reading>>(std::vector<Element<Reading>>{
      Tuple<Reading>{1, 0, {1, 10}}, Watermark{30}, EndOfStream{}});
  auto& s2 = flow.add<ScriptSource<Reading>>(std::vector<Element<Reading>>{
      Tuple<Reading>{2, 0, {1, 7}}, Watermark{8}, Watermark{30},
      EndOfStream{}});
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values(),
                               /*regular_inputs=*/2);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(s1.out(), agg.in(0));
  flow.connect(s2.out(), agg.in(1));
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value, 17);  // both streams' tuples combined
}

TEST(Aggregate, FlushOnEndFiresOpenWindows) {
  Flow flow;
  auto& src = flow.add<ScriptSource<Reading>>(std::vector<Element<Reading>>{
      Tuple<Reading>{2, 0, {1, 10}}, EndOfStream{}});  // no closing WM
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value, 10);
  EXPECT_TRUE(sink.ended());
}

TEST(Aggregate, NoFlushOnEndWhenDisabled) {
  Flow flow;
  auto& src = flow.add<ScriptSource<Reading>>(std::vector<Element<Reading>>{
      Tuple<Reading>{2, 0, {1, 10}}, EndOfStream{}});
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values(),
                               /*regular_inputs=*/1, /*loop_inputs=*/0,
                               /*flush_on_end=*/false);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_TRUE(sink.ended());
}

TEST(Aggregate, StampPropagatesMaxOfContributors) {
  Flow flow;
  auto& src = flow.add<ScriptSource<Reading>>(std::vector<Element<Reading>>{
      Tuple<Reading>{0, 111, {1, 1}}, Tuple<Reading>{1, 333, {1, 1}},
      Tuple<Reading>{2, 222, {1, 1}}, Watermark{10}, EndOfStream{}});
  auto& agg = flow.add<SumAgg>(WindowSpec{.advance = 10, .size = 10},
                               by_sensor(), sum_values());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].stamp, 333u);
}

TEST(AggregatePlus, EmitsArbitraryManyOutputsPerInstance) {
  // § 5.1: A+ may produce any number of tuples from one window instance.
  Flow flow;
  std::vector<Tuple<Reading>> in{{0, 0, {1, 3}}, {1, 0, {1, 2}}};
  auto& src = flow.add<TimedSource<Reading>>(in, 5, 20);
  auto& agg = flow.add<AggregatePlusOp<Reading, int, int>>(
      WindowSpec{.advance = 10, .size = 10},
      [](const Reading& r) { return r.sensor; },
      [](const WindowView<Reading, int>& w) {
        // One output per unit of each value: 3 + 2 = 5 outputs.
        std::vector<int> outs;
        for (const auto& t : w.items) {
          for (int i = 0; i < t.value.value; ++i) outs.push_back(i);
        }
        return outs;
      });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 5u);
  for (const auto& t : sink.tuples()) EXPECT_EQ(t.ts, 9);
}

TEST(AggregatePlus, EmptyVectorMeansNoOutput) {
  Flow flow;
  std::vector<Tuple<Reading>> in{{0, 0, {1, 3}}};
  auto& src = flow.add<TimedSource<Reading>>(in, 5, 20);
  auto& agg = flow.add<AggregatePlusOp<Reading, int, int>>(
      WindowSpec{.advance = 10, .size = 10},
      [](const Reading& r) { return r.sensor; },
      [](const WindowView<Reading, int>&) { return std::vector<int>{}; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.tuples().empty());
}

}  // namespace
}  // namespace aggspes
