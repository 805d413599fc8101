// Edge cases of the windowing model: hopping windows with gaps (WA > WS),
// negative event times (epochs before the reference origin), and
// degenerate δ-sized windows — all legal under § 2.1's Γ definition.
#include <gtest/gtest.h>

#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using CountAgg = AggregateOp<int, int, int>;

CountAgg::AggFn count_items() {
  return [](const WindowView<int, int>& w) -> std::optional<int> {
    return static_cast<int>(w.items.size());
  };
}

TEST(HoppingWindows, TuplesInGapsBelongToNoInstance) {
  // WA = 10, WS = 5: instances cover [0,5), [10,15), ... — event times in
  // [5,10) fall in no window and must silently contribute nothing.
  WindowSpec spec{.advance = 10, .size = 5};
  EXPECT_TRUE(spec.instances(7).empty());
  EXPECT_EQ(spec.instances(3), (std::vector<Timestamp>{0}));
  EXPECT_EQ(spec.instances(12), (std::vector<Timestamp>{10}));

  Flow flow;
  std::vector<Tuple<int>> in{{3, 0, 1}, {7, 0, 2}, {12, 0, 3}, {8, 0, 4}};
  auto& src = flow.add<TimedSource<int>>(in, 5, 30);
  auto& agg = flow.add<CountAgg>(spec, [](const int&) { return 0; },
                                 count_items());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  // Only [0,5) (one tuple) and [10,15) (one tuple) produce results.
  auto m = sink.multiset();
  std::multiset<std::pair<Timestamp, int>> expected{{4, 1}, {14, 1}};
  EXPECT_EQ(m, expected);
}

TEST(NegativeEventTimes, WindowsAlignCorrectlyBeforeTheEpoch) {
  WindowSpec spec{.advance = 10, .size = 10};
  EXPECT_EQ(spec.instances(-1), (std::vector<Timestamp>{-10}));
  EXPECT_EQ(spec.instances(-10), (std::vector<Timestamp>{-10}));
  EXPECT_EQ(spec.instances(-11), (std::vector<Timestamp>{-20}));

  Flow flow;
  std::vector<Tuple<int>> in{{-15, 0, 1}, {-12, 0, 2}, {-5, 0, 3}};
  auto& src = flow.add<TimedSource<int>>(in, 5, 10);
  auto& agg = flow.add<CountAgg>(spec, [](const int&) { return 0; },
                                 count_items());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  auto m = sink.multiset();
  // [-20,-10): two tuples, output τ = -11; [-10,0): one tuple, τ = -1.
  std::multiset<std::pair<Timestamp, int>> expected{{-11, 2}, {-1, 1}};
  EXPECT_EQ(m, expected);
}

TEST(NegativeEventTimes, AggBasedFlatMapWorksBelowZero) {
  std::vector<Tuple<int>> in{{-9, 0, 1}, {-4, 0, 2}, {0, 0, 3}, {5, 0, 4}};
  FlatMapFn<int, int> fm = [](const int& v) {
    return std::vector<int>{v, -v};
  };

  Flow ded;
  auto& d_src = ded.add<TimedSource<int>>(in, 4, 20);
  auto& d_op = ded.add<FlatMapOp<int, int>>(fm);
  auto& d_sink = ded.add<CollectorSink<int>>();
  ded.connect(d_src.out(), d_op.in());
  ded.connect(d_op.out(), d_sink.in());
  ded.run();

  Flow agg;
  auto& a_src = agg.add<TimedSource<int>>(in, 4, 20);
  AggBasedFlatMap<int, int> a_op(agg, fm, 4);
  auto& a_sink = agg.add<CollectorSink<int>>();
  agg.connect(a_src.out(), a_op.in());
  agg.connect(a_op.out(), a_sink.in());
  agg.run();

  EXPECT_EQ(a_sink.multiset(), d_sink.multiset());
  EXPECT_EQ(a_sink.tuples().size(), 8u);
}

TEST(DeltaWindows, SingleTickWindowsFireEveryTick) {
  WindowSpec spec{.advance = kDelta, .size = kDelta};
  Flow flow;
  std::vector<Tuple<int>> in{{0, 0, 1}, {0, 0, 2}, {1, 0, 3}, {3, 0, 4}};
  auto& src = flow.add<TimedSource<int>>(in, 2, 8);
  auto& agg = flow.add<CountAgg>(spec, [](const int&) { return 0; },
                                 count_items());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  auto m = sink.multiset();
  // Ticks 0 (2 tuples), 1 (1), 3 (1); tick 2 has no window instance
  // content. Output τ = γ.l (Lemma 1).
  std::multiset<std::pair<Timestamp, int>> expected{{0, 2}, {1, 1}, {3, 1}};
  EXPECT_EQ(m, expected);
}

TEST(LargeSlide, WindowsLargerThanWatermarkPeriod) {
  // WS much larger than D: instances accumulate across many watermark
  // rounds before closing.
  WindowSpec spec{.advance = 50, .size = 100};
  Flow flow;
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 100; ts += 10) in.push_back({ts, 0, 1});
  auto& src = flow.add<TimedSource<int>>(in, 7, 230);
  auto& agg = flow.add<CountAgg>(spec, [](const int&) { return 0; },
                                 count_items());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  // Instances: [-50,50): 5 tuples; [0,100): 10; [50,150): 5.
  auto m = sink.multiset();
  std::multiset<std::pair<Timestamp, int>> expected{
      {49, 5}, {99, 10}, {149, 5}};
  EXPECT_EQ(m, expected);
}

}  // namespace
}  // namespace aggspes
