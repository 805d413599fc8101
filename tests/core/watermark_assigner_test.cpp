// Tests for watermark assignment policies (the ingress-side machinery
// behind condition C1) and the stream probes.
#include "core/operators/watermark_assigner.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/operators/probe.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

std::vector<Element<int>> raw_script(std::vector<Tuple<int>> tuples) {
  std::vector<Element<int>> s;
  for (auto& t : tuples) s.push_back(std::move(t));
  s.push_back(EndOfStream{});
  return s;
}

StreamStats run_assigner(std::vector<Tuple<int>> in,
                         WatermarkPolicy policy) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(raw_script(std::move(in)));
  auto& wm = flow.add<WatermarkAssigner<int>>(policy);
  auto& probe = flow.add<ProbeOp<int>>();
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), wm.in());
  flow.connect(wm.out(), probe.in());
  flow.connect(probe.out(), sink.in());
  flow.run();
  return probe.stats();  // copied out; the flow may be destroyed
}

TEST(WatermarkAssigner, AscendingStreamGetsPeriodicWatermarks) {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 50; ts += 2) in.push_back({ts, 0, int(ts)});
  auto stats = run_assigner(in, {.period = 10, .bound = 0});
  EXPECT_EQ(stats.tuples, 25u);
  EXPECT_GE(stats.watermarks, 4u);
  EXPECT_EQ(stats.late_tuples, 0u);
  EXPECT_EQ(stats.watermark_regressions, 0u);
  EXPECT_GE(stats.last_watermark, 49);  // final flush covers everything
  EXPECT_TRUE(stats.ended);
}

TEST(WatermarkAssigner, C1SpacingHolds) {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 100; ts += 7) in.push_back({ts, 0, int(ts)});
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(raw_script(in));
  auto& wm = flow.add<WatermarkAssigner<int>>(
      WatermarkPolicy{.period = 10, .bound = 0});
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), wm.in());
  flow.connect(wm.out(), sink.in());
  flow.run();
  const auto& wms = sink.watermarks();
  ASSERT_GE(wms.size(), 2u);
  for (std::size_t i = 1; i < wms.size(); ++i) {
    EXPECT_LE(wms[i] - wms[i - 1], 10) << "C1 spacing violated at " << i;
    EXPECT_GT(wms[i], wms[i - 1]);
  }
}

TEST(WatermarkAssigner, BoundedDisorderNeverMakesTuplesLate) {
  // Tuples jitter by up to 5 ticks; bound = 5 must keep everything on time.
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 60; ts += 3) {
    const Timestamp jitter = (ts % 2 == 0 && ts >= 5) ? -5 : 0;
    in.push_back({ts + jitter, 0, int(ts)});
  }
  auto stats = run_assigner(in, {.period = 8, .bound = 5});
  EXPECT_EQ(stats.late_tuples, 0u);
  EXPECT_EQ(stats.watermark_regressions, 0u);
}

TEST(WatermarkAssigner, DisorderBeyondBoundIsCounted) {
  std::vector<Tuple<int>> in{{0, 0, 0},  {10, 0, 1}, {20, 0, 2},
                             {30, 0, 3}, {5, 0, 4}};  // 25 ticks late
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(raw_script(in));
  auto& wm = flow.add<WatermarkAssigner<int>>(
      WatermarkPolicy{.period = 5, .bound = 2});
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), wm.in());
  flow.connect(wm.out(), sink.in());
  flow.run();
  EXPECT_EQ(wm.violations(), 1u);
  EXPECT_EQ(sink.late_tuples(), 1);  // surfaced downstream too
}

TEST(WatermarkAssigner, FeedsAnAggBasedCompositionCorrectly) {
  // End to end: raw (watermark-less) stream -> assigner -> AggBased FM.
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 40; ++ts) in.push_back({ts, 0, int(ts % 6)});
  FlatMapFn<int, int> fm = [](const int& v) {
    return v % 2 ? std::vector<int>{v * 10} : std::vector<int>{};
  };

  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(raw_script(in));
  auto& wm = flow.add<WatermarkAssigner<int>>(
      WatermarkPolicy{.period = 6, .bound = 0});
  AggBasedFlatMap<int, int> op(flow, fm, /*lateness=*/6);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), wm.in());
  flow.connect(wm.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();

  std::size_t expected = 0;
  for (const auto& t : in) expected += (t.value % 2) ? 1 : 0;
  EXPECT_EQ(sink.tuples().size(), expected);
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_TRUE(sink.ended());
}

TEST(Probe, TransparentAndCounting) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{3, 0, 1}, Tuple<int>{7, 0, 2}, Watermark{8},
      EndOfStream{}});
  auto& probe = flow.add<ProbeOp<int>>();
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), probe.in());
  flow.connect(probe.out(), sink.in());
  flow.run();
  EXPECT_EQ(sink.tuples().size(), 2u);  // transparent
  const auto& s = probe.stats();
  EXPECT_EQ(s.tuples, 2u);
  EXPECT_EQ(s.min_ts, 3);
  EXPECT_EQ(s.max_ts, 7);
  EXPECT_EQ(s.watermarks, 1u);
  EXPECT_EQ(s.last_watermark, 8);
  EXPECT_TRUE(s.ended);
  EXPECT_NE(s.summary().find("2 tuples"), std::string::npos);
  EXPECT_NE(s.summary().find("ended"), std::string::npos);
}

}  // namespace
}  // namespace aggspes
