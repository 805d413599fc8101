// Tests for A++ — the eager Aggregate (§ 6.2's proposed relaxation) and
// the eager FM/J built from it. Semantics must still match the Dedicated
// operators exactly; the *timing* (results before watermarks) is what the
// relaxation buys.
#include "aggbased/eager.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "core/operators/join.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
  friend bool operator==(const Ev&, const Ev&) = default;
  friend auto operator<=>(const Ev&, const Ev&) = default;
};

}  // namespace
}  // namespace aggspes

template <>
struct std::hash<aggspes::Ev> {
  size_t operator()(const aggspes::Ev& e) const {
    return aggspes::hash_values(e.key, e.val);
  }
};

namespace aggspes {
namespace {

TEST(EagerAggregate, IntermediateResultsPrecedeWatermark) {
  // Feed tuples with NO closing watermark yet: eager outputs must already
  // be visible (the defining property of A++), final outputs not.
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(std::vector<Element<int>>{
      Tuple<int>{1, 0, 10}, Tuple<int>{2, 0, 20}});
  auto& agg = flow.add<AggregateEagerOp<int, int, int>>(
      WindowSpec{.advance = 10, .size = 10},
      [](const int&) { return 0; },
      /*f_i=*/
      [](const WindowView<int, int>& w) {
        return std::vector<int>{w.items.back().value};  // echo eagerly
      },
      /*f_o=*/
      [](const WindowView<int, int>& w) {
        int sum = 0;
        for (const auto& t : w.items) sum += t.value;
        return std::vector<int>{sum};
      });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  // Two eager echoes, no watermark yet -> no final sum.
  ASSERT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(sink.tuples()[0].value, 10);
  EXPECT_EQ(sink.tuples()[1].value, 20);
  // Eager outputs carry the instance's output timestamp (watermark-safe).
  EXPECT_EQ(sink.tuples()[0].ts, 9);
  EXPECT_EQ(sink.late_tuples(), 0);

  // Now close the window: the final result arrives.
  src.out().push_watermark(10);
  flow.drain();
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_EQ(sink.tuples()[2].value, 30);
}

TEST(EagerFlatMap, MatchesDedicatedAndNeedsNoWatermarkToEmit) {
  std::vector<Tuple<int>> in;
  for (Timestamp ts = 0; ts < 50; ++ts) in.push_back({ts, 0, int(ts % 9)});
  FlatMapFn<int, int> fm = [](const int& v) {
    std::vector<int> out;
    for (int i = 0; i < v % 3; ++i) out.push_back(v * 10 + i);
    return out;
  };

  Flow ded;
  auto& d_src = ded.add<TimedSource<int>>(in, 10, 70);
  auto& d_op = ded.add<FlatMapOp<int, int>>(fm);
  auto& d_sink = ded.add<CollectorSink<int>>();
  ded.connect(d_src.out(), d_op.in());
  ded.connect(d_op.out(), d_sink.in());
  ded.run();

  Flow eag;
  auto& e_src = eag.add<TimedSource<int>>(in, 10, 70);
  auto& e_op = make_eager_flatmap<int, int>(eag, fm);
  auto& e_sink = eag.add<CollectorSink<int>>();
  eag.connect(e_src.out(), e_op.in());
  eag.connect(e_op.out(), e_sink.in());
  eag.run();

  EXPECT_EQ(e_sink.multiset(), d_sink.multiset());
  EXPECT_EQ(e_sink.late_tuples(), 0);

  // No-watermark variant: eager FM emits everything even without a single
  // watermark (dedicated-like behavior A/A+ cannot provide).
  Flow nowm;
  std::vector<Element<int>> script;
  for (const auto& t : in) script.push_back(t);
  script.push_back(EndOfStream{});
  auto& n_src = nowm.add<ScriptSource<int>>(script);
  auto& n_op = make_eager_flatmap<int, int>(nowm, fm);
  auto& n_sink = nowm.add<CollectorSink<int>>();
  nowm.connect(n_src.out(), n_op.in());
  nowm.connect(n_op.out(), n_sink.in());
  nowm.run();
  EXPECT_EQ(n_sink.multiset(), d_sink.multiset());
}

using Pair = std::pair<Ev, Ev>;

std::multiset<std::tuple<Timestamp, Ev, Ev>> pairs_of(
    const CollectorSink<Pair>& sink) {
  std::multiset<std::tuple<Timestamp, Ev, Ev>> out;
  for (const auto& t : sink.tuples()) {
    out.emplace(t.ts, t.value.first, t.value.second);
  }
  return out;
}

class EagerJoinSweep : public ::testing::TestWithParam<int> {};

TEST_P(EagerJoinSweep, MatchesDedicatedJoin) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<Timestamp> ts_d(0, 50);
  std::uniform_int_distribution<int> key_d(0, 3);
  std::uniform_int_distribution<int> val_d(0, 9);
  auto gen = [&](int n) {
    std::vector<Tuple<Ev>> v;
    for (int i = 0; i < n; ++i) {
      v.push_back({ts_d(rng), 0, {key_d(rng), val_d(rng)}});
    }
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.ts < b.ts; });
    return v;
  };
  auto lefts = gen(30);
  auto rights = gen(30);
  const WindowSpec spec{.advance = 5, .size = 15};
  auto key = [](const Ev& e) { return e.key; };
  auto pred = [](const Ev& a, const Ev& b) { return (a.val + b.val) % 2; };

  Flow ded;
  auto& d1 = ded.add<TimedSource<Ev>>(lefts, 7, 90);
  auto& d2 = ded.add<TimedSource<Ev>>(rights, 7, 90);
  auto& d_op = ded.add<JoinOp<Ev, Ev, int>>(spec, key, key, pred);
  auto& d_sink = ded.add<CollectorSink<Pair>>();
  ded.connect(d1.out(), d_op.in_left());
  ded.connect(d2.out(), d_op.in_right());
  ded.connect(d_op.out(), d_sink.in());
  ded.run();

  Flow eag;
  auto& e1 = eag.add<TimedSource<Ev>>(lefts, 7, 90);
  auto& e2 = eag.add<TimedSource<Ev>>(rights, 7, 90);
  EagerJoin<Ev, Ev, int> e_op(eag, spec, key, key, pred);
  auto& e_sink = eag.add<CollectorSink<Pair>>();
  eag.connect(e1.out(), e_op.left_in());
  eag.connect(e2.out(), e_op.right_in());
  eag.connect(e_op.out(), e_sink.in());
  eag.run();

  EXPECT_EQ(pairs_of(e_sink), pairs_of(d_sink));
  EXPECT_EQ(e_sink.late_tuples(), 0);
  EXPECT_TRUE(e_sink.ended());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerJoinSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace aggspes
