// Tests for Listing 1 — the Aggregate enforcing E_FM (Theorem 1 / Claim 1).
#include "aggbased/embed_flatmap.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

using Env = Embedded<int>;

FlatMapFn<int, int> twice_plus() {
  // f_FM(v) = {v+1, v+2}: selectivity 2.
  return [](const int& v) { return std::vector<int>{v + 1, v + 2}; };
}

TEST(EmbedFlatMap, EnvelopeCarriesAllOutputsWithInputTimestamp) {
  Flow flow;
  std::vector<Tuple<int>> in{{3, 0, 10}, {7, 0, 20}};
  auto& src = flow.add<TimedSource<int>>(in, 4, 20);
  auto& e = make_embed_flatmap<int, int>(flow, twice_plus());
  auto& sink = flow.add<CollectorSink<Env>>();
  flow.connect(src.out(), e.in());
  flow.connect(e.out(), sink.in());
  flow.run();

  ASSERT_EQ(sink.tuples().size(), 2u);
  // Claim 1: t_E.τ = t.τ and t_E[1] carries f_FM(t); t_E[2] = −1.
  EXPECT_EQ(sink.tuples()[0].ts, 3);
  EXPECT_EQ(sink.tuples()[0].value.items(), (std::vector<int>{11, 12}));
  EXPECT_TRUE(sink.tuples()[0].value.from_embed());
  EXPECT_EQ(sink.tuples()[1].ts, 7);
  EXPECT_EQ(sink.tuples()[1].value.items(), (std::vector<int>{21, 22}));
}

TEST(EmbedFlatMap, EmptyFunctionResultProducesNoEnvelope) {
  Flow flow;
  std::vector<Tuple<int>> in{{1, 0, 5}};
  auto& src = flow.add<TimedSource<int>>(in, 4, 10);
  auto& e = make_embed_flatmap<int, int>(
      flow, [](const int&) { return std::vector<int>{}; });
  auto& sink = flow.add<CollectorSink<Env>>();
  flow.connect(src.out(), e.in());
  flow.connect(e.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.tuples().empty());
  EXPECT_TRUE(sink.ended());
}

TEST(EmbedFlatMap, DuplicateInputsAccumulateWithMultiplicity) {
  // Theorem 1's key subtlety: identical tuples share a window instance
  // (key-by all attributes), and f_O appends f_FM once per tuple, so k
  // duplicates embed k copies of each output in ONE envelope.
  Flow flow;
  std::vector<Tuple<int>> in{{5, 0, 1}, {5, 0, 1}, {5, 0, 1}};
  auto& src = flow.add<TimedSource<int>>(in, 4, 10);
  auto& e = make_embed_flatmap<int, int>(
      flow, [](const int& v) { return std::vector<int>{v * 10}; });
  auto& sink = flow.add<CollectorSink<Env>>();
  flow.connect(src.out(), e.in());
  flow.connect(e.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value.items(), (std::vector<int>{10, 10, 10}));
}

TEST(EmbedFlatMap, DistinctPayloadsAtSameTimestampStaySeparate) {
  Flow flow;
  std::vector<Tuple<int>> in{{5, 0, 1}, {5, 0, 2}};
  auto& src = flow.add<TimedSource<int>>(in, 4, 10);
  auto& e = make_embed_flatmap<int, int>(
      flow, [](const int& v) { return std::vector<int>{v}; });
  auto& sink = flow.add<CollectorSink<Env>>();
  flow.connect(src.out(), e.in());
  flow.connect(e.out(), sink.in());
  flow.run();
  // Key-by all attributes: two instances, two envelopes.
  ASSERT_EQ(sink.tuples().size(), 2u);
}

TEST(EmbedFlatMap, TypeChangingFunction) {
  Flow flow;
  std::vector<Tuple<int>> in{{2, 0, 42}};
  auto& src = flow.add<TimedSource<int>>(in, 4, 10);
  auto& e = make_embed_flatmap<int, std::string>(
      flow,
      [](const int& v) { return std::vector<std::string>{std::to_string(v)}; });
  auto& sink = flow.add<CollectorSink<Embedded<std::string>>>();
  flow.connect(src.out(), e.in());
  flow.connect(e.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value.items(), (std::vector<std::string>{"42"}));
}

}  // namespace
}  // namespace aggspes
