// Unit tests for Listing 2 — the three Aggregates enforcing E_J (Claim 2 /
// Theorem 2), examined at the envelope level (before any Unfold).
#include "aggbased/embed_join.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hashing.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
  friend bool operator==(const Ev&, const Ev&) = default;
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

using Sides = JoinSides<Ev, Ev>;
using Out = Embedded<std::pair<Ev, Ev>>;

std::function<int(const Ev&)> by_key() {
  return [](const Ev& e) { return e.key; };
}

struct Built {
  Flow flow;
  EmbedJoin<Ev, Ev, int>* ej;
  CollectorSink<Out>* sink;

  Built(std::vector<Tuple<Ev>> lefts, std::vector<Tuple<Ev>> rights,
        WindowSpec spec, std::function<bool(const Ev&, const Ev&)> pred) {
    auto& s1 = flow.add<TimedSource<Ev>>(std::move(lefts), 5, 50);
    auto& s2 = flow.add<TimedSource<Ev>>(std::move(rights), 5, 50);
    ej = new EmbedJoin<Ev, Ev, int>(flow, spec, by_key(), by_key(),
                                    std::move(pred));
    sink = &flow.add<CollectorSink<Out>>();
    flow.connect(s1.out(), ej->left_in());
    flow.connect(s2.out(), ej->right_in());
    flow.connect(ej->out(), sink->in());
    flow.run();
  }
  ~Built() { delete ej; }
};

TEST(EmbedJoin, EnvelopeCarriesAllMatchingPairs) {
  Built b({{1, 0, {7, 1}}, {2, 0, {7, 2}}}, {{3, 0, {7, 10}}},
          WindowSpec{.advance = 10, .size = 10},
          [](const Ev&, const Ev&) { return true; });
  ASSERT_EQ(b.sink->tuples().size(), 1u);
  const auto& env = b.sink->tuples()[0];
  // Claim 2: t_E.τ = γ.l + WS − δ and t_E[2] = −1.
  EXPECT_EQ(env.ts, 9);
  EXPECT_TRUE(env.value.from_embed());
  ASSERT_EQ(env.value.items().size(), 2u);
}

TEST(EmbedJoin, CartesianOrderFollowsListing2) {
  // Listing 2's f_O matches each arriving group against *previously*
  // traversed tuples of the other side; with lefts L1, L2 then right R,
  // the pairs appear as (L1,R), (L2,R).
  Built b({{1, 0, {1, 1}}, {2, 0, {1, 2}}}, {{3, 0, {1, 9}}},
          WindowSpec{.advance = 10, .size = 10},
          [](const Ev&, const Ev&) { return true; });
  ASSERT_EQ(b.sink->tuples().size(), 1u);
  const auto& items = b.sink->tuples()[0].value.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first.val, 1);
  EXPECT_EQ(items[1].first.val, 2);
}

TEST(EmbedJoin, NoMatchesMeansNoEnvelope) {
  // List. 2 L33-36: if T = {}, f_O returns ∅ — no output tuple at all.
  Built b({{1, 0, {1, 1}}}, {{2, 0, {2, 1}}},
          WindowSpec{.advance = 10, .size = 10},
          [](const Ev&, const Ev&) { return true; });
  EXPECT_TRUE(b.sink->tuples().empty());
  EXPECT_TRUE(b.sink->ended());
}

TEST(EmbedJoin, SideKeyRoutesByOriginStream) {
  // f'_K must apply f_K¹ to left-side envelopes and f_K² to right-side
  // ones. Use different key functions per side so a mix-up would mismatch.
  Flow flow;
  auto& s1 = flow.add<TimedSource<Ev>>(
      std::vector<Tuple<Ev>>{{1, 0, {3, 1}}}, 5, 40);
  auto& s2 = flow.add<TimedSource<Ev>>(
      std::vector<Tuple<Ev>>{{2, 0, {6, 2}}}, 5, 40);
  // Left keys by key, right keys by key/2: 3 == 6/2 -> aligned.
  EmbedJoin<Ev, Ev, int> ej(
      flow, WindowSpec{.advance = 10, .size = 10},
      [](const Ev& e) { return e.key; }, [](const Ev& e) { return e.key / 2; },
      [](const Ev&, const Ev&) { return true; });
  auto& sink = flow.add<CollectorSink<Out>>();
  flow.connect(s1.out(), ej.left_in());
  flow.connect(s2.out(), ej.right_in());
  flow.connect(ej.out(), sink.in());
  flow.run();
  ASSERT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(sink.tuples()[0].value.items().size(), 1u);
}

TEST(EmbedJoin, DuplicateTuplesWrappedWithMultiplicity) {
  // A1/A2 key by all attributes, so identical tuples share one δ-window
  // instance and the wrapper embeds them all in one group.
  Built b({{1, 0, {1, 5}}, {1, 0, {1, 5}}}, {{2, 0, {1, 6}}},
          WindowSpec{.advance = 10, .size = 10},
          [](const Ev&, const Ev&) { return true; });
  ASSERT_EQ(b.sink->tuples().size(), 1u);
  // Two identical lefts × one right = 2 pairs.
  EXPECT_EQ(b.sink->tuples()[0].value.items().size(), 2u);
}

TEST(EmbedJoin, WatermarksPropagateThroughAllThreeAggregates) {
  Built b({{1, 0, {1, 1}}}, {{2, 0, {1, 2}}},
          WindowSpec{.advance = 10, .size = 10},
          [](const Ev&, const Ev&) { return true; });
  EXPECT_FALSE(b.sink->watermarks().empty());
  EXPECT_EQ(b.sink->watermark_regressions(), 0);
  EXPECT_EQ(b.sink->late_tuples(), 0);
  EXPECT_TRUE(b.sink->ended());
}

}  // namespace
}  // namespace aggspes
