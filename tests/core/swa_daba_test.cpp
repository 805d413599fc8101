// DabaLite (core/swa/daba.hpp): FIFO-equivalence against TwoStacks and a
// brute-force fold under randomized op sequences, the worst-case combine
// bound that is the structure's whole point (no O(window) flip burst on
// any single operation), and the shared oldest-first wire format that
// lets snapshots move between the two structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/recovery/snapshot.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/two_stacks.hpp"

namespace aggspes::swa {
namespace {

// Non-commutative combine: catches any ordering mistake a sum would hide.
std::string cat(const std::string& a, const std::string& b) { return a + b; }

TEST(DabaLite, MatchesTwoStacksAndBruteForceUnderRandomOps) {
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> op(0, 9);
    std::uniform_int_distribution<int> val(0, 25);
    DabaLite<std::string> daba;
    TwoStacks<std::string> stacks;
    std::deque<std::string> model;
    for (int step = 0; step < 3000; ++step) {
      // Push-biased so the FIFO genuinely grows and shrinks.
      if (op(rng) < 6 || model.empty()) {
        std::string v(1, static_cast<char>('a' + val(rng)));
        daba.push(v, cat);
        stacks.push(v, cat);
        model.push_back(v);
      } else {
        daba.evict(cat);
        stacks.evict(cat);
        model.pop_front();
      }
      ASSERT_EQ(daba.size(), model.size()) << "seed " << seed;
      std::string expect;
      for (const std::string& v : model) expect += v;
      ASSERT_EQ(daba.query_or("", cat), expect) << "seed " << seed;
      ASSERT_EQ(stacks.query_or("", cat), expect) << "seed " << seed;
    }
  }
}

TEST(DabaLite, WorstCaseCombinesPerOpAreConstant) {
  constexpr int kWindow = 32;
  std::uint64_t combines = 0;
  auto counted = [&combines](long a, long b) {
    ++combines;
    return a + b;
  };
  auto max_ops = [&](auto& fifo) {
    std::uint64_t push_max = 0, evict_max = 0, query_max = 0;
    for (int i = 0; i < kWindow; ++i) fifo.push(long{1}, counted);
    for (int step = 0; step < 20 * kWindow; ++step) {
      combines = 0;
      fifo.evict(counted);
      evict_max = std::max(evict_max, combines);
      combines = 0;
      fifo.push(long{1}, counted);
      push_max = std::max(push_max, combines);
      combines = 0;
      EXPECT_EQ(fifo.query_or(long{0}, counted), kWindow);
      query_max = std::max(query_max, combines);
    }
    return std::array<std::uint64_t, 3>{push_max, evict_max, query_max};
  };

  DabaLite<long> daba;
  const auto [d_push, d_evict, d_query] = max_ops(daba);
  // The documented worst cases: push folds once then runs its bonus
  // budget, evict runs the proof-critical budget, query folds three
  // parts.
  EXPECT_LE(d_push, DabaLite<long>::kPushSteps + 1);
  EXPECT_LE(d_evict, DabaLite<long>::kEvictSteps);
  EXPECT_LE(d_query, 2u);

  // The amortized structure pays for the same slide with an O(window)
  // flip on single evicts — the spike DabaLite exists to remove.
  TwoStacks<long> stacks;
  const auto [s_push, s_evict, s_query] = max_ops(stacks);
  EXPECT_GE(s_evict, static_cast<std::uint64_t>(kWindow - 1));
  EXPECT_GT(s_evict, d_evict);
  (void)s_push;
  (void)s_query;
}

TEST(DabaLite, RebuildNeverLeavesFrontEmptyWhileNonEmpty) {
  // Adversarial drain: grow to trigger a freeze, then evict straight
  // through the rebuild. The incremental flip must complete before the
  // old front runs out (the 4m >= 2m + 1 arithmetic in the header).
  for (int n : {1, 2, 3, 5, 8, 16, 33, 64, 101}) {
    DabaLite<long> daba;
    for (int i = 0; i < n; ++i) daba.push(long{i}, std::plus<long>{});
    long expect = static_cast<long>(n) * (n - 1) / 2;
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(daba.query_or(long{0}, std::plus<long>{}), expect);
      daba.evict(std::plus<long>{});
      expect -= i;
    }
    EXPECT_TRUE(daba.empty());
    EXPECT_EQ(daba.query_or(long{-1}, std::plus<long>{}), -1);
  }
}

TEST(DabaLite, SnapshotRoundTripsAndPortsToTwoStacks) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> val(0, 25);
  DabaLite<std::string> daba;
  for (int i = 0; i < 40; ++i) {
    daba.push(std::string(1, static_cast<char>('a' + val(rng))), cat);
    if (i % 3 == 0) daba.evict(cat);
  }
  const std::string expect = daba.query_or("", cat);

  SnapshotWriter w;
  daba.save(w);
  const auto bytes = w.take();

  DabaLite<std::string> daba2;
  SnapshotReader r1(bytes);
  daba2.load(r1, cat);
  EXPECT_EQ(daba2.query_or("", cat), expect);
  EXPECT_EQ(daba2.size(), daba.size());

  // Same wire format as TwoStacks: a snapshot restores into either.
  TwoStacks<std::string> stacks;
  SnapshotReader r2(bytes);
  stacks.load(r2, cat);
  EXPECT_EQ(stacks.query_or("", cat), expect);

  SnapshotWriter w2;
  stacks.save(w2);
  const auto bytes2 = w2.take();
  DabaLite<std::string> daba3;
  SnapshotReader r3(bytes2);
  daba3.load(r3, cat);
  EXPECT_EQ(daba3.query_or("", cat), expect);
}

}  // namespace
}  // namespace aggspes::swa
