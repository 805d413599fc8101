// SPSC ring edge cases for the bulk block path (DESIGN.md § 16):
// power-of-two capacity rounding, index wrap-around straight across the
// mask boundary, and push_n/pop_n partial progress against a full or
// empty ring — the properties ThreadedChannel::push_block and
// deliver_one's bulk refill lean on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/runtime/spsc_queue.hpp"

namespace aggspes {
namespace {

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 1024u);
  EXPECT_EQ(SpscQueue<int>(1025).capacity(), 2048u);
}

TEST(SpscQueue, PushNPartialProgressWhenNearlyFull) {
  SpscQueue<int> q(8);
  ASSERT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 6; ++i) q.push(i);

  std::vector<int> src = {100, 101, 102, 103, 104};
  // Only 2 slots free: push_n must take exactly the prefix that fits.
  EXPECT_EQ(q.push_n(src.data(), src.size()), 2u);
  EXPECT_EQ(q.size(), 8u);
  // Completely full: zero progress, no head movement.
  EXPECT_EQ(q.push_n(src.data() + 2, 3), 0u);
  EXPECT_EQ(q.size(), 8u);

  // FIFO order preserved: the original 6, then the accepted prefix.
  int v = -1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 100);
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 101);
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, PopNPartialProgressWhenNearlyEmpty) {
  SpscQueue<int> q(8);
  std::vector<int> dst(8, -1);
  // Empty ring: zero progress, no tail movement.
  EXPECT_EQ(q.pop_n(dst.data(), dst.size()), 0u);

  q.push(7);
  q.push(8);
  q.push(9);
  // Asks for 8, gets the 3 available, in order.
  EXPECT_EQ(q.pop_n(dst.data(), dst.size()), 3u);
  EXPECT_EQ(dst[0], 7);
  EXPECT_EQ(dst[1], 8);
  EXPECT_EQ(dst[2], 9);
  EXPECT_TRUE(q.empty());
  // A max smaller than the backlog takes exactly max.
  for (int i = 0; i < 5; ++i) q.push(i);
  EXPECT_EQ(q.pop_n(dst.data(), 2), 2u);
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[1], 1);
  EXPECT_EQ(q.size(), 3u);
}

TEST(SpscQueue, BulkWrapsAcrossTheMaskBoundary) {
  SpscQueue<std::uint64_t> q(8);
  // Advance head/tail so the next bulk op straddles index 8 -> 0.
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    q.push(i);
    ASSERT_TRUE(q.try_pop(v));
  }
  // head == tail == 6; a 5-wide block occupies physical slots 6,7,0,1,2.
  std::vector<std::uint64_t> src = {10, 11, 12, 13, 14};
  EXPECT_EQ(q.push_n(src.data(), src.size()), 5u);
  std::vector<std::uint64_t> dst(5, 0);
  EXPECT_EQ(q.pop_n(dst.data(), dst.size()), 5u);
  EXPECT_EQ(dst, (std::vector<std::uint64_t>{10, 11, 12, 13, 14}));
}

TEST(SpscQueue, MixedScalarAndBulkPreserveFifoOrder) {
  // Interleave try_push/push_n on one side against try_pop/pop_n on the
  // other, with sizes chosen to wrap several times: the consumed sequence
  // must be exactly 0..n-1 regardless of the op mix.
  SpscQueue<int> q(16);
  std::mt19937 rng(20240816);
  std::uniform_int_distribution<int> blk(1, 7);
  const int total = 5000;
  int produced = 0;
  int expected = 0;
  std::vector<int> scratch(8);
  while (expected < total) {
    if (produced < total && (produced == 0 || rng() % 2 == 0)) {
      const int want = std::min(blk(rng), total - produced);
      if (rng() % 2 == 0) {
        std::iota(scratch.begin(), scratch.begin() + want, produced);
        produced +=
            static_cast<int>(q.push_n(scratch.data(), static_cast<std::size_t>(want)));
      } else if (q.try_push(int{produced})) {
        ++produced;
      }
    } else {
      if (rng() % 2 == 0) {
        const std::size_t got =
            q.pop_n(scratch.data(), static_cast<std::size_t>(blk(rng)));
        for (std::size_t i = 0; i < got; ++i) {
          ASSERT_EQ(scratch[i], expected++);
        }
      } else {
        int v = -1;
        if (q.try_pop(v)) ASSERT_EQ(v, expected++);
      }
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, ConcurrentBulkTransferDeliversEverythingInOrder) {
  // One producer thread pushing in random-sized blocks, one consumer
  // popping in random-sized blocks; under TSan this also checks the
  // single release/acquire pair per block publishes the whole run.
  SpscQueue<std::uint64_t> q(64);
  const std::uint64_t total = 200000;
  std::thread producer([&] {
    std::mt19937 rng(1);
    std::vector<std::uint64_t> block(13);
    std::uint64_t next = 0;
    while (next < total) {
      const std::size_t want = std::min<std::uint64_t>(
          1 + rng() % block.size(), total - next);
      for (std::size_t i = 0; i < want; ++i) block[i] = next + i;
      std::size_t sent = 0;
      while (sent < want) {
        sent += q.push_n(block.data() + sent, want - sent);
      }
      next += want;
    }
  });
  std::mt19937 rng(2);
  std::vector<std::uint64_t> block(17);
  std::uint64_t expected = 0;
  while (expected < total) {
    const std::size_t got = q.pop_n(block.data(), 1 + rng() % block.size());
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(block[i], expected++);
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace aggspes
