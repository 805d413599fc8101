// StateQuery API (ctest label: mvcc): read-only point/range queries over
// the frozen epochs the MVCC checkpoints expose. The differential
// contract: the hub's final pre-flush cut predicts the fired-window
// output exactly — for every (key, instance) the cut holds, the flow
// emitted (output_ts(l), agg), and nothing else. Plus: consistent reads
// from a concurrent query thread while the threaded flow ingests (the
// TSan half of the contract), and the async-checkpointer composition.
#include "core/runtime/state_query.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/async_checkpoint.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/recovery/supervisor.hpp"
#include "core/swa/monoid_machine.hpp"

namespace aggspes {
namespace {

constexpr Timestamp kPeriod = 7;
constexpr std::size_t kMarkerEvery = 16;
// Lateness far past the stream end: no pane is purged before the final
// cut, so the cut covers every instance that ever held data.
const WindowSpec kSpec{.advance = 4, .size = 12, .lateness = 100000};

int key_of(int v) { return v % 3; }

std::vector<Tuple<int>> random_stream(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 9);
  std::vector<Tuple<int>> v;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

using SumOp =
    AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>;
using Hub = StateQueryHub<int, long>;

template <typename FlowT>
SumOp& add_sum(FlowT& f) {
  return f.template add<SumOp>(
      kSpec, key_of,
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }},
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
}

/// Brute-force per-(key, instance) sums straight from the input.
std::map<std::pair<int, Timestamp>, std::pair<long, std::uint64_t>>
brute_force(const std::vector<Tuple<int>>& in) {
  std::map<std::pair<int, Timestamp>, std::pair<long, std::uint64_t>> m;
  for (const Tuple<int>& t : in) {
    for (Timestamp l = floor_div(t.ts, kSpec.advance) * kSpec.advance;
         l > t.ts - kSpec.size; l -= kSpec.advance) {
      auto& e = m[{key_of(t.value), l}];
      e.first += t.value;
      e.second += 1;
    }
  }
  return m;
}

TEST(StateQuery, FinalCutPredictsTheFiredOutputExactly) {
  const auto in = random_stream(301, 240);
  const Timestamp flush = in.back().ts + 30;
  const auto expect = brute_force(in);
  ASSERT_FALSE(expect.empty());

  Hub hub;
  Flow flow;
  auto& src = flow.add<TimedSource<int>>(in, kPeriod, flush);
  auto& agg = add_sum(flow);
  agg.serve_state(&hub);
  auto& sink = flow.add<CollectorSink<long>>();
  flow.connect(src.out(), agg.in(0));
  flow.connect(agg.out(), sink.in());
  flow.run();
  ASSERT_TRUE(sink.ended());

  // Point reads match the brute force, entry for entry.
  for (const auto& [kl, sum_count] : expect) {
    const auto got = hub.point(kl.first, kl.second);
    ASSERT_TRUE(got.has_value())
        << "key " << kl.first << " l " << kl.second;
    EXPECT_EQ(got->agg, sum_count.first);
    EXPECT_EQ(got->count, sum_count.second);
  }
  // An instance that never held data for the key reads as nullopt.
  EXPECT_FALSE(hub.point(0, -40000).has_value());

  // The cut PREDICTS the fired output: lowering every held instance
  // yields exactly the sink's multiset (the end-of-stream flush fires
  // whatever had not fired yet, and nothing was purged).
  std::multiset<std::pair<Timestamp, long>> predicted;
  for (const auto& [kl, sum_count] : expect) {
    predicted.insert({kSpec.output_ts(kl.second), sum_count.first});
  }
  EXPECT_EQ(sink.multiset(), predicted);

  // Range reads agree with point reads and come back ascending.
  for (int key = 0; key < 3; ++key) {
    const auto lo = expect.begin()->first.second - kSpec.size;
    const auto hi = in.back().ts + kSpec.advance;
    const auto ranged = hub.range(key, lo, hi);
    Timestamp prev = lo - 1;
    std::size_t found = 0;
    for (const auto& [l, wa] : ranged) {
      EXPECT_GT(l, prev);
      prev = l;
      const auto it = expect.find({key, l});
      ASSERT_NE(it, expect.end()) << "phantom instance l=" << l;
      EXPECT_EQ(wa.agg, it->second.first);
      ++found;
    }
    std::size_t want = 0;
    for (const auto& [kl, sc] : expect) {
      if (kl.first == key && kl.second >= lo && kl.second < hi) ++want;
    }
    EXPECT_EQ(found, want) << "key " << key;
  }

  EXPECT_GE(hub.published(), 1u);
  EXPECT_GT(hub.epoch(), 0u);
  EXPECT_EQ(hub.watermark(), flush);
}

TEST(StateQuery, ConcurrentReaderSeesMonotonicConsistentCuts) {
  const auto in = random_stream(302, 240);
  const Timestamp flush = in.back().ts + 30;
  const auto expect = brute_force(in);

  Hub hub;
  ThreadedFlow tf;
  auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
  auto& agg = add_sum(tf);
  agg.serve_state(&hub);
  auto& sink = tf.add<CollectorSink<long>>();
  tf.connect(src, src.out(), agg, agg.in(0));
  tf.connect(agg, agg.out(), sink, sink.in());

  std::atomic<bool> done{false};
  std::uint64_t reads = 0;
  Timestamp last_wm = kMinTimestamp;
  std::uint64_t last_epoch = 0;
  bool monotonic = true;
  bool stable = true;
  // On a loaded (or single-core) host the ingest threads may finish
  // before the reader ever runs, so loop until BOTH the flow is done and
  // a minimum number of reads has landed — whatever overlap the
  // scheduler provides is exercised, and the assertions never starve.
  constexpr std::uint64_t kMinReads = 64;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire) || reads < kMinReads) {
      const auto s = hub.snapshot();
      if (s == nullptr) continue;
      if (s->watermark < last_wm || s->epoch < last_epoch) monotonic = false;
      last_wm = s->watermark;
      last_epoch = s->epoch;
      // Two reads against ONE snapshot must agree even while ingestion
      // keeps mutating the live map (COW isolation).
      for (int key = 0; key < 3; ++key) {
        const Timestamp probe =
            floor_div(s->watermark, kSpec.advance) * kSpec.advance -
            kSpec.size;
        const auto a = s->point(key, probe);
        const auto b = s->point(key, probe);
        if (a.has_value() != b.has_value() ||
            (a.has_value() && (a->agg != b->agg || a->count != b->count))) {
          stable = false;
        }
        ++reads;
      }
    }
  });
  tf.run();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(monotonic);
  EXPECT_TRUE(stable);
  EXPECT_GE(reads, kMinReads);
  ASSERT_TRUE(sink.ended());
  // Barriers published live cuts along the way, the end published the
  // final one — which still matches the brute force.
  EXPECT_GE(hub.published(), 2u);
  for (const auto& [kl, sum_count] : expect) {
    const auto got = hub.point(kl.first, kl.second);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->agg, sum_count.first);
    EXPECT_EQ(got->count, sum_count.second);
  }
}

TEST(StateQuery, ServesCutsUnderTheAsyncCheckpointer) {
  const auto in = random_stream(303, 240);
  const Timestamp flush = in.back().ts + 30;
  const auto expect = brute_force(in);

  // Fault-free reference for the output equivalence.
  Flow single;
  auto& s_src = single.add<TimedSource<int>>(in, kPeriod, flush);
  auto& s_agg = add_sum(single);
  auto& s_sink = single.add<CollectorSink<long>>();
  single.connect(s_src.out(), s_agg.in(0));
  single.connect(s_agg.out(), s_sink.in());
  single.run();
  const auto reference = s_sink.multiset();

  Hub hub;
  CheckpointStore store;
  AsyncCheckpointer ck;
  CollectorSink<long>* sink = nullptr;
  auto build = [&](ThreadedFlow& tf) {
    auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
    auto& agg = add_sum(tf);
    agg.serve_state(&hub);
    sink = &tf.add<CollectorSink<long>>();
    tf.connect(src, src.out(), agg, agg.in(0));
    tf.connect(agg, agg.out(), *sink, sink->in());
  };
  RecoveryOptions opts;
  opts.checkpointer = &ck;
  RecoveryReport report = run_with_recovery(build, store, nullptr, opts);
  ASSERT_TRUE(sink->ended());
  EXPECT_EQ(sink->multiset(), reference);
  EXPECT_EQ(report.attempts, 1);
  // The worker actually serialized cuts off the barrier path…
  EXPECT_GT(ck.completed(), 0u);
  EXPECT_EQ(ck.discarded(), 0u);
  EXPECT_TRUE(store.latest_complete().has_value());
  // …and the hub still ends on the exact final state.
  for (const auto& [kl, sum_count] : expect) {
    const auto got = hub.point(kl.first, kl.second);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->agg, sum_count.first);
  }
}

}  // namespace
}  // namespace aggspes
