// Chaos suite (ctest label: chaos) for the sliced window backends: a
// supervised threaded run with seed-driven crashes, stalls, drops and
// duplicate deliveries — recovering from checkpoints and rewinding the
// replayable source — must produce output multiset-equal to a fault-free
// single-threaded reference, for both the replay and the incremental
// monoid backend. This is what pins the snapshot codecs for pane state:
// a restored pane cell or fired flag that drifted from the buffering
// semantics shows up here as a lost, duplicated or mis-summed window.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/recovery/replay_source.hpp"
#include "core/recovery/supervisor.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {
namespace {

constexpr Timestamp kPeriod = 7;
constexpr std::size_t kMarkerEvery = 16;
const WindowSpec kSpec{.advance = 4, .size = 12, .lateness = 4};

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

using SlicedSum =
    AggregateOp<int, long, int, swa::SlicedWindowMachine<int, int>>;
using MonoidSum =
    AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>;

template <typename FlowT>
SlicedSum& add_sliced(FlowT& f) {
  return f.template add<SlicedSum>(
      kSpec, [](const int& v) { return v % 3; },
      [](const WindowView<int, int>& w) -> std::optional<long> {
        long s = 0;
        for (const Tuple<int>& t : w.items) s += t.value;
        return s;
      });
}

template <typename FlowT>
MonoidSum& add_monoid(FlowT& f) {
  return f.template add<MonoidSum>(
      kSpec, [](const int& v) { return v % 3; },
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }},
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
}

template <typename AddOp>
void chaos_seed_sweep(const char* name, unsigned stream_seed, AddOp add_op) {
  const auto in = random_stream(stream_seed, 240);
  const Timestamp flush = in.back().ts + 30;

  Flow single;
  auto& s_src = single.add<TimedSource<int>>(in, kPeriod, flush);
  auto& s_agg = add_op(single);
  auto& s_sink = single.add<CollectorSink<long>>();
  single.connect(s_src.out(), s_agg.in(0));
  single.connect(s_agg.out(), s_sink.in());
  single.run();
  const auto reference = s_sink.multiset();
  ASSERT_FALSE(reference.empty());

  int recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
    CheckpointStore store;
    FaultInjector faults(seed);
    CollectorSink<long>* sink = nullptr;
    auto build = [&](ThreadedFlow& tf) {
      auto& src = tf.add<ReplaySource<int>>(in, kPeriod, flush, kMarkerEvery);
      auto& agg = add_op(tf);
      sink = &tf.add<CollectorSink<long>>();
      tf.connect(src, src.out(), agg, agg.in(0));
      tf.connect(agg, agg.out(), *sink, sink->in());
    };
    RecoveryReport report = run_with_recovery(build, store, &faults);
    EXPECT_TRUE(sink->ended());
    EXPECT_EQ(sink->late_tuples(), 0);
    EXPECT_EQ(sink->watermark_regressions(), 0);
    EXPECT_EQ(sink->multiset(), reference);
    if (report.recovered()) ++recoveries;
  }
  EXPECT_GT(recoveries, 0) << name << ": no seed exercised recovery";
}

TEST(SwaChaos, SlicedEquivalenceAcrossSeeds) {
  chaos_seed_sweep("sliced", 201,
                   [](auto& f) -> SlicedSum& { return add_sliced(f); });
}

TEST(SwaChaos, MonoidEquivalenceAcrossSeeds) {
  chaos_seed_sweep("monoid", 202,
                   [](auto& f) -> MonoidSum& { return add_monoid(f); });
}

}  // namespace
}  // namespace aggspes
