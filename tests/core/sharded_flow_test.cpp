// Sharded equivalence property suite (ctest label: sharded). Deploying a
// Table-1 window aggregate as N key-partitioned shards behind the
// splitter/union pair (DESIGN.md § 13) must not change WHAT is computed:
// for A, A+ and A++ over every window machine — buffering, sliced replay,
// monoid two-stacks, DABA, tree policy — the N-shard output is
// element-set-equal to an unsharded oracle, for every N, across seeded
// out-of-order scripts with genuine late drops. The AggBased FlatMap
// (N Embed/Unfold compositions behind the splitter, § 8) must equal the
// dedicated FlatMap at every width.
// Only watermark-relative ORDER may differ (shards fire key slices
// independently between two broadcast watermarks), which is why outputs
// compare as (ts, value) multisets — the same tolerance the backend
// equivalence suites use for unordered_map fire order.
#include "core/runtime/sharded/sharded_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/recovery/fault_injection.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "machine_matrix.hpp"

namespace aggspes {
namespace {

constexpr int kKeys = 7;
const WindowSpec kSpec{.advance = 4, .size = 10, .lateness = 5};

int key_of(const int& v) { return v % kKeys; }

std::vector<Tuple<int>> random_tuples(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 200);
  std::vector<Tuple<int>> v;
  Timestamp ts = -30;  // instances straddle zero
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

/// Locally shuffled script with watermarks trailing the running max by a
/// small slack: some tuples arrive late-within-L (re-fires), some beyond
/// (drops). Because the splitter broadcasts every watermark to every
/// shard, each shard makes the identical lateness decision the oracle
/// makes for that key.
std::vector<Element<int>> lateish_script(std::vector<Tuple<int>> tuples,
                                         unsigned seed) {
  std::mt19937 rng(seed);
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + 6));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  std::uniform_int_distribution<Timestamp> slack(0, 4);
  const Timestamp flush =
      tuples.back().ts + kSpec.size + kSpec.lateness + 5;
  std::vector<Element<int>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back(tuples[i]);
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % 7 == 0) {
      const Timestamp w = max_ts - slack(rng);
      if (w > last_wm) {
        script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  script.push_back(Watermark{flush});
  script.push_back(EndOfStream{});
  return script;
}

template <typename OpT>
ShardEndpoints<int, int> endpoints(OpT& op) {
  ShardEndpoints<int, int> ep;
  ep.in_node = &op;
  ep.in = &op.in();
  ep.out_node = &op;
  ep.out = &op.out();
  ep.nodes = {&op};
  return ep;
}

/// Shard factories for A, A+ and A++ over machine M running the matrix
/// workload (machine_matrix.hpp) — callable on Flow and ThreadedFlow
/// alike (the repair path rebuilds shards single-threaded).
template <typename M>
auto sum_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    return endpoints(machine_matrix::add_sum<int, M>(f, kSpec, key_of));
  };
}

template <typename M>
auto sum_count_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    return endpoints(
        machine_matrix::add_sum_count<int, M>(f, kSpec, key_of));
  };
}

template <typename M>
auto eager_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    return endpoints(machine_matrix::add_eager<int, M>(f, kSpec, key_of));
  };
}

using Buffering = WindowMachine<int, int>;
using MonoidMachine = swa::MonoidWindowMachine<int, int, int>;

using Multiset = std::multiset<std::pair<Timestamp, int>>;

/// Unsharded oracle: the factory's op alone on the deterministic
/// scheduler.
template <typename FactoryT>
Multiset oracle_run(const std::vector<Element<int>>& script,
                    FactoryT&& factory) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  ShardEndpoints<int, int> ep = factory(flow, 0);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), *ep.in);
  flow.connect(*ep.out, sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  return sink.multiset();
}

/// `late_tuples`, when given, receives the sink's count of outputs behind
/// its watermark.
template <typename FactoryT>
Multiset sharded_run(const std::vector<Element<int>>& script, int shards,
                     FactoryT&& factory, std::uint64_t expect_routed,
                     int* late_tuples = nullptr) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  typename ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  ShardedFlow<int, int, int> sf(flow, shards, opts, factory);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), sf.in());
  flow.connect(sf.out(), sink.in());
  flow.run();
  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);

  // Routing diagnostics must account for every input tuple exactly once,
  // and the per-shard stats must report the splitter's counters.
  std::uint64_t routed = 0;
  const auto stats = sf.shard_stats();
  EXPECT_EQ(stats.size(), static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    EXPECT_EQ(stats[static_cast<std::size_t>(s)].routed,
              sf.splitter().routed(s));
    routed += sf.splitter().routed(s);
  }
  EXPECT_EQ(routed, expect_routed);
  if (late_tuples != nullptr) *late_tuples = sink.late_tuples();
  return sink.multiset();
}

std::uint64_t tuple_count(const std::vector<Element<int>>& script) {
  std::uint64_t n = 0;
  for (const auto& e : script) {
    if (std::holds_alternative<Tuple<int>>(e)) ++n;
  }
  return n;
}

template <typename FactoryT>
void check_backend(FactoryT&& factory, const char* backend) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const auto script = lateish_script(random_tuples(seed, 250), seed);
    const std::uint64_t n = tuple_count(script);
    const Multiset oracle = oracle_run(script, factory);
    ASSERT_GT(oracle.size(), 0u) << backend;
    for (int shards : {1, 2, 4, 8}) {
      EXPECT_EQ(sharded_run(script, shards, factory, n), oracle)
          << backend << " N=" << shards << " seed=" << seed;
    }
  }
}

/// A, A+ and A++ over machine M, each through the width sweep.
template <typename M>
void check_machine(const std::string& name) {
  check_backend(sum_factory<M>(), (name + " A").c_str());
  check_backend(sum_count_factory<M>(), (name + " A+").c_str());
  check_backend(eager_factory<M>(), (name + " A++").c_str());
}

TEST(ShardedEquivalence, BufferingBackendMatchesOracleAtEveryWidth) {
  check_machine<Buffering>("buffering");
}

TEST(ShardedEquivalence, SlicedReplayBackendMatchesOracleAtEveryWidth) {
  check_machine<swa::SlicedWindowMachine<int, int>>("sliced-replay");
}

TEST(ShardedEquivalence, MonoidBackendMatchesOracleAtEveryWidth) {
  check_machine<MonoidMachine>("monoid");
}

TEST(ShardedEquivalence, DabaBackendMatchesOracleAtEveryWidth) {
  check_machine<swa::DabaWindowMachine<int, int, int>>("daba");
}

TEST(ShardedEquivalence, TreeBackendMatchesOracleAtEveryWidth) {
  check_machine<swa::TreeWindowMachine<int, int, int>>("tree");
}

// The same property on the threaded runtime: per-shard monitors attach
// (one scope per shard), the watchdog samples them, and the merged output
// is still oracle-equal. One backend suffices — the threading layer is
// backend-agnostic.
TEST(ShardedEquivalence, ThreadedShardedRunMatchesOracle) {
  const auto script = lateish_script(random_tuples(11, 250), 11);
  const auto factory = sum_factory<MonoidMachine>();
  const Multiset oracle = oracle_run(script, factory);

  ThreadedFlow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  ShardedFlow<int, int, int> sf(flow, 4, opts, factory);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), sf.in_node(), sf.in());
  flow.connect(sf.out_node(), sf.out(), sink, sink.in());
  flow.run();

  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);
  EXPECT_EQ(sink.multiset(), oracle);
  for (int s = 0; s < 4; ++s) {
    ASSERT_NE(sf.monitor(s), nullptr);
    EXPECT_EQ(sf.monitor(s)->worst(), FlowHealth::kHealthy);
  }
}

// Empty slices are the union-stall trap: with more shards than live keys,
// some shards see no tuples at all, yet their broadcast watermarks and
// ends must keep the merge flowing and the output oracle-equal.
TEST(ShardedEquivalence, MoreShardsThanKeysLeavesIdleShardsHarmless) {
  std::vector<Element<int>> script;
  for (int i = 0; i < 40; ++i) {
    script.push_back(Tuple<int>{i, 0, kKeys * i});  // key 0 only
    if (i % 5 == 4) script.push_back(Watermark{i});
  }
  script.push_back(Watermark{100});
  script.push_back(EndOfStream{});

  const auto factory = sum_factory<Buffering>();
  const Multiset oracle = oracle_run(script, factory);
  ASSERT_GT(oracle.size(), 0u);
  EXPECT_EQ(sharded_run(script, 8, factory, tuple_count(script)), oracle);
}

// The AggBased FlatMap as one more input to the width sweep: N Embed/Unfold
// compositions behind the splitter enforce the dedicated FM's semantics.
// The script is in order with watermark spacing D = 6 = the composition's
// lateness (condition C1), so the dedicated FM is the oracle.
constexpr Timestamp kFmPeriod = 6;

FlatMapFn<int, int> test_fm() {
  return [](const int& v) {
    std::vector<int> out;
    for (int i = 0; i < v % 3; ++i) out.push_back(v * 10 + i);
    return out;
  };
}

auto dedicated_fm_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    return endpoints(f.template add<FlatMapOp<int, int>>(test_fm()));
  };
}

auto aggbased_fm_factory() {
  return [](auto& f, int) -> ShardEndpoints<int, int> {
    AggBasedFlatMap<int, int> op(f, test_fm(), kFmPeriod);
    ShardEndpoints<int, int> ep;
    ep.in_node = &op.in_node();
    ep.in = &op.in();
    ep.out_node = &op.out_node();
    ep.out = &op.out();
    return ep;
  };
}

std::vector<Element<int>> in_order_script(unsigned seed, int n) {
  std::vector<Tuple<int>> tuples = random_tuples(seed, n);
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  return timed_script(tuples, kFmPeriod, tuples.back().ts + 30);
}

class ParallelismSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelismSweep, MatchesDedicatedForAnyInstanceCount) {
  const auto script = in_order_script(13, 250);
  const Multiset dedicated = oracle_run(script, dedicated_fm_factory());
  ASSERT_GT(dedicated.size(), 0u);
  int late = -1;
  EXPECT_EQ(sharded_run(script, GetParam(), aggbased_fm_factory(),
                        tuple_count(script), &late),
            dedicated);
  EXPECT_EQ(late, 0);
}

INSTANTIATE_TEST_SUITE_P(Instances, ParallelismSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(ParallelAggBased, RunsOnThreadedRuntime) {
  const auto script = in_order_script(17, 200);
  const Multiset dedicated = oracle_run(script, dedicated_fm_factory());

  ThreadedFlow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  ShardedFlow<int, int, int> sf(flow, 2, opts, aggbased_fm_factory());
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), sf.in_node(), sf.in());
  flow.connect(sf.out_node(), sf.out(), sink, sink.in());
  flow.run();

  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.late_tuples(), 0);
  EXPECT_EQ(sink.multiset(), dedicated);
}

// --- the deployment's shape ----------------------------------------------

// Without taps, a width-N deployment adds the splitter and the union and
// nothing else: the splitter is every shard's admission edge, so each
// shard is the factory's subgraph fed straight from it.
TEST(ShardedShape, AddsOnlyTheSplitterAndTheUnionBesidesTheFactoryNodes) {
  for (int shards : {1, 4}) {
    ThreadedFlow flow;
    std::size_t factory_nodes = 0;
    auto factory = [&factory_nodes](auto& f, int s) {
      const std::size_t before = f.node_count();
      ShardEndpoints<int, int> ep = aggbased_fm_factory()(f, s);
      factory_nodes += f.node_count() - before;
      return ep;
    };
    ShardedFlow<int, int, int>::Options opts;
    opts.key_fn = key_of;
    ShardedFlow<int, int, int> sf(flow, shards, opts, factory);
    EXPECT_EQ(flow.node_count(), factory_nodes + 2) << "N=" << shards;
  }
}

// --- per-shard overload control -------------------------------------------

// One slow shard sheds alone. A slow consumer on shard kSlow's input edge
// backs that shard up; its own monitor classifies it degraded, and its
// Shedder (p = 1 in every degraded state) refuses its tuples. Each sibling
// is routed so few elements that its queues can never reach the pressured
// occupancy, so the siblings cannot shed whatever the thread schedule.
// Accounting is exact per shard: routed = admitted + shed, and the sink
// receives exactly the admitted tuples.
TEST(ShardedOverload, SlowShardShedsAloneWithExactAccounting) {
  constexpr int kShards = 4;
  constexpr int kSlow = 1;
  // More than any one shard's input queue holds, so the slow shard's
  // queue fills whatever its capacity.
  constexpr std::size_t kSlowTuples = 4000;
  // Per sibling: with its watermark and end-of-stream, under a tenth of a
  // queue slot count of 1024.
  constexpr std::size_t kSiblingTuples = 12;

  // The key is the value, so each value's shard is fixed by the routing
  // contract; pick values until every shard has its share.
  std::vector<std::vector<int>> by_shard(kShards);
  std::size_t missing = kSlowTuples + (kShards - 1) * kSiblingTuples;
  for (int v = 0; missing > 0; ++v) {
    const std::size_t s = shard_of_hash(std::hash<int>{}(v), kShards);
    const std::size_t want =
        s == static_cast<std::size_t>(kSlow) ? kSlowTuples : kSiblingTuples;
    if (by_shard[s].size() < want) {
      by_shard[s].push_back(v);
      --missing;
    }
  }
  // Sibling tuples are spread over the slow shard's stream, so most of
  // them are routed while the slow shard is degraded.
  std::vector<Element<int>> script;
  Timestamp ts = 0;
  std::size_t next_sibling = 0;
  for (std::size_t i = 0; i < kSlowTuples; ++i) {
    script.push_back(Tuple<int>{ts++, 0, by_shard[kSlow][i]});
    if (i % (kSlowTuples / kSiblingTuples) == 0 &&
        next_sibling < kSiblingTuples) {
      for (int s = 0; s < kShards; ++s) {
        if (s == kSlow) continue;
        script.push_back(Tuple<int>{ts++, 0, by_shard[s][next_sibling]});
      }
      ++next_sibling;
    }
  }
  ASSERT_EQ(next_sibling, kSiblingTuples);
  script.push_back(Watermark{ts});
  script.push_back(EndOfStream{});

  ThreadedFlow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = [](const int& v) { return v; };
  opts.shed = {.policy = ShedPolicy::kRandomP,
               .p_pressured = 1.0,
               .p_overloaded = 1.0,
               .seed = 3};
  opts.thresholds = {.pressured_occupancy = 0.10,
                     .overloaded_occupancy = 0.50};
  // The slow shard's input edge is the first one wired after its factory
  // returns.
  std::size_t slow_edge = 0;
  auto factory = [&slow_edge](auto& f, int s) {
    ShardEndpoints<int, int> ep = endpoints(f.template add<FlatMapOp<int, int>>(
        [](const int& v) { return std::vector<int>{v}; }));
    if (s == kSlow) slow_edge = f.edge_count();
    return ep;
  };
  ShardedFlow<int, int, int> sf(flow, kShards, opts, factory);
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src, src.out(), sf.in_node(), sf.in());
  flow.connect(sf.out_node(), sf.out(), sink, sink.in());

  // 1 ms per delivery for 300 deliveries: the splitter outruns the slow
  // shard by far, and the watchdog samples every 5 ms meanwhile.
  FaultInjector faults(/*seed=*/1);
  faults.add_event({.kind = FaultKind::kSlowConsumer,
                    .attempt = 0,
                    .edge = slow_edge,
                    .at_delivery = 1,
                    .param_ms = 1,
                    .param_count = 300});
  faults.begin_attempt(0);
  flow.install_faults(faults);
  ThreadedFlow::RunOptions run;
  run.watchdog_poll = std::chrono::milliseconds(5);
  flow.run(run);

  EXPECT_TRUE(sink.ended());
  EXPECT_EQ(sink.watermark_regressions(), 0);
  std::uint64_t admitted = 0;
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const Shedder* shedder = sf.shedder(s);
    ASSERT_NE(shedder, nullptr);
    EXPECT_EQ(sf.splitter().routed(s), shedder->admitted() + shedder->shed());
    admitted += shedder->admitted();
    if (s == kSlow) {
      EXPECT_EQ(sf.splitter().routed(s), kSlowTuples);
      EXPECT_GT(shedder->shed(), 0u);
      EXPECT_GE(sf.monitor(s)->worst(), FlowHealth::kPressured);
    } else {
      EXPECT_EQ(sf.splitter().routed(s), kSiblingTuples);
      EXPECT_EQ(shedder->shed(), 0u);
      EXPECT_EQ(sf.monitor(s)->worst(), FlowHealth::kHealthy);
    }
  }
  EXPECT_EQ(sink.tuples().size(), admitted);
}

// --- configuration the deployment cannot honour fails loudly -------------

// A factory that adds a node it does not list would make a repair restore
// the cut onto the wrong nodes.
TEST(ShardedConfig, FactoryNodeListMissingANodeIsRejected) {
  Flow flow;
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  auto factory = [](auto& f, int) {
    auto& first = f.template add<FlatMapOp<int, int>>(test_fm());
    auto& second = f.template add<FlatMapOp<int, int>>(test_fm());
    f.connect(first, first.out(), second, second.in());
    ShardEndpoints<int, int> ep = endpoints(second);
    ep.in_node = &first;
    ep.in = &first.in();
    return ep;
  };
  EXPECT_THROW((ShardedFlow<int, int, int>(flow, 2, opts, factory)),
               std::invalid_argument);
}

TEST(ShardedConfig, ZeroShardsIsRejected) {
  Flow flow;
  ShardedFlow<int, int, int>::Options opts;
  opts.key_fn = key_of;
  EXPECT_THROW((ShardedFlow<int, int, int>(flow, 0, opts,
                                           dedicated_fm_factory())),
               std::invalid_argument);
  EXPECT_EQ(flow.node_count(), 0u);
}

TEST(ShardedConfig, WalCountOtherThanShardsIsRejected) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "aggspes_sharded_config_wal_count";
  std::filesystem::remove_all(dir);
  {
    InputLog log(WalOptions{dir});
    Flow flow;
    ShardedFlow<int, int, int>::Options opts;
    opts.key_fn = key_of;
    opts.wals = {&log};
    EXPECT_THROW((ShardedFlow<int, int, int>(flow, 2, opts,
                                             dedicated_fm_factory())),
                 std::invalid_argument);
    EXPECT_EQ(flow.node_count(), 0u);
  }
  std::filesystem::remove_all(dir);
}

// A WAL needs a StateCodec to log anything; without one the shard would
// run with an empty log and its repair would silently lose the input.
TEST(ShardedConfig, WalForPayloadWithoutCodecIsRejected) {
  struct Opaque {
    int v{0};
    std::function<void()> no_codec;  // makes the payload non-serializable
  };
  static_assert(!SnapshotSerializable<Opaque>);
  const auto dir = std::filesystem::temp_directory_path() /
                   "aggspes_sharded_config_no_codec";
  std::filesystem::remove_all(dir);
  {
    InputLog log(WalOptions{dir});
    Flow flow;
    ShardedFlow<Opaque, Opaque, int>::Options opts;
    opts.key_fn = [](const Opaque& o) { return o.v; };
    opts.wals = {&log};
    auto factory = [](auto&, int) -> ShardEndpoints<Opaque, Opaque> {
      ADD_FAILURE() << "factory reached past the WAL check";
      return {};
    };
    EXPECT_THROW((ShardedFlow<Opaque, Opaque, int>(flow, 1, opts, factory)),
                 std::invalid_argument);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aggspes
