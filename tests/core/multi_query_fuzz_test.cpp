// Randomized differential fuzzer for multi-query pane sharing
// (DESIGN.md § 14): a SharedLattice hosting Q concurrent queries must be
// element-identical, per query, to Q independent single-query flows — the
// oracles — for every window backend. Spec lattices are generated in four
// seeded shapes (identical, nested, coprime, degenerate), with random
// per-query lateness, random key cardinality, out-of-order input and
// genuine late arrivals (admitted re-fires and drops). Output multisets
// are compared because per-instance key fire order is
// unordered_map-dependent; per-query dropped/late counters pin the
// lateness bookkeeping to each query's own scope.
//
// Coverage arithmetic: 4 shapes × Q ∈ {2, 16} × 5 seeds × 5 backends =
// 200 lattice/backend combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/multi_query.hpp"
#include "core/swa/daba.hpp"
#include "core/swa/finger_tree.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {
namespace {

std::vector<Tuple<int>> random_tuples(unsigned seed, int n, Timestamp start) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> gap(0, 3);
  std::uniform_int_distribution<int> val(0, 20);
  std::vector<Tuple<int>> v;
  Timestamp ts = start;
  for (int i = 0; i < n; ++i) {
    ts += gap(rng);
    v.push_back({ts, 0, val(rng)});
  }
  return v;
}

/// Locally-shuffled script with aggressive watermarks (the
/// swa_equivalence idiom): each watermark trails the running max
/// timestamp by a small random slack, so shuffled tuples genuinely
/// arrive late — some within a query's L (re-fires), some beyond it
/// (drops). Every run under comparison sees the identical sequence.
std::vector<Element<int>> lateish_script(std::vector<Tuple<int>> tuples,
                                         int k, int wm_every,
                                         Timestamp flush_to, unsigned seed) {
  std::mt19937 rng(seed);
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.ts < b.ts; });
  for (std::size_t i = 0; i + 1 < tuples.size(); ++i) {
    std::uniform_int_distribution<std::size_t> d(
        i, std::min(tuples.size() - 1, i + static_cast<std::size_t>(k)));
    std::swap(tuples[i], tuples[d(rng)]);
  }
  std::uniform_int_distribution<Timestamp> slack(0, 4);
  std::vector<Element<int>> script;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    script.push_back(tuples[i]);
    max_ts = std::max(max_ts, tuples[i].ts);
    if ((i + 1) % static_cast<std::size_t>(wm_every) == 0) {
      const Timestamp w = max_ts - slack(rng);
      if (w > last_wm) {
        script.push_back(Watermark{w});
        last_wm = w;
      }
    }
  }
  script.push_back(Watermark{flush_to});
  script.push_back(EndOfStream{});
  return script;
}

struct QueryOutput {
  std::multiset<std::pair<Timestamp, int>> out;
  std::uint64_t dropped{0};
  std::uint64_t late_updates{0};
};

int sum_items(const WindowView<int, int>& w) {
  int s = 0;
  for (const auto& t : w.items) s += t.value;
  return s;
}

/// One dedicated single-query flow — the oracle — for a replay-family
/// backend (buffering or sliced-replay).
template <typename AggT>
QueryOutput oracle_replay(const std::vector<Element<int>>& script,
                          WindowSpec spec, int key_mod) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = flow.add<AggT>(
      spec, [key_mod](const int& v) { return v % key_mod; },
      [](const WindowView<int, int>& w) -> std::optional<int> {
        return sum_items(w);
      });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  return {sink.multiset(), agg.machine().dropped_late(),
          agg.machine().late_updates()};
}

/// Oracle for a monoid-family backend (pane-monoid, DABA, finger-tree).
template <typename AggT>
QueryOutput oracle_monoid(const std::vector<Element<int>>& script,
                          WindowSpec spec, int key_mod) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = flow.add<AggT>(
      spec, [key_mod](const int& v) { return v % key_mod; },
      swa::sum_monoid<int>(),
      [](const int&, const swa::WindowAggregate<int>& wa)
          -> std::optional<int> { return wa.agg; });
  auto& sink = flow.add<CollectorSink<int>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  return {sink.multiset(), agg.machine().dropped_late(),
          agg.machine().late_updates()};
}

/// All Q queries through ONE shared lattice in replay mode.
std::vector<QueryOutput> shared_replay(const std::vector<Element<int>>& script,
                                       const std::vector<WindowSpec>& specs,
                                       int key_mod) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  std::vector<ReplayQuery<int, int, int>> queries;
  for (const WindowSpec& s : specs) {
    queries.push_back({s, [](const WindowView<int, int>& w)
                              -> std::optional<int> { return sum_items(w); }});
  }
  auto& op = flow.add<MultiQueryReplayOp<int, int, int>>(
      std::move(queries), [key_mod](const int& v) { return v % key_mod; });
  std::vector<CollectorSink<int>*> sinks;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    sinks.push_back(&flow.add<CollectorSink<int>>());
  }
  flow.connect(src.out(), op.in());
  for (std::size_t q = 0; q < specs.size(); ++q) {
    flow.connect(op.out(static_cast<int>(q)), sinks[q]->in());
  }
  flow.run();
  std::vector<QueryOutput> r;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const int qi = static_cast<int>(q);
    r.push_back({sinks[q]->multiset(), op.lattice().dropped_late(qi),
                 op.lattice().late_updates(qi)});
  }
  return r;
}

/// All Q queries through ONE shared lattice in monoid mode (per-key
/// finger-tree range folds over the shared panes).
std::vector<QueryOutput> shared_monoid(const std::vector<Element<int>>& script,
                                       const std::vector<WindowSpec>& specs,
                                       int key_mod) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  std::vector<MonoidQuery<int, int, int>> queries;
  for (const WindowSpec& s : specs) {
    queries.push_back({s, [](const int&, const swa::WindowAggregate<int>& wa)
                              -> std::optional<int> { return wa.agg; }});
  }
  auto& op = flow.add<MultiQueryMonoidOp<int, int, int, int>>(
      std::move(queries), [key_mod](const int& v) { return v % key_mod; },
      swa::sum_monoid<int>());
  std::vector<CollectorSink<int>*> sinks;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    sinks.push_back(&flow.add<CollectorSink<int>>());
  }
  flow.connect(src.out(), op.in());
  for (std::size_t q = 0; q < specs.size(); ++q) {
    flow.connect(op.out(static_cast<int>(q)), sinks[q]->in());
  }
  flow.run();
  std::vector<QueryOutput> r;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const int qi = static_cast<int>(q);
    r.push_back({sinks[q]->multiset(), op.lattice().dropped_late(qi),
                 op.lattice().late_updates(qi)});
  }
  return r;
}

enum class Backend { kBuffering, kSlicedReplay, kMonoid, kDaba, kFingerTree };

constexpr Backend kAllBackends[] = {Backend::kBuffering,
                                    Backend::kSlicedReplay, Backend::kMonoid,
                                    Backend::kDaba, Backend::kFingerTree};

bool is_monoid_backend(Backend b) {
  return b == Backend::kMonoid || b == Backend::kDaba ||
         b == Backend::kFingerTree;
}

const char* backend_tag(Backend b) {
  switch (b) {
    case Backend::kBuffering: return "buffering";
    case Backend::kSlicedReplay: return "sliced-replay";
    case Backend::kMonoid: return "monoid";
    case Backend::kDaba: return "daba";
    case Backend::kFingerTree: return "finger-tree";
  }
  return "?";
}

QueryOutput run_oracle(Backend b, const std::vector<Element<int>>& script,
                       WindowSpec spec, int key_mod) {
  switch (b) {
    case Backend::kBuffering:
      return oracle_replay<AggregateOp<int, int, int>>(script, spec, key_mod);
    case Backend::kSlicedReplay:
      return oracle_replay<
          AggregateOp<int, int, int, swa::SlicedWindowMachine<int, int>>>(
          script, spec, key_mod);
    case Backend::kMonoid:
      return oracle_monoid<
          AggregateOp<int, int, int, swa::MonoidWindowMachine<int, int, int>>>(
          script, spec, key_mod);
    case Backend::kDaba:
      return oracle_monoid<
          AggregateOp<int, int, int, swa::DabaWindowMachine<int, int, int>>>(
          script, spec, key_mod);
    case Backend::kFingerTree:
      return oracle_monoid<
          AggregateOp<int, int, int, swa::FingerTreeWindowMachine<int, int, int>>>(
          script, spec, key_mod);
  }
  return {};
}

/// One fuzz iteration: run the shared lattice once per mode, then for
/// every backend compare each query against its dedicated oracle flow —
/// multiset-identical output plus exact per-query lateness counters.
void check_lattice(const std::vector<WindowSpec>& specs, unsigned seed,
                   const char* shape) {
  const int key_mod = 1 + static_cast<int>(seed % 4);
  auto tuples = random_tuples(seed, 200, /*start=*/-50);
  Timestamp max_close = 0;
  for (const WindowSpec& s : specs) {
    max_close = std::max(max_close, s.size + s.lateness);
  }
  const Timestamp flush = tuples.back().ts + max_close + 5;
  const auto script =
      lateish_script(std::move(tuples), /*k=*/8, /*wm_every=*/7, flush, seed);

  const auto replay = shared_replay(script, specs, key_mod);
  const auto monoid = shared_monoid(script, specs, key_mod);

  bool any_output = false;
  for (Backend b : kAllBackends) {
    const auto& shared = is_monoid_backend(b) ? monoid : replay;
    for (std::size_t q = 0; q < specs.size(); ++q) {
      const QueryOutput oracle = run_oracle(b, script, specs[q], key_mod);
      const auto where = [&] {
        return std::string(shape) + " seed " + std::to_string(seed) +
               " backend " + backend_tag(b) + " query " + std::to_string(q) +
               " (WA=" + std::to_string(specs[q].advance) +
               " WS=" + std::to_string(specs[q].size) +
               " L=" + std::to_string(specs[q].lateness) + ")";
      };
      EXPECT_EQ(shared[q].out, oracle.out) << where();
      EXPECT_EQ(shared[q].dropped, oracle.dropped) << where();
      EXPECT_EQ(shared[q].late_updates, oracle.late_updates) << where();
      any_output = any_output || !oracle.out.empty();
    }
  }
  EXPECT_TRUE(any_output) << shape << " seed " << seed
                          << ": vacuous iteration (no oracle output)";
}

// --- Seeded spec-lattice shapes ---

std::vector<WindowSpec> identical_specs(int q_count, std::mt19937& rng) {
  std::uniform_int_distribution<Timestamp> wa(1, 6);
  std::uniform_int_distribution<Timestamp> ws(1, 12);
  std::uniform_int_distribution<Timestamp> lat(0, 8);
  // Same (WA, WS) everywhere — maximal pane sharing — but per-query
  // lateness, so the same pane is purgeable for one query and still
  // admitting re-fires for its twin.
  const WindowSpec base{wa(rng), ws(rng), 0};
  std::vector<WindowSpec> specs;
  for (int q = 0; q < q_count; ++q) {
    specs.push_back({base.advance, base.size, lat(rng)});
  }
  return specs;
}

std::vector<WindowSpec> nested_specs(int q_count, std::mt19937& rng) {
  std::uniform_int_distribution<Timestamp> base(1, 3);
  std::uniform_int_distribution<int> shift(0, 2);
  std::uniform_int_distribution<Timestamp> mult(1, 4);
  std::uniform_int_distribution<Timestamp> lat(0, 8);
  // Every advance is g·2^a and every size a multiple of its advance:
  // the shared pane width stays a useful g (no degeneration to 1).
  const Timestamp g = base(rng);
  std::vector<WindowSpec> specs;
  for (int q = 0; q < q_count; ++q) {
    const Timestamp advance = g << shift(rng);
    specs.push_back({advance, advance * mult(rng), lat(rng)});
  }
  return specs;
}

std::vector<WindowSpec> coprime_specs(int q_count, std::mt19937& rng) {
  const Timestamp advances[] = {1, 2, 3, 5, 7};
  const Timestamp sizes[] = {3, 5, 7, 11, 13};
  std::uniform_int_distribution<int> ai(0, 4);
  std::uniform_int_distribution<int> si(0, 4);
  std::uniform_int_distribution<Timestamp> lat(0, 8);
  // Mutually coprime advances/sizes: the gcd collapses to 1, the
  // worst-case lattice of width-1 panes.
  std::vector<WindowSpec> specs;
  for (int q = 0; q < q_count; ++q) {
    specs.push_back({advances[ai(rng)], sizes[si(rng)], lat(rng)});
  }
  return specs;
}

std::vector<WindowSpec> degenerate_specs(int q_count, std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<Timestamp> wa(1, 8);
  std::uniform_int_distribution<Timestamp> small(1, 3);
  std::uniform_int_distribution<Timestamp> hop(1, 5);
  std::uniform_int_distribution<Timestamp> lat(0, 8);
  // Tumbling (WA = WS), sampling (WA > WS: tuples can fall in the gap
  // between instances), and ordinary sliding specs mixed in one lattice.
  std::vector<WindowSpec> specs;
  for (int q = 0; q < q_count; ++q) {
    switch (kind(rng)) {
      case 0: {
        const Timestamp w = wa(rng);
        specs.push_back({w, w, lat(rng)});
        break;
      }
      case 1: {
        const Timestamp size = small(rng);
        specs.push_back({size + hop(rng), size, lat(rng)});
        break;
      }
      default:
        specs.push_back({wa(rng), wa(rng) + small(rng), lat(rng)});
        break;
    }
  }
  return specs;
}

template <typename SpecGen>
void fuzz_shape(const char* shape, SpecGen gen) {
  for (int q_count : {2, 16}) {
    for (unsigned seed : {11u, 12u, 13u, 14u, 15u}) {
      std::mt19937 rng(seed * 131 + static_cast<unsigned>(q_count));
      check_lattice(gen(q_count, rng), seed, shape);
    }
  }
}

TEST(MultiQueryFuzz, IdenticalSpecsPerQueryLateness) {
  fuzz_shape("identical", identical_specs);
}

TEST(MultiQueryFuzz, NestedSpecLattice) {
  fuzz_shape("nested", nested_specs);
}

TEST(MultiQueryFuzz, CoprimeSpecLattice) {
  fuzz_shape("coprime", coprime_specs);
}

TEST(MultiQueryFuzz, DegenerateTumblingAndSamplingSpecs) {
  fuzz_shape("degenerate", degenerate_specs);
}

}  // namespace
}  // namespace aggspes
