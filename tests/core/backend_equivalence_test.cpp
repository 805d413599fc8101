// Five-backend equivalence under adversarial reordering (`ctest -L
// backend`): A, A+ and A++ over buffering, sliced-replay, monoid
// (two-stacks), monoid-daba and finger-tree machines must emit
// byte-identical (ts, value) streams with identical lateness bookkeeping
// from the same seeded reorder-injected script — including runs restored
// from a mid-stream snapshot, and snapshots ported across the
// monoid-family policies (they share one machine codec; caches are
// rebuilt, never persisted).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "machine_matrix.hpp"

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

/// Seeded reorder injector: displaces each tuple up to `k` positions
/// (locally shuffled, so some arrivals land under already-built caches)
/// and emits watermarks trailing the running max by a random slack —
/// late arrivals split between admitted re-fires and drops. Every
/// backend receives the identical element sequence.
std::vector<Element<int>> reorder_script(std::vector<Tuple<int>> tuples,
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

struct Res {
  std::multiset<std::pair<Timestamp, long>> out;
  std::uint64_t dropped;
  std::uint64_t late_updates;
};

swa::Monoid<int, long> long_sum() {
  return {0, [](const int& v) { return long{v}; },
          [](const long& a, const long& b) { return a + b; }};
}

int key_of(const int& v) { return v % 3; }

/// A: the keyed sum; A+: sum and count; A++: the running count on every
/// arrival, then the sum on expiration (machine_matrix.hpp), over long.
template <typename M>
auto& add_sum(Flow& f, WindowSpec spec) {
  return machine_matrix::add_sum<long, M>(f, spec, key_of);
}
template <typename M>
auto& add_sum_count(Flow& f, WindowSpec spec) {
  return machine_matrix::add_sum_count<long, M>(f, spec, key_of);
}
template <typename M>
auto& add_eager(Flow& f, WindowSpec spec) {
  return machine_matrix::add_eager<long, M>(f, spec, key_of);
}

using machine_matrix::for_each_machine;

using Buffering = WindowMachine<int, int>;
using MonoidMachine = swa::MonoidWindowMachine<int, long, int>;
using DabaMachine = swa::DabaWindowMachine<int, long, int>;
using FingerMachine = swa::FingerTreeWindowMachine<int, long, int>;

template <typename AddOp>
Res run_backend(const std::vector<Element<int>>& script, AddOp add_op) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& agg = add_op(flow);
  auto& sink = flow.add<CollectorSink<long>>();
  flow.connect(src.out(), agg.in());
  flow.connect(agg.out(), sink.in());
  flow.run();
  return {sink.multiset(), agg.machine().dropped_late(),
          agg.machine().late_updates()};
}

TEST(BackendEquivalence, FiveBackendsIdenticalUnderSeededReorder) {
  const std::vector<WindowSpec> specs = {
      {.advance = 1, .size = 5, .lateness = 0},
      {.advance = 4, .size = 10, .lateness = 5},
      {.advance = 5, .size = 5, .lateness = 3},     // tumbling
      {.advance = 7, .size = 3, .lateness = 0},     // sampling (WA > WS)
      {.advance = 10, .size = 25, .lateness = 40},  // everything admitted
      {.advance = 3, .size = 17, .lateness = 8},    // coprime: width-1 panes
  };
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const WindowSpec spec = specs[si];
    for (unsigned seed : {11u, 12u, 13u}) {
      auto tuples = random_tuples(seed * 5 + static_cast<unsigned>(si), 200,
                                  /*start=*/-50);
      const Timestamp flush = tuples.back().ts + spec.size + spec.lateness + 5;
      auto script = reorder_script(std::move(tuples), /*k=*/10,
                                   /*wm_every=*/7, flush, seed);
      const std::string trace =
          "spec " + std::to_string(si) + " seed " + std::to_string(seed);

      const Res a = run_backend(script, [&](Flow& f) -> auto& {
        return add_sum<Buffering>(f, spec);
      });
      const Res aplus = run_backend(script, [&](Flow& f) -> auto& {
        return add_sum_count<Buffering>(f, spec);
      });
      const Res eager = run_backend(script, [&](Flow& f) -> auto& {
        return add_eager<Buffering>(f, spec);
      });
      ASSERT_GT(a.out.size(), 0u) << trace;
      ASSERT_GT(eager.out.size(), a.out.size()) << trace;

      for_each_machine<long>([&]<typename M>(const char* name) {
        auto check = [&](const Res& got, const Res& want, const char* op) {
          const std::string at = trace + " " + name + " " + op;
          EXPECT_EQ(got.out, want.out) << at;
          EXPECT_EQ(got.dropped, want.dropped) << at;
          EXPECT_EQ(got.late_updates, want.late_updates) << at;
        };
        check(run_backend(script,
                          [&](Flow& f) -> auto& {
                            return add_sum<M>(f, spec);
                          }),
              a, "A");
        check(run_backend(script,
                          [&](Flow& f) -> auto& {
                            return add_sum_count<M>(f, spec);
                          }),
              aplus, "A+");
        check(run_backend(script,
                          [&](Flow& f) -> auto& {
                            return add_eager<M>(f, spec);
                          }),
              eager, "A++");
      });
    }
  }
}

/// A bounded key cache must never change output — evictions drop caches,
/// not window state.
TEST(BackendEquivalence, BoundedKeyCachesDoNotChangeOutput) {
  const WindowSpec spec{.advance = 4, .size = 12, .lateness = 6};
  auto tuples = random_tuples(77, 250, -10);
  const Timestamp flush = tuples.back().ts + 40;
  auto script = reorder_script(std::move(tuples), 8, 6, flush, 77);

  const Res reference = run_backend(script, [&](Flow& f) -> auto& {
    return add_sum<Buffering>(f, spec);
  });
  const Res daba = run_backend(script, [&](Flow& f) -> auto& {
    auto& op = add_sum<DabaMachine>(f, spec);
    op.machine().policy().set_max_cached_keys(1);  // constant churn
    return op;
  });
  const Res finger = run_backend(script, [&](Flow& f) -> auto& {
    auto& op = add_sum<FingerMachine>(f, spec);
    op.machine().policy().set_max_cached_keys(1);
    return op;
  });
  EXPECT_EQ(daba.out, reference.out);
  EXPECT_EQ(finger.out, reference.out);
}

/// Snapshot a run mid-stream, restore into a fresh graph, continue: the
/// combined output must equal the uninterrupted run, for both new
/// backends and across policy swaps (monoid → daba → finger-tree).
TEST(BackendEquivalence, RestoredRunsMatchUninterrupted) {
  const WindowSpec spec{.advance = 4, .size = 8, .lateness = 4};
  auto tuples = random_tuples(5, 120, 0);
  const Timestamp flush = tuples.back().ts + 30;
  const auto script = reorder_script(std::move(tuples), 6, 5, flush, 5);

  const Res reference = run_backend(script, [&](Flow& f) -> auto& {
    return add_sum<Buffering>(f, spec);
  });
  ASSERT_GT(reference.out.size(), 0u);

  // add_a runs the prefix and snapshots; add_b restores and continues.
  auto cut_and_continue = [&](auto add_a, auto add_b, std::size_t cut) {
    std::vector<Element<int>> prefix(script.begin(),
                                     script.begin() + static_cast<long>(cut));
    std::vector<Element<int>> suffix(script.begin() + static_cast<long>(cut),
                                     script.end());
    Flow a;
    auto& a_src = a.add<ScriptSource<int>>(prefix);
    auto& a_agg = add_a(a);
    auto& a_sink = a.add<CollectorSink<long>>();
    a.connect(a_src.out(), a_agg.in());
    a.connect(a_agg.out(), a_sink.in());
    a.run();
    SnapshotWriter agg_w, sink_w;
    a_agg.snapshot_to(agg_w);
    a_sink.snapshot_to(sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();

    Flow b;
    auto& b_src = b.add<ScriptSource<int>>(suffix);
    auto& b_agg = add_b(b);
    auto& b_sink = b.add<CollectorSink<long>>();
    b.connect(b_src.out(), b_agg.in());
    b.connect(b_agg.out(), b_sink.in());
    SnapshotReader agg_r(agg_bytes), sink_r(sink_bytes);
    b_agg.restore_from(agg_r);
    b_sink.restore_from(sink_r);
    b.run();
    return b_sink.multiset();
  };

  auto mk_daba = [&](Flow& f) -> auto& {
    return add_sum<DabaMachine>(f, spec);
  };
  auto mk_finger = [&](Flow& f) -> auto& {
    return add_sum<FingerMachine>(f, spec);
  };
  auto mk_monoid = [&](Flow& f) -> auto& {
    return add_sum<MonoidMachine>(f, spec);
  };

  for (std::size_t cut : {std::size_t{3}, std::size_t{41}, script.size() - 2}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    EXPECT_EQ(cut_and_continue(mk_daba, mk_daba, cut), reference.out);
    EXPECT_EQ(cut_and_continue(mk_finger, mk_finger, cut), reference.out);
    // Cross-policy restores: one codec, any member of the family.
    EXPECT_EQ(cut_and_continue(mk_monoid, mk_daba, cut), reference.out);
    EXPECT_EQ(cut_and_continue(mk_daba, mk_finger, cut), reference.out);
    EXPECT_EQ(cut_and_continue(mk_finger, mk_monoid, cut), reference.out);
  }
}

/// The snapshot knob: max_cached_keys survives the round trip (the
/// machine writes it inside its own save()).
TEST(BackendEquivalence, SnapshotPersistsKeyCacheBound) {
  const WindowSpec spec{.advance = 2, .size = 6, .lateness = 0};
  Flow a;
  auto& agg = add_sum<DabaMachine>(a, spec);
  agg.machine().policy().set_max_cached_keys(3);
  SnapshotWriter w;
  agg.snapshot_to(w);
  const auto bytes = w.take();

  Flow b;
  auto& agg2 = add_sum<DabaMachine>(b, spec);
  EXPECT_EQ(agg2.machine().policy().max_cached_keys(), 0u);
  SnapshotReader r(bytes);
  agg2.restore_from(r);
  EXPECT_EQ(agg2.machine().policy().max_cached_keys(), 3u);
}

/// reset_diagnostics on the new backends clears the late probe, the
/// high-water marks and the policy's own counters (cache evictions, peak
/// cached keys, out-of-order fixups) — the PR-3 convention the registry
/// relies on when it resets between runs.
TEST(BackendEquivalence, ResetDiagnosticsClearsPolicyAndLateCounters) {
  const WindowSpec spec{.advance = 2, .size = 6, .lateness = 2};
  auto drive = [&](auto& machine) {
    using M = std::remove_reference_t<decltype(machine)>;
    typename M::FireFn fire = [](Timestamp, const int&,
                                 const swa::WindowAggregate<long>&, bool) {};
    machine.set_late_probe([](const LateEvent&) {});  // observed() counts
    machine.policy().set_max_cached_keys(1);
    Timestamp w = kMinTimestamp;
    for (int i = 0; i < 60; ++i) {
      machine.add(Tuple<int>{static_cast<Timestamp>(i), 0, i}, w, fire);
      if (i % 5 == 4) {
        w = i - 1;
        machine.advance(w, fire);
      }
    }
    // Late arrivals against the final watermark: one admitted update
    // (within L), one beyond the horizon (drop).
    machine.add(Tuple<int>{w - 1, 0, 1}, w, fire);
    machine.add(Tuple<int>{w - 40, 0, 1}, w, fire);
  };

  swa::DabaWindowMachine<int, long, int> daba(spec, key_of,
                                              swa::DabaPolicy<int, long, int>(
                                                  long_sum()));
  drive(daba);
  EXPECT_GT(daba.late_probe().observed(), 0u);
  EXPECT_GT(daba.peak_occupancy(), 0u);
  EXPECT_GT(daba.policy().cache_evictions(), 0u);
  daba.reset_diagnostics();
  EXPECT_EQ(daba.late_probe().observed(), 0u);
  EXPECT_EQ(daba.peak_occupancy(), daba.occupancy());
  EXPECT_EQ(daba.policy().cache_evictions(), 0u);
  EXPECT_EQ(daba.policy().peak_cached_keys(), daba.policy().cached_keys());

  swa::FingerTreeWindowMachine<int, long, int> finger(
      spec, key_of, swa::FingerTreePolicy<int, long, int>(long_sum()));
  drive(finger);
  EXPECT_GT(finger.late_probe().observed(), 0u);
  EXPECT_GT(finger.policy().cache_evictions(), 0u);
  finger.reset_diagnostics();
  EXPECT_EQ(finger.late_probe().observed(), 0u);
  EXPECT_EQ(finger.peak_occupancy(), finger.occupancy());
  EXPECT_EQ(finger.policy().cache_evictions(), 0u);
  EXPECT_EQ(finger.policy().ooo_fixups(), 0u);
}

/// The finger tree's reason to exist: an out-of-order absorb under a
/// built cache is a targeted fixup, not a global invalidation.
TEST(BackendEquivalence, FingerTreeCountsTargetedFixupsForLateArrivals) {
  const WindowSpec spec{.advance = 2, .size = 8, .lateness = 10};
  swa::FingerTreeWindowMachine<int, long, int> m(
      spec, key_of, swa::FingerTreePolicy<int, long, int>(long_sum()));
  typename swa::FingerTreeWindowMachine<int, long, int>::FireFn fire =
      [](Timestamp, const int&, const swa::WindowAggregate<long>&, bool) {};
  Timestamp w = kMinTimestamp;
  for (int i = 0; i < 40; ++i) {
    m.add(Tuple<int>{static_cast<Timestamp>(i), 0, 0}, w, fire);
    if (i % 4 == 3) {
      w = i - 2;
      m.advance(w, fire);  // builds per-key trees over fired ranges
    }
  }
  EXPECT_EQ(m.policy().ooo_fixups(), 0u);  // in-order: trees untouched
  // A late tuple into a pane some key's tree already covers.
  m.add(Tuple<int>{w - 6, 0, 0}, w, fire);
  EXPECT_GT(m.policy().ooo_fixups(), 0u);
  EXPECT_GT(m.late_updates(), 0u);
}

}  // namespace
}  // namespace aggspes
