// Direct unit tests of the sliced window backends: pane geometry, the
// replay engine (SlicedWindowMachine) and the incremental monoid engine
// (MonoidWindowMachine). The typed fixture mirrors window_machine_test so
// both backends prove the same fire semantics as the buffering machine.
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "core/swa/agg_tree.hpp"
#include "core/swa/daba.hpp"

namespace aggspes::swa {
namespace {

using SlicedM = SlicedWindowMachine<int, int>;
using MonoidM = MonoidWindowMachine<int, int, int>;

template <typename M>
M make_machine(WindowSpec spec) {
  auto key = [](const int& v) { return v % 2; };
  if constexpr (std::is_same_v<M, SlicedM>) {
    return M(spec, key);
  } else {
    return M(spec, key, MonoidPolicy<int, int, int>(sum_monoid<int>()));
  }
}

// The two backends deliver different fire payloads (tuple vector vs
// WindowAggregate); these project both onto cardinality and value sum.
template <typename R>
std::size_t result_count(const R& r) {
  if constexpr (requires { r.count; }) {
    return static_cast<std::size_t>(r.count);
  } else {
    return r.size();
  }
}

template <typename R>
long result_sum(const R& r) {
  if constexpr (requires { r.agg; }) {
    return r.agg;
  } else {
    long s = 0;
    for (const auto& t : r) s += t.value;
    return s;
  }
}

struct Fired {
  Timestamp l;
  int key;
  std::size_t n;
  bool update;
  friend bool operator==(const Fired&, const Fired&) = default;
};

template <typename M>
class SlicedFixture : public ::testing::Test {
 protected:
  SlicedFixture()
      : machine_(make_machine<M>(
            WindowSpec{.advance = 10, .size = 10, .lateness = 5})) {}

  typename M::FireFn recorder() {
    return [this](Timestamp l, const int& key,
                  const typename M::Result& r, bool update) {
      fired_.push_back({l, key, result_count(r), update});
    };
  }

  Tuple<int> tup(Timestamp ts, int v) { return {ts, 0, v}; }

  M machine_;
  std::vector<Fired> fired_;
};

using Backends = ::testing::Types<SlicedM, MonoidM>;
TYPED_TEST_SUITE(SlicedFixture, Backends);

TYPED_TEST(SlicedFixture, FiresOncePerKeyOnAdvance) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.add(this->tup(2, 3), kMinTimestamp, fire);
  this->machine_.add(this->tup(3, 4), kMinTimestamp, fire);
  EXPECT_TRUE(this->fired_.empty());
  this->machine_.advance(10, fire);
  ASSERT_EQ(this->fired_.size(), 2u);  // keys 0 and 1
  EXPECT_EQ(this->machine_.fired_instances(), 2u);
}

TYPED_TEST(SlicedFixture, AdvanceIsIdempotent) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.advance(10, fire);
  this->machine_.advance(12, fire);  // same instance, still within lateness
  EXPECT_EQ(this->fired_.size(), 1u);
}

TYPED_TEST(SlicedFixture, LateAdmissionRefiresAsUpdate) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.advance(12, fire);  // closes [0,10); purge at 15
  this->machine_.add(this->tup(2, 2), 12, fire);
  ASSERT_EQ(this->fired_.size(), 2u);
  EXPECT_TRUE(this->fired_[1].update);
  EXPECT_EQ(this->fired_[1].n, 2u);
  EXPECT_EQ(this->machine_.late_updates(), 1u);
}

TYPED_TEST(SlicedFixture, LateBeyondHorizonDropped) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.advance(15, fire);  // 10 + L(5) <= 15: purgeable
  this->machine_.add(this->tup(2, 2), 15, fire);
  EXPECT_EQ(this->fired_.size(), 1u);
  EXPECT_EQ(this->machine_.dropped_late(), 1u);
}

TYPED_TEST(SlicedFixture, PurgeReleasesState) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.add(this->tup(11, 2), kMinTimestamp, fire);
  EXPECT_EQ(this->machine_.open_instances(), 2u);
  this->machine_.advance(15, fire);  // [0,10) purgeable, [10,20) closed
  EXPECT_EQ(this->machine_.open_instances(), 1u);
  this->machine_.advance(25, fire);
  EXPECT_EQ(this->machine_.open_instances(), 0u);
  EXPECT_EQ(this->machine_.open_panes(), 0u);
}

TYPED_TEST(SlicedFixture, FlushFiresEverythingUnfired) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.add(this->tup(11, 3), kMinTimestamp, fire);
  this->machine_.flush(fire);
  EXPECT_EQ(this->fired_.size(), 2u);
  EXPECT_EQ(this->machine_.open_instances(), 0u);
}

TYPED_TEST(SlicedFixture, FlushAfterAdvanceFiresOnlyRemainder) {
  auto fire = this->recorder();
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.add(this->tup(11, 3), kMinTimestamp, fire);
  this->machine_.advance(10, fire);  // fires [0,10) only
  ASSERT_EQ(this->fired_.size(), 1u);
  this->machine_.flush(fire);
  ASSERT_EQ(this->fired_.size(), 2u);
  EXPECT_EQ(this->fired_[1].l, 10);
}

TYPED_TEST(SlicedFixture, AddedHookSeesEachInsertion) {
  auto fire = this->recorder();
  std::vector<std::pair<Timestamp, std::size_t>> added;
  auto hook = [&](Timestamp l, const int&,
                  const typename TypeParam::Result& r) {
    added.emplace_back(l, result_count(r));
  };
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire, hook);
  this->machine_.add(this->tup(2, 2), kMinTimestamp, fire, hook);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added[0], (std::pair<Timestamp, std::size_t>{0, 1}));
  EXPECT_EQ(added[1], (std::pair<Timestamp, std::size_t>{0, 2}));
}

TYPED_TEST(SlicedFixture, AddedHookNotCalledForDroppedTuples) {
  auto fire = this->recorder();
  int hook_calls = 0;
  auto hook = [&](Timestamp, const int&, const typename TypeParam::Result&) {
    ++hook_calls;
  };
  this->machine_.advance(15, fire);
  this->machine_.add(this->tup(1, 2), 15, fire, hook);  // dropped
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(this->machine_.dropped_late(), 1u);
}

TYPED_TEST(SlicedFixture, LateProbeSamplesDropsAndUpdates) {
  auto fire = this->recorder();
  std::vector<LateEvent> seen;
  this->machine_.set_late_probe([&](const LateEvent& e) { seen.push_back(e); },
                                /*every=*/2);
  this->machine_.add(this->tup(1, 2), kMinTimestamp, fire);
  this->machine_.advance(15, fire);  // [0,10) past horizon
  for (int i = 0; i < 4; ++i) this->machine_.add(this->tup(2, 2), 15, fire);
  EXPECT_EQ(this->machine_.dropped_late(), 4u);
  ASSERT_EQ(seen.size(), 2u);  // events 0 and 2 of 4
  EXPECT_TRUE(seen[0].dropped);
  EXPECT_EQ(seen[0].instance, 0);
  EXPECT_EQ(seen[0].watermark, 15);
}

// --- Pane geometry ------------------------------------------------------

TEST(PaneGeometry, GcdWidthAndCounts) {
  const WindowSpec spec{.advance = 4, .size = 10};
  const PaneGeometry g = PaneGeometry::of(spec);
  EXPECT_EQ(g.width, 2);
  EXPECT_EQ(g.panes_per_window(spec), 5);
  EXPECT_EQ(g.panes_per_advance(spec), 2);
}

TEST(PaneGeometry, NegativeTimestampsFloor) {
  const PaneGeometry g{2};
  EXPECT_EQ(g.pane_of(-1), -2);
  EXPECT_EQ(g.pane_of(-2), -2);
  EXPECT_EQ(g.pane_of(-3), -4);
  EXPECT_EQ(g.pane_of(0), 0);
  EXPECT_EQ(g.pane_of(3), 2);
}

// --- Replay-specific: arrival-order materialization ---------------------

TEST(SlicedReplay, MaterializesInArrivalOrderAcrossPanes) {
  // WA=5, WS=15 → pane width 5. Tuples arrive out of event-time order and
  // land in different panes; fire payloads must still be in arrival order,
  // exactly like the buffering machine's item vectors.
  SlicedM m(WindowSpec{.advance = 5, .size = 15},
            [](const int&) { return 0; });
  std::vector<std::vector<int>> payloads;
  SlicedM::FireFn fire = [&](Timestamp, const int&,
                             const TupleView<int>& items, bool) {
    std::vector<int> vals;
    for (const auto& t : items) vals.push_back(t.value);
    payloads.push_back(std::move(vals));
  };
  m.add({12, 0, 1}, kMinTimestamp, fire);
  m.add({3, 0, 2}, kMinTimestamp, fire);
  m.add({8, 0, 3}, kMinTimestamp, fire);
  m.advance(100, fire);
  // Instances [-10,5) … [10,25) fire in order; payloads follow arrival
  // order (value 1 arrived first), not event-time order.
  ASSERT_EQ(payloads.size(), 5u);
  EXPECT_EQ(payloads[0], (std::vector<int>{2}));        // [-10,5)
  EXPECT_EQ(payloads[1], (std::vector<int>{2, 3}));     // [-5,10)
  EXPECT_EQ(payloads[2], (std::vector<int>{1, 2, 3}));  // [0,15)
  EXPECT_EQ(payloads[3], (std::vector<int>{1, 3}));     // [5,20)
  EXPECT_EQ(payloads[4], (std::vector<int>{1}));        // [10,25)
}

TEST(SlicedReplay, TupleStoredOncePerPane) {
  SlicedM m(WindowSpec{.advance = 5, .size = 15},
            [](const int&) { return 0; });
  SlicedM::FireFn fire = [](Timestamp, const int&,
                            const TupleView<int>&, bool) {};
  m.add({12, 0, 1}, kMinTimestamp, fire);  // overlaps 3 instances, 1 pane
  EXPECT_EQ(m.open_panes(), 1u);
  EXPECT_EQ(m.open_instances(), 3u);
}

// --- Monoid-specific: incremental values match a naive recompute --------

TEST(MonoidMachine, SlidingSumsMatchNaiveRecompute) {
  const WindowSpec spec{.advance = 2, .size = 8};
  MonoidM m(spec, [](const int&) { return 0; },
            MonoidPolicy<int, int, int>(sum_monoid<int>()));
  std::map<Timestamp, long> got;
  MonoidM::FireFn fire = [&](Timestamp l, const int&,
                             const WindowAggregate<int>& wa, bool) {
    got[l] = wa.agg;
  };
  std::vector<std::pair<Timestamp, int>> tuples;
  Timestamp w = kMinTimestamp;
  for (Timestamp ts = 0; ts <= 40; ++ts) {
    const int v = static_cast<int>(ts * ts % 23);
    tuples.emplace_back(ts, v);
    m.add({ts, 0, v}, w, fire);
    if (ts % 4 == 3) {
      w = ts;
      m.advance(w, fire);
    }
  }
  m.flush(fire);

  std::map<Timestamp, long> naive;
  for (const auto& [ts, v] : tuples) {
    for (Timestamp l = spec.first_instance(ts); l <= spec.last_instance(ts);
         l += spec.advance) {
      naive[l] += v;
    }
  }
  EXPECT_EQ(got, naive);
}

TEST(MonoidMachine, LateArrivalInvalidatesStacksNotResults) {
  // lateness admits a tuple into an already-evaluated pane; the re-fire
  // and every later in-order fire must still be exact.
  const WindowSpec spec{.advance = 2, .size = 6, .lateness = 10};
  MonoidM m(spec, [](const int&) { return 0; },
            MonoidPolicy<int, int, int>(sum_monoid<int>()));
  std::map<Timestamp, long> last_value;
  MonoidM::FireFn fire = [&](Timestamp l, const int&,
                             const WindowAggregate<int>& wa, bool) {
    last_value[l] = wa.agg;
  };
  for (Timestamp ts = 0; ts < 12; ++ts) m.add({ts, 0, 1}, kMinTimestamp, fire);
  m.advance(10, fire);  // closes instances up to [4,10)
  m.add({5, 0, 100}, 10, fire);  // late into panes already in stacks
  m.advance(18, fire);
  m.flush(fire);
  // Instance [0,6): 6 ones + late 100. [4,10): 6 ones + 100. [6,12): 6.
  EXPECT_EQ(last_value[0], 106);
  EXPECT_EQ(last_value[4], 106);
  EXPECT_EQ(last_value[6], 6);
  EXPECT_EQ(m.late_updates(), 3u);  // instances 0, 2, 4 re-fired
}

TEST(MonoidMachine, NegativeTimestampsMatchBufferingInstanceMath) {
  const WindowSpec spec{.advance = 4, .size = 10};
  MonoidM m(spec, [](const int&) { return 0; },
            MonoidPolicy<int, int, int>(sum_monoid<int>()));
  std::map<Timestamp, long> got;
  MonoidM::FireFn fire = [&](Timestamp l, const int&,
                             const WindowAggregate<int>& wa, bool) {
    got[l] = wa.agg;
  };
  for (Timestamp ts = -13; ts <= 5; ++ts) m.add({ts, 0, 1}, kMinTimestamp, fire);
  m.flush(fire);

  std::map<Timestamp, long> naive;
  for (Timestamp ts = -13; ts <= 5; ++ts) {
    for (Timestamp l = spec.first_instance(ts); l <= spec.last_instance(ts);
         l += spec.advance) {
      naive[l] += 1;
    }
  }
  EXPECT_EQ(got, naive);
}

// The monoid policies cache one entry per key they fire. A key whose last
// pane is purged loses its entry, so a stream of ever-new keys keeps the
// cache as small as the open panes: every key below arrives once, which
// makes the stored tuple count (occupancy) the number of keys in them.
template <typename M>
class MonoidKeyCache : public ::testing::Test {};
using CachingMachines =
    ::testing::Types<MonoidWindowMachine<int, int, int>,
                     DabaWindowMachine<int, int, int>,
                     TreeWindowMachine<int, int, int>>;
TYPED_TEST_SUITE(MonoidKeyCache, CachingMachines);

TYPED_TEST(MonoidKeyCache, HoldsNoMoreKeysThanTheOpenPanes) {
  constexpr int kKeys = 200'000;
  constexpr int kPerTick = 10;
  TypeParam m(WindowSpec{.advance = 10, .size = 20, .lateness = 0},
              [](const int& v) { return v; }, sum_monoid<int>());
  std::size_t fired = 0;
  typename TypeParam::FireFn fire = [&](Timestamp, const int&,
                                        const WindowAggregate<int>&,
                                        bool) { ++fired; };
  std::size_t peak = 0;
  for (int i = 0; i < kKeys; ++i) {
    const Timestamp ts = i / kPerTick;
    if (i % kPerTick == 0) {
      m.advance(ts - 1, fire);
      ASSERT_LE(m.policy().cached_keys(), m.occupancy()) << "key " << i;
      peak = std::max(peak, m.policy().cached_keys());
    }
    m.add(Tuple<int>{ts, 0, i}, ts - 1, fire);
  }
  m.advance(kKeys, fire);
  EXPECT_EQ(fired, 2u * kKeys);  // each key in two instances
  EXPECT_GT(peak, 0u);
  EXPECT_EQ(m.policy().cached_keys(), 0u);
  EXPECT_EQ(m.open_panes(), 0u);
}

}  // namespace
}  // namespace aggspes::swa
