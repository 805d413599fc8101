// Direct unit tests of the WindowMachine (the state core shared by A, A+,
// A++ and the dedicated Join).
#include "core/operators/window_machine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

namespace aggspes {
namespace {

/// A payload every value of which hashes alike: groups can only be told
/// apart by comparing values.
struct Colliding {
  int id{0};
  friend bool operator==(const Colliding&, const Colliding&) = default;
};

}  // namespace
}  // namespace aggspes

template <>
struct std::hash<aggspes::Colliding> {
  std::size_t operator()(const aggspes::Colliding&) const { return 42; }
};

namespace aggspes {
namespace {

struct Fired {
  Timestamp l;
  int key;
  std::size_t n;
  bool update;
  friend bool operator==(const Fired&, const Fired&) = default;
};

class MachineFixture : public ::testing::Test {
 protected:
  MachineFixture()
      : machine_(WindowSpec{.advance = 10, .size = 10, .lateness = 5},
                 [](const int& v) { return v % 2; }) {}

  WindowMachine<int, int>::FireFn recorder() {
    return [this](Timestamp l, const int& key,
                  const TupleView<int>& items, bool update) {
      fired_.push_back({l, key, items.size(), update});
    };
  }

  Tuple<int> tup(Timestamp ts, int v) { return {ts, 0, v}; }

  WindowMachine<int, int> machine_;
  std::vector<Fired> fired_;
};

TEST_F(MachineFixture, FiresOncePerKeyOnAdvance) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.add(tup(2, 3), kMinTimestamp, fire);
  machine_.add(tup(3, 4), kMinTimestamp, fire);
  EXPECT_TRUE(fired_.empty());
  machine_.advance(10, fire);
  ASSERT_EQ(fired_.size(), 2u);  // keys 0 and 1
  EXPECT_EQ(machine_.fired_instances(), 2u);
}

TEST_F(MachineFixture, AdvanceIsIdempotent) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.advance(10, fire);
  machine_.advance(12, fire);  // same instance, still within lateness
  EXPECT_EQ(fired_.size(), 1u);
}

TEST_F(MachineFixture, LateAdmissionRefiresAsUpdate) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.advance(12, fire);  // closes [0,10); purge at 15
  machine_.add(tup(2, 2), 12, fire);
  ASSERT_EQ(fired_.size(), 2u);
  EXPECT_TRUE(fired_[1].update);
  EXPECT_EQ(fired_[1].n, 2u);
  EXPECT_EQ(machine_.late_updates(), 1u);
}

TEST_F(MachineFixture, LateBeyondHorizonDropped) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.advance(15, fire);  // 10 + L(5) <= 15: purgeable
  machine_.add(tup(2, 2), 15, fire);
  EXPECT_EQ(fired_.size(), 1u);
  EXPECT_EQ(machine_.dropped_late(), 1u);
}

TEST_F(MachineFixture, PurgeReleasesState) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.add(tup(11, 2), kMinTimestamp, fire);
  EXPECT_EQ(machine_.open_instances(), 2u);
  machine_.advance(15, fire);  // [0,10) purgeable, [10,20) closed-not-purged
  EXPECT_EQ(machine_.open_instances(), 1u);
  machine_.advance(25, fire);
  EXPECT_EQ(machine_.open_instances(), 0u);
}

TEST_F(MachineFixture, FlushFiresEverythingUnfired) {
  auto fire = recorder();
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.add(tup(11, 3), kMinTimestamp, fire);
  machine_.flush(fire);
  EXPECT_EQ(fired_.size(), 2u);
  EXPECT_EQ(machine_.open_instances(), 0u);
  // Flush after advance only fires what the advance did not.
}

TEST_F(MachineFixture, AddedHookSeesEachInsertion) {
  auto fire = recorder();
  std::vector<std::pair<Timestamp, std::size_t>> added;
  auto hook = [&](Timestamp l, const int&, const TupleView<int>& items) {
    added.emplace_back(l, items.size());
  };
  machine_.add(tup(1, 2), kMinTimestamp, fire, hook);
  machine_.add(tup(2, 2), kMinTimestamp, fire, hook);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added[0], (std::pair<Timestamp, std::size_t>{0, 1}));
  EXPECT_EQ(added[1], (std::pair<Timestamp, std::size_t>{0, 2}));
}

TEST_F(MachineFixture, AddedHookNotCalledForDroppedTuples) {
  auto fire = recorder();
  int hook_calls = 0;
  auto hook = [&](Timestamp, const int&, const TupleView<int>&) {
    ++hook_calls;
  };
  machine_.advance(15, fire);
  machine_.add(tup(1, 2), 15, fire, hook);  // dropped (purgeable)
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(machine_.dropped_late(), 1u);
}

TEST(WindowMachineSliding, TupleEntersEveryOverlappingInstance) {
  WindowMachine<int, int> m(WindowSpec{.advance = 5, .size = 15},
                            [](const int&) { return 0; });
  std::vector<Timestamp> fired_at;
  WindowMachine<int, int>::FireFn fire =
      [&](Timestamp l, const int&, const TupleView<int>&, bool) {
        fired_at.push_back(l);
      };
  m.add({12, 0, 1}, kMinTimestamp, fire);
  m.advance(100, fire);
  EXPECT_EQ(fired_at, (std::vector<Timestamp>{0, 5, 10}));
}

TEST_F(MachineFixture, LateProbeIsRateLimited) {
  auto fire = recorder();
  std::vector<LateEvent> seen;
  machine_.set_late_probe([&](const LateEvent& e) { seen.push_back(e); },
                          /*every=*/3);
  machine_.add(tup(1, 2), kMinTimestamp, fire);
  machine_.advance(15, fire);  // [0,10) past its lateness horizon
  for (int i = 0; i < 7; ++i) machine_.add(tup(2, 2), 15, fire);
  EXPECT_EQ(machine_.dropped_late(), 7u);
  ASSERT_EQ(seen.size(), 3u);  // events 0, 3, 6
  EXPECT_TRUE(seen[0].dropped);
  EXPECT_EQ(seen[0].instance, 0);
  EXPECT_EQ(seen[0].tuple_ts, 2);
  EXPECT_EQ(seen[0].watermark, 15);
  EXPECT_EQ(machine_.late_probe().observed(), 7u);
}

// Two distinct values with one hash in one δ-instance stay two groups,
// each fired once with its own multiplicity, whether the window keeps its
// keys (an identity f_K) or is keyed by all (no stored key, compared
// against each group's first payload). Twelve more values push the index
// through a rebuild with every slot colliding.
TEST(WindowMachineCollision, EqualHashesStayDistinctGroups) {
  using M = WindowMachine<Colliding, Colliding>;
  const WindowSpec delta{.advance = kDelta, .size = kDelta};
  for (const bool by_all : {false, true}) {
    SCOPED_TRACE(by_all ? "keyed by all" : "identity f_K");
    M m(delta, by_all ? M::KeyFn(KeyByAll{})
                      : M::KeyFn([](const Colliding& c) { return c; }));
    std::map<int, std::size_t> fired;  // id -> multiplicity
    int fires = 0;
    M::FireFn fire = [&](Timestamp l, const Colliding& key,
                         const TupleView<Colliding>& items, bool update) {
      ++fires;
      EXPECT_EQ(l, 7);
      EXPECT_FALSE(update);
      for (const Tuple<Colliding>& t : items) EXPECT_EQ(t.value, key);
      // Keyed by all, the key handed out is the group's first payload.
      EXPECT_EQ(&key == &items[0].value, by_all);
      fired[key.id] = items.size();
    };
    m.add({7, 0, Colliding{1}}, kMinTimestamp, fire);
    m.add({7, 0, Colliding{2}}, kMinTimestamp, fire);
    m.add({7, 0, Colliding{1}}, kMinTimestamp, fire);
    for (int id = 10; id < 22; ++id) {
      m.add({7, 0, Colliding{id}}, kMinTimestamp, fire);
    }
    m.add({7, 0, Colliding{2}}, kMinTimestamp, fire);
    m.add({7, 0, Colliding{1}}, kMinTimestamp, fire);
    m.advance(8, fire);
    EXPECT_EQ(fires, 14);
    EXPECT_EQ(fired[1], 3u);
    EXPECT_EQ(fired[2], 2u);
    for (int id = 10; id < 22; ++id) EXPECT_EQ(fired[id], 1u) << id;
    EXPECT_EQ(m.occupancy(), 0u);  // purged
  }
}

TEST(WindowMachineStamp, MaxStampHelper) {
  std::vector<Tuple<int>> items{{0, 5, 1}, {1, 9, 2}, {2, 7, 3}};
  EXPECT_EQ(max_stamp(TupleView<int>(items)), 9u);
  EXPECT_EQ(max_stamp<int>({}), 0u);
}

}  // namespace
}  // namespace aggspes
