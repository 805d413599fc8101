// Direct unit tests of the WindowMachine (the state core shared by A, A+,
// A++ and the dedicated Join).
#include "core/operators/window_machine.hpp"

#include <gtest/gtest.h>

#include <vector>

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

TEST(WindowMachineStamp, MaxStampHelper) {
  std::vector<Tuple<int>> items{{0, 5, 1}, {1, 9, 2}, {2, 7, 3}};
  EXPECT_EQ(max_stamp(TupleView<int>(items)), 9u);
  EXPECT_EQ(max_stamp<int>({}), 0u);
}

}  // namespace
}  // namespace aggspes
