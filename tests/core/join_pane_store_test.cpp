// Differential suite for the pane-backed dedicated Join (DESIGN.md § 9):
// the pane-store JoinOp must be *element-identical* — outputs in emission
// order, comparison counts, late-drop counts and watermark behaviour — to
// the per-instance BufferingJoinOp it replaced, across shuffled, late and
// negative-timestamp streams and across pane geometries gcd(WA, WS) ∈
// {1, WA, WS}. Mirrors the style of swa_equivalence_test.cpp.
//
// Also hosts the diagnostics-reset units (LateProbe rate-limit window,
// machine/store occupancy high-water marks) the harness relies on between
// A/B repetitions.
#include "core/operators/join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/operators/join_buffering.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/window_machine.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/late_probe.hpp"

namespace aggspes {
namespace {

struct Ev {
  int key;
  int val;
  friend bool operator==(const Ev&, const Ev&) = default;
  friend auto operator<=>(const Ev&, const Ev&) = default;
};

using Pair = std::pair<Ev, Ev>;

std::function<int(const Ev&)> by_key() {
  return [](const Ev& e) { return e.key; };
}

// One element of an interleaved two-sided script. Watermarks advance both
// input ports in lockstep (the combined watermark is their min).
struct Step {
  enum Kind { kLeft, kRight, kWatermark } kind;
  Tuple<Ev> t{};
  Timestamp wm{0};
};

/// Random interleaved script: tuples on both sides with timestamps in
/// [lo, hi] shuffled within a window of `disorder` positions (so some
/// arrive late relative to the trailing watermarks), watermarks trailing
/// `slack` behind the running max timestamp. With slack = 0 many tuples
/// arrive for already-closed instances and must be dropped identically.
std::vector<Step> random_script(std::mt19937& rng, int n, Timestamp lo,
                                Timestamp hi, Timestamp slack, int n_keys,
                                int disorder) {
  std::uniform_int_distribution<Timestamp> ts_dist(lo, hi);
  std::uniform_int_distribution<int> key_dist(0, n_keys - 1);
  std::uniform_int_distribution<int> side_dist(0, 1);
  std::vector<Step> tuples;
  tuples.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Step s;
    s.kind = side_dist(rng) ? Step::kLeft : Step::kRight;
    s.t = Tuple<Ev>{ts_dist(rng), 0, Ev{key_dist(rng), i}};
    tuples.push_back(s);
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const Step& a, const Step& b) { return a.t.ts < b.t.ts; });
  // Local shuffle: swap within `disorder` positions to create bounded
  // out-of-orderness without losing the overall time progression.
  for (int i = 0; i < n; ++i) {
    std::uniform_int_distribution<int> off(0, disorder);
    const int j = std::min(n - 1, i + off(rng));
    std::swap(tuples[static_cast<std::size_t>(i)],
              tuples[static_cast<std::size_t>(j)]);
  }
  std::vector<Step> script;
  script.reserve(tuples.size() * 2);
  Timestamp max_ts = lo;
  Timestamp last_wm = kMinTimestamp;
  for (const Step& s : tuples) {
    script.push_back(s);
    max_ts = std::max(max_ts, s.t.ts);
    const Timestamp wm = max_ts - slack;
    if (wm > last_wm) {
      script.push_back(Step{Step::kWatermark, {}, wm});
      last_wm = wm;
    }
  }
  script.push_back(Step{Step::kWatermark, {}, hi + 1});
  return script;
}

struct Observed {
  std::vector<Tuple<Pair>> outputs;  ///< exact emission order
  std::vector<Timestamp> watermarks;
  std::uint64_t comparisons{0};
  std::uint64_t dropped_late{0};
  std::uint64_t peak_stored{0};
  std::uint64_t peak_panes{0};
  bool ended{false};
};

/// Replays `script` through a join of type JoinT wired to a CollectorSink
/// on the deterministic runtime, driving the ports directly so arrival
/// interleaving and lateness are exactly as scripted.
template <typename JoinT>
Observed run_script(const std::vector<Step>& script, WindowSpec spec,
                    std::function<bool(const Ev&, const Ev&)> f_p) {
  Flow flow;
  auto& op = flow.add<JoinT>(spec, by_key(), by_key(), std::move(f_p));
  auto& sink = flow.add<CollectorSink<Pair>>();
  flow.connect(op.out(), sink.in());
  for (const Step& s : script) {
    switch (s.kind) {
      case Step::kLeft:
        op.in_left().receive(Element<Ev>{s.t});
        break;
      case Step::kRight:
        op.in_right().receive(Element<Ev>{s.t});
        break;
      case Step::kWatermark:
        op.in_left().receive(Element<Ev>{Watermark{s.wm}});
        op.in_right().receive(Element<Ev>{Watermark{s.wm}});
        break;
    }
    flow.drain();
  }
  op.in_left().receive(Element<Ev>{EndOfStream{}});
  op.in_right().receive(Element<Ev>{EndOfStream{}});
  flow.drain();
  Observed o;
  o.outputs = sink.tuples();
  o.watermarks = sink.watermarks();
  o.comparisons = op.comparisons();
  o.dropped_late = op.dropped_late();
  o.peak_stored = op.peak_occupancy();
  o.peak_panes = op.peak_panes();
  o.ended = sink.ended();
  return o;
}

void expect_element_identical(const Observed& pane, const Observed& buf,
                              const WindowSpec& spec) {
  ASSERT_EQ(pane.outputs.size(), buf.outputs.size())
      << "WA=" << spec.advance << " WS=" << spec.size;
  for (std::size_t i = 0; i < pane.outputs.size(); ++i) {
    EXPECT_EQ(pane.outputs[i].ts, buf.outputs[i].ts) << i;
    EXPECT_EQ(pane.outputs[i].value, buf.outputs[i].value) << i;
  }
  EXPECT_EQ(pane.watermarks, buf.watermarks);
  EXPECT_EQ(pane.comparisons, buf.comparisons);
  EXPECT_EQ(pane.dropped_late, buf.dropped_late);
  EXPECT_TRUE(pane.ended);
  EXPECT_TRUE(buf.ended);
}

// Pane geometries: tumbling (g = WS = WA), WA-divides-WS (g = WA),
// coprime (g = 1), mixed gcd, and WS < WA (inter-instance gaps).
const std::vector<WindowSpec> kSpecs = {
    {.advance = 4, .size = 4},   {.advance = 5, .size = 15},
    {.advance = 4, .size = 10},  {.advance = 7, .size = 9},
    {.advance = 10, .size = 6},  {.advance = 3, .size = 7},
};

TEST(JoinPaneDifferential, InOrderStreamsAreElementIdentical) {
  std::mt19937 rng(11);
  auto pred = [](const Ev& a, const Ev& b) { return a.val <= b.val + 40; };
  for (const WindowSpec& spec : kSpecs) {
    auto script = random_script(rng, 160, 0, 80, /*slack=*/0, 4,
                                /*disorder=*/0);
    auto pane = run_script<JoinOp<Ev, Ev, int>>(script, spec, pred);
    auto buf = run_script<BufferingJoinOp<Ev, Ev, int>>(script, spec, pred);
    expect_element_identical(pane, buf, spec);
  }
}

TEST(JoinPaneDifferential, ShuffledAndLateStreamsAreElementIdentical) {
  std::mt19937 rng(23);
  auto pred = [](const Ev& a, const Ev& b) { return (a.val ^ b.val) % 3 != 0; };
  for (const WindowSpec& spec : kSpecs) {
    for (int round = 0; round < 3; ++round) {
      auto script = random_script(rng, 200, 0, 120, /*slack=*/6, 3,
                                  /*disorder=*/10);
      auto pane = run_script<JoinOp<Ev, Ev, int>>(script, spec, pred);
      auto buf = run_script<BufferingJoinOp<Ev, Ev, int>>(script, spec, pred);
      expect_element_identical(pane, buf, spec);
      EXPECT_GT(pane.comparisons, 0u) << "vacuous round";
    }
  }
}

TEST(JoinPaneDifferential, NegativeTimestampsAreElementIdentical) {
  std::mt19937 rng(31);
  auto pred = [](const Ev&, const Ev&) { return true; };
  for (const WindowSpec& spec : kSpecs) {
    auto script = random_script(rng, 150, -61, 37, /*slack=*/4, 3,
                                /*disorder=*/6);
    auto pane = run_script<JoinOp<Ev, Ev, int>>(script, spec, pred);
    auto buf = run_script<BufferingJoinOp<Ev, Ev, int>>(script, spec, pred);
    expect_element_identical(pane, buf, spec);
    EXPECT_GT(pane.outputs.size(), 0u);
  }
}

TEST(JoinPaneDifferential, AggressiveLatenessDropsIdentically) {
  // Watermarks race ahead of the stream: most tuples land in closed
  // instances and both implementations must count every drop identically.
  std::mt19937 rng(47);
  auto pred = [](const Ev&, const Ev&) { return true; };
  for (const WindowSpec& spec : kSpecs) {
    auto script = random_script(rng, 150, 0, 100, /*slack=*/0, 2,
                                /*disorder=*/25);
    auto pane = run_script<JoinOp<Ev, Ev, int>>(script, spec, pred);
    auto buf = run_script<BufferingJoinOp<Ev, Ev, int>>(script, spec, pred);
    expect_element_identical(pane, buf, spec);
    EXPECT_GT(pane.dropped_late, 0u) << "vacuous: nothing arrived late";
  }
}

TEST(JoinPaneStore, SingleCopyStorageBeatsPerInstanceFanOut) {
  // With WS = 5·WA every tuple overlaps 5 instances: the buffering join
  // holds ~5 copies at peak while the pane store holds one.
  std::mt19937 rng(5);
  const WindowSpec spec{.advance = 4, .size = 20};
  auto pred = [](const Ev&, const Ev&) { return false; };
  auto script = random_script(rng, 300, 0, 150, /*slack=*/30, 1,
                              /*disorder=*/0);
  auto pane = run_script<JoinOp<Ev, Ev, int>>(script, spec, pred);
  auto buf = run_script<BufferingJoinOp<Ev, Ev, int>>(script, spec, pred);
  EXPECT_GT(pane.peak_stored, 0u);
  // Fan-out ratio WS/WA = 5: demand at least 3x to keep the bound robust
  // against boundary effects.
  EXPECT_GE(buf.peak_stored, 3 * pane.peak_stored);
}

TEST(JoinPaneStore, PurgeReleasesEverything) {
  swa::JoinPaneStore<Ev, Ev, int> store(WindowSpec{.advance = 4, .size = 10});
  for (int i = 0; i < 20; ++i) {
    store.add_left(i % 3, Tuple<Ev>{Timestamp(i), 0, Ev{i % 3, i}});
    store.add_right(i % 3, Tuple<Ev>{Timestamp(i), 0, Ev{i % 3, -i}});
  }
  EXPECT_EQ(store.occupancy(), 40u);
  EXPECT_GT(store.open_panes(), 0u);
  store.purge_closed(1000);
  EXPECT_EQ(store.occupancy(), 0u);
  EXPECT_EQ(store.open_panes(), 0u);
  EXPECT_GE(store.peak_occupancy(), 40u);
  store.reset_diagnostics();
  EXPECT_EQ(store.peak_occupancy(), 0u);
  EXPECT_EQ(store.peak_panes(), 0u);
}

TEST(LateProbeReset, RestartsTheRateLimitWindow) {
  int sampled = 0;
  LateProbe probe;
  probe.set([&sampled](const LateEvent&) { ++sampled; }, /*every=*/4);
  for (int i = 0; i < 6; ++i) probe({0, 0, 0, true});
  EXPECT_EQ(sampled, 2);  // events 0 and 4
  EXPECT_EQ(probe.observed(), 6u);
  probe.reset();
  EXPECT_EQ(probe.observed(), 0u);
  probe({0, 0, 0, true});  // first post-reset event is sampled again
  EXPECT_EQ(sampled, 3);
}

TEST(WindowMachineDiagnostics, OccupancyTracksBufferedTuplesAndResets) {
  WindowMachine<int, int> m(WindowSpec{.advance = 2, .size = 6},
                            [](const int&) { return 0; });
  auto fire = [](Timestamp, const int&, const TupleView<int>&, bool) {};
  // Each tuple lands in WS/WA = 3 instances -> 3 buffered copies.
  m.add(Tuple<int>{10, 0, 1}, kMinTimestamp, fire);
  EXPECT_EQ(m.occupancy(), 3u);
  m.add(Tuple<int>{11, 0, 2}, kMinTimestamp, fire);
  EXPECT_EQ(m.occupancy(), 6u);
  EXPECT_EQ(m.peak_occupancy(), 6u);
  m.advance(1000, fire);  // closes and purges everything (lateness = 0)
  EXPECT_EQ(m.occupancy(), 0u);
  EXPECT_EQ(m.peak_occupancy(), 6u);  // high-water mark survives the purge
  m.reset_diagnostics();
  EXPECT_EQ(m.peak_occupancy(), 0u);
  EXPECT_EQ(m.peak_panes(), 0u);
  EXPECT_EQ(m.late_probe().observed(), 0u);
}

}  // namespace
}  // namespace aggspes
