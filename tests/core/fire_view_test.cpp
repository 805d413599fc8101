// Fired windows are read in place (DESIGN.md § 9): A+ and A++ hand their
// user functions a TupleView into the window machine's own state, so
// evaluating a fire copies no payload on either tuple-holding machine, and
// the A+ join's match copies only the pairs it emits. Checked with a
// payload that counts its own copies, as in channel_copy_test. A window
// keyed by all attributes (KeyByAll) stores a lent tuple with one copy and
// a handed-over one with none, and keeps no key beside it.
//
// The last part pins the view's lifetime: late re-fires into a cell whose
// entry vector reallocates between two fires of the same instance must
// read exactly what the buffering oracle reads (and, under ASan, never a
// freed entry).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "aggbased/aplus.hpp"
#include "core/graph.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/aggregate_eager.hpp"
#include "core/operators/aggregate_plus.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/sliced_machine.hpp"

namespace aggspes {
namespace {

/// Payload that counts every copy (construction or assignment) it makes.
struct Counted {
  static inline std::uint64_t copies = 0;

  int id{0};

  Counted() = default;
  explicit Counted(int i) : id(i) {}
  Counted(const Counted& o) : id(o.id) { ++copies; }
  Counted(Counted&& o) noexcept : id(o.id) {}
  Counted& operator=(const Counted& o) {
    id = o.id;
    ++copies;
    return *this;
  }
  Counted& operator=(Counted&& o) noexcept {
    id = o.id;
    return *this;
  }
  friend bool operator==(const Counted& a, const Counted& b) {
    return a.id == b.id;
  }
};

}  // namespace
}  // namespace aggspes

template <>
struct std::hash<aggspes::Counted> {
  std::size_t operator()(const aggspes::Counted& c) const {
    return std::hash<int>{}(c.id);
  }
};

namespace aggspes {
namespace {

// WS / WA = 4: every tuple lies in four overlapping instances.
constexpr WindowSpec kSpec{.advance = 2, .size = 8};
constexpr int kTuples = 64;

int key_of(const Counted& c) { return c.id % 2; }

int sum_ids(const WindowView<Counted, int>& w) {
  int s = 0;
  for (const Tuple<Counted>& t : w.items) s += t.value.id;
  return s;
}

template <typename T>
Element<T> tuple_at(Timestamp ts, T v) {
  return Element<T>{Tuple<T>{ts, 0, std::move(v)}};
}

struct Copies {
  std::uint64_t on_add;  ///< payload copies while the tuples arrive
  std::uint64_t stored;  ///< tuple copies the machine holds after that
  std::uint64_t on_fire;  ///< payload copies while every instance fires
};

/// Feeds kTuples in-order tuples (no fire yet: the watermark is still at
/// its minimum), then a watermark that fires every instance.
template <typename Op>
Copies drive(Op& op) {
  std::vector<Element<Counted>> script;
  for (int i = 0; i < kTuples; ++i) script.push_back(tuple_at(i, Counted{i}));
  Copies c{};
  Counted::copies = 0;
  for (const Element<Counted>& e : script) op.in().receive(e);
  c.on_add = Counted::copies;
  c.stored = op.machine().occupancy();
  Counted::copies = 0;
  op.in().receive(Element<Counted>{Watermark{1000}});
  c.on_fire = Counted::copies;
  return c;
}

template <template <typename, typename> class MachineT>
void check_aplus(const char* name) {
  using Op = AggregatePlusOp<Counted, int, int, MachineT<Counted, int>>;
  int fires = 0;
  Op op(kSpec, key_of, [&](const WindowView<Counted, int>& w) {
    ++fires;
    return std::vector<int>{sum_ids(w)};
  });
  const Copies c = drive(op);
  // Storing is the machine's business (one copy per instance for the
  // buffering machine, one per tuple for the sliced one); firing is not.
  EXPECT_EQ(c.on_add, c.stored) << name;
  EXPECT_EQ(c.on_fire, 0u) << name;
  EXPECT_GT(fires, 0) << name;
}

template <template <typename, typename> class MachineT>
void check_eager(const char* name) {
  using Op = AggregateEagerOp<Counted, int, int, MachineT<Counted, int>>;
  int incremental = 0;
  int fires = 0;
  Op op(
      kSpec, key_of,
      [&](const WindowView<Counted, int>& w) {
        ++incremental;
        return std::vector<int>{sum_ids(w)};
      },
      [&](const WindowView<Counted, int>& w) {
        ++fires;
        return std::vector<int>{sum_ids(w)};
      });
  const Copies c = drive(op);
  // f_I re-reads the whole instance on every arrival; only the store copies.
  EXPECT_EQ(c.on_add, c.stored) << name;
  EXPECT_EQ(incremental, 4 * kTuples) << name;
  EXPECT_EQ(c.on_fire, 0u) << name;
  EXPECT_GT(fires, 0) << name;
}

template <template <typename, typename> class MachineT>
void check_aplus_join(const char* name) {
  using Join = AplusJoin<Counted, Counted, int, MachineT>;
  using Sides = typename Join::Sides;
  Flow flow;
  std::uint64_t matches = 0;
  // Left ids are even, right ids odd; the pair (2k, 2k + 1) shares key k.
  const auto side_key = [](const Counted& c) { return c.id / 2 % 3; };
  Join join(flow, kSpec, side_key, side_key,
            [&](const Counted& l, const Counted& r) {
              const bool hit = (l.id + r.id) % 3 == 0;
              matches += hit ? 1 : 0;
              return hit;
            });
  auto& match = join.match();
  std::vector<std::pair<int, Element<Sides>>> script;
  for (int i = 0; i < kTuples; ++i) {
    Sides s;
    if (i % 2 == 0) {
      s.left.emplace_back(i);
    } else {
      s.right.emplace_back(i);
    }
    script.emplace_back(i % 2, tuple_at(i / 2, std::move(s)));
  }
  Counted::copies = 0;
  for (const auto& [port, e] : script) match.in(port).receive(e);
  EXPECT_EQ(Counted::copies, match.machine().occupancy()) << name;
  Counted::copies = 0;
  match.in(0).receive(Element<Sides>{Watermark{1000}});
  match.in(1).receive(Element<Sides>{Watermark{1000}});
  EXPECT_GT(matches, 0u) << name;
  EXPECT_EQ(Counted::copies, 2 * matches) << name;  // l and r per pair
}

TEST(FireCopies, AplusEvaluatesFiresInPlace) {
  check_aplus<WindowMachine>("buffering");
  check_aplus<swa::SlicedWindowMachine>("sliced-replay");
}

TEST(FireCopies, EagerEvaluatesArrivalsAndFiresInPlace) {
  check_eager<WindowMachine>("buffering");
  check_eager<swa::SlicedWindowMachine>("sliced-replay");
}

TEST(FireCopies, AplusJoinMatchCopiesOnlyEmittedPairs) {
  check_aplus_join<WindowMachine>("buffering");
  check_aplus_join<swa::SlicedWindowMachine>("sliced-replay");
}

// --- key-by-all windows -------------------------------------------------------

constexpr WindowSpec kDeltaSpec{.advance = kDelta, .size = kDelta};

int id_times_count(const WindowView<Counted, Counted>& w) {
  return w.key.id * static_cast<int>(w.items.size());
}

template <typename Op, typename Fo>
void check_by_all_per_element(Fo f_o, const char* name) {
  Op op(kDeltaSpec, KeyByAll{}, f_o);
  const Copies c = drive(op);
  // Flow's per-element path lends the tuple: one copy stores it, and the
  // key is that stored payload.
  EXPECT_EQ(c.on_add, static_cast<std::uint64_t>(kTuples)) << name;
  EXPECT_EQ(c.stored, static_cast<std::uint64_t>(kTuples)) << name;
  EXPECT_EQ(c.on_fire, 0u) << name;
}

TEST(FireCopies, KeyByAllStoresALentTupleWithOneCopy) {
  check_by_all_per_element<AggregateOp<Counted, int, Counted>>(
      [](const WindowView<Counted, Counted>& w) -> std::optional<int> {
        return id_times_count(w);
      },
      "A");
  check_by_all_per_element<AggregatePlusOp<Counted, int, Counted>>(
      [](const WindowView<Counted, Counted>& w) {
        return std::vector<int>{id_times_count(w)};
      },
      "A+");
}

// A run handed over through take_block (ThreadedFlow's block path) moves
// into a δ window without a copy; an overlapping window copies each tuple
// into every instance but the last, which takes the tuple itself.
TEST(FireCopies, KeyByAllMovesATakenRunIntoItsLastInstance) {
  for (const WindowSpec spec : {kDeltaSpec, kSpec}) {
    SCOPED_TRACE(spec.size);
    AggregatePlusOp<Counted, int, Counted> op(
        spec, KeyByAll{}, [](const WindowView<Counted, Counted>& w) {
          return std::vector<int>{id_times_count(w)};
        });
    std::vector<Tuple<Counted>> run;
    for (int i = 0; i < kTuples; ++i) {
      run.push_back(Tuple<Counted>{i / 4, 0, Counted{i % 6}});
    }
    Counted::copies = 0;
    op.in().take_block(run.data(), run.size());
    EXPECT_EQ(Counted::copies, op.machine().occupancy() - kTuples);
    EXPECT_EQ(op.machine().occupancy(),
              static_cast<std::uint64_t>(kTuples * (spec.size / spec.advance)));
  }
}

// --- view lifetime ----------------------------------------------------------

/// Order-sensitive digest of a fired window: any reordering, stale entry
/// or missed arrival changes it.
std::uint64_t digest(const WindowView<int, int>& w) {
  std::uint64_t h = static_cast<std::uint64_t>(w.items.size());
  for (const Tuple<int>& t : w.items) {
    h = h * 1000003u + static_cast<std::uint64_t>(t.ts) * 31u +
        static_cast<std::uint64_t>(t.value);
  }
  return h;
}

/// An in-order prefix, a watermark that fires it, then a run of late
/// arrivals into one pane (ts 4 and 5, pane width 2): each re-fires the
/// four instances holding the pane while the cell's entry vector grows
/// through several reallocations. A seeded out-of-order tail with
/// trailing watermarks follows: some of it re-fires, some is dropped.
std::vector<Element<int>> realloc_script(unsigned seed) {
  std::vector<Element<int>> script;
  for (int i = 0; i < 16; ++i) script.push_back(Tuple<int>{i, 0, i});
  script.push_back(Watermark{16});
  for (int i = 0; i < 24; ++i) {
    script.push_back(Tuple<int>{4 + i % 2, 0, 100 + i});
  }
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Timestamp> back(0, 24);
  Timestamp max_ts = 16;
  for (int i = 0; i < 200; ++i) {
    const Timestamp ts = std::max<Timestamp>(0, max_ts + 2 - back(rng));
    max_ts = std::max(max_ts, ts);
    script.push_back(Tuple<int>{ts, 0, 1000 + i});
    if (i % 10 == 9) script.push_back(Watermark{max_ts - 6});
  }
  script.push_back(Watermark{max_ts + 100});
  script.push_back(EndOfStream{});
  return script;
}

template <typename AddOp>
std::vector<Tuple<std::uint64_t>> run_view(
    const std::vector<Element<int>>& script, AddOp add) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& op = add(flow);
  auto& sink = flow.add<CollectorSink<std::uint64_t>>();
  flow.connect(src.out(), op.in());
  flow.connect(op.out(), sink.in());
  flow.run();
  EXPECT_GT(op.machine().late_updates(), 24u);
  return sink.tuples();
}

constexpr WindowSpec kLateSpec{.advance = 2, .size = 8, .lateness = 20};

int one_key(const int&) { return 0; }

template <typename Machine>
std::vector<Tuple<std::uint64_t>> run_aplus_digest(
    const std::vector<Element<int>>& script) {
  return run_view(script, [](Flow& f) -> auto& {
    return f.add<AggregatePlusOp<int, std::uint64_t, int, Machine>>(
        kLateSpec, one_key, [](const WindowView<int, int>& w) {
          return std::vector<std::uint64_t>{digest(w)};
        });
  });
}

template <typename Machine>
std::vector<Tuple<std::uint64_t>> run_eager_digest(
    const std::vector<Element<int>>& script) {
  return run_view(script, [](Flow& f) -> auto& {
    return f.add<AggregateEagerOp<int, std::uint64_t, int, Machine>>(
        kLateSpec, one_key,
        [](const WindowView<int, int>& w) {
          return std::vector<std::uint64_t>{digest(w)};
        },
        [](const WindowView<int, int>& w) {
          return std::vector<std::uint64_t>{digest(w) + 1};
        });
  });
}

TEST(FireViewLifetime, LateRefiresAcrossReallocationMatchBuffering) {
  using Buffering = WindowMachine<int, int>;
  using Sliced = swa::SlicedWindowMachine<int, int>;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const std::vector<Element<int>> script = realloc_script(seed);
    const auto want = run_aplus_digest<Buffering>(script);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(run_aplus_digest<Sliced>(script), want) << "A+ seed " << seed;
    const auto want_eager = run_eager_digest<Buffering>(script);
    ASSERT_FALSE(want_eager.empty());
    EXPECT_EQ(run_eager_digest<Sliced>(script), want_eager)
        << "A++ seed " << seed;
  }
}

}  // namespace
}  // namespace aggspes
