// Copy accounting on the channel spine (DESIGN.md § 16): an element built
// by a producer is moved, not copied, through Outlet → Channel → consumer.
// A single subscriber costs zero payload copies per hop, a fan-out of k
// costs exactly k − 1 (P2: every subscriber still sees the same elements
// in the same order), loop edges still withhold watermarks and EOS on the
// moving path (P3), and a producer blocked on a full queue retries with
// the same element instead of copying it per attempt. Checked on both
// runtimes with a payload that counts its own copies. ThreadedFlow's block
// path hands each run over (Consumer::take_block), so a key-by-all A or
// A+ moves its tuples into the window machine; a shim that only knows
// receive_block, or a lent edge, still delivers every run, at one copy
// per tuple.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/aggregate.hpp"
#include "core/operators/aggregate_plus.hpp"
#include "core/operators/sink.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {
namespace {

/// Payload that counts every copy (construction or assignment) it makes.
struct Counted {
  static inline std::atomic<std::uint64_t> copies{0};

  int id{0};

  Counted() = default;
  explicit Counted(int i) : id(i) {}
  Counted(const Counted& o) : id(o.id) { copies.fetch_add(1); }
  Counted(Counted&& o) noexcept : id(o.id) {}
  Counted& operator=(const Counted& o) {
    id = o.id;
    copies.fetch_add(1);
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

/// Records what arrives without copying the payload.
struct Recorder {
  std::vector<int> ids;
  std::vector<Timestamp> watermarks;
  bool ended{false};
  std::chrono::microseconds per_tuple{0};  ///< makes a slow consumer

  void tuple(const Tuple<Counted>& t) {
    ids.push_back(t.value.id);
    if (per_tuple.count() > 0) std::this_thread::sleep_for(per_tuple);
  }
  void element(const Element<Counted>& e) {
    if (const auto* t = std::get_if<Tuple<Counted>>(&e)) {
      tuple(*t);
    } else if (const auto* w = std::get_if<Watermark>(&e)) {
      watermarks.push_back(w->ts);
    } else if (is_end(e)) {
      ended = true;
    }
  }
  Port<Counted> port{[this](const Element<Counted>& e) { element(e); },
                     [this](const Tuple<Counted>* ts, std::size_t n) {
                       for (std::size_t i = 0; i < n; ++i) tuple(ts[i]);
                     }};
};

/// Pushes n freshly built tuples, then a watermark and EOS, all through
/// the moving Outlet::push_tuple / push_watermark / push_end path.
void produce(Outlet<Counted>& out, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_tuple(Tuple<Counted>{Timestamp(i), 0, Counted{i}});
  }
  out.push_watermark(Timestamp(n));
  out.push_end();
}

std::vector<int> iota_ids(int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

constexpr int kTuples = 600;  // > one 256-tuple channel block

// --- single-threaded Flow ------------------------------------------------

TEST(ChannelCopies, FlowSingleSubscriberCopiesNothing) {
  Flow flow;
  Outlet<Counted> out;
  Recorder a;
  flow.connect(out, a.port);
  Counted::copies = 0;
  produce(out, kTuples);
  flow.drain();
  EXPECT_EQ(Counted::copies.load(), 0u);
  EXPECT_EQ(a.ids, iota_ids(kTuples));
  EXPECT_TRUE(a.ended);
}

TEST(ChannelCopies, FlowFanOutOfTwoCopiesOncePerTuple) {
  Flow flow;
  Outlet<Counted> out;
  Recorder a, b;
  flow.connect(out, a.port);
  flow.connect(out, b.port);
  Counted::copies = 0;
  produce(out, kTuples);
  flow.drain();
  EXPECT_EQ(Counted::copies.load(), static_cast<std::uint64_t>(kTuples));
  EXPECT_EQ(a.ids, iota_ids(kTuples));
  EXPECT_EQ(b.ids, a.ids);
  EXPECT_EQ(b.watermarks, a.watermarks);
  EXPECT_TRUE(a.ended && b.ended);
}

// P3 on the moving path, with the loop edge subscribed both last (so the
// moved-into channel must skip it for control elements) and first.
TEST(ChannelCopies, FlowLoopEdgeWithholdsWatermarksAndEnd) {
  for (const bool loop_first : {false, true}) {
    SCOPED_TRACE(loop_first ? "loop subscribed first" : "loop last");
    Flow flow;
    Outlet<Counted> out;
    Recorder regular, loop;
    if (loop_first) flow.connect(out, loop.port, EdgeKind::kLoop);
    flow.connect(out, regular.port);
    if (!loop_first) flow.connect(out, loop.port, EdgeKind::kLoop);
    Counted::copies = 0;
    produce(out, 5);
    flow.drain();
    EXPECT_EQ(Counted::copies.load(), 5u);
    EXPECT_EQ(regular.ids, iota_ids(5));
    EXPECT_EQ(loop.ids, iota_ids(5));
    EXPECT_EQ(regular.watermarks, std::vector<Timestamp>{5});
    EXPECT_TRUE(regular.ended);
    EXPECT_TRUE(loop.watermarks.empty());
    EXPECT_FALSE(loop.ended);
  }
}

// --- ThreadedFlow ----------------------------------------------------------

class CountedSource final : public NodeBase {
 public:
  explicit CountedSource(int n) : n_(n) {}
  void pump() override { produce(out_, n_); }
  Outlet<Counted>& out() { return out_; }

 private:
  int n_;
  Outlet<Counted> out_;
};

class RecordingSink final : public NodeBase {
 public:
  Recorder rec;
};

TEST(ChannelCopies, ThreadedSingleSubscriberCopiesNothing) {
  ThreadedFlow flow;
  auto& src = flow.add<CountedSource>(kTuples);
  auto& sink = flow.add<RecordingSink>();
  flow.connect(src, src.out(), sink, sink.rec.port);
  Counted::copies = 0;
  flow.run();
  EXPECT_EQ(Counted::copies.load(), 0u);
  EXPECT_EQ(sink.rec.ids, iota_ids(kTuples));
  EXPECT_TRUE(sink.rec.ended);
}

TEST(ChannelCopies, ThreadedFanOutOfTwoCopiesOncePerTuple) {
  ThreadedFlow flow;
  auto& src = flow.add<CountedSource>(kTuples);
  auto& a = flow.add<RecordingSink>();
  auto& b = flow.add<RecordingSink>();
  flow.connect(src, src.out(), a, a.rec.port);
  flow.connect(src, src.out(), b, b.rec.port);
  Counted::copies = 0;
  flow.run();
  EXPECT_EQ(Counted::copies.load(), static_cast<std::uint64_t>(kTuples));
  EXPECT_EQ(a.rec.ids, iota_ids(kTuples));
  EXPECT_EQ(b.rec.ids, a.rec.ids);
  EXPECT_EQ(b.rec.watermarks, a.rec.watermarks);
  EXPECT_TRUE(a.rec.ended && b.rec.ended);
}

// A capacity-1 edge into a slow consumer keeps the producer spinning in
// its retry loop for nearly every tuple; no attempt may copy the payload.
TEST(ChannelCopies, BackpressuredProducerRetriesWithoutCopying) {
  constexpr int kSlowTuples = 40;
  ThreadedFlow flow;
  auto& src = flow.add<CountedSource>(kSlowTuples);
  auto& sink = flow.add<RecordingSink>();
  sink.rec.per_tuple = std::chrono::microseconds(500);
  flow.connect(src, src.out(), sink, sink.rec.port, EdgeKind::kNormal, 1);
  Counted::copies = 0;
  flow.run();
  EXPECT_EQ(Counted::copies.load(), 0u);
  EXPECT_EQ(sink.rec.ids, iota_ids(kSlowTuples));
  EXPECT_GT(flow.channel_gauges().at(0).stall_ns, 0u)
      << "the producer never blocked, so no retry was exercised";
}

// --- key-by-all window machines on the block path ----------------------------

/// Pushes its tuples as one block (Channel::push_block copies each into
/// the queue once, in a single bulk enqueue, so the consumer drains them
/// as one run), then a watermark and EOS.
class CountedBlockSource final : public NodeBase {
 public:
  explicit CountedBlockSource(std::vector<Tuple<Counted>> ts)
      : ts_(std::move(ts)) {}
  void pump() override {
    out_.push_block(ts_.data(), ts_.size());
    out_.push_watermark(1000);
    out_.push_end();
  }
  Outlet<Counted>& out() { return out_; }

 private:
  std::vector<Tuple<Counted>> ts_;
  Outlet<Counted> out_;
};

/// Forwards everything, overriding only receive and receive_block — the
/// shape of a timing shim written before take_block existed.
class ReadOnlyShim final : public Consumer<Counted> {
 public:
  explicit ReadOnlyShim(Consumer<Counted>& inner) : inner_(inner) {}
  void receive(const Element<Counted>& e) override { inner_.receive(e); }
  void receive_block(const Tuple<Counted>* ts, std::size_t n) override {
    ++blocks;
    inner_.receive_block(ts, n);
  }
  int blocks{0};

 private:
  Consumer<Counted>& inner_;
};

constexpr int kRun = 200;  // one channel block, below the queue capacity

/// kRun tuples, eight per event time, ids repeating every 12: most
/// δ-instances hold duplicates.
std::vector<Tuple<Counted>> run_tuples() {
  std::vector<Tuple<Counted>> ts;
  for (int i = 0; i < kRun; ++i) {
    ts.push_back(Tuple<Counted>{Timestamp(i / 8), 0, Counted{i % 12}});
  }
  return ts;
}

/// Σ over every fired group of (payload id × multiplicity).
long weighted_sum(const std::vector<Tuple<long>>& out) {
  long s = 0;
  for (const Tuple<long>& t : out) s += t.value;
  return s;
}

long expected_sum() {
  long s = 0;
  for (const Tuple<Counted>& t : run_tuples()) s += t.value.id;
  return s;
}

long group_weight(const WindowView<Counted, Counted>& w) {
  EXPECT_EQ(w.key, w.items[0].value);
  return static_cast<long>(w.key.id) * static_cast<long>(w.items.size());
}

template <typename Op, typename Fo>
std::uint64_t run_by_all(Fo f_o, bool shim, std::vector<Tuple<long>>& out,
                         EdgeKind kind = EdgeKind::kNormal) {
  ThreadedFlow flow;
  auto& src = flow.add<CountedBlockSource>(run_tuples());
  auto& op = flow.add<Op>(WindowSpec{.advance = kDelta, .size = kDelta},
                          KeyByAll{}, f_o);
  auto& sink = flow.add<CollectorSink<long>>();
  ReadOnlyShim wrapped(op.in());
  flow.connect(src, src.out(), op,
               shim ? static_cast<Consumer<Counted>&>(wrapped) : op.in(),
               kind);
  flow.connect(op, op.out(), sink, sink.in());
  Counted::copies = 0;
  flow.run();
  if (shim) {
    EXPECT_GT(wrapped.blocks, 0);
  }
  out = sink.tuples();
  return Counted::copies.load();
}

// The only copy left is push_block's enqueue: the taken run moves into
// the machine, whose key is the stored payload itself.
TEST(ChannelCopies, ThreadedKeyByAllAggregatesMoveTheRunIn) {
  using A = AggregateOp<Counted, long, Counted>;
  using Aplus = AggregatePlusOp<Counted, long, Counted>;
  std::vector<Tuple<long>> out;
  EXPECT_EQ(run_by_all<A>(
                [](const WindowView<Counted, Counted>& w)
                    -> std::optional<long> { return group_weight(w); },
                /*shim=*/false, out),
            static_cast<std::uint64_t>(kRun));
  EXPECT_EQ(weighted_sum(out), expected_sum());
  EXPECT_EQ(run_by_all<Aplus>(
                [](const WindowView<Counted, Counted>& w) {
                  return std::vector<long>{group_weight(w)};
                },
                /*shim=*/false, out),
            static_cast<std::uint64_t>(kRun));
  EXPECT_EQ(weighted_sum(out), expected_sum());
}

// A consumer that knows only receive_block gets the run read-only, and so
// does every consumer of a lent edge: the machine then stores a copy of
// each tuple. Same outputs, one more copy.
TEST(ChannelCopies, ReadOnlyRunsAreCopiedIntoTheMachine) {
  using A = AggregateOp<Counted, long, Counted>;
  const auto f_o = [](const WindowView<Counted, Counted>& w)
      -> std::optional<long> { return group_weight(w); };
  std::vector<Tuple<long>> out;
  EXPECT_EQ(run_by_all<A>(f_o, /*shim=*/true, out),
            static_cast<std::uint64_t>(2 * kRun));
  EXPECT_EQ(weighted_sum(out), expected_sum());
  EXPECT_EQ(run_by_all<A>(f_o, /*shim=*/false, out, EdgeKind::kLent),
            static_cast<std::uint64_t>(2 * kRun));
  EXPECT_EQ(weighted_sum(out), expected_sum());
}

}  // namespace
}  // namespace aggspes
