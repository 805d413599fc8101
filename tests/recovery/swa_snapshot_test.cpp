// Recovery integration for the sliced window backends: snapshot →
// restore-into-a-fresh-graph → continue must equal an uninterrupted run,
// and replayed watermarks must not re-fire restored instances. Pane
// cells, fired flags and cursors are the persisted truth; the monoid
// backend's two-stacks caches are rebuilt after load and must not change
// any output. Every Aggregate over every machine writes one layout — a
// version byte, then the machine's save() — and rejects any other byte.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/aggregate.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/swa/monoid_machine.hpp"
#include "core/swa/sliced_machine.hpp"
#include "machine_matrix.hpp"

namespace aggspes {
namespace {

const WindowSpec kSpec{.advance = 4, .size = 8, .lateness = 2};

using SlicedSum =
    AggregateOp<int, long, int, swa::SlicedWindowMachine<int, int>>;
using MonoidSum =
    AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>;

SlicedSum& add_sliced_sum(Flow& f) {
  return f.add<SlicedSum>(
      kSpec, [](const int& v) { return v % 2; },
      [](const WindowView<int, int>& w) -> std::optional<long> {
        long s = 0;
        for (const Tuple<int>& t : w.items) s += t.value;
        return s;
      });
}

MonoidSum& add_monoid_sum(Flow& f) {
  return f.add<MonoidSum>(
      kSpec, [](const int& v) { return v % 2; },
      swa::Monoid<int, long>{0, [](const int& v) { return long{v}; },
                             [](const long& a, const long& b) { return a + b; }},
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
}

std::vector<Element<int>> int_script() {
  std::vector<Tuple<int>> tuples;
  Timestamp ts = 0;
  for (int i = 0; i < 60; ++i) {
    ts += (i % 3 == 0) ? 1 : 2;
    tuples.push_back({ts, 0, i % 10});
  }
  return timed_script(tuples, /*period=*/3, /*flush_to=*/ts + 20);
}

template <typename AddOp>
void mid_stream_continuation(AddOp add_op) {
  const auto script = int_script();

  Flow ref_flow;
  auto& ref_src = ref_flow.add<ScriptSource<int>>(script);
  auto& ref_agg = add_op(ref_flow);
  auto& ref_sink = ref_flow.add<CollectorSink<long>>();
  ref_flow.connect(ref_src.out(), ref_agg.in(0));
  ref_flow.connect(ref_agg.out(), ref_sink.in());
  ref_flow.run();
  ASSERT_FALSE(ref_sink.tuples().empty());

  for (std::size_t cut :
       std::vector<std::size_t>{1, 17, 40, script.size() - 2}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::vector<Element<int>> prefix(script.begin(),
                                     script.begin() + static_cast<long>(cut));
    std::vector<Element<int>> suffix(script.begin() + static_cast<long>(cut),
                                     script.end());

    Flow a;
    auto& a_src = a.add<ScriptSource<int>>(prefix);
    auto& a_agg = add_op(a);
    auto& a_sink = a.add<CollectorSink<long>>();
    a.connect(a_src.out(), a_agg.in(0));
    a.connect(a_agg.out(), a_sink.in());
    a.run();

    SnapshotWriter agg_w, sink_w;
    a_agg.snapshot_to(agg_w);
    a_sink.snapshot_to(sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();

    Flow b;
    auto& b_src = b.add<ScriptSource<int>>(suffix);
    auto& b_agg = add_op(b);
    auto& b_sink = b.add<CollectorSink<long>>();
    b.connect(b_src.out(), b_agg.in(0));
    b.connect(b_agg.out(), b_sink.in());
    SnapshotReader agg_r(agg_bytes), sink_r(sink_bytes);
    b_agg.restore_from(agg_r);
    b_sink.restore_from(sink_r);
    b.run();

    EXPECT_EQ(b_sink.multiset(), ref_sink.multiset());
    EXPECT_EQ(b_sink.late_tuples(), 0);
    EXPECT_TRUE(b_sink.ended());
  }
}

TEST(SwaSnapshot, SlicedMidStreamContinuation) {
  mid_stream_continuation([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidMidStreamContinuation) {
  mid_stream_continuation([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

template <typename AddOp>
void fired_flags_survive_restore(AddOp add_op) {
  Flow a;
  auto& agg = add_op(a);
  auto& sink = a.add<CollectorSink<long>>();
  a.connect(agg.out(), sink.in());
  agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
  agg.in(0).receive(Element<int>{Watermark{20}});  // closes every window
  a.drain();
  ASSERT_GT(sink.tuples().size(), 0u);

  SnapshotWriter w;
  agg.snapshot_to(w);
  const auto bytes = w.take();

  Flow b;
  auto& agg2 = add_op(b);
  auto& sink2 = b.add<CollectorSink<long>>();  // fresh sink: observe only new
  b.connect(agg2.out(), sink2.in());
  SnapshotReader r(bytes);
  agg2.restore_from(r);
  agg2.in(0).receive(Element<int>{Watermark{20}});  // replayed watermark
  b.drain();
  EXPECT_TRUE(sink2.tuples().empty()) << "windows re-fired on replay";
}

TEST(SwaSnapshot, SlicedFiredFlagsSurviveRestore) {
  fired_flags_survive_restore([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidFiredFlagsSurviveRestore) {
  fired_flags_survive_restore([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

// Late re-fires after restore: a snapshot cut between an instance's close
// and a late admitted arrival must still produce the update fire with the
// full (pre- and post-cut) contents.
template <typename AddOp>
void late_update_spans_cut(AddOp add_op) {
  auto run_segments =
      [&](bool cut) -> std::multiset<std::pair<Timestamp, long>> {
    Flow a;
    auto& agg = add_op(a);
    auto& sink = a.add<CollectorSink<long>>();
    a.connect(agg.out(), sink.in());
    agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
    agg.in(0).receive(Element<int>{Watermark{9}});  // closes [0,8); L=2
    a.drain();

    if (!cut) {
      agg.in(0).receive(Element<int>{Tuple<int>{3, 0, 7}});  // late update
      a.drain();
      return sink.multiset();
    }
    SnapshotWriter agg_w, sink_w;
    agg.snapshot_to(agg_w);
    sink.snapshot_to(sink_w);
    const auto agg_bytes = agg_w.take();
    const auto sink_bytes = sink_w.take();

    Flow b;
    auto& agg2 = add_op(b);
    auto& sink2 = b.add<CollectorSink<long>>();
    b.connect(agg2.out(), sink2.in());
    SnapshotReader ar(agg_bytes), sr(sink_bytes);
    agg2.restore_from(ar);
    sink2.restore_from(sr);
    agg2.in(0).receive(Element<int>{Tuple<int>{3, 0, 7}});  // late update
    b.drain();
    return sink2.multiset();
  };
  EXPECT_EQ(run_segments(/*cut=*/true), run_segments(/*cut=*/false));
}

TEST(SwaSnapshot, SlicedLateUpdateSpansCut) {
  late_update_spans_cut([](Flow& f) -> SlicedSum& {
    return add_sliced_sum(f);
  });
}

TEST(SwaSnapshot, MonoidLateUpdateSpansCut) {
  late_update_spans_cut([](Flow& f) -> MonoidSum& {
    return add_monoid_sum(f);
  });
}

// The shared Aggregate layout: [base][version][machine save]. Version 0
// (no state) restores to a fresh operator; 1 (the old has_state bool), 2
// (the old monoid layout) and any other byte raise SnapshotError.
TEST(SwaSnapshot, UnknownCodecVersionIsRejected) {
  const auto key = [](const int& v) { return v % 2; };
  machine_matrix::for_each_machine<long>([&]<typename M>(const char* name) {
    SCOPED_TRACE(name);
    Flow a;
    auto& agg = machine_matrix::add_sum<long, M>(a, kSpec, key);
    agg.in(0).receive(Element<int>{Tuple<int>{2, 0, 5}});
    a.drain();
    SnapshotWriter w, machine_w;
    agg.snapshot_to(w);
    agg.machine().save(machine_w);
    const auto bytes = w.take();
    const std::size_t at = bytes.size() - machine_w.bytes().size() - 1;
    ASSERT_EQ(bytes[at], kAggregateCodecVersion);

    for (std::uint8_t version : {0, 1, 2, 4, 255}) {
      auto patched = bytes;
      patched[at] = version;
      Flow b;
      auto& agg2 = machine_matrix::add_sum<long, M>(b, kSpec, key);
      SnapshotReader r(patched);
      if (version == 0) {
        agg2.restore_from(r);
        EXPECT_EQ(agg2.machine().occupancy(), 0u);
      } else {
        EXPECT_THROW(agg2.restore_from(r), SnapshotError)
            << "version " << int{version};
      }
    }
  });
}

}  // namespace
}  // namespace aggspes
