// Join workload: Table-1 AHJ (WS = 10 s, WA = 1 s, key = word count of
// `change`, f_P = equal-length distinct origs longer than 150 chars) over
// two streams of synthetic Wikipedia edits, run as D (pane-store JoinOp),
// A (AggBasedJoin) and A+ (AplusJoin), both composites on the sliced
// window backend.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "aggbased/aplus.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/operators/join_buffering.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/rate_source.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/sliced_machine.hpp"
#include "harness/experiments.hpp"
#include "workload.hpp"
#include "workloads/wiki.hpp"

namespace perfbench {
namespace {

using aggspes::Flow;
using aggspes::RateSource;
using aggspes::RateSourceConfig;
using aggspes::ThreadedFlow;
using aggspes::WindowSpec;
using aggspes::wiki::WikiEdit;
using Pair = std::pair<WikiEdit, WikiEdit>;
using KeyFn = std::function<int(const WikiEdit&)>;
using PredFn = std::function<bool(const WikiEdit&, const WikiEdit&)>;

/// Table-1 AHJ, re-expressed (the registry's functions are private);
/// check_registry() pins both to the registry row.
constexpr std::size_t kMinLen = 150;
KeyFn ahj_key() {
  return [](const WikiEdit& e) { return aggspes::wiki::word_count(e.change); };
}
PredFn ahj_pred() {
  return [](const WikiEdit& a, const WikiEdit& b) {
    return a.orig.size() == b.orig.size() && a.orig.size() > kMinLen &&
           !aggspes::wiki::equals_ignore_case(a.orig, b.orig);
  };
}

constexpr WindowSpec kSpec{.advance = 1000, .size = 10000};
constexpr Density kDensity{20, 1};     // 0.05 tuples per tick per side
// Watermark spacing D, in ticks. Deliberately not a divisor of WA: a window
// then waits a varying, deterministic time for the watermark that closes
// it, so open-loop latency is not only the fire's processing tail.
constexpr Timestamp kWmPeriod = 700;
constexpr Timestamp kFlush = kSpec.size + 3 * kWmPeriod + 10;
constexpr int kSelectivitySamples = 2000;

class JoinWorkload final : public Workload {
 public:
  JoinWorkload(std::uint64_t seed, double seconds)
      : seed_(seed),
        closed_per_side_(static_cast<std::uint64_t>(950 * seconds)),
        open_rate_(2000),
        open_seconds_(seconds * 1.2 / 25),
        // Same event-time density as the closed loop: rate/2 per side at
        // 0.05 tuples per tick.
        open_ticks_per_s_(static_cast<Timestamp>(open_rate_ / 2 *
                                                 kDensity.num /
                                                 kDensity.den)) {}

  void generate() override {
    const std::uint64_t n = std::max<std::uint64_t>(
        closed_per_side_,
        static_cast<std::uint64_t>(open_rate_ / 2 * open_seconds_) + 1);
    aggspes::wiki::WikiGenerator gl(seed_);
    aggspes::wiki::WikiGenerator gr(seed_ + 1);
    left_.clear();
    right_.clear();
    left_.reserve(n);
    right_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      left_.push_back(gl.make(i));
      right_.push_back(gr.make(i));
    }
  }

  void build_all() override {
    for (Impl impl : kImpls) go(impl, Loop::kClosed, false, false);
    for (Impl impl : kImpls) go(impl, Loop::kOpen, false, false);
  }

  std::string check_registry() override {
    const auto& row = aggspes::harness::experiment("AHJ");
    // The registry's selectivity loop, with this file's functions.
    aggspes::wiki::WikiGenerator ga(42);
    aggspes::wiki::WikiGenerator gb(43);
    const KeyFn key = ahj_key();
    const PredFn pred = ahj_pred();
    std::uint64_t comparisons = 0, matches = 0;
    for (int i = 0; i < kSelectivitySamples; ++i) {
      const WikiEdit a = ga.make(static_cast<std::uint64_t>(i));
      for (int j = 0; j < 16; ++j) {
        const WikiEdit b = gb.make(static_cast<std::uint64_t>(i * 16 + j));
        if (key(a) != key(b)) continue;
        ++comparisons;
        matches += pred(a, b);
      }
    }
    const double mine = comparisons ? static_cast<double>(matches) /
                                          static_cast<double>(comparisons)
                                    : 0.0;
    const double reg = row.measure_selectivity(kSelectivitySamples);
    if (mine != reg) {
      return "AHJ selectivity " + json_number(mine) + " != registry " +
             json_number(reg);
    }
    // The registry's deterministic D probe (wiki_gen(7) / wiki_gen(8),
    // 160 tuples per side spread over 4 WS), digested the registry's way.
    const Timestamp span = 4 * kSpec.size;
    std::vector<Tuple<WikiEdit>> ls, rs;
    aggspes::wiki::WikiGenerator g7(7), g8(8);
    for (int i = 0; i < 160; ++i) {
      const Timestamp ts = span * i / 160;
      ls.push_back({ts, 0, g7.make(static_cast<std::uint64_t>(i))});
      rs.push_back({ts, 0, g8.make(static_cast<std::uint64_t>(i))});
    }
    const Timestamp period = kSpec.advance / 2;
    Flow flow;
    auto& s1 = flow.add<aggspes::TimedSource<WikiEdit>>(
        std::move(ls), period, span + kSpec.size + 2 * period);
    auto& s2 = flow.add<aggspes::TimedSource<WikiEdit>>(
        std::move(rs), period, span + kSpec.size + 2 * period);
    auto& op = flow.add<aggspes::BufferingJoinOp<WikiEdit, WikiEdit, int>>(
        kSpec, key, key, pred);
    auto& sink = flow.add<aggspes::CollectorSink<Pair>>();
    flow.connect(s1.out(), op.in_left());
    flow.connect(s2.out(), op.in_right());
    flow.connect(op.out(), sink.in());
    flow.run();
    Digest p;
    for (const auto& t : sink.tuples()) {
      ++p.tuples;
      p.checksum +=
          static_cast<std::uint64_t>(aggspes::hash_values(t.ts, t.value));
    }
    const auto want = row.probe(Impl::kDedicated,
                                aggspes::harness::WindowBackend::kBuffering);
    if (!(p == want)) return "AHJ outputs differ from the registry probe";
    return "";
  }

  PhaseResult run(Impl impl, Loop loop, bool traced) override {
    return go(impl, loop, traced, true);
  }

  /// D's phase takes about half as long as A's or A+'s.
  int closed_phases(Impl impl) const override {
    return impl == Impl::kDedicated ? 2 : 1;
  }

  void prepare_references() override {
    PhaseResult closed;
    closed.loop = Loop::kClosed;
    closed.sent_per_source = {closed_per_side_, closed_per_side_};
    reference(closed);
    PhaseResult open;
    open.loop = Loop::kOpen;
    const auto per_side =
        static_cast<std::uint64_t>(open_rate_ / 2 * open_seconds_);
    open.sent_per_source = {per_side, per_side};
    reference(open);
  }

  /// The deterministic single-threaded Flow with the buffering oracle
  /// join over exactly the tuples each side sent.
  Digest reference(const PhaseResult& r) override {
    const auto key = std::make_tuple(r.loop, r.sent_per_source.at(0),
                                     r.sent_per_source.at(1));
    auto it = references_.find(key);
    if (it != references_.end()) return it->second;
    auto side = [&](const std::vector<WikiEdit>& buf, std::uint64_t n) {
      std::vector<Tuple<WikiEdit>> ts;
      ts.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ts.push_back({event_ts(r.loop, i), 0, buf[i]});
      }
      return ts;
    };
    const Timestamp last =
        event_ts(r.loop, std::max(std::get<1>(key), std::get<2>(key)));
    Flow flow;
    auto& s1 = flow.add<aggspes::TimedSource<WikiEdit>>(
        side(left_, std::get<1>(key)), kWmPeriod, last + kFlush);
    auto& s2 = flow.add<aggspes::TimedSource<WikiEdit>>(
        side(right_, std::get<2>(key)), kWmPeriod, last + kFlush);
    auto& op = flow.add<aggspes::BufferingJoinOp<WikiEdit, WikiEdit, int>>(
        kSpec, ahj_key(), ahj_key(), ahj_pred());
    auto& sink = flow.add<CheckSink<Pair>>(false);
    flow.connect(s1.out(), op.in_left());
    flow.connect(s2.out(), op.in_right());
    flow.connect(op.out(), sink.in());
    flow.run();
    references_[key] = sink.digest();
    return sink.digest();
  }

  void describe(Outcome& o) override {
    o.note("job", json_string("Table-1 AHJ: WS=10000 WA=1000 ticks, key "
                              "word_count(change), |orig| > 150"));
    o.note("closed_loop_tuples_per_side", std::to_string(closed_per_side_));
    o.note("event_time_tuples_per_tick_per_side",
           json_number(static_cast<double>(kDensity.den) /
                       static_cast<double>(kDensity.num)));
    o.note("wm_period_ticks", std::to_string(kWmPeriod));
    o.note("open_loop_rate_tps", json_number(open_rate_));
    o.note("open_loop_ticks_per_s", std::to_string(open_ticks_per_s_));
    o.note("open_loop_seconds", json_number(open_seconds_));
  }

 private:
  /// Mean cost of one f_P call, timed in a tight single-threaded loop over
  /// same-key pairs of this workload's inputs (the pairs the join tests).
  double pred_cost_ns() {
    if (pred_ns_ > 0) return pred_ns_;
    const KeyFn key = ahj_key();
    const PredFn pred = ahj_pred();
    std::map<int, std::vector<const WikiEdit*>> by_key;
    const std::size_t n = std::min<std::size_t>(right_.size(), 4000);
    for (std::size_t i = 0; i < n; ++i) {
      by_key[key(right_[i])].push_back(&right_[i]);
    }
    std::uint64_t calls = 0, matches = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      for (const WikiEdit* b : by_key[key(left_[i])]) {
        matches += pred(left_[i], *b);
        ++calls;
      }
    }
    const std::uint64_t t1 = now_ns();
    pred_matches_ = matches;  // keeps the loop observable
    pred_ns_ = static_cast<double>(t1 - t0) / static_cast<double>(calls);
    return pred_ns_;
  }

  Timestamp event_ts(Loop loop, std::uint64_t i) const {
    return loop == Loop::kClosed
               ? kDensity.ts(i)
               : rate_source_ts(i, open_rate_ / 2, open_ticks_per_s_);
  }

  /// Wiring per impl (closed loop: one replay source feeds both sides in
  /// event-time lockstep; open loop: one RateSource thread per side):
  ///   D   sources → JoinOp (pane store) → sink
  ///   A   sources → AggBasedJoin (A1, A2 → A3 → C2, A1 ⟲, C3, A2)
  ///   A+  sources → AplusJoin (A1, A2 → match A+) → sink
  PhaseResult go(Impl impl, Loop loop, bool traced, bool execute) {
    PhaseResult r;
    r.impl = impl;
    r.loop = loop;
    r.traced = traced;
    Instruments ins(traced);
    ThreadedFlow flow;

    ReplaySource<WikiEdit>* replay = nullptr;
    std::vector<RateSource<WikiEdit>*> rated;
    std::vector<std::pair<NodeBase*, Outlet<WikiEdit>*>> srcs;
    if (loop == Loop::kClosed) {
      replay = &flow.add<ReplaySource<WikiEdit>>(
          std::vector<const std::vector<WikiEdit>*>{&left_, &right_},
          closed_per_side_, kDensity, kWmPeriod, kFlush);
      srcs.emplace_back(replay, &replay->out(0));
      srcs.emplace_back(replay, &replay->out(1));
    } else {
      for (const std::vector<WikiEdit>* buf : {&left_, &right_}) {
        RateSourceConfig cfg{.rate = open_rate_ / 2,
                             .duration_s = open_seconds_,
                             .ticks_per_s = open_ticks_per_s_,
                             .wm_period = kWmPeriod,
                             .flush_horizon = kFlush};
        auto& s = flow.add<RateSource<WikiEdit>>(
            cfg, [buf](std::uint64_t i) { return (*buf)[i]; });
        rated.push_back(&s);
        srcs.emplace_back(&s, &s.out());
      }
    }
    auto& sink = flow.add<CheckSink<Pair>>(loop == Loop::kOpen);
    NodeClock* sink_clock = ins.node("sink");
    // Counted only: f_P runs in a few ns, below what a clock read per call
    // can resolve, so its cost comes from pred_cost_ns() instead.
    UdfClock* pred_clock = ins.udf("f_P", false);
    UdfClock* kl_clock = ins.udf("f_K1", false);
    UdfClock* kr_clock = ins.udf("f_K2", false);
    const PredFn pred = ins.wrap(ahj_pred(), pred_clock);
    const KeyFn kl = ins.wrap(ahj_key(), kl_clock);
    const KeyFn kr = ins.wrap(ahj_key(), kr_clock);
    std::vector<NodeClock*> entry;
    std::function<void(PhaseResult&)> collect;

    // Wires both sources into (left, right) and the output into the sink.
    auto wire = [&](NodeBase& ln, Consumer<WikiEdit>& lin, NodeBase& rn,
                    Consumer<WikiEdit>& rin, NodeBase& on, Outlet<Pair>& out,
                    NodeClock* lc, NodeClock* rc) {
      r.source_edges = {flow.edge_count(), flow.edge_count() + 1};
      flow.connect(*srcs[0].first, *srcs[0].second, ln, ins.port(lin, lc));
      flow.connect(*srcs[1].first, *srcs[1].second, rn, ins.port(rin, rc));
      flow.connect(on, out, sink, ins.port(sink.in(), sink_clock));
    };
    switch (impl) {
      case Impl::kDedicated: {
        auto& op = flow.add<aggspes::JoinOp<WikiEdit, WikiEdit, int>>(
            kSpec, kl, kr, pred);
        op.reset_diagnostics();
        entry.push_back(ins.node("entry.D"));
        r.entry_out_edges = {flow.edge_count() + 2};
        wire(op, op.in_left(), op, op.in_right(), op, op.out(), entry[0],
             entry[0]);
        auto* p = &op;
        collect = [p](PhaseResult& pr) {
          pr.peak_stored = p->peak_occupancy();
          pr.peak_panes = p->peak_panes();
          pr.dropped_late = p->dropped_late();
        };
        break;
      }
      case Impl::kAggBased: {
        const std::size_t base = flow.edge_count();
        aggspes::AggBasedJoin<WikiEdit, WikiEdit, int,
                              aggspes::swa::SlicedWindowMachine>
            op(flow, kSpec, kl, kr, pred, kWmPeriod);
        // The side wrappers' edges into the match come first.
        r.entry_out_edges = {base, base + 1};
        entry.push_back(ins.node("entry.A.left"));
        entry.push_back(ins.node("entry.A.right"));
        wire(op.left_in_node(), op.left_in(), op.right_in_node(),
             op.right_in(), op.out_node(), op.out(), entry[0], entry[1]);
        auto* m = &op.match().machine();
        m->reset_diagnostics();
        collect = [m](PhaseResult& pr) {
          pr.peak_stored = m->peak_occupancy();
          pr.peak_panes = m->peak_panes();
          pr.dropped_late = m->dropped_late();
        };
        break;
      }
      case Impl::kAPlus: {
        const std::size_t base = flow.edge_count();
        aggspes::AplusJoin<WikiEdit, WikiEdit, int,
                           aggspes::swa::SlicedWindowMachine>
            op(flow, kSpec, kl, kr, pred);
        r.entry_out_edges = {base, base + 1};
        entry.push_back(ins.node("entry.Aplus.left"));
        entry.push_back(ins.node("entry.Aplus.right"));
        wire(op.left_in_node(), op.left_in(), op.right_in_node(),
             op.right_in(), op.out_node(), op.out(), entry[0], entry[1]);
        auto* m = &op.match().machine();
        m->reset_diagnostics();
        collect = [m](PhaseResult& pr) {
          pr.peak_stored = m->peak_occupancy();
          pr.peak_panes = m->peak_panes();
          pr.dropped_late = m->dropped_late();
        };
        break;
      }
    }

    r.nodes = flow.node_count();
    r.edges = flow.edge_count();
    if (!execute) return r;
    flow.run();

    r.gauges = flow.channel_gauges();
    r.out = sink.digest();
    r.late_outputs = sink.late();
    if (loop == Loop::kClosed) {
      r.sent_per_source = {replay->count(), replay->count()};
      r.source_pump_ns = replay->pump_ns();
      r.offered = r.sent = 2 * closed_per_side_;
      r.elapsed_s =
          static_cast<double>(sink.end_ns() - replay->start_ns()) / 1e9;
    } else {
      for (const auto* s : rated) {
        r.sent_per_source.push_back(s->emitted());
        r.sent += s->emitted();
        r.cutoff = r.cutoff || s->cutoff_fired() != 0;
        r.source_lag_ms = std::max(
            r.source_lag_ms,
            std::max(0.0, s->emission_seconds() - open_seconds_) * 1e3);
      }
      r.offered =
          2 * static_cast<std::uint64_t>(open_rate_ / 2 * open_seconds_);
      r.latency = sink.samples();
    }
    collect(r);
    if (traced) {
      r.entry_busy_ns = busy_of(entry);
      r.sink_busy_ns = sink_clock->busy_ns.get();
      r.pred_calls = pred_clock->calls.get();
      r.pred_ns = pred_cost_ns();
      r.udf_ns = r.pred_ns * static_cast<double>(r.pred_calls);
      // f_P runs inside D's JoinOp; in A / A+ it runs in the match A3,
      // not in the side wrappers the sources feed.
      if (impl == Impl::kDedicated) {
        r.entry_udf_ns = static_cast<std::uint64_t>(r.udf_ns);
      }
      r.key_calls = kl_clock->calls.get() + kr_clock->calls.get();
    }
    return r;
  }

  std::uint64_t seed_;
  std::uint64_t closed_per_side_;
  double open_rate_;  ///< both sides together
  double open_seconds_;
  Timestamp open_ticks_per_s_;
  std::vector<WikiEdit> left_;
  std::vector<WikiEdit> right_;
  std::map<std::tuple<Loop, std::uint64_t, std::uint64_t>, Digest>
      references_;
  double pred_ns_{0};
  std::uint64_t pred_matches_{0};
};

}  // namespace

std::unique_ptr<Workload> make_join_workload(std::uint64_t seed,
                                             double seconds) {
  return std::make_unique<JoinWorkload>(seed, seconds);
}

}  // namespace perfbench
