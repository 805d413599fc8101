// Reference-SPE validation (the paper's motivating application, § 1
// benefits (2)/(4) and § 6: "a reference SPE that relies on AggBased
// operators can certainly be used for testing and validation purposes").
//
// Given an operator's definition (its functions and window parameters),
// this harness runs the *dedicated* implementation and the *AggBased*
// reference side by side on the same finite stream and reports whether the
// output multisets — payloads, event times, multiplicities — coincide.
// A mismatch pinpoints the first differing (timestamp, payload) group.
#pragma once

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aggbased/flatmap.hpp"
#include "aggbased/join.hpp"
#include "core/operators/join.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/operators/stateless.hpp"
#include "core/runtime/threaded_runtime.hpp"

namespace aggspes {

/// Outcome of one validation run.
struct ValidationReport {
  bool match{false};
  std::size_t dedicated_outputs{0};
  std::size_t reference_outputs{0};
  /// Human-readable description of the first divergence (empty on match).
  std::string divergence;

  explicit operator bool() const { return match; }
};

namespace detail {

/// Compares two output multisets and renders the first divergence.
template <typename Out, typename Format>
ValidationReport compare(const std::multiset<std::pair<Timestamp, Out>>& d,
                         const std::multiset<std::pair<Timestamp, Out>>& r,
                         Format&& fmt) {
  ValidationReport rep;
  rep.dedicated_outputs = d.size();
  rep.reference_outputs = r.size();
  rep.match = d == r;
  if (rep.match) return rep;
  // Find the first element present in one side only.
  auto di = d.begin();
  auto ri = r.begin();
  while (di != d.end() && ri != r.end() && *di == *ri) {
    ++di;
    ++ri;
  }
  // The side whose element sorts first holds the extra element (the other
  // side skipped past it).
  std::ostringstream os;
  if (ri == r.end() || (di != d.end() && *di < *ri)) {
    os << "dedicated has ⟨t=" << di->first << ", " << fmt(di->second)
       << "⟩ missing from the reference";
  } else {
    os << "reference has ⟨t=" << ri->first << ", " << fmt(ri->second)
       << "⟩ missing from the dedicated run";
  }
  rep.divergence = os.str();
  return rep;
}

}  // namespace detail

/// Validates a FlatMap definition: dedicated FM vs the Theorem 1 reference
/// (Listing 1 + Listing 3 + guards), on `input` with watermark period D.
/// `fmt` renders an output payload for divergence messages.
template <typename In, typename Out, typename Format>
ValidationReport validate_flatmap(FlatMapFn<In, Out> f_fm,
                                  const std::vector<Tuple<In>>& input,
                                  Timestamp watermark_period, Format&& fmt) {
  Timestamp max_ts = 0;
  for (const auto& t : input) max_ts = std::max(max_ts, t.ts);
  const Timestamp flush = max_ts + 3 * watermark_period + 5;

  Flow ded;
  auto& d_src = ded.add<TimedSource<In>>(input, watermark_period, flush);
  auto& d_op = ded.add<FlatMapOp<In, Out>>(f_fm);
  auto& d_sink = ded.add<CollectorSink<Out>>();
  ded.connect(d_src.out(), d_op.in());
  ded.connect(d_op.out(), d_sink.in());
  ded.run();

  Flow ref;
  auto& r_src = ref.add<TimedSource<In>>(input, watermark_period, flush);
  AggBasedFlatMap<In, Out> r_op(ref, f_fm, watermark_period);
  auto& r_sink = ref.add<CollectorSink<Out>>();
  ref.connect(r_src.out(), r_op.in());
  ref.connect(r_op.out(), r_sink.in());
  ref.run();

  return detail::compare<Out>(d_sink.multiset(), r_sink.multiset(), fmt);
}

/// Validates a Join definition: dedicated J vs the Theorem 2 reference
/// (Listing 2 + Listing 3 + guards). Outputs are compared as formatted
/// pairs (payload pairs must be totally ordered for the multiset).
template <typename L, typename R, typename Key, typename Format>
ValidationReport validate_join(WindowSpec spec,
                               std::function<Key(const L&)> f_k1,
                               std::function<Key(const R&)> f_k2,
                               std::function<bool(const L&, const R&)> f_p,
                               const std::vector<Tuple<L>>& lefts,
                               const std::vector<Tuple<R>>& rights,
                               Timestamp watermark_period, Format&& fmt) {
  Timestamp max_ts = 0;
  for (const auto& t : lefts) max_ts = std::max(max_ts, t.ts);
  for (const auto& t : rights) max_ts = std::max(max_ts, t.ts);
  const Timestamp flush = max_ts + spec.size + 3 * watermark_period + 5;
  using Out = std::pair<L, R>;

  auto collect = [&fmt](const CollectorSink<Out>& sink) {
    // Pairs need not be totally ordered; compare via their rendering.
    std::multiset<std::pair<Timestamp, std::string>> m;
    for (const auto& t : sink.tuples()) m.emplace(t.ts, fmt(t.value));
    return m;
  };

  Flow ded;
  auto& d_s1 = ded.add<TimedSource<L>>(lefts, watermark_period, flush);
  auto& d_s2 = ded.add<TimedSource<R>>(rights, watermark_period, flush);
  auto& d_op = ded.add<JoinOp<L, R, Key>>(spec, f_k1, f_k2, f_p);
  auto& d_sink = ded.add<CollectorSink<Out>>();
  ded.connect(d_s1.out(), d_op.in_left());
  ded.connect(d_s2.out(), d_op.in_right());
  ded.connect(d_op.out(), d_sink.in());
  ded.run();

  Flow ref;
  auto& r_s1 = ref.add<TimedSource<L>>(lefts, watermark_period, flush);
  auto& r_s2 = ref.add<TimedSource<R>>(rights, watermark_period, flush);
  AggBasedJoin<L, R, Key> r_op(ref, spec, f_k1, f_k2, f_p,
                               watermark_period);
  auto& r_sink = ref.add<CollectorSink<Out>>();
  ref.connect(r_s1.out(), r_op.left_in());
  ref.connect(r_s2.out(), r_op.right_in());
  ref.connect(r_op.out(), r_sink.in());
  ref.run();

  return detail::compare<std::string>(collect(d_sink), collect(r_sink),
                                      [](const std::string& s) { return s; });
}

}  // namespace aggspes
