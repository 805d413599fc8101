#include "harness/experiments.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/hashing.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "workloads/scans.hpp"
#include "workloads/wiki.hpp"

namespace aggspes::harness {
namespace {

using wiki::WikiEdit;
using scans::CartesianScan;
using scans::Scan2D;

// ---------------------------------------------------------------------
// Deterministic backend probes (single-threaded Flow, fixed scripts):
// same pipeline shapes as run_fm_t / run_join_t, but replayed through the
// deterministic runtime so that two backends — or two repetitions — must
// produce byte-identical ProbeResults.
// ---------------------------------------------------------------------

constexpr int kProbeTuples = 256;        // FM sample size
constexpr int kProbeJoinPerSide = 160;   // J sample size per side
constexpr Timestamp kProbePeriod = 25;   // FM watermark spacing D

template <typename Out>
ProbeResult summarize(const CollectorSink<Out>& sink) {
  ProbeResult p;
  p.tuples = static_cast<std::uint64_t>(sink.tuples().size());
  for (const auto& t : sink.tuples()) {
    p.checksum += static_cast<std::uint64_t>(hash_values(t.ts, t.value));
  }
  return p;
}

template <typename In, typename Out,
          template <typename, typename> class MachineT>
ProbeResult probe_fm_t(Impl impl, std::function<In(std::uint64_t)> gen,
                       FlatMapFn<In, Out> f_fm) {
  std::vector<Tuple<In>> tuples;
  tuples.reserve(kProbeTuples);
  for (int i = 0; i < kProbeTuples; ++i) {
    tuples.push_back(
        {static_cast<Timestamp>(i), 0, gen(static_cast<std::uint64_t>(i))});
  }
  Flow flow;
  auto& src = flow.add<TimedSource<In>>(std::move(tuples), kProbePeriod,
                                        kProbeTuples + 3 * kProbePeriod);
  auto& sink = flow.add<CollectorSink<Out>>();
  switch (impl) {
    case Impl::kDedicated: {
      auto& op = flow.add<FlatMapOp<In, Out>>(std::move(f_fm));
      flow.connect(src.out(), op.in());
      flow.connect(op.out(), sink.in());
      break;
    }
    case Impl::kAggBased: {
      AggBasedFlatMap<In, Out, MachineT> op(flow, std::move(f_fm),
                                            /*lateness=*/kProbePeriod);
      flow.connect(src, src.out(), op.in_node(), op.in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      break;
    }
    case Impl::kAPlus: {
      auto& op = make_aplus_flatmap<In, Out, MachineT>(flow, std::move(f_fm));
      flow.connect(src.out(), op.in());
      flow.connect(op.out(), sink.in());
      break;
    }
  }
  flow.run();
  return summarize(sink);
}

template <typename In, typename Out>
ProbeResult probe_fm(Impl impl, WindowBackend b,
                     std::function<In(std::uint64_t)> gen,
                     FlatMapFn<In, Out> f_fm) {
  if (b == WindowBackend::kSlicedReplay) {
    return probe_fm_t<In, Out, swa::SlicedWindowMachine>(
        impl, std::move(gen), std::move(f_fm));
  }
  return probe_fm_t<In, Out, WindowMachine>(impl, std::move(gen),
                                            std::move(f_fm));
}

template <typename L, typename R, typename Key,
          template <typename, typename> class MachineT,
          template <typename, typename, typename> class DJoinT>
ProbeResult probe_join_t(Impl impl, std::function<L(std::uint64_t)> gen_l,
                         std::function<R(std::uint64_t)> gen_r,
                         WindowSpec spec, std::function<Key(const L&)> f_k1,
                         std::function<Key(const R&)> f_k2,
                         std::function<bool(const L&, const R&)> f_p) {
  // Spread the sample over several window instances so panes open, slide
  // and purge inside the probe.
  const Timestamp span = 4 * spec.size;
  std::vector<Tuple<L>> lefts;
  std::vector<Tuple<R>> rights;
  lefts.reserve(kProbeJoinPerSide);
  rights.reserve(kProbeJoinPerSide);
  for (int i = 0; i < kProbeJoinPerSide; ++i) {
    const Timestamp ts = span * i / kProbeJoinPerSide;
    lefts.push_back({ts, 0, gen_l(static_cast<std::uint64_t>(i))});
    rights.push_back({ts, 0, gen_r(static_cast<std::uint64_t>(i))});
  }
  const Timestamp period = std::max<Timestamp>(1, spec.advance / 2);
  const Timestamp flush = span + spec.size + 2 * period;
  Flow flow;
  auto& s1 = flow.add<TimedSource<L>>(std::move(lefts), period, flush);
  auto& s2 = flow.add<TimedSource<R>>(std::move(rights), period, flush);
  auto& sink = flow.add<CollectorSink<std::pair<L, R>>>();
  switch (impl) {
    case Impl::kDedicated: {
      auto& op = flow.add<DJoinT<L, R, Key>>(spec, std::move(f_k1),
                                             std::move(f_k2), std::move(f_p));
      flow.connect(s1.out(), op.in_left());
      flow.connect(s2.out(), op.in_right());
      flow.connect(op.out(), sink.in());
      break;
    }
    case Impl::kAggBased: {
      AggBasedJoin<L, R, Key, MachineT> op(flow, spec, std::move(f_k1),
                                           std::move(f_k2), std::move(f_p),
                                           /*lateness=*/period);
      flow.connect(s1, s1.out(), op.left_in_node(), op.left_in());
      flow.connect(s2, s2.out(), op.right_in_node(), op.right_in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      break;
    }
    case Impl::kAPlus: {
      AplusJoin<L, R, Key, MachineT> op(flow, spec, std::move(f_k1),
                                        std::move(f_k2), std::move(f_p));
      flow.connect(s1, s1.out(), op.left_in_node(), op.left_in());
      flow.connect(s2, s2.out(), op.right_in_node(), op.right_in());
      flow.connect(op.out_node(), op.out(), sink, sink.in());
      break;
    }
  }
  flow.run();
  return summarize(sink);
}

template <typename L, typename R, typename Key>
ProbeResult probe_join(Impl impl, WindowBackend b,
                       std::function<L(std::uint64_t)> gen_l,
                       std::function<R(std::uint64_t)> gen_r,
                       WindowSpec spec, std::function<Key(const L&)> f_k1,
                       std::function<Key(const R&)> f_k2,
                       std::function<bool(const L&, const R&)> f_p) {
  if (b == WindowBackend::kSlicedReplay) {
    return probe_join_t<L, R, Key, swa::SlicedWindowMachine, JoinOp>(
        impl, std::move(gen_l), std::move(gen_r), spec, std::move(f_k1),
        std::move(f_k2), std::move(f_p));
  }
  return probe_join_t<L, R, Key, WindowMachine, BufferingJoinOp>(
      impl, std::move(gen_l), std::move(gen_r), spec, std::move(f_k1),
      std::move(f_k2), std::move(f_p));
}

std::vector<WindowBackend> ab_backends() {
  return {WindowBackend::kBuffering, WindowBackend::kSlicedReplay};
}

// ---------------------------------------------------------------------
// Server family (synthetic Wikipedia edits)
// ---------------------------------------------------------------------

std::function<WikiEdit(std::uint64_t)> wiki_gen(std::uint64_t seed) {
  auto gen = std::make_shared<wiki::WikiGenerator>(seed);
  return [gen](std::uint64_t i) { return gen->make(i); };
}

// f_FM of each server FM experiment (Table 1, upper-case F rows).
FlatMapFn<WikiEdit, std::string> wiki_fm(const std::string& id) {
  if (id == "LLF") {  // most frequent word in orig; forward if > 10 chars
    return [](const WikiEdit& e) {
      std::string w = wiki::most_frequent_word(e.orig);
      return w.size() > 10 ? std::vector<std::string>{std::move(w)}
                           : std::vector<std::string>{};
    };
  }
  if (id == "ALF") {  // most frequent word in orig
    return [](const WikiEdit& e) {
      return std::vector<std::string>{wiki::most_frequent_word(e.orig)};
    };
  }
  if (id == "HLF") {  // top-3 words in orig, separate tuples
    return [](const WikiEdit& e) {
      return wiki::top_k_words(e.orig, 3);
    };
  }
  if (id == "LHF") {  // mfw of all three fields; forward if all > 10 chars
    return [](const WikiEdit& e) {
      std::string a = wiki::most_frequent_word(e.orig);
      std::string b = wiki::most_frequent_word(e.change);
      std::string c = wiki::most_frequent_word(e.updated);
      if (a.size() > 10 && b.size() > 10 && c.size() > 10) {
        return std::vector<std::string>{a + " " + b + " " + c};
      }
      return std::vector<std::string>{};
    };
  }
  if (id == "AHF") {  // mfw of all three fields, single tuple
    return [](const WikiEdit& e) {
      return std::vector<std::string>{wiki::most_frequent_word(e.orig) +
                                      " " +
                                      wiki::most_frequent_word(e.change) +
                                      " " +
                                      wiki::most_frequent_word(e.updated)};
    };
  }
  if (id == "HHF") {  // top-3 of all three fields, separate triplets
    return [](const WikiEdit& e) {
      auto a = wiki::top_k_words(e.orig, 3);
      auto b = wiki::top_k_words(e.change, 3);
      auto c = wiki::top_k_words(e.updated, 3);
      const std::size_t n = std::min({a.size(), b.size(), c.size()});
      std::vector<std::string> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(a[i] + " " + b[i] + " " + c[i]);
      }
      return out;
    };
  }
  throw std::out_of_range("unknown wiki FM experiment: " + id);
}

// Server joins: match distinct (case-insensitive) origs of equal length
// above a threshold; key-by word count of change (Table 1 LLJ row).
std::function<bool(const WikiEdit&, const WikiEdit&)> wiki_join_pred(
    std::size_t min_len) {
  return [min_len](const WikiEdit& a, const WikiEdit& b) {
    return a.orig.size() == b.orig.size() && a.orig.size() > min_len &&
           !wiki::equals_ignore_case(a.orig, b.orig);
  };
}

std::function<int(const WikiEdit&)> wiki_join_key() {
  return [](const WikiEdit& e) { return wiki::word_count(e.change); };
}

// ---------------------------------------------------------------------
// Edge family (synthetic 2D scans)
// ---------------------------------------------------------------------

std::function<Scan2D(std::uint64_t)> scan_gen(std::uint64_t seed) {
  auto gen = std::make_shared<scans::ScanGenerator>(seed);
  return [gen](std::uint64_t i) { return gen->make(i); };
}

// Reference point behind the sensor: tuned so ~70% of scans average more
// than 3 m from it (lhf's Table 1 selectivity).
constexpr double kRefX = 0.0;
constexpr double kRefY = -2.0;

FlatMapFn<Scan2D, CartesianScan> scan_fm(const std::string& id) {
  if (id == "llf") {  // polar->Cartesian; forward if avg dist > 3 m
    return [](const Scan2D& s) {
      return scans::avg_dist(s) > 3.0
                 ? std::vector<CartesianScan>{scans::to_cartesian(s)}
                 : std::vector<CartesianScan>{};
    };
  }
  if (id == "alf") {
    return [](const Scan2D& s) {
      return std::vector<CartesianScan>{scans::to_cartesian(s)};
    };
  }
  if (id == "hlf") {  // convert, split/forward in 3 parts
    return [](const Scan2D& s) {
      return scans::split3(scans::to_cartesian(s));
    };
  }
  if (id == "lhf") {  // convert from reference; forward if avg dist > 3 m
    return [](const Scan2D& s) {
      CartesianScan c = scans::to_cartesian_from_reference(s, kRefX, kRefY);
      return scans::avg_dist_from_reference(c) > 3.0
                 ? std::vector<CartesianScan>{std::move(c)}
                 : std::vector<CartesianScan>{};
    };
  }
  if (id == "ahf") {
    return [](const Scan2D& s) {
      return std::vector<CartesianScan>{
          scans::to_cartesian_from_reference(s, kRefX, kRefY)};
    };
  }
  if (id == "hhf") {
    return [](const Scan2D& s) {
      return scans::split3(
          scans::to_cartesian_from_reference(s, kRefX, kRefY));
    };
  }
  throw std::out_of_range("unknown scan FM experiment: " + id);
}

std::function<bool(const Scan2D&, const Scan2D&)> scan_join_pred(
    double max_sum_diff) {
  return [max_sum_diff](const Scan2D& a, const Scan2D& b) {
    return a.id != b.id && scans::sum_abs_diff(a, b) < max_sum_diff;
  };
}

std::function<int(const Scan2D&)> scan_join_key() {
  return [](const Scan2D& s) { return scans::mean_bucket(s); };
}

/// Join runs accelerate event time 10x and run longer than FM runs: the
/// paper's join windows span 1-10 s of event time, far beyond a sub-second
/// measure window at 1 tick = 1 ms. With 1 tick = 0.1 ms of wall time,
/// several window instances open, close and purge inside every run.
RunConfig join_config(RunConfig cfg) {
  cfg.ticks_per_s = 10000;
  cfg.wm_period = 500;  // D = 500 ticks = 50 ms wall: same C1 cadence
  cfg.duration_s = 2.0;
  cfg.warmup_s = 0.6;
  cfg.cooldown_s = 0.2;
  return cfg;
}

// ---------------------------------------------------------------------
// Registry assembly
// ---------------------------------------------------------------------

Experiment make_wiki_fm(std::string id, std::string sel, std::string cost,
                        double nominal, std::string notes,
                        std::vector<double> ladder) {
  Experiment e;
  e.id = id;
  e.join = false;
  e.edge = false;
  e.selectivity_class = std::move(sel);
  e.cost_class = std::move(cost);
  e.nominal_selectivity = nominal;
  e.notes = std::move(notes);
  e.rate_ladder = std::move(ladder);
  e.backends = ab_backends();
  e.run = [id](Impl impl, const RunConfig& cfg) {
    return run_fm<WikiEdit, std::string>(impl, cfg, wiki_gen(cfg.seed),
                                         wiki_fm(id));
  };
  e.probe = [id](Impl impl, WindowBackend b) {
    return probe_fm<WikiEdit, std::string>(impl, b, wiki_gen(7),
                                           wiki_fm(id));
  };
  e.measure_selectivity = [id](int samples) {
    auto gen = wiki_gen(42);
    auto f = wiki_fm(id);
    std::uint64_t outputs = 0;
    for (int i = 0; i < samples; ++i) {
      outputs += f(gen(static_cast<std::uint64_t>(i))).size();
    }
    return static_cast<double>(outputs) / samples;
  };
  return e;
}

Experiment make_wiki_join(std::string id, std::string sel, std::string cost,
                          double nominal, std::string notes,
                          std::size_t min_len, Timestamp ws_ms,
                          std::vector<double> ladder) {
  Experiment e;
  e.id = id;
  e.join = true;
  e.edge = false;
  e.selectivity_class = std::move(sel);
  e.cost_class = std::move(cost);
  e.nominal_selectivity = nominal;
  e.notes = std::move(notes);
  e.rate_ladder = std::move(ladder);
  const WindowSpec spec{.advance = 1000, .size = ws_ms};  // WA = 1 s
  e.backends = ab_backends();
  e.run = [min_len, spec](Impl impl, const RunConfig& cfg) {
    RunConfig jc = cfg.keep_timing ? cfg : join_config(cfg);
    return run_join<WikiEdit, WikiEdit, int>(
        impl, jc, wiki_gen(jc.seed), wiki_gen(jc.seed + 1), spec,
        wiki_join_key(), wiki_join_key(), wiki_join_pred(min_len));
  };
  e.probe = [min_len, spec](Impl impl, WindowBackend b) {
    return probe_join<WikiEdit, WikiEdit, int>(
        impl, b, wiki_gen(7), wiki_gen(8), spec, wiki_join_key(),
        wiki_join_key(), wiki_join_pred(min_len));
  };
  e.measure_selectivity = [min_len](int samples) {
    auto gen_a = wiki_gen(42);
    auto gen_b = wiki_gen(43);
    auto pred = wiki_join_pred(min_len);
    auto key = wiki_join_key();
    std::uint64_t comparisons = 0, matches = 0;
    for (int i = 0; i < samples; ++i) {
      WikiEdit a = gen_a(static_cast<std::uint64_t>(i));
      for (int j = 0; j < 16; ++j) {
        WikiEdit b = gen_b(static_cast<std::uint64_t>(i * 16 + j));
        if (key(a) != key(b)) continue;  // the engine only compares per key
        ++comparisons;
        matches += pred(a, b);
      }
    }
    return comparisons ? static_cast<double>(matches) / comparisons : 0.0;
  };
  return e;
}

Experiment make_scan_fm(std::string id, std::string sel, std::string cost,
                        double nominal, std::string notes,
                        std::vector<double> ladder) {
  Experiment e;
  e.id = id;
  e.join = false;
  e.edge = true;
  e.selectivity_class = std::move(sel);
  e.cost_class = std::move(cost);
  e.nominal_selectivity = nominal;
  e.notes = std::move(notes);
  e.rate_ladder = std::move(ladder);
  e.backends = ab_backends();
  e.run = [id](Impl impl, const RunConfig& cfg) {
    return run_fm<Scan2D, CartesianScan>(impl, cfg, scan_gen(cfg.seed),
                                         scan_fm(id));
  };
  e.probe = [id](Impl impl, WindowBackend b) {
    return probe_fm<Scan2D, CartesianScan>(impl, b, scan_gen(7),
                                           scan_fm(id));
  };
  e.measure_selectivity = [id](int samples) {
    auto gen = scan_gen(42);
    auto f = scan_fm(id);
    std::uint64_t outputs = 0;
    for (int i = 0; i < samples; ++i) {
      outputs += f(gen(static_cast<std::uint64_t>(i))).size();
    }
    return static_cast<double>(outputs) / samples;
  };
  return e;
}

Experiment make_scan_join(std::string id, std::string sel, std::string cost,
                          double nominal, std::string notes,
                          double max_diff, Timestamp ws_ms,
                          std::vector<double> ladder) {
  Experiment e;
  e.id = id;
  e.join = true;
  e.edge = true;
  e.selectivity_class = std::move(sel);
  e.cost_class = std::move(cost);
  e.nominal_selectivity = nominal;
  e.notes = std::move(notes);
  e.rate_ladder = std::move(ladder);
  const WindowSpec spec{.advance = 500, .size = ws_ms};  // WA = 0.5 s
  e.backends = ab_backends();
  e.run = [max_diff, spec](Impl impl, const RunConfig& cfg) {
    RunConfig jc = cfg.keep_timing ? cfg : join_config(cfg);
    return run_join<Scan2D, Scan2D, int>(
        impl, jc, scan_gen(jc.seed), scan_gen(jc.seed + 1), spec,
        scan_join_key(), scan_join_key(), scan_join_pred(max_diff));
  };
  e.probe = [max_diff, spec](Impl impl, WindowBackend b) {
    return probe_join<Scan2D, Scan2D, int>(
        impl, b, scan_gen(7), scan_gen(8), spec, scan_join_key(),
        scan_join_key(), scan_join_pred(max_diff));
  };
  e.measure_selectivity = [max_diff](int samples) {
    auto gen_a = scan_gen(42);
    auto gen_b = scan_gen(43);
    auto pred = scan_join_pred(max_diff);
    auto key = scan_join_key();
    std::uint64_t comparisons = 0, matches = 0;
    for (int i = 0; i < samples; ++i) {
      Scan2D a = gen_a(static_cast<std::uint64_t>(i));
      for (int j = 0; j < 16; ++j) {
        Scan2D b = gen_b(static_cast<std::uint64_t>(i * 16 + j));
        if (key(a) != key(b)) continue;
        ++comparisons;
        matches += pred(a, b);
      }
    }
    return comparisons ? static_cast<double>(matches) / comparisons : 0.0;
  };
  return e;
}

std::vector<Experiment> build_registry() {
  // Rate ladders (t/s): geometric probes per family; the harness stops
  // after two consecutive unsustainable rates.
  const std::vector<double> fm_wiki{2e3, 5e3, 1e4, 2e4, 4e4, 8e4, 1.6e5};
  const std::vector<double> fm_scan{1e3, 2e3, 5e3, 1e4, 2e4, 4e4};
  const std::vector<double> j_wiki{500, 1e3, 2e3, 4e3, 8e3, 1.6e4};
  const std::vector<double> j_scan{500, 1e3, 2e3, 4e3, 8e3, 1.6e4};

  std::vector<Experiment> v;
  // --- Server FM (Table 1, left block) ---
  v.push_back(make_wiki_fm("LLF", "Low", "Low", 5e-3,
                           "mfw(orig); forward if len > 10", fm_wiki));
  v.push_back(make_wiki_fm("ALF", "Avg", "Low", 1.0, "mfw(orig)", fm_wiki));
  v.push_back(make_wiki_fm("HLF", "High", "Low", 3.0,
                           "top-3(orig) as separate tuples", fm_wiki));
  v.push_back(make_wiki_fm("LHF", "Low", "High", 3e-4,
                           "mfw(orig,change,updated); all len > 10",
                           fm_wiki));
  v.push_back(make_wiki_fm("AHF", "Avg", "High", 1.0,
                           "mfw(orig,change,updated), one tuple", fm_wiki));
  v.push_back(make_wiki_fm("HHF", "High", "High", 2.3,
                           "top-3 of 3 fields as separate triplets",
                           fm_wiki));
  // --- Edge FM (Table 1, right block) ---
  v.push_back(make_scan_fm("llf", "Low", "Low", 0.2,
                           "polar->Cartesian; forward if avg dist > 3m",
                           fm_scan));
  v.push_back(make_scan_fm("alf", "Avg", "Low", 1.0, "polar->Cartesian",
                           fm_scan));
  v.push_back(make_scan_fm("hlf", "High", "Low", 3.0,
                           "polar->Cartesian, split/forward in 3 parts",
                           fm_scan));
  v.push_back(make_scan_fm("lhf", "Low", "High", 0.7,
                           "from reference point; forward if avg > 3m",
                           fm_scan));
  v.push_back(make_scan_fm("ahf", "Avg", "High", 1.0,
                           "from reference point", fm_scan));
  v.push_back(make_scan_fm("hhf", "High", "High", 3.0,
                           "from reference point, split in 3 parts",
                           fm_scan));
  // --- Server J: |orig| thresholds 210/150/100; WS = 3 s or 10 s ---
  v.push_back(make_wiki_join("LLJ", "Low", "Low", 1e-4,
                             "same-length distinct origs, len > 210, WS=3s",
                             210, 3000, j_wiki));
  v.push_back(make_wiki_join("ALJ", "Avg", "Low", 1e-3,
                             "as LLJ but len > 150", 150, 3000, j_wiki));
  v.push_back(make_wiki_join("HLJ", "High", "Low", 3e-3,
                             "as LLJ but len > 100", 100, 3000, j_wiki));
  v.push_back(make_wiki_join("LHJ", "Low", "High", 1e-4,
                             "as LLJ but WS=10s", 210, 10000, j_wiki));
  v.push_back(make_wiki_join("AHJ", "Avg", "High", 1e-3,
                             "as LLJ but len > 150, WS=10s", 150, 10000,
                             j_wiki));
  v.push_back(make_wiki_join("HHJ", "High", "High", 3e-3,
                             "as LLJ but len > 100, WS=10s", 100, 10000,
                             j_wiki));
  // --- Edge J: sum-diff thresholds 0.5/0.6/0.7 m; WS = 1 s or 2 s ---
  v.push_back(make_scan_join("llj", "Low", "Low", 8e-5,
                             "sum diffs < 0.5m, WS=1s", 0.5, 1000, j_scan));
  v.push_back(make_scan_join("alj", "Avg", "Low", 8e-4,
                             "sum diffs < 0.6m, WS=1s", 0.6, 1000, j_scan));
  v.push_back(make_scan_join("hlj", "High", "Low", 5e-3,
                             "sum diffs < 0.7m, WS=1s", 0.7, 1000, j_scan));
  v.push_back(make_scan_join("lhj", "Low", "High", 6e-5,
                             "sum diffs < 0.5m, WS=2s", 0.5, 2000, j_scan));
  v.push_back(make_scan_join("ahj", "Avg", "High", 7e-4,
                             "sum diffs < 0.6m, WS=2s", 0.6, 2000, j_scan));
  v.push_back(make_scan_join("hhj", "High", "High", 3e-3,
                             "sum diffs < 0.7m, WS=2s", 0.7, 2000, j_scan));
  return v;
}

}  // namespace

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> registry = build_registry();
  return registry;
}

const Experiment& experiment(const std::string& id) {
  for (const Experiment& e : all_experiments()) {
    if (e.id == id) return e;
  }
  throw std::out_of_range("unknown experiment id: " + id);
}

std::vector<const Experiment*> fm_experiments() {
  std::vector<const Experiment*> out;
  for (const Experiment& e : all_experiments()) {
    if (!e.join) out.push_back(&e);
  }
  return out;
}

std::vector<const Experiment*> join_experiments() {
  std::vector<const Experiment*> out;
  for (const Experiment& e : all_experiments()) {
    if (e.join) out.push_back(&e);
  }
  return out;
}

}  // namespace aggspes::harness
