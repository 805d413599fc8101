// Tests for the Table 1 experiment registry, including the backend
// round-trip contract (ctest label: backend): every experiment × impl ×
// legal window backend must produce identical deterministic probe
// results, and the harness must be able to run any ID under any legal
// backend from one invocation with the backend recorded in the report.
#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace aggspes::harness {
namespace {

TEST(Registry, HasAll24Experiments) {
  EXPECT_EQ(all_experiments().size(), 24u);
  EXPECT_EQ(fm_experiments().size(), 12u);
  EXPECT_EQ(join_experiments().size(), 12u);
}

TEST(Registry, IdsMatchTable1) {
  std::set<std::string> ids;
  for (const auto& e : all_experiments()) ids.insert(e.id);
  const std::set<std::string> expected{
      "LLF", "ALF", "HLF", "LHF", "AHF", "HHF", "llf", "alf", "hlf",
      "lhf", "ahf", "hhf", "LLJ", "ALJ", "HLJ", "LHJ", "AHJ", "HHJ",
      "llj", "alj", "hlj", "lhj", "ahj", "hhj"};
  EXPECT_EQ(ids, expected);
}

TEST(Registry, LookupByIdWorks) {
  const Experiment& e = experiment("AHF");
  EXPECT_FALSE(e.join);
  EXPECT_FALSE(e.edge);
  EXPECT_EQ(e.cost_class, "High");
  EXPECT_THROW(experiment("ZZZ"), std::out_of_range);
}

TEST(Registry, CaseConventionEncodesHardware) {
  for (const auto& e : all_experiments()) {
    const bool lower = std::islower(static_cast<unsigned char>(e.id[0]));
    EXPECT_EQ(e.edge, lower) << e.id;
  }
}

TEST(Registry, EveryExperimentHasRunnerAndLadder) {
  for (const auto& e : all_experiments()) {
    EXPECT_TRUE(static_cast<bool>(e.run)) << e.id;
    EXPECT_TRUE(static_cast<bool>(e.measure_selectivity)) << e.id;
    EXPECT_FALSE(e.rate_ladder.empty()) << e.id;
    // Ladders ascend.
    for (std::size_t i = 1; i < e.rate_ladder.size(); ++i) {
      EXPECT_LT(e.rate_ladder[i - 1], e.rate_ladder[i]) << e.id;
    }
  }
}

TEST(Registry, MeasuredFmSelectivityTracksClass) {
  // The synthetic workloads must reproduce Table 1's selectivity ordering:
  // Low < Avg <= High within each (family, cost) group.
  auto sel = [](const char* id) {
    return experiment(id).measure_selectivity(400);
  };
  EXPECT_LT(sel("LLF"), sel("ALF"));
  EXPECT_LT(sel("ALF"), sel("HLF"));
  EXPECT_LT(sel("LHF"), sel("AHF"));
  EXPECT_LE(sel("AHF"), sel("HHF"));
  EXPECT_LT(sel("llf"), sel("alf"));
  EXPECT_LT(sel("alf"), sel("hlf"));
  EXPECT_LT(sel("lhf"), sel("ahf"));
  EXPECT_LE(sel("ahf"), sel("hhf"));
  // Avg rows are exactly selectivity 1 by construction.
  EXPECT_DOUBLE_EQ(sel("ALF"), 1.0);
  EXPECT_DOUBLE_EQ(sel("alf"), 1.0);
  EXPECT_DOUBLE_EQ(sel("AHF"), 1.0);
  EXPECT_DOUBLE_EQ(sel("ahf"), 1.0);
}

TEST(Registry, MeasuredJoinSelectivityTracksThreshold) {
  auto sel = [](const char* id) {
    return experiment(id).measure_selectivity(400);
  };
  // Looser predicates match more often.
  EXPECT_LE(sel("LLJ"), sel("ALJ"));
  EXPECT_LE(sel("ALJ"), sel("HLJ"));
  EXPECT_LE(sel("llj"), sel("alj"));
  EXPECT_LE(sel("alj"), sel("hlj"));
}

TEST(Registry, EveryExperimentDeclaresItsBackends) {
  for (const auto& e : all_experiments()) {
    EXPECT_TRUE(static_cast<bool>(e.probe)) << e.id;
    ASSERT_GE(e.backends.size(), 2u) << e.id << ": not A/B-capable";
    EXPECT_EQ(e.backends.front(), WindowBackend::kBuffering) << e.id;
  }
}

TEST(Registry, BackendRoundTripIsIdentical) {
  // The registry's central contract: for every Table 1 ID and every
  // implementation, all legal backends replay the same deterministic
  // sample to the same tuple count and checksum.
  for (const auto& e : all_experiments()) {
    for (Impl impl : {Impl::kDedicated, Impl::kAggBased, Impl::kAPlus}) {
      const ProbeResult base = e.probe(impl, e.backends.front());
      for (WindowBackend b : e.backends) {
        SCOPED_TRACE(e.id + std::string(" impl=") +
                     std::to_string(static_cast<int>(impl)) + " backend=" +
                     backend_name(b));
        const ProbeResult got = e.probe(impl, b);
        EXPECT_EQ(got, base);
      }
    }
  }
}

TEST(Registry, ProbesAreDeterministic) {
  for (const char* id : {"AHF", "ahf", "ALJ", "alj"}) {
    const Experiment& e = experiment(id);
    const ProbeResult once = e.probe(Impl::kAggBased, e.backends.back());
    const ProbeResult twice = e.probe(Impl::kAggBased, e.backends.back());
    EXPECT_EQ(once, twice) << id;
    EXPECT_GT(once.tuples, 0u) << id << ": vacuous probe";
  }
}

TEST(Registry, JoinShardsRejectionIsATypedConfigError) {
  // Sharded join runs are future work (two-input co-partitioning): the
  // rejection is a typed ConfigError whose message points the user at
  // the design note instead of a bare invalid_argument.
  RunConfig cfg;
  cfg.shards = 2;
  try {
    experiment("LLJ").run(Impl::kDedicated, cfg);
    FAIL() << "shards > 1 on a join runner must be rejected";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("config:"), std::string::npos) << what;
    EXPECT_NE(what.find("DESIGN.md § 13"), std::string::npos) << what;
  }
  // ConfigError derives from invalid_argument, so pre-existing callers
  // that caught the old type keep working.
  EXPECT_THROW(experiment("hlj").run(Impl::kAggBased, cfg),
               std::invalid_argument);
}

TEST(Registry, SmokeRunEachKindCompletes) {
  // One tiny end-to-end run per (kind, family) with the dedicated
  // implementation — validates the full harness plumbing.
  RunConfig cfg;
  cfg.rate = 500;
  cfg.duration_s = 0.12;
  cfg.warmup_s = 0.02;
  cfg.cooldown_s = 0.02;
  for (const char* id : {"ALF", "alf", "LLJ", "llj"}) {
    RunResult r = experiment(id).run(Impl::kDedicated, cfg);
    EXPECT_GT(r.achieved_per_s, 0) << id;
    EXPECT_EQ(r.backend, "buffering") << id;
  }
}

TEST(Registry, HarnessRunsAnyIdUnderEitherBackend) {
  // One invocation, any backend: cfg.backend selects the window store and
  // the report records which backend ran plus its occupancy high-water
  // marks. keep_timing stops join_config from stretching the run.
  RunConfig cfg;
  cfg.rate = 500;
  cfg.duration_s = 0.12;
  cfg.warmup_s = 0.02;
  cfg.cooldown_s = 0.02;
  cfg.keep_timing = true;
  for (const char* id : {"AHF", "LLJ", "ahf", "llj"}) {
    for (WindowBackend b : experiment(id).backends) {
      SCOPED_TRACE(std::string(id) + " backend=" + backend_name(b));
      cfg.backend = b;
      RunResult r = experiment(id).run(Impl::kAggBased, cfg);
      EXPECT_GT(r.achieved_per_s, 0);
      EXPECT_EQ(r.backend, backend_name(b));
      EXPECT_GT(r.peak_stored, 0u) << "occupancy counters not collected";
    }
  }
  // Dedicated joins report the store's counters too.
  cfg.backend = WindowBackend::kBuffering;
  RunResult d = experiment("LLJ").run(Impl::kDedicated, cfg);
  EXPECT_EQ(d.backend, "buffering");
  EXPECT_GT(d.peak_stored, 0u);
  EXPECT_GT(d.peak_panes, 0u);
}

}  // namespace
}  // namespace aggspes::harness
