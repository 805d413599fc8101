// The Table 1 experiment registry: all 24 experiments (upper-case IDs on
// the synthetic Wikipedia-edit workload — the paper's high-end server
// family — and lower-case IDs on the synthetic 2D-scan workload — the
// paper's Odroid edge family), each bound to factories that build and run
// the D / A / A+ pipelines.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/sustainable.hpp"

namespace aggspes::harness {

/// Outcome of a deterministic probe run: output tuple count plus an
/// order-insensitive checksum over (ts, value) pairs. Two backends
/// implementing the same semantics must produce identical ProbeResults.
struct ProbeResult {
  std::uint64_t tuples{0};
  std::uint64_t checksum{0};

  friend bool operator==(const ProbeResult&, const ProbeResult&) = default;
};

struct Experiment {
  std::string id;                 ///< Table 1 ID (e.g. "AHF", "llj")
  bool join{false};               ///< FM or J
  bool edge{false};               ///< lower-case (scans) vs server (wiki)
  std::string selectivity_class;  ///< "Low" / "Avg" / "High"
  std::string cost_class;         ///< "Low" / "High"
  double nominal_selectivity{0};  ///< Table 1's value
  std::string notes;              ///< Table 1's description
  std::vector<double> rate_ladder;  ///< injection rates probed (t/s)

  /// Window backends this experiment can run under (cfg.backend).
  std::vector<WindowBackend> backends;

  /// Builds the pipeline for `impl` and runs it at cfg.rate (honouring
  /// cfg.backend).
  std::function<RunResult(Impl, const RunConfig&)> run;

  /// Deterministic single-threaded replay of a fixed input sample through
  /// the (impl, backend) pipeline. Identical results across backends is
  /// the registry round-trip contract the differential tests lock down.
  std::function<ProbeResult(Impl, WindowBackend)> probe;

  /// Offline selectivity probe: avg outputs per input tuple (FM) or avg
  /// matches per comparison (J) over a deterministic sample. Used by
  /// bench_table1_selectivity to validate the synthetic workload tuning.
  std::function<double(int samples)> measure_selectivity;
};

/// All 24 Table 1 experiments, paper order (server FM, server J mixed per
/// the table layout is flattened here: FMs first, then Js, server then
/// edge within each).
const std::vector<Experiment>& all_experiments();

/// Lookup by Table 1 ID; throws std::out_of_range for unknown IDs.
const Experiment& experiment(const std::string& id);

/// The FM experiments / J experiments subsets, in registry order.
std::vector<const Experiment*> fm_experiments();
std::vector<const Experiment*> join_experiments();

}  // namespace aggspes::harness
