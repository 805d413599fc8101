// Multi-query sharing bench: one flow hosting Q ∈ {1, 16, 256} window
// queries on one pane engine (MultiQueryOp over the tree policy, monoid
// fold path) versus Q independent single-query flows over the same
// script. Emits the `multiquery_sharing` JSON section that
// bench/run_micro.sh merges into BENCH_swa.json:
//
//   per Q: shared wall time, the summed wall time of Q dedicated flows,
//   their ratio, and output counts; plus the Q=256 marginal cost of one
//   added query and the acceptance flag — adding a query to the shared
//   engine must cost <= 0.1x a dedicated flow for the monoid-legal path
//   (ingest is paid once, per-query work is an O(log P) fold + fire walk).
//
// Deterministic by construction: single-threaded Flow, scripted source,
// in-order input, best-of-reps timing — no scheduler noise, so Q = 256
// stays honest on small hosts.
//
// `--smoke` runs a capped variant (Q <= 16, small script, 1 rep) for the
// perf-smoke ctest entry: it guards that the fold path builds and
// finishes fast, not the BENCH numbers themselves.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <variant>
#include <vector>

#include "core/graph.hpp"
#include "core/operators/sink.hpp"
#include "core/operators/source.hpp"
#include "core/runtime/multi_query.hpp"
#include "core/operators/aggregate.hpp"
#include "core/runtime/threaded_runtime.hpp"
#include "core/swa/agg_tree.hpp"
#include "core/swa/monoid_machine.hpp"

namespace {

using namespace aggspes;

constexpr int kKeys = 4;

/// Tuple-counting egress: CollectorSink would hold every output (~ 10^6
/// tuples per run at Q = 256); the bench only needs the count.
template <typename T>
class CountingSink final : public NodeBase {
 public:
  CountingSink()
      : port_([this](const Element<T>& e) {
          if (std::holds_alternative<Tuple<T>>(e)) ++count_;
        }) {}
  Consumer<T>& in() { return port_; }
  std::uint64_t count() const { return count_; }

 private:
  Port<T> port_;
  std::uint64_t count_{0};
};

/// Q specs with a shared pane width of 2 (every advance/size even): the
/// regime where sharing is supposed to pay — varied slides and sizes,
/// but one pane engine covers all of them.
std::vector<WindowSpec> make_specs(int q_count) {
  std::vector<WindowSpec> specs;
  for (int q = 0; q < q_count; ++q) {
    const Timestamp advance = 8 * (1 + q % 8);
    specs.push_back({advance, advance * (2 + q % 3), 0});
  }
  return specs;
}

/// In-order dense script: 64 tuples per tick (ingest-dominated, the
/// regime where one shared store amortizes across queries), watermark
/// every 512 tuples.
std::vector<Element<int>> make_script(int n) {
  std::vector<Element<int>> script;
  script.reserve(static_cast<std::size_t>(n) + n / 512 + 2);
  Timestamp max_ts = 0;
  for (int i = 0; i < n; ++i) {
    const Timestamp ts = i / 64;
    max_ts = ts;
    script.push_back(Tuple<int>{ts, 0, i % 997});
    if ((i + 1) % 512 == 0) script.push_back(Watermark{ts - 1});
  }
  script.push_back(Watermark{max_ts + 600});
  script.push_back(EndOfStream{});
  return script;
}

swa::Monoid<int, long> sum() {
  return {0, [](const int& v) { return long{v}; },
          [](const long& a, const long& b) { return a + b; }};
}

struct Timed {
  double seconds{0};
  std::uint64_t outputs{0};
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One shared flow hosting all of `specs` on one pane engine.
Timed run_shared(const std::vector<Element<int>>& script,
                 const std::vector<WindowSpec>& specs) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  using Op =
      MultiQueryOp<int, long, int, swa::TreeWindowMachine<int, long, int>>;
  std::vector<Op::Query> queries;
  for (const WindowSpec& s : specs) {
    queries.push_back({s, [](const int&, const swa::WindowAggregate<long>& wa)
                              -> std::optional<long> { return wa.agg; }});
  }
  auto& op = flow.add<Op>(
      std::move(queries), [](const int& v) { return v % kKeys; }, sum());
  std::vector<CountingSink<long>*> sinks;
  flow.connect(src.out(), op.in(0));
  for (std::size_t q = 0; q < specs.size(); ++q) {
    sinks.push_back(&flow.add<CountingSink<long>>());
    flow.connect(op.out(static_cast<int>(q)), sinks[q]->in());
  }
  const double t0 = now_s();
  flow.run();
  Timed t;
  t.seconds = now_s() - t0;
  for (const auto* s : sinks) t.outputs += s->count();
  return t;
}

/// One dedicated single-query flow (the per-query cost a non-sharing
/// deployment pays).
Timed run_dedicated(const std::vector<Element<int>>& script, WindowSpec spec) {
  Flow flow;
  auto& src = flow.add<ScriptSource<int>>(script);
  auto& op = flow.add<
      AggregateOp<int, long, int, swa::MonoidWindowMachine<int, long, int>>>(
      spec, [](const int& v) { return v % kKeys; }, sum(),
      [](const int&, const swa::WindowAggregate<long>& wa)
          -> std::optional<long> { return wa.agg; });
  auto& sink = flow.add<CountingSink<long>>();
  flow.connect(src.out(), op.in(0));
  flow.connect(op.out(), sink.in());
  const double t0 = now_s();
  flow.run();
  return {now_s() - t0, sink.count()};
}

Timed best_of(int reps, const auto& run) {
  Timed best = run();
  for (int i = 1; i < reps; ++i) {
    const Timed t = run();
    if (t.seconds < best.seconds) best = t;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int n_tuples = smoke ? 8000 : 40000;
  const int reps = smoke ? 1 : 3;
  const std::vector<int> q_counts =
      smoke ? std::vector<int>{1, 16} : std::vector<int>{1, 16, 256};

  const auto script = make_script(n_tuples);

  struct Row {
    int queries;
    Timed shared;
    Timed independent;
  };
  std::vector<Row> rows;
  for (int q_count : q_counts) {
    const auto specs = make_specs(q_count);
    Row row;
    row.queries = q_count;
    row.shared = best_of(reps, [&] { return run_shared(script, specs); });
    row.independent = best_of(reps, [&] {
      Timed total;
      for (const WindowSpec& s : specs) {
        const Timed t = run_dedicated(script, s);
        total.seconds += t.seconds;
        total.outputs += t.outputs;
      }
      return total;
    });
    rows.push_back(row);
  }

  const Row& first = rows.front();
  const Row& last = rows.back();
  // Marginal cost of one added query on the shared engine, vs the mean
  // cost of one dedicated flow at the same Q.
  const double marginal_s =
      (last.shared.seconds - first.shared.seconds) / (last.queries - 1);
  const double dedicated_s = last.independent.seconds / last.queries;
  const bool accept = marginal_s <= 0.1 * dedicated_s;

  std::printf("{\n  \"workload\": \"Q sliding sums, shared lattice vs "
              "dedicated flows (monoid fold path)\",\n");
  std::printf("  \"tuples\": %d,\n  \"keys\": %d,\n  \"reps\": %d,\n",
              n_tuples, kKeys, reps);
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"queries\": %d, \"shared_ms\": %.3f, "
                "\"independent_ms\": %.3f, \"speedup_vs_independent\": %.2f, "
                "\"outputs\": %llu}%s\n",
                r.queries, r.shared.seconds * 1e3,
                r.independent.seconds * 1e3,
                r.shared.seconds > 0
                    ? r.independent.seconds / r.shared.seconds
                    : 0,
                static_cast<unsigned long long>(r.shared.outputs),
                i + 1 < rows.size() ? "," : "");
    if (r.shared.outputs != r.independent.outputs) {
      std::fprintf(stderr,
                   "output mismatch at Q=%d: shared %llu independent %llu\n",
                   r.queries,
                   static_cast<unsigned long long>(r.shared.outputs),
                   static_cast<unsigned long long>(r.independent.outputs));
      return 1;
    }
  }
  std::printf("  ],\n");
  std::printf("  \"max_queries\": %d,\n", last.queries);
  std::printf("  \"marginal_cost_per_query_ms\": %.4f,\n", marginal_s * 1e3);
  std::printf("  \"dedicated_flow_ms\": %.4f,\n", dedicated_s * 1e3);
  std::printf("  \"accept_marginal_le_0p1x_dedicated\": %s\n",
              accept ? "true" : "false");
  std::printf("}\n");
  return 0;
}
