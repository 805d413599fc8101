#!/usr/bin/env bash
# Micro-benchmark sweep: run bench_micro_core and bench_swa in JSON mode
# and merge both into BENCH_swa.json at the repo root, with the window
# backend speedups (buffering vs sliced-replay vs monoid-incremental at
# each WS/WA overlap ratio) computed up front. The swa subsystem's
# acceptance bar is monoid_vs_buffering >= 5.0 at ratio 32.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${OUT:-$ROOT/BENCH_swa.json}"
MIN_TIME="${MIN_TIME:-0.3}"

if [[ ! -x "$BUILD/bench/bench_swa" || ! -x "$BUILD/bench/bench_sharded" ||
      ! -x "$BUILD/bench/bench_multiquery" ]]; then
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$(nproc)" \
    --target bench_swa bench_micro_core bench_sharded bench_multiquery
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$BUILD/bench/bench_swa" --benchmark_format=json \
    --benchmark_filter='-BM_OpLatency|BM_Ooo|BM_CheckpointStall|BM_OpIngest|BM_SpscQueue' \
    --benchmark_min_time="$MIN_TIME" >"$tmp/swa.json"
"$BUILD/bench/bench_micro_core" --benchmark_format=json \
    --benchmark_min_time="$MIN_TIME" >"$tmp/micro.json"

# The tail-sensitive acceptance sections (PR-5 per-op latency and ooo
# ratios, PR-9 checkpoint-stall percentiles) are measured with 5
# repetitions and read off the median aggregate: tail percentiles move a
# few percent run to run, and one median is more honest than the best of
# N cherry-picks.
"$BUILD/bench/bench_swa" --benchmark_format=json \
    --benchmark_filter='BM_OpLatency|BM_Ooo|BM_CheckpointStall' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true >"$tmp/tails.json"

# Micro-batch kernels (DESIGN.md § 16): scalar vs block ingest for every
# tagged arithmetic monoid on both FIFO policies, plus element vs bulk
# SpscQueue transfer. 5 repetitions, medians — same discipline as the
# tail sections. The accept flag reads the best (policy, monoid) ratio
# against the >= 3x bar and must be interpreted next to the recorded
# core count / build type, as shard_scaling's flag is.
"$BUILD/bench/bench_swa" --benchmark_format=json \
    --benchmark_filter='BM_OpIngest|BM_SpscQueue' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true >"$tmp/batch.json"

# Shard scaling (DESIGN.md § 13): the fig6 FM ladder at N ∈ {1,2,4,8}
# shards. Not a google-benchmark binary — it emits its section directly
# (measured speedup, the >= 3.0x N=8 accept flag, and the host core count
# the flag has to be read against: shards only buy wall-clock throughput
# when their threads land on distinct cores).
"$BUILD/bench/bench_sharded" >"$tmp/sharded.json"

# Multi-query pane sharing (DESIGN.md § 14): one flow hosting Q ∈
# {1,16,256} queries on a shared lattice vs Q dedicated flows. Also a
# direct-emit section — the headline number is the Q=256 marginal cost of
# one added query and its <= 0.1x-a-dedicated-flow accept flag.
"$BUILD/bench/bench_multiquery" >"$tmp/multiquery.json"

jq -s --argjson cores "$(nproc)" '
  def cpu($f; $name):
    $f.benchmarks[] | select(.name == $name) | .cpu_time;
  def ctr($f; $name; $c):
    $f.benchmarks[] | select(.name == $name) | .[$c];
  def med($f; $rn; $field):
    $f.benchmarks[]
    | select(.run_name == $rn and .aggregate_name == "median") | .[$field];
  def ingest_pair($f; $n):
    {scalar_items_per_s: med($f; $n + "/0"; "items_per_second"),
     batched_items_per_s: med($f; $n + "/1"; "items_per_second"),
     speedup: ((med($f; $n + "/1"; "items_per_second") /
                med($f; $n + "/0"; "items_per_second")) * 100 | round / 100)};
  . as [$swa, $micro, $tails, $sharded, $multiquery, $batch] |
  {
    # DABA acceptance (DESIGN.md § 11): worst-case-constant-time slide at
    # WS/WA = 32 means the de-amortized structure'"'"'s per-op p999 stays
    # within 2x its p50, while amortized TwoStacks pays its flip in one
    # op. Counters are ns per slide step (evict + push + query).
    worst_case_latency: (
      ("BM_OpLatency_Daba/iterations:4194304") as $daba |
      ("BM_OpLatency_TwoStacks/iterations:4194304") as $stacks |
      {
        window_panes: 32,
        daba: {
          p50_ns: med($tails; $daba; "p50_ns"),
          p99_ns: med($tails; $daba; "p99_ns"),
          p999_ns: med($tails; $daba; "p999_ns"),
          p999_over_p50: ((med($tails; $daba; "p999_ns") /
                           med($tails; $daba; "p50_ns")) * 100 | round / 100)
        },
        two_stacks: {
          p50_ns: med($tails; $stacks; "p50_ns"),
          p99_ns: med($tails; $stacks; "p99_ns"),
          p999_ns: med($tails; $stacks; "p999_ns"),
          p999_over_p50: ((med($tails; $stacks; "p999_ns") /
                           med($tails; $stacks; "p50_ns")) * 100
                          | round / 100)
        },
        accept_daba_p999_le_2x_p50:
          (med($tails; $daba; "p999_ns") <= 2 * med($tails; $daba; "p50_ns"))
      }
    ),
    # Out-of-order tolerance at WS/WA = 32: throughput retained under 10%
    # displaced input (on time, out of order). The FIFO monoid policy
    # invalidates and replays a key'"'"'s whole pane run.
    ooo_tolerance: (
      {
        reorder_percent: 10,
        monoid_fifo: {
          inorder_items_per_s: med($tails; "BM_Ooo_MonoidFifo_Sum/0";
                                   "items_per_second"),
          reordered_items_per_s: med($tails; "BM_Ooo_MonoidFifo_Sum/10";
                                     "items_per_second"),
          retained: ((med($tails; "BM_Ooo_MonoidFifo_Sum/10";
                          "items_per_second") /
                      med($tails; "BM_Ooo_MonoidFifo_Sum/0";
                          "items_per_second")) * 1000 | round / 1000)
        }
      }
    ),
    # Pane-store vs per-instance join footprint (DESIGN.md § 9): the
    # buffering join stores one copy per overlapping instance, so its
    # copy_ratio should track the WS/WA ratio while pane stays flat
    # per retained tuple.
    join_pane_memory: (
      [32, 8, 1] | map({
        key: ("ratio_" + tostring),
        value: {
          buffering_peak: ctr($swa; "BM_Join_Buffering/\(.)"; "peak_stored"),
          pane_peak: ctr($swa; "BM_Join_Pane/\(.)"; "peak_stored"),
          copy_ratio: ((ctr($swa; "BM_Join_Buffering/\(.)"; "peak_stored") /
                        ctr($swa; "BM_Join_Pane/\(.)"; "peak_stored")) * 100
                       | round / 100)
        }
      }) | from_entries
    ),
    speedup_vs_buffering: (
      [32, 4, 1] | map({
        key: ("ratio_" + tostring),
        value: {
          sliced_replay: ((cpu($swa; "BM_Buffering_Sum/\(.)") /
                           cpu($swa; "BM_SlicedReplay_Sum/\(.)")) * 100
                          | round / 100),
          monoid_incremental: ((cpu($swa; "BM_Buffering_Sum/\(.)") /
                                cpu($swa; "BM_MonoidIncremental_Sum/\(.)"))
                               * 100 | round / 100)
        }
      }) | from_entries
    ),
    flow_speedup_monoid_vs_buffering:
      ((cpu($swa; "BM_FlowAggregate_Buffering") /
        cpu($swa; "BM_FlowAggregate_Monoid")) * 100 | round / 100),
    # Durable ingestion overhead (DESIGN.md § 12): WAL append throughput
    # and ack latency, the durable-vs-plain source ingest ratio
    # (acceptance: DurableSource keeps >= 80% of the non-durable rate at
    # group_commit = 64), and the recovery replay rate. Ratios use
    # items_per_second (wall time) — fsync waits never show up as CPU.
    wal_overhead: (
      {
        append: {
          group1_items_per_s:
            ctr($swa; "BM_WalAppend/1"; "items_per_second"),
          group64_items_per_s:
            ctr($swa; "BM_WalAppend/64"; "items_per_second"),
          group1_ack_p99_ns: ctr($swa; "BM_WalAppend/1"; "ack_p99_ns"),
          group64_ack_p99_ns: ctr($swa; "BM_WalAppend/64"; "ack_p99_ns")
        },
        ingest: {
          plain_items_per_s:
            ctr($swa; "BM_SourceIngest_Plain"; "items_per_second"),
          durable_items_per_s:
            ctr($swa; "BM_SourceIngest_Durable"; "items_per_second"),
          durable_over_plain:
            ((ctr($swa; "BM_SourceIngest_Durable"; "items_per_second") /
              ctr($swa; "BM_SourceIngest_Plain"; "items_per_second")) * 1000
             | round / 1000)
        },
        recovery_replay_items_per_s:
          ctr($swa; "BM_DurableRecovery"; "items_per_second"),
        accept_durable_ge_80pct:
          (ctr($swa; "BM_SourceIngest_Durable"; "items_per_second") >=
           0.8 * ctr($swa; "BM_SourceIngest_Plain"; "items_per_second"))
      }
    ),
    # Non-quiescent checkpoints (DESIGN.md § 15): per-element ingest
    # latency with a durably-committed cut every 16384 elements (an
    # aggressive ~120 checkpoints/s at this element rate). The accept
    # gate is the
    # tentpole claim — ingest p999 with ASYNC (epoch-freeze + worker
    # serialize) checkpoints stays within 2x the no-checkpoint baseline.
    # cut_p50_ns isolates what the cut-triggering element itself pays:
    # the full state encode plus the fsync-backed atomic commit when
    # quiesced, only the O(panes) freeze + handoff when async — the
    # stop-the-world stall the epoch/MVCC path removes from the ingest
    # thread.
    async_checkpoint: (
      ("BM_CheckpointStall_None/iterations:524288") as $none |
      ("BM_CheckpointStall_Quiesced/iterations:524288") as $quiesced |
      ("BM_CheckpointStall_Async/iterations:524288") as $async |
      {
        cut_every_elements: 16384,
        state_bytes: med($tails; $async; "state_bytes"),
        no_checkpoint: {
          ingest_p50_ns: med($tails; $none; "ingest_p50_ns"),
          ingest_p999_ns: med($tails; $none; "ingest_p999_ns")
        },
        quiesced: {
          ingest_p50_ns: med($tails; $quiesced; "ingest_p50_ns"),
          ingest_p999_ns: med($tails; $quiesced; "ingest_p999_ns"),
          cut_stall_p50_ns: med($tails; $quiesced; "cut_p50_ns")
        },
        async: {
          ingest_p50_ns: med($tails; $async; "ingest_p50_ns"),
          ingest_p999_ns: med($tails; $async; "ingest_p999_ns"),
          cut_stall_p50_ns: med($tails; $async; "cut_p50_ns")
        },
        quiesced_over_async_cut_stall:
          ((med($tails; $quiesced; "cut_p50_ns") /
            med($tails; $async; "cut_p50_ns")) * 100 | round / 100),
        accept_async_p999_le_2x_baseline:
          (med($tails; $async; "ingest_p999_ns") <=
           2 * med($tails; $none; "ingest_p999_ns"))
      }
    ),
    # Micro-batch hot path (DESIGN.md § 16): block ingest through the
    # tagged columnar kernels vs the per-tuple scalar path, per FIFO
    # policy and monoid kind, plus SpscQueue bulk-vs-element transfer.
    # 5-rep medians of items_per_second. The accept gate is the tentpole
    # claim — best (policy, monoid) batched/scalar ratio >= 3x — and must
    # be read against the recorded core count and build type (single
    # shared-runner cores and RelWithDebInfo both understate the ratio a
    # Release -O3 tree reaches; CI'"'"'s perf-smoke-batch leg builds that).
    batch_speedup: (
      {
        two_stacks: {
          sum_i64: ingest_pair($batch; "BM_OpIngest_TwoStacks_SumI64"),
          min_i64: ingest_pair($batch; "BM_OpIngest_TwoStacks_MinI64"),
          sum_f64: ingest_pair($batch; "BM_OpIngest_TwoStacks_SumF64"),
          count: ingest_pair($batch; "BM_OpIngest_TwoStacks_Count")
        },
        daba: {
          sum_i64: ingest_pair($batch; "BM_OpIngest_Daba_SumI64"),
          min_i64: ingest_pair($batch; "BM_OpIngest_Daba_MinI64"),
          sum_f64: ingest_pair($batch; "BM_OpIngest_Daba_SumF64"),
          count: ingest_pair($batch; "BM_OpIngest_Daba_Count")
        }
      } as $ingest |
      {
        block_tuples: 256,
        cores: $cores,
        ingest: $ingest,
        spsc_queue: {
          element_items_per_s:
            med($batch; "BM_SpscQueue_Element"; "items_per_second"),
          bulk_items_per_s:
            med($batch; "BM_SpscQueue_Bulk"; "items_per_second"),
          speedup: ((med($batch; "BM_SpscQueue_Bulk"; "items_per_second") /
                     med($batch; "BM_SpscQueue_Element"; "items_per_second"))
                    * 100 | round / 100)
        },
        best_ingest_speedup: ([$ingest[][] | .speedup] | max),
        accept_batch_ge_3x: (([$ingest[][] | .speedup] | max) >= 3.0)
      }
    ),
    # Shard scaling (bench_sharded): the section arrives pre-computed —
    # ladder points per width, measured N=8/N=1 speedup, its >= 3.0x
    # accept flag, and the core count the flag must be read against.
    shard_scaling: $sharded,
    # Multi-query sharing (bench_multiquery): pre-computed section —
    # shared vs independent wall time per Q, the Q=256 marginal cost of
    # one added query, and its <= 0.1x-a-dedicated-flow accept flag.
    multiquery_sharing: $multiquery,
    bench_swa: $swa,
    bench_micro_core: $micro,
    bench_swa_tails: $tails,
    bench_swa_batch: $batch
  }' "$tmp/swa.json" "$tmp/micro.json" "$tmp/tails.json" \
     "$tmp/sharded.json" "$tmp/multiquery.json" "$tmp/batch.json" >"$OUT"

echo "wrote $OUT"
jq '{speedup_vs_buffering, flow_speedup_monoid_vs_buffering, join_pane_memory,
     worst_case_latency, ooo_tolerance, wal_overhead, async_checkpoint,
     batch_speedup: (.batch_speedup
                     | {cores, best_ingest_speedup, accept_batch_ge_3x,
                        spsc_speedup: .spsc_queue.speedup}),
     shard_scaling: (.shard_scaling
                     | {cores, speedup_n8_vs_n1, accept_n8_ge_3x}),
     multiquery_sharing: (.multiquery_sharing
                          | {max_queries, marginal_cost_per_query_ms,
                             dedicated_flow_ms,
                             accept_marginal_le_0p1x_dedicated})}' "$OUT"
