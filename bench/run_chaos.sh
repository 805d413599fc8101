#!/usr/bin/env bash
# Chaos sweep: build with ThreadSanitizer (or AGGSPES_SANITIZE=address) and
# run the fault-injection equivalence suite (ctest label: chaos) RUNS times.
#
# The fault schedules inside the suite are seed-driven and fixed — same
# seed, same edge list, same crash/stall/drop/dup sequence — so a red run
# here reproduces by rerunning the same command. Repetition exercises the
# thread-timing dimension the seeds do not pin down (which checkpoints
# complete before a crash lands); output equivalence must hold either way.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZE="${AGGSPES_SANITIZE:-thread}"
BUILD="${BUILD_DIR:-$ROOT/build-chaos-$SANITIZE}"
RUNS="${RUNS:-3}"

cmake -B "$BUILD" -S "$ROOT" -DAGGSPES_SANITIZE="$SANITIZE" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Build every target: a gtest binary that is not built registers only an
# unlabelled <target>_NOT_BUILT placeholder, so `-L chaos` would silently
# skip its whole suite.
cmake --build "$BUILD" -j"$(nproc)"
LISTING="$(ctest --test-dir "$BUILD" -N)"
if grep -q NOT_BUILT <<<"$LISTING"; then
  echo "run_chaos.sh: ctest lists NOT_BUILT placeholders:" >&2
  grep NOT_BUILT <<<"$LISTING" >&2
  exit 1
fi

for i in $(seq 1 "$RUNS"); do
  echo "=== chaos sweep $i/$RUNS (sanitize=$SANITIZE) ==="
  ctest --test-dir "$BUILD" -L chaos --output-on-failure -j"$(nproc)"
done

# Overload sweep: the detect → shed → complete scenarios plus the
# monitor/shedder/backoff units, repeated like the chaos suite — the
# slow-consumer and saturation faults are timing-sensitive by design, so
# repetition is what shakes out raciness in the gauge sampling.
for i in $(seq 1 "$RUNS"); do
  echo "=== overload sweep $i/$RUNS (sanitize=$SANITIZE) ==="
  ctest --test-dir "$BUILD" -L overload --output-on-failure -j"$(nproc)"
done

# Durability sweep: WAL unit properties plus the volume-boundary crash
# matrix (kill-during-append at every roll-over, mid-volume, torn write —
# durable_chaos_test enumerates the boundaries itself from a dry run).
# The full transcript lands in results/ so a red matrix is diagnosable
# after the fact: which boundary, which attempt, which assertion.
mkdir -p "$ROOT/results"
DURABILITY_LOG="$ROOT/results/chaos_durability_${SANITIZE}.txt"
: >"$DURABILITY_LOG"
for i in $(seq 1 "$RUNS"); do
  echo "=== durability sweep $i/$RUNS (sanitize=$SANITIZE) ==="
  ctest --test-dir "$BUILD" -L durability --output-on-failure -j"$(nproc)" \
    2>&1 | tee -a "$DURABILITY_LOG"
done
echo "durability sweep transcript: $DURABILITY_LOG"

# Sharded sweep: N-shard-vs-oracle equivalence plus the single-shard
# crash/repair protocol (kill one shard, restore its cut, replay its WAL
# suffix, merge with the healthy taps). Which checkpoints complete before
# the injected crash is thread-timing dependent, so repetition covers both
# the restore-at-cut and the replay-from-scratch paths; the transcript
# lands in results/ like the durability matrix.
SHARDED_LOG="$ROOT/results/chaos_sharded_${SANITIZE}.txt"
: >"$SHARDED_LOG"
for i in $(seq 1 "$RUNS"); do
  echo "=== sharded sweep $i/$RUNS (sanitize=$SANITIZE) ==="
  ctest --test-dir "$BUILD" -L sharded --output-on-failure -j"$(nproc)" \
    2>&1 | tee -a "$SHARDED_LOG"
done
echo "sharded sweep transcript: $SHARDED_LOG"

# MVCC sweep: the non-quiescent checkpoint path — durable atomic cut
# commits, StateQuery reads off frozen epochs (a concurrent reader thread
# makes this the suite TSan cares about most), and the kill matrix over
# every checkpoint phase (freeze / serialize / commit / gc) plus its
# durable, multi-query and sharded compositions. Which cuts the async
# worker lands before a kill is thread-timing dependent, so repetition
# covers both the previous-cut fallback and the resume-at-killed-cut
# paths; the transcript lands in results/ like the other matrices.
MVCC_LOG="$ROOT/results/chaos_mvcc_${SANITIZE}.txt"
: >"$MVCC_LOG"
for i in $(seq 1 "$RUNS"); do
  echo "=== mvcc sweep $i/$RUNS (sanitize=$SANITIZE) ==="
  ctest --test-dir "$BUILD" -L mvcc --output-on-failure -j"$(nproc)" \
    2>&1 | tee -a "$MVCC_LOG"
done
echo "mvcc sweep transcript: $MVCC_LOG"
