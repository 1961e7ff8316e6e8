#!/usr/bin/env bash
# Full verification pipeline:
#   1. plain build + ctest (the tier-1 gate);
#   2. static analysis (tools/lint.sh; skipped when clang-tidy absent);
#   3. ThreadSanitizer build + ctest (JANUS_SANITIZE=thread) — the
#      dynamic complement of the hindsight auditor;
#   4. `janus audit` over every workload (the paper's five plus the
#      HashChurn/SSCA2 spec kernels) on both engines, plus a
#      sharded pass (--shards 8, threads engine) — the location-
#      sharded commit pipeline must stay audit-clean (DESIGN.md §11);
#   5. chaos: the same audits under a canned JANUS_FAULTS plan that
#      force-aborts, injects exceptions, delays commits and starves the
#      SAT budget — the escalation ladder must absorb every fault and
#      still produce a CLEAN audit (exit 0);
#   6. static verification (`janus verify`): every workload's trained
#      table is checked for condition soundness (DESIGN.md §10) and
#      must come back clean — every run also replays the hand-written
#      spec tables (DESIGN.md §14.3); a deliberately seeded unsound
#      entry must be convicted (nonzero exit) to prove the verifier
#      has teeth, and so must a seeded unsound spec table
#      (--seed-unsound-spec);
#   7. observability: one traced workload per engine; the emitted
#      Chrome trace must satisfy tools/check_trace.py (known event
#      types only, well-formed spans), and the --json report must be
#      parseable;
#   8. perf smoke: micro_commit --quick (including the 1/4/16
#      shard-count sweep) must run to completion, then
#      tools/perfdiff.py gates the deltas against the committed
#      baseline — FATALLY: a ns/commit regression beyond
#      JANUS_PERF_THRESHOLD percent (default 75, wide because the
#      quick run is noisy) or a retry-ratio increase beyond
#      JANUS_RETRY_THRESHOLD (default 1.5) fails the stage;
#   9. service soak: bounded `janus serve` runs under a chaos plan
#      with client-coordinate clauses (sheds, injected throws) on
#      both engines plus a sharded pass, each with --audit — every
#      run must drain gracefully with exit 0 (exactly one terminal
#      reply per submission, every batch audit clean); then
#      serve_soak --quick checks committed throughput holds within
#      tolerance under 4x admission-controlled overload.
#  10. flight recorder + replay: every workload is recorded under the
#      stage-5 chaos plan on the threaded engine at 1 and 8 shards
#      (--record-out), each dump must satisfy tools/check_trace.py's
#      binary checks, and `janus replay` must re-execute it with a
#      bit-identical commit order and dense clock sequence plus a clean
#      audit (exit 0); a seeded-divergence probe (--probe-divergence)
#      must exit nonzero to prove the comparison has teeth;
#  11. build matrix: a Release build (-DCMAKE_BUILD_TYPE=Release) and a
#      lean build (-DJANUS_OBS=OFF), each in its own build directory,
#      must compile under -Werror and pass ctest.
#
# Usage: tools/ci.sh [JOBS]   (JOBS defaults to nproc)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"

# Refuse a build tree configured for a different source checkout (a
# moved or copied repo): cmake's own diagnostic for that is cryptic.
check_build_tree() {
  local CACHE="$1/CMakeCache.txt"
  [ -f "$CACHE" ] || return 0
  local HOME_DIR
  HOME_DIR="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$CACHE")"
  if [ -n "$HOME_DIR" ] && [ "$HOME_DIR" != "$REPO_ROOT" ]; then
    echo "ci.sh: $1 was configured for '$HOME_DIR', not this checkout" >&2
    echo "ci.sh: ($REPO_ROOT). Delete it and re-run." >&2
    exit 1
  fi
}
check_build_tree "$REPO_ROOT/build"
check_build_tree "$REPO_ROOT/build-tsan"
check_build_tree "$REPO_ROOT/build-release"
check_build_tree "$REPO_ROOT/build-obs-off"

echo "== [1/11] plain build + tests =="
cmake -B "$REPO_ROOT/build" -S "$REPO_ROOT" >/dev/null
cmake --build "$REPO_ROOT/build" -j "$JOBS"
(cd "$REPO_ROOT/build" && ctest --output-on-failure -j "$JOBS")

echo "== [2/11] static analysis =="
"$REPO_ROOT/tools/lint.sh" "$REPO_ROOT/build"

echo "== [3/11] ThreadSanitizer build + tests =="
cmake -B "$REPO_ROOT/build-tsan" -S "$REPO_ROOT" \
      -DJANUS_SANITIZE=thread >/dev/null
cmake --build "$REPO_ROOT/build-tsan" -j "$JOBS"
(cd "$REPO_ROOT/build-tsan" && ctest --output-on-failure -j "$JOBS")

echo "== [4/11] hindsight audit of all workloads =="
for W in JFileSync JGraphT-1 JGraphT-2 PMD Weka HashChurn SSCA2; do
  for E in sim threads; do
    echo "-- audit $W ($E)"
    "$REPO_ROOT/build/tools/janus" audit --workload "$W" --engine "$E" \
      | tail -2
  done
  echo "-- audit $W (threads, 8 shards)"
  "$REPO_ROOT/build/tools/janus" audit --workload "$W" --engine threads \
    --shards 8 | tail -2
done

echo "== [5/11] chaos audit under fault injection =="
# Every task's first attempt is force-aborted, task 2's first attempt
# throws, every second attempt's commit is delayed, and the trainer's
# SAT cross-check is starved to 4 conflicts. The run must still commit
# every task and the hindsight audit must stay CLEAN.
CHAOS_FAULTS='abort@*.1;throw@2.1;delay@*.2=3;satbudget=4'
echo "-- JANUS_FAULTS=$CHAOS_FAULTS"
for W in JFileSync JGraphT-1 JGraphT-2 PMD Weka HashChurn SSCA2; do
  for E in sim threads; do
    echo "-- chaos audit $W ($E)"
    JANUS_FAULTS="$CHAOS_FAULTS" \
      "$REPO_ROOT/build/tools/janus" audit --workload "$W" --engine "$E" \
      | tail -2
  done
done
for W in JGraphT-1 HashChurn SSCA2; do
  echo "-- chaos audit $W (threads, 8 shards)"
  JANUS_FAULTS="$CHAOS_FAULTS" \
    "$REPO_ROOT/build/tools/janus" audit --workload "$W" \
    --engine threads --shards 8 | tail -2
done

echo "== [6/11] static verification of trained tables =="
for W in JFileSync JGraphT-1 JGraphT-2 PMD Weka HashChurn SSCA2; do
  TABLE="$REPO_ROOT/build/ci_table_$W.txt"
  echo "-- train + verify $W"
  "$REPO_ROOT/build/tools/janus" train --workload "$W" \
    --cache-out "$TABLE" >/dev/null
  "$REPO_ROOT/build/tools/janus" verify --workload "$W" \
    --cache-in "$TABLE" | tail -2
done
echo "-- conviction probe (seeded unsound entry must exit nonzero)"
if "$REPO_ROOT/build/tools/janus" verify --workload JGraphT-1 --rounds 1 \
     --seed-unsound >/dev/null; then
  echo "ci.sh: verifier failed to convict the seeded-unsound table" >&2
  exit 1
fi
echo "conviction probe: convicted as expected."
echo "-- spec conviction probe (seeded unsound spec table must exit nonzero)"
if "$REPO_ROOT/build/tools/janus" verify --workload HashChurn --rounds 1 \
     --seed-unsound-spec >/dev/null; then
  echo "ci.sh: verifier failed to convict the seeded-unsound spec table" >&2
  exit 1
fi
echo "spec conviction probe: convicted as expected."

echo "== [7/11] observability: traced runs + trace validation =="
for E in sim threads; do
  TRACE="$REPO_ROOT/build/ci_trace_$E.json"
  REPORT="$REPO_ROOT/build/ci_report_$E.json"
  echo "-- traced run JGraphT-1 ($E)"
  "$REPO_ROOT/build/tools/janus" run --workload JGraphT-1 --engine "$E" \
    --threads 4 --trace-out "$TRACE" --json-out "$REPORT" >/dev/null
  python3 "$REPO_ROOT/tools/check_trace.py" "$TRACE"
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$REPORT"
done
echo "-- abort attribution JGraphT-1 (sim)"
"$REPO_ROOT/build/tools/janus" explain --workload JGraphT-1 --engine sim \
  --threads 4 --top 5 | tail -8
echo "-- contention heatmap + counter track JGraphT-1 (sim)"
HEAT_TRACE="$REPO_ROOT/build/ci_trace_heat.json"
"$REPO_ROOT/build/tools/janus" explain --workload JGraphT-1 --engine sim \
  --threads 4 --top 5 --by-object --trace-out "$HEAT_TRACE" | tail -6
python3 "$REPO_ROOT/tools/check_trace.py" "$HEAT_TRACE"

echo "== [8/11] perf smoke (micro_commit --quick, incl. shard sweep) =="
"$REPO_ROOT/build/bench/micro_commit" --quick \
  --json-out="$REPO_ROOT/build/BENCH_micro_commit_smoke.json" >/dev/null
echo "perf smoke: completed (see build/BENCH_micro_commit_smoke.json)"
# Fatal perf diff against the committed trajectory baseline. The quick
# run is noisy (and shorter than the committed full run), so the
# throughput threshold is wide by default; the retry-ratio gate is
# largely immune to machine speed and stays tight. Override per
# machine: JANUS_PERF_THRESHOLD (percent) / JANUS_RETRY_THRESHOLD
# (absolute retries-per-commit delta).
if [ -f "$REPO_ROOT/BENCH_micro_commit.json" ]; then
  echo "-- perfdiff vs committed baseline (gating)"
  python3 "$REPO_ROOT/tools/perfdiff.py" \
    "$REPO_ROOT/BENCH_micro_commit.json" \
    "$REPO_ROOT/build/BENCH_micro_commit_smoke.json" \
    --threshold="${JANUS_PERF_THRESHOLD:-75}" \
    --retry-threshold="${JANUS_RETRY_THRESHOLD:-1.5}" \
    --min-ns="${JANUS_PERF_MIN_NS:-1000}"
fi

echo "== [9/11] service soak: janus serve under chaos, graceful drain =="
# Client-coordinate chaos: every client's 7th submission is shed at
# admission, client 3's first submission gets an injected throw, and
# the task-coordinate clauses abort every first attempt and delay every
# second. Each run must drain with exit 0: exactly one terminal reply
# per submission and every batch audit clean (--audit).
SOAK_FAULTS='abort@*.1;delay@*.2=2;shed@*:7;throw@3:1'
for E in threads sim; do
  echo "-- serve soak JGraphT-1 ($E, chaos, audit)"
  "$REPO_ROOT/build/tools/janus" serve --workload JGraphT-1 --engine "$E" \
    --threads 4 --clients 4 --rate 400 --duration-ms 1500 \
    --faults "$SOAK_FAULTS" --audit | tail -3
done
echo "-- serve soak JGraphT-1 (threads, 8 shards, chaos, audit)"
"$REPO_ROOT/build/tools/janus" serve --workload JGraphT-1 --engine threads \
  --shards 8 --threads 4 --clients 4 --rate 400 --duration-ms 1500 \
  --faults "$SOAK_FAULTS" --audit | tail -3
echo "-- serve_soak --quick (admission-control overload gate)"
"$REPO_ROOT/build/bench/serve_soak" --quick \
  --json-out="$REPO_ROOT/build/BENCH_serve_soak_smoke.json" | tail -4

echo "== [10/11] flight recorder + deterministic replay =="
# Record every workload under the stage-5 chaos plan — first attempts
# force-aborted, injected throws, delayed commits, a starved SAT budget
# — on the threaded engine at 1 and 8 shards, then
# validate each dump and replay it in the simulator. The replayed
# commit order and dense clock sequence must match the recording bit
# for bit and the hindsight audit of the replayed trace must be CLEAN.
for W in JFileSync JGraphT-1 JGraphT-2 PMD Weka; do
  for SHARDS in 1 8; do
    REC="$REPO_ROOT/build/ci_rec_${W}_s${SHARDS}.jrec"
    echo "-- record + replay $W (threads, $SHARDS shard(s), chaos)"
    "$REPO_ROOT/build/tools/janus" run --workload "$W" --engine threads \
      --threads 8 --shards "$SHARDS" --production \
      --faults "$CHAOS_FAULTS" --record-out "$REC" >/dev/null
    python3 "$REPO_ROOT/tools/check_trace.py" "$REC"
    # No pipe here: the replay's own exit code (5 divergence, 3 unclean
    # audit) must reach set -e.
    "$REPO_ROOT/build/tools/janus" replay "$REC" > "$REC.out"
    grep -E 'divergence|audit:' "$REC.out"
  done
done
echo "-- divergence probe (tampered schedule must exit nonzero)"
if "$REPO_ROOT/build/tools/janus" replay \
     "$REPO_ROOT/build/ci_rec_Weka_s1.jrec" --probe-divergence \
     >/dev/null 2>&1; then
  echo "ci.sh: replay failed to flag the tampered schedule" >&2
  exit 1
fi
echo "divergence probe: diverged as expected."

echo "== [11/11] build matrix: Release and JANUS_OBS=OFF =="
# Every build configuration the CMake file offers must build and pass.
# Release compiles at -O3, where GCC reports warnings (-Wrestrict) the
# default RelWithDebInfo build does not; the lean build compiles
# observability out but must keep record/replay working.
for CFG in "release -DCMAKE_BUILD_TYPE=Release" "obs-off -DJANUS_OBS=OFF"; do
  DIR="$REPO_ROOT/build-${CFG%% *}"
  echo "-- ${CFG#* } ($DIR)"
  cmake -B "$DIR" -S "$REPO_ROOT" ${CFG#* } >/dev/null
  cmake --build "$DIR" -j "$JOBS"
  (cd "$DIR" && ctest --output-on-failure -j "$JOBS")
done

echo "ci: all stages passed."
