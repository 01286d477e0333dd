#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): full build + ctest, the repo lint
# gate, fully checked (SWRAMAN_CHECK=1) runs of the sunway suites AND
# the serve/obs/parallel suites (the host concurrency checker: lock
# order graph, blocking-under-lock audit, p2p protocol verifier — zero
# violations tolerated), the serve throughput gate (>= 2x over naive
# FIFO with dedup hits), the serve chaos gate (shard kills + WAL
# replay, zero lost jobs, bitwise spectra, lockcheck-clean), then
# instrumented passes — the robustness/fault-injection suite and the
# hartree + grid suites under ASan/UBSan, the obs + parallel + serve suites and
# the rank-parallel Hessian, dalpha/dR and bec field loops under TSan (the
# metrics registry claims lock-free counters and the serve pool claims
# race-free work stealing; this is where we prove both), and the serve
# + obs suites under UBSan.
# Set SWRAMAN_SANITIZE=undefined to swap the robustness pass to UBSan,
# or SWRAMAN_SANITIZE=none to skip every instrumented pass.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${SWRAMAN_SANITIZE:-address}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# assert_checked FILE LABEL [SCHEMA...]: validates a SWRAMAN_CHECK_FILE
# (JSON-lines, one summary line per checker: swraman-check-v1 from
# swcheck, swraman-lockcheck-v1 from the host concurrency checker),
# asserts every checker in it ran enabled, and asserts zero violations
# for each SCHEMA named. With no SCHEMA the run is seeded: swcheck must
# have reported, and its violations are expected.
assert_checked() {
  local file="$1" label="$2"
  shift 2
  python3 scripts/check_perf_json.py "${file}"
  python3 - "${file}" "${label}" "$@" <<'EOF'
import json, sys
path, label, zero = sys.argv[1], sys.argv[2], sys.argv[3:]
docs = {}
with open(path) as f:
    for line in f:
        if line.strip():
            d = json.loads(line)
            docs[d["schema"]] = d
assert docs, f"{label}: no checker summary in {path}"
for s in docs.values():
    assert s["enabled"] is True, s
for schema in zero:
    s = docs[schema]
    assert s["violations"] == 0, \
        f"{label}: {schema} violations under SWRAMAN_CHECK=1: {s}"
if zero:
    print(f"{label}: " + ", ".join(f"{schema} clean" for schema in zero))
else:
    n = docs["swraman-check-v1"]["violations"]
    print(f"{label}: {n} swcheck violation(s) (all seeded and caught)")
EOF
}

echo "== tier-1: plain build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== tier-1: repo lint gate (scripts/lint.py) =="
python3 scripts/lint.py build

echo "== tier-1: checked execution (SWRAMAN_CHECK=1) =="
# SWRAMAN_CHECK_FILE is JSON-lines: one summary line per checker
# (swraman-check-v1 from swcheck, swraman-lockcheck-v1 from the host
# concurrency checker).  Each line is structurally validated, then the
# expected lines are asserted here.
CHECK_DIR="build/check-smoke"
mkdir -p "${CHECK_DIR}"
SWRAMAN_CHECK=1 \
  SWRAMAN_CHECK_FILE="${CHECK_DIR}/swraman_check.json" \
  ./build/tests/test_sunway_check
# Its swcheck violations are seeded on purpose: enabled-only.
assert_checked "${CHECK_DIR}/swraman_check.json" test_sunway_check

echo "== tier-1: sunway + fmm suites + golden Fmm water under the checkers =="
# The CPE-modeled kernels run with the accelerator shadow checker live:
# the sunway suite (kernel1 staging MultipolePotential::value through LDM,
# kernel2, the n1/H1 batches, the pipelines), the octree Hartree backend's
# M2L / P2P offload on its unit/property suite, and the end-to-end golden
# water spectrum under HartreeBackend::Fmm. Unlike test_sunway_check there
# are no seeded violations left in these tallies (seeded checks clear
# theirs via ScopedChecking): any nonzero tally is a real LDM/DMA
# contract breach.
for run in "test_sunway:./build/tests/test_sunway" \
           "test_fmm:./build/tests/test_fmm" \
           "golden-fmm-water:./build/tests/test_golden --gtest_filter=GoldenSpectrum.WaterRamanUnderFmmBackendMatchesSnapshot"; do
  name="${run%%:*}"
  cmd="${run#*:}"
  SWRAMAN_CHECK=1 \
    SWRAMAN_CHECK_FILE="${CHECK_DIR}/${name}_check.json" \
    ${cmd} >/dev/null
  assert_checked "${CHECK_DIR}/${name}_check.json" "${name}" \
    swraman-check-v1 swraman-lockcheck-v1
done

echo "== tier-1: serve + obs suites under the concurrency checker =="
# The whole serve tier and obs plane run with the lock-order graph,
# blocking-under-lock audit and p2p verifier live; both suites must be
# violation-free (the seeded-violation tests clean up after themselves
# via ScopedChecking, so any nonzero tally is a real contract breach).
for suite in test_serve test_obs test_parallel; do
  SWRAMAN_CHECK=1 \
    SWRAMAN_CHECK_FILE="${CHECK_DIR}/${suite}_check.json" \
    "./build/tests/${suite}" >/dev/null
  assert_checked "${CHECK_DIR}/${suite}_check.json" "${suite}" \
    swraman-lockcheck-v1
done

echo "== tier-1: traced smoke run (SWRAMAN_TRACE=1) =="
SMOKE_DIR="build/trace-smoke"
mkdir -p "${SMOKE_DIR}"
SWRAMAN_TRACE=1 \
  SWRAMAN_PERF_FILE="${SMOKE_DIR}/swraman_perf.json" \
  SWRAMAN_TRACE_FILE="${SMOKE_DIR}/swraman_trace.json" \
  ./build/bench/bench_fig15_allreduce >/dev/null
python3 scripts/check_perf_json.py \
  "${SMOKE_DIR}/swraman_perf.json" "${SMOKE_DIR}/swraman_trace.json"

echo "== tier-1: bench smoke (fig15 acceptance gate + JSON) =="
# The bench itself enforces the hierarchical-allreduce acceptance criteria
# (>= 1.5x over flat RSAG, >= 50% overlap-hidden) and exits non-zero on
# regression; the emitted swraman-bench-v1 series is validated and kept as
# the repo's reference curve.
./build/bench/bench_fig15_allreduce --json "${SMOKE_DIR}/BENCH_fig15.json" \
  >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_fig15.json"
cp "${SMOKE_DIR}/BENCH_fig15.json" BENCH_fig15.json

echo "== tier-1: serve smoke + throughput gate (SWRAMAN_CHECK=1) =="
# The serve bench runs the mixed-tenant trace twice (naive FIFO vs the
# full scheduler) and exits non-zero unless the DAG/dedup path is >= 2x
# faster with a non-zero cache hit ratio; running it under SWRAMAN_CHECK=1
# keeps the shadow-state checker live across the whole service stack.
SWRAMAN_CHECK=1 ./build/bench/bench_serve_throughput \
  --json "${SMOKE_DIR}/BENCH_serve.json" >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_serve.json"
cp "${SMOKE_DIR}/BENCH_serve.json" BENCH_serve.json

echo "== tier-1: accuracy-tier gate (bec vs dfpt, golden water) =="
# The tiers bench pushes the same water-scale job batch through both
# accuracy tiers (modeled, dedup off — capacity not caching) and then
# runs the golden water case on the real engine: it exits non-zero unless
# the bec tier is a wall-clock capacity win, performs >= 5x fewer engine
# evaluations than full DFPT, and lands inside the DESIGN.md S15 golden
# tolerances (activities within 5% on shared-Hessian modes).
SWRAMAN_CHECK=1 ./build/bench/bench_serve_tiers \
  --json "${SMOKE_DIR}/BENCH_tiers.json" >/dev/null
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_tiers.json"
cp "${SMOKE_DIR}/BENCH_tiers.json" BENCH_tiers.json

echo "== tier-1: fmm crossover gate (octree Hartree backend) =="
# Growing water clusters priced through both Hartree evaluation paths.
# The bench exits non-zero unless FMM crosses below direct summation
# before the largest cluster and wins >= 1.5x at the largest; the
# emitted swraman-bench-v1 series is validated and kept as the repo's
# reference crossover curve.
./build/bench/bench_fmm_crossover --json "${SMOKE_DIR}/BENCH_fmm.json"
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_fmm.json"
cp "${SMOKE_DIR}/BENCH_fmm.json" BENCH_fmm.json

echo "== tier-1: hotspots pipeline (selftest + smoke report) =="
# The ranking core is pinned by its checked-in fixture, then run over the
# traced smoke report it will see in production (modeled allreduce cycles).
python3 scripts/hotspots.py --selftest
python3 scripts/hotspots.py "${SMOKE_DIR}/swraman_perf.json" --top 5
python3 scripts/hotspots.py "${SMOKE_DIR}/swraman_perf.json" \
  --json "${SMOKE_DIR}/hotspots.json" >/dev/null

echo "== tier-1: serve chaos gate (kills + WAL replay, SWRAMAN_CHECK=1) =="
# The chaos harness replays the short mixed-tenant trace through the
# sharded tier twice (fault-free vs shard kills + torn WAL + remote-cache
# timeouts) and exits non-zero unless every accepted job survives with a
# bitwise-identical spectrum. The same run drives the observability plane
# end to end: the bench itself gates on a jobtrace stitched across the
# kill/replay boundary, a flight-recorder dump per injected kill, and a
# non-zero SLO burn during the chaos window; the exported artifacts
# (chaos record, jobtrace, health history, kill postmortem) are then
# validated structurally here.
(cd "${SMOKE_DIR}" && SWRAMAN_CHECK=1 SWRAMAN_CHECK_FILE=chaos_check.json \
  ../../build/bench/bench_serve_chaos \
  --short --json BENCH_chaos.json --jobtrace chaos_jobtrace.json \
  --health chaos_health.json >/dev/null)
python3 scripts/check_perf_json.py "${SMOKE_DIR}/BENCH_chaos.json"
# The chaos run is the concurrency checker's hardest gate: shard kills,
# WAL replay, failover and remote-cache timeouts, all with the lock
# graph and the p2p verifier live — and zero violations tolerated.
assert_checked "${SMOKE_DIR}/chaos_check.json" "chaos run" \
  swraman-lockcheck-v1
python3 scripts/check_perf_json.py "${SMOKE_DIR}/chaos_jobtrace.json"
python3 scripts/check_perf_json.py "${SMOKE_DIR}/chaos_health.json"
test -f "${SMOKE_DIR}/flight-serve.shard.kill.json" || {
  echo "tier-1: FAIL: no flight-recorder dump for the injected shard kills"
  exit 1
}
python3 scripts/check_perf_json.py "${SMOKE_DIR}/flight-serve.shard.kill.json"
cp "${SMOKE_DIR}/BENCH_chaos.json" BENCH_chaos.json

if [ "${SANITIZER}" != "none" ]; then
  echo "== tier-1: robustness + hartree + grid suites under -fsanitize=${SANITIZER} =="
  cmake -B "build-${SANITIZER}" -S . \
        -DSWRAMAN_SANITIZE="${SANITIZER}" \
        -DSWRAMAN_BUILD_BENCH=OFF -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "build-${SANITIZER}" -j "${JOBS}" --target \
        test_robustness test_hartree test_grid
  "./build-${SANITIZER}/tests/test_robustness"
  # The Hartree grid plan indexes flat [point][atom][lm] buffers whose
  # rows hold only the live channels (16 of 81 at lmax 8 on a 16/7 grid),
  # and the solve's scratch is sized from them; only the instrumented
  # build catches an overrun there, as it would one in the Y_lm
  # recurrence tables.
  "./build-${SANITIZER}/tests/test_hartree"
  "./build-${SANITIZER}/tests/test_grid"

  echo "== tier-1: obs + parallel + serve suites under -fsanitize=thread =="
  # Bench stays ON here (only the chaos target is built): the sharded
  # tier's kill/replay interleavings are exactly what TSan must see.
  cmake -B build-thread -S . \
        -DSWRAMAN_SANITIZE=thread \
        -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-thread -j "${JOBS}" --target test_obs test_parallel \
        test_serve test_fmm test_raman test_robustness bench_serve_chaos
  ./build-thread/tests/test_obs
  ./build-thread/tests/test_parallel
  # The energy Hessian and both calculators' displaced points run through
  # one claim loop (parallel::for_each_point): ranks share the species
  # cache and the read-only restart density, run SCF + DFPT engines and
  # the bec field SCFs, commit into one checkpoint under one mutex and
  # visit the kill site there, and adopt the caller's span context. Their
  # rank tests run under TSan.
  ./build-thread/tests/test_raman --gtest_filter='EnergyHessian.*:Raman.RankParallelMatchesSerialBitwise:Bec.RankParallelMatchesSerialBitwise:Bec.CheckpointKillReplayIsFreeAndBitwise'
  ./build-thread/tests/test_robustness --gtest_filter='ReplayOrEvaluate.*'
  # The FMM backend claims its CPE model fan-out is race-free; the
  # backend suite (M2L/P2P offload vs host path) runs under TSan.
  ./build-thread/tests/test_fmm
  # The serve pool/cache/scheduler run their full modeled-engine suite
  # under TSan; the RealEngine end-to-end tests are excluded only for
  # time (SCF under TSan is ~20x slower), not correctness.
  ./build-thread/tests/test_serve --gtest_filter=-ServeRealEngine.*
  (cd build-thread && ./bench/bench_serve_chaos --short --shards 2)

  echo "== tier-1: serve + obs suites under -fsanitize=undefined =="
  # UBSan complements the concurrency checker: lockcheck proves lock
  # discipline, UBSan proves the code under those locks is free of
  # undefined behavior (the remote-cache wire format bit-casts, the
  # histogram bucket math, the seqlock ring arithmetic).
  cmake -B build-undefined -S . \
        -DSWRAMAN_SANITIZE=undefined \
        -DSWRAMAN_BUILD_BENCH=OFF -DSWRAMAN_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-undefined -j "${JOBS}" --target test_obs test_serve
  ./build-undefined/tests/test_obs
  ./build-undefined/tests/test_serve --gtest_filter=-ServeRealEngine.*
fi

echo "tier-1: OK"
