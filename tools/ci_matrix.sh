#!/usr/bin/env bash
# Sanitizer build matrix for CI: build the whole tree under each requested
# sanitizer and run the ctest label subsets that exercise the batched
# evaluation path and the multi-threaded engines.
#
#   tools/ci_matrix.sh [sanitizer ...]     # default: address undefined
#
# Per sanitizer (own build tree, build-ci-<san>):
#   - `ctest -L 'batched|concurrency'` — the differential harness that pins
#     the batched FF/Suitability evaluators and the sweep's one evaluation
#     path to the scalar engines and per-point predict, and pins the scalar
#     FF/Suitability numbers and timeline spans by digest
#     (tests/property/test_batched_equivalence.cpp); the FF == Real == SYN
#     agreement property on flat sections
#     (tests/property/test_ff_des_agreement.cpp); plus every suite
#     that drives the sweep worker pool, the memo, the metrics registry and
#     the serve daemon.
#   - `ctest -L perf` — the self-checking benches: per-point predict vs
#     memoized sweep at one and hardware_concurrency workers, advisor
#     soundness and memo counts, the reuse model's MPI error and work
#     counts. They compare and count, never time, at one fixed shape, so
#     tier-1 and the sanitizers run the same grid. Timings live in
#     perfbench (perfbench/README.md).
#   - `ctest -L reuse -LE perf` — the reuse-distance memory model
#     (docs/MEMMODEL.md): collector exactness vs brute-force stack
#     simulation, miss-model goldens vs the cache simulator, cross-machine
#     sweeps. The collector's bit-twiddled hot path (bitmap + Fenwick
#     popcounts, slot renumbering) is exactly the kind of code sanitizers
#     earn their keep on. (-LE perf: the reuse bench already ran in the
#     perf stage.)
#   - `ctest -L advisor -LE perf` — the what-if advisor (docs/ADVISOR.md):
#     compiled-vs-pointer edit differentials, the Advice API, and the
#     action-soundness property suite.
#   - `ctest -L des` — the discrete-event machine and the OpenMP/Cilk
#     executors on it: hand-derived schedules and work counts, exact
#     progress (tests/machine/test_exact_progress.cpp, with the seeded
#     property over random compute-only scripts and the split-invariance
#     property: cutting compute-only Execs into back-to-back pieces, beside
#     locks, latches and preemption, changes no statistic and no timeline
#     span, which the replays' Exec folding relies on), the replay work
#     counts (OmpReplayWork.*), the DES bit-identity golden and its
#     popped-event budget. Per-thread segment state and an
#     intrusive push list threaded through the cores replace per-event
#     due-time bookkeeping; that index-linked list is what a sanitizer
#     should watch.
#   - `ctest -L cli` — the pprophet front end: the flag table's range and
#     strictness properties (every number through one std::from_chars
#     parser), seeded random argv, the memory-model output goldens of the
#     shared pricing step, and the client against an in-process daemon.
#     Parsers of untrusted argv are what address and undefined catch.
#
# `thread` is also accepted (README documents the TSan + `-L concurrency`
# combination) but is not in the default set: TSan roughly 10x-es the
# event-engine suites, so CI runs it on a slower cadence.
#
# A Debug build (no NDEBUG, plus -D_GLIBCXX_ASSERTIONS for bounds-checked
# containers) then runs `ctest -L des`: the DES's segment and push-list
# `assert`s in src/machine/machine.cpp only execute there, because the
# default RelWithDebInfo build and the sanitizer trees define NDEBUG.
#
# Independently of the requested set, the matrix always finishes with a
# thread-sanitizer stage scoped to the serve path: `ctest -L server`
# (daemon + stats-endpoint + event-log suites, whose latency histograms
# and JSONL logger are exactly the shared state TSan should watch; it
# includes test_reactor's 64-client two-transport load case, which gates
# response bit-identity against an in-process sweep), and a live daemon
# smoke run with --metrics and --log enabled. The `server` label is a
# small fraction of the full concurrency set, so this stays cheap enough
# for every PR.
set -euo pipefail

cd "$(dirname "$0")/.."

sans=("$@")
if [ ${#sans[@]} -eq 0 ]; then
  sans=(address undefined)
fi
jobs=$(nproc 2>/dev/null || echo 4)

build_san() {
  local san="$1" bdir="$2"
  echo "=== ${san}: configure + build (${bdir}) ==="
  cmake -B "${bdir}" -S . -DPPROPHET_SANITIZE="${san}" >/dev/null
  cmake --build "${bdir}" -j "${jobs}"
}

# Start the daemon with telemetry on, poke it with ping + stats, drain it,
# and require that the request log and metrics file came out non-empty.
serve_smoke() {
  local bdir="$1"
  local tmp
  tmp=$(mktemp -d)
  local sock="${tmp}/pp.sock"
  "${bdir}/tools/pprophet" serve --socket "${sock}" --serve-workers 2 \
      --metrics="${tmp}/metrics.json" --log "${tmp}/requests.jsonl" &
  local pid=$!
  for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.1
  done
  "${bdir}/tools/pprophet" client --socket "${sock}" ping >/dev/null
  "${bdir}/tools/pprophet" stats --socket "${sock}" >/dev/null
  kill -TERM "${pid}"
  wait "${pid}"
  test -s "${tmp}/requests.jsonl"   # every request logged (sampling=1)
  test -s "${tmp}/metrics.json"     # serve histograms merged at exit
  rm -rf "${tmp}"
}

ran_thread=0
for san in "${sans[@]}"; do
  [ "${san}" = thread ] && ran_thread=1
  bdir="build-ci-${san}"
  build_san "${san}" "${bdir}"
  echo "=== ${san}: batched + concurrency labels ==="
  ctest --test-dir "${bdir}" -L 'batched|concurrency' --output-on-failure
  echo "=== ${san}: perf gates ==="
  ctest --test-dir "${bdir}" -L perf --output-on-failure
  echo "=== ${san}: reuse model label ==="
  ctest --test-dir "${bdir}" -L reuse -LE perf --output-on-failure
  echo "=== ${san}: advisor label ==="
  # The what-if advisor (docs/ADVISOR.md): edit-machinery differentials,
  # Advice API, and the soundness property suite. The advisor walks copied
  # compiled arrays and salts digests in place — pointer-arithmetic-heavy
  # code worth a sanitizer pass. (-LE perf: bench_advisor, which carries
  # both labels, already gated soundness + memo counts in the perf stage.)
  ctest --test-dir "${bdir}" -L advisor -LE perf --output-on-failure
  echo "=== ${san}: des label ==="
  ctest --test-dir "${bdir}" -L des --output-on-failure
  echo "=== ${san}: cli label ==="
  ctest --test-dir "${bdir}" -L cli --output-on-failure
done

# The DES assertions: a Debug tree of its own, unsanitized.
echo "=== debug: configure + build (build-ci-debug) ==="
cmake -B build-ci-debug -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS >/dev/null
cmake --build build-ci-debug -j "${jobs}"
echo "=== debug: des label with assertions ==="
ctest --test-dir build-ci-debug -L des --output-on-failure

# Serve-path TSan stage. Skipped only when a full `thread` pass already ran
# above — `-L concurrency` is a superset of `-L server` there.
if [ "${ran_thread}" -eq 0 ]; then
  bdir="build-ci-thread"
  build_san thread "${bdir}"
  echo "=== thread: server label (stats endpoint, event log, daemon) ==="
  ctest --test-dir "${bdir}" -L server --output-on-failure
  echo "=== thread: daemon smoke with --metrics + --log ==="
  serve_smoke "${bdir}"
else
  echo "=== thread: full concurrency pass already ran; smoke only ==="
  serve_smoke "build-ci-thread"
fi

echo "ci matrix OK: ${sans[*]} + debug(des) + thread(server)"
