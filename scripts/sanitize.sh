#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive test suites under ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer. These are the suites that exercise real threads
# (runtime, chaos, parameter server, the experiment thread pool and the
# ParallelRunner built on it, plus the lock-free obs instruments recorded
# from those threads) and the fault plan itself; the rest of the repo is
# single-threaded sim code covered by the plain build. net_test runs the
# whole transport matrix under both sanitizers: the multiplexed pipelined
# ShardClient (receiver threads, pending-table handoff, reconnects) against
# BOTH server models — the per-model suites are value-parameterized, so the
# epoll event-loop server's loop/pool/connection lifetimes are TSan/ASan
# proven on every CI run, including the start/stop hammer. The event-queue
# and tuner equivalence property suites ride along for ASan's sake: the
# event queue moves payloads out mid-callback while the callback grows the
# heap, exactly the lifetime pattern ASan proves sound (DESIGN.md §12).
# compression_property_test rides along the same way: the codec's
# error-feedback residuals grow lazily per worker and the round-trip checks
# hammer span views over reallocating buffers. UBSan runs without recovery,
# so any finding (overflow, misaligned or out-of-range access, bad casts)
# aborts the suite.
#
# Usage: scripts/sanitize.sh [thread|address|undefined|all]   (default: all)
set -euo pipefail

cd "$(dirname "$0")/.."

SUITES=(runtime_test runtime_chaos_test consistency_hammer_test ps_test
        fault_test thread_pool_test parallel_runner_test obs_test net_test
        event_queue_test tuner_equivalence_test
        compression_property_test)
MODE="${1:-all}"

run_mode() {
  local sanitizer="$1"
  local build_dir="build-${sanitizer}san"
  echo "=== ${sanitizer} sanitizer ==="
  cmake -B "${build_dir}" -S . -DSPECSYNC_SANITIZE="${sanitizer}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "${build_dir}" -j "$(nproc)" --target "${SUITES[@]}"
  for suite in "${SUITES[@]}"; do
    echo "--- ${suite} (${sanitizer}) ---"
    "${build_dir}/tests/${suite}"
  done
}

case "${MODE}" in
  thread)    run_mode thread ;;
  address)   run_mode address ;;
  undefined) run_mode undefined ;;
  all)       run_mode thread; run_mode address; run_mode undefined ;;
  *) echo "usage: $0 [thread|address|undefined|all]" >&2; exit 2 ;;
esac

echo "sanitize.sh: all suites clean"
