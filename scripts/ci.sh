#!/usr/bin/env bash
#
# CI gate: static analysis first (bluedbm-lint, the hardened lint
# build and standalone-header compilation -- cheap failures
# short-circuit the expensive smokes), then build the release and
# sanitizer presets, run the full test suite and every example's
# self-check on both (any ASan/UBSan finding fails the run) and the
# svc_kv smokes under the sanitizers, then regenerate the tracked
# bench JSONs (the sim goldens must come out byte-identical) and hold
# them and the smoke results to the gate table, tools/gates/gates.py.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "=== static analysis: bluedbm-lint ==="
# Determinism, hot-path allocation discipline, [[nodiscard]] surface
# and include hygiene; zero unsuppressed findings or the run stops
# here. docs/static_analysis.md has the rule catalog.
python3 tools/lint/bluedbm_lint.py

echo "=== static analysis: lint self-tests ==="
# Both directions of the gate: every rule fires on its known-bad
# fixture and stays quiet on known-good code.
python3 tools/lint/test_lint.py

echo "=== static analysis: hardened build + standalone headers ==="
# -Wconversion -Wshadow -Wextra-semi -Wnon-virtual-dtor
# -Wdouble-promotion promoted to errors across src/, plus one
# generated TU per public header proving each compiles standalone.
cmake --preset lint
cmake --build --preset lint -j"${JOBS}"

echo "=== release: configure + build ==="
cmake --preset release
cmake --build --preset release -j"${JOBS}"

echo "=== release: ctest ==="
ctest --preset release -j"${JOBS}"

echo "=== sanitize (ASan+UBSan): configure + build ==="
cmake --preset sanitize
cmake --build --preset sanitize -j"${JOBS}"

echo "=== sanitize: ctest ==="
# halt_on_error turns any UBSan diagnostic into a test failure
# (ASan aborts on its own); leak detection stays on by default.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --preset sanitize -j"${JOBS}"

echo "=== examples: release + sanitize ==="
# Every example checks its own result and exits non-zero when a
# check it prints fails; under sanitize any ASan/UBSan finding or
# leak report fails it too. Both presets take a few seconds.
for dir in build build-sanitize; do
    examples=("${dir}"/example_*)
    if [[ ! -x "${examples[0]}" ]]; then
        echo "no example binaries in ${dir}/" >&2
        exit 1
    fi
    for ex in "${examples[@]}"; do
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
            "./${ex}" > /dev/null || {
            echo "example gate: ${ex} exited non-zero" >&2
            exit 1
        }
    done
    echo "example gate ok: ${#examples[@]} ${dir} examples passed their checks"
done

echo "=== sanitize: svc_kv smokes ==="
# Each smoke runs one scenario end to end under ASan/UBSan, inside
# build-sanitize/ so that its SMOKE_*.json result lands there for the
# gate table below (stale results are removed first):
#   --smoke         4-node hot-key serving: preload, Zipfian traffic,
#                   hot-key cache, read coalescing/spreading, group
#                   commit;
#   --smoke-quorum  W=1 puts against a node failing every NAND
#                   program, healed by one anti-entropy sweep;
#   --kill-node     fail-stop crash mid-phase under live load,
#                   Background-priority rebuild, final sweep;
#   --expand        a standby node joins mid-phase: dual-write
#                   handoff, throttled catch-up, atomic ring flip;
#   --age           pre-worn card at 88-92% occupancy: bit errors,
#                   retry ladder, replica heal, block retirement,
#                   capacity shedding (docs/aging.md);
#   --smoke-100     the 100-node ring (zipf 0.99, R=2/W=1): ladder
#                   queue and next-hop routing at full fan-out.
if [[ ! -x build-sanitize/svc_kv ]]; then
    echo "build-sanitize/svc_kv missing (google-benchmark not found?)" >&2
    exit 1
fi
rm -f build-sanitize/SMOKE_*.json
for smoke in --smoke --smoke-quorum --kill-node --expand --age --smoke-100; do
    (cd build-sanitize &&
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ./svc_kv "$smoke")
done

echo "=== sanitize: traced KV smoke + span-tree check ==="
# The hot-key smoke with the request tracer on: --trace-out exports
# the sampled span trees as Chrome trace-event JSON, and the span-sum
# identity (stage durations telescope to e2e latency) goes to
# SMOKE_kv_traced.json for the gate table. The python check then
# proves the artifact itself is loadable and that at least one
# sampled operation's tree is complete from the service root down to
# a NAND leaf -- all under ASan/UBSan.
(cd build-sanitize &&
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./svc_kv --smoke --trace-out smoke_trace.json --slow-trace-us 2000)
python3 - build-sanitize/smoke_trace.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)  # must parse as strict JSON
events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
if not events:
    sys.exit("trace JSON holds no span events")
# Group spans by trace (pid) and walk one NAND leaf to its root.
traces = {}
for e in events:
    traces.setdefault(e["pid"], {})[e["args"]["span"]] = e
complete = 0
for spans in traces.values():
    names = {e["name"] for e in spans.values()}
    if "svc.queue" not in names:
        continue
    for e in spans.values():
        if not e["name"].startswith("nand."):
            continue
        hop = e
        while hop["args"]["parent"] != -1:
            hop = spans[hop["args"]["parent"]]
        if hop["name"].startswith("kv."):
            complete += 1
            break
if complete == 0:
    sys.exit("no sampled trace is complete from admission "
             "(svc.queue under a kv.* root) to a NAND leaf")
print(f"trace check ok: {len(traces)} traces retained, "
      f"{complete} complete to a NAND leaf")
EOF

echo "=== regenerate bench JSONs + golden bit-identity ==="
# Every field of the four tracked goldens is simulated (and the wear
# model defaults off), so each must regenerate byte-identical.
# ablation_kernel writes its host-time fields (throughputs, the
# tracing-overhead median) to build/BENCH_kernel_host.json, next to
# the binary, for the gate table below: nothing host-timed is tracked.
rm -f build/BENCH_kernel_host.json
for golden in ablation_kernel:BENCH_kernel.json svc_kv:BENCH_kv.json \
              fig12_latency:BENCH_fig12.json \
              fig13_bandwidth:BENCH_fig13.json; do
    bin="build/${golden%%:*}"
    json="${golden##*:}"
    if [[ ! -x "$bin" ]]; then
        echo "golden gate: $bin missing" >&2
        exit 1
    fi
    cp "$json" "build/${json}.tracked"
    "./$bin" > /dev/null
    cmp "$json" "build/${json}.tracked" || {
        echo "golden gate: $json differs from the tracked file" >&2
        exit 1
    }
done
echo "golden gate ok: BENCH_kernel/kv/fig12/fig13 JSONs bit-identical"

echo "=== gate table ==="
# Every numeric bound on BENCH_kernel.json, BENCH_kv.json,
# build/BENCH_kernel_host.json and the smokes' SMOKE_*.json: one row
# each, with its reason.
python3 tools/gates/gates.py

echo "=== CI OK ==="
