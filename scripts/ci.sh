#!/usr/bin/env bash
#
# CI gate: static analysis first (bluedbm-lint, the hardened lint
# build and standalone-header compilation -- cheap failures
# short-circuit the expensive smokes), then build the release and
# sanitizer presets, run the full test suite on both (any
# ASan/UBSan finding fails the run) and every example's self-check
# on the release build, then regenerate the tracked perf JSONs
# (BENCH_kernel.json from the kernel ablation, BENCH_kv.json from the
# KV service bench) so the perf trajectory stays machine-readable
# across PRs.
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

echo "=== release: examples ==="
# Every example checks its own result and exits non-zero when a
# check it prints fails; together they take well under a second.
examples=(build/example_*)
if [[ ! -x "${examples[0]}" ]]; then
    echo "no example binaries in build/" >&2
    exit 1
fi
for ex in "${examples[@]}"; do
    "./${ex}" > /dev/null || {
        echo "example gate: ${ex} exited non-zero" >&2
        exit 1
    }
done
echo "example gate ok: ${#examples[@]} examples passed their checks"

echo "=== sanitize (ASan+UBSan): configure + build ==="
cmake --preset sanitize
cmake --build --preset sanitize -j"${JOBS}"

echo "=== sanitize: ctest ==="
# halt_on_error turns any UBSan diagnostic into a test failure
# (ASan aborts on its own); leak detection stays on by default.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --preset sanitize -j"${JOBS}"

echo "=== sanitize: hot-key KV smoke ==="
# One tiny skewed serving run end to end (preload + Zipfian traffic
# + hot-key cache + read coalescing/spreading + group commit) under
# ASan/UBSan; --smoke writes no JSON.
if [[ -x build-sanitize/svc_kv ]]; then
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ./build-sanitize/svc_kv --smoke
else
    echo "build-sanitize/svc_kv missing (google-benchmark not found?)" >&2
    exit 1
fi

echo "=== sanitize: traced KV smoke + span-tree check ==="
# The same smoke with the request tracer on: --trace-out exports the
# sampled span trees as Chrome trace-event JSON. The binary gates
# the span-sum identity (stage durations telescope to e2e latency);
# the python check then proves the artifact itself is loadable and
# that at least one sampled operation's tree is complete from the
# service root down to a NAND leaf -- all under ASan/UBSan.
TRACE_JSON="build-sanitize/smoke_trace.json"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --smoke --trace-out "${TRACE_JSON}" \
    --slow-trace-us 2000
python3 - "${TRACE_JSON}" <<'EOF'
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

echo "=== sanitize: quorum fault-injection smoke ==="
# W=1 puts against a node that fails every NAND program: quorum
# acks must still complete Ok, divergence must be counted, and one
# anti-entropy sweep must drain it to zero -- under ASan/UBSan.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --smoke-quorum

echo "=== sanitize: node-kill + rebuild smoke ==="
# Fail-stop crash mid-phase under live load, Background-priority
# rebuild, final anti-entropy sweep: the binary itself gates zero
# post-rebuild divergence and a kill-window p99 within 3x of
# steady state -- under ASan/UBSan.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --kill-node

echo "=== sanitize: ring-expansion smoke ==="
# A standby node joins mid-phase: dual-write handoff, throttled
# catch-up, atomic ring flip; gates zero divergence, moved keys,
# and a handoff-window p99 within 3x of steady -- under ASan/UBSan.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --expand

echo "=== sanitize: aged-flash smoke ==="
# Pre-worn card at 80-90% occupancy under live load: wear-driven
# bit errors, the read-retry ladder, page poisoning + replica heal,
# bad-block retirement with live relocation, and capacity-pressure
# shedding. The binary gates aged p99 <= 3x fresh, zero post-heal
# divergence/corruption, a retired block, and the occupancy band
# -- all under ASan/UBSan (docs/aging.md).
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --age

echo "=== sanitize: 100-node cluster KV smoke ==="
# The full cluster scale point (100 nodes, zipf 0.99, R=2/W=1)
# end to end under ASan/UBSan: ladder queue, next-hop routing and
# the KV service at the size the 10M ops/s target is gated at.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-sanitize/svc_kv --smoke-100

echo "=== regenerate tracked bench JSONs ==="
# BENCH_kv.json holds simulated numbers only, so it must regenerate
# byte-identical: keep the tracked copy for the bit-identity gate.
cp BENCH_kv.json build/BENCH_kv.json.tracked
if [[ -x build/ablation_kernel && -x build/svc_kv ]]; then
    ./build/ablation_kernel
    ./build/svc_kv
else
    echo "bench binaries missing (google-benchmark not found?)" >&2
    exit 1
fi

echo "=== tracing overhead gate (BENCH_kernel.json) ==="
# Tracing must stay near-free when disabled: the kernel ablation
# runs the pooled event queue with and without per-event tracer
# touches (disabled tracer / untraced handles, best-of-5 per
# variant). The ladder queue roughly halved the per-event cost, so
# the same absolute tracer-check overhead is now a visibly larger
# *fraction* of an event: the floor is 90% of the plain rate
# (measured 0.92-1.00 across runs; the old 98% bound predates the
# ladder and would flake on noise, not regressions).
kernel_field() {
    awk -F'[:,]' -v k="\"$1\"" '$1 ~ k { gsub(/[[:space:]]/, "", $2); print $2 }' \
        BENCH_kernel.json
}
troff="$(kernel_field tracing_off_ratio)"
if [[ -z "$troff" ]]; then
    echo "tracing gate: BENCH_kernel.json missing tracing_off_ratio" >&2
    exit 1
fi
awk -v r="$troff" 'BEGIN { exit !(r + 0 >= 0.90) }' || {
    echo "tracing gate: disabled tracing costs $(awk -v r="$troff" \
        'BEGIN { printf "%.1f", 100 * (1 - r) }')% of event" \
        "throughput (ratio ${troff} < 0.90)" >&2
    exit 1
}
echo "tracing gate ok: traced-off/pooled ratio ${troff}"

echo "=== kernel scale gate (BENCH_kernel.json) ==="
# The cluster-scale trajectory: simulated event density must grow
# monotonically with node count (a flat or sinking curve means the
# kernel or the network stopped scaling), the payload-pool slab
# must actually be engaged by the message bench (a zero high-water
# mark means pooling silently disengaged), and the next-hop routing
# tables must stay compact at 100 nodes (the O(endpoints x n^2)
# tables this PR removed were ~10x this floor).
espd="$(kernel_field events_speedup)"
cn4="$(kernel_field cluster_n4_sim_events_per_sec)"
cn8="$(kernel_field cluster_n8_sim_events_per_sec)"
cn20="$(kernel_field cluster_n20_sim_events_per_sec)"
cn100="$(kernel_field cluster_n100_sim_events_per_sec)"
pslots="$(kernel_field message_payload_pool_slots)"
rbytes="$(kernel_field routing_table_bytes_n100)"
if [[ -z "$espd" || -z "$cn4" || -z "$cn8" || -z "$cn20" ||
      -z "$cn100" || -z "$pslots" || -z "$rbytes" ]]; then
    echo "kernel scale gate: BENCH_kernel.json missing fields" >&2
    exit 1
fi
# The pooled-vs-legacy floor that predates the ladder (>= 3x); the
# ladder itself measures ~7x, so a fall back below 3 means a real
# kernel regression, not noise.
awk -v s="$espd" 'BEGIN { exit !(s + 0 >= 3.0) }' || {
    echo "kernel scale gate: events_speedup ${espd} < 3.0" >&2
    exit 1
}
awk -v a="$cn4" -v b="$cn8" -v c="$cn20" -v d="$cn100" \
    'BEGIN { exit !(a + 0 < b + 0 && b + 0 < c + 0 && c + 0 < d + 0) }' || {
    echo "kernel scale gate: cluster event density not monotone" \
         "(${cn4} / ${cn8} / ${cn20} / ${cn100} sim events/s)" >&2
    exit 1
}
awk -v s="$pslots" 'BEGIN { exit !(s + 0 > 0) }' || {
    echo "kernel scale gate: payload pool high-water is 0 (pooling" \
         "disengaged in the message bench)" >&2
    exit 1
}
awk -v b="$rbytes" 'BEGIN { exit !(b + 0 > 0 && b + 0 < 300000) }' || {
    echo "kernel scale gate: 100-node routing tables ${rbytes} bytes" \
         "outside (0, 300000)" >&2
    exit 1
}
echo "kernel scale gate ok: density ${cn4} -> ${cn8} -> ${cn20} ->" \
     "${cn100} sim events/s, pool high-water ${pslots} slots," \
     "100-node routing ${rbytes} bytes"

echo "=== perf smoke gate (BENCH_kv.json) ==="
# The serving perf floors: 20-node throughput must hold >= 1.9M
# ops/s, the 4-node config (the one program interference used to
# sink) must hold >= 400k, the quorum-acked write tail must stay
# within 1.6x of the read tail, and read-priority suspension must
# actually engage under the mixed load (a silently disabled
# suspend-resume path would pass every latency gate on a lucky
# run). Catches regressions of the put path (quorum/batching), the
# read path, or the suspension machinery underneath both.
bench_field() {
    awk -F'[:,]' -v k="\"$1\"" '$1 ~ k { gsub(/[[:space:]]/, "", $2); print $2 }' \
        BENCH_kv.json
}
tput20="$(bench_field nodes20_tput_ops)"
tput8="$(bench_field nodes8_tput_ops)"
tput4="$(bench_field nodes4_tput_ops)"
tput100="$(bench_field nodes100_tput_ops)"
rp99="$(bench_field quorum_w1_read_p99_us)"
wp99="$(bench_field quorum_w1_write_p99_us)"
div="$(bench_field quorum_w1_divergent_after_sweep)"
susp="$(bench_field nodes20_suspended_programs)"
if [[ -z "$tput20" || -z "$tput8" || -z "$tput4" || -z "$tput100" ||
      -z "$rp99" || -z "$wp99" || -z "$div" || -z "$susp" ]]; then
    echo "perf gate: BENCH_kv.json missing fields" >&2
    exit 1
fi
awk -v t="$tput20" 'BEGIN { exit !(t + 0 >= 1900000) }' || {
    echo "perf gate: 20-node throughput $tput20 < 1.9M ops/s" >&2
    exit 1
}
awk -v t="$tput4" 'BEGIN { exit !(t + 0 >= 400000) }' || {
    echo "perf gate: 4-node throughput $tput4 < 400k ops/s" >&2
    exit 1
}
# The cluster-scale floor and trajectory: 100 nodes must clear the
# paper-scale 10M aggregate ops/s target, and throughput must grow
# monotonically across the whole 4/8/20/100 sweep (a kink anywhere
# means added nodes stopped paying for themselves).
awk -v t="$tput100" 'BEGIN { exit !(t + 0 >= 10000000) }' || {
    echo "perf gate: 100-node throughput $tput100 < 10M ops/s" >&2
    exit 1
}
awk -v a="$tput4" -v b="$tput8" -v c="$tput20" -v d="$tput100" \
    'BEGIN { exit !(a + 0 < b + 0 && b + 0 < c + 0 && c + 0 < d + 0) }' || {
    echo "perf gate: scaling not monotone" \
         "(${tput4} / ${tput8} / ${tput20} / ${tput100} ops/s)" >&2
    exit 1
}
awk -v w="$wp99" -v r="$rp99" 'BEGIN { exit !(w + 0 <= 1.6 * r) }' || {
    echo "perf gate: write p99 ${wp99}us > 1.6x read p99 ${rp99}us" >&2
    exit 1
}
awk -v d="$div" 'BEGIN { exit !(d + 0 == 0) }' || {
    echo "perf gate: divergence survived the repair sweep" >&2
    exit 1
}
awk -v s="$susp" 'BEGIN { exit !(s + 0 > 0) }' || {
    echo "perf gate: suspension never engaged at 20 nodes" >&2
    exit 1
}
# Span-sum acceptance on the traced 20-node run: sampled gets that
# reached NAND must telescope exactly -- their top-level span
# durations sum to the measured end-to-end latency (one simulated
# clock, so the tolerance is zero).
tchecked="$(bench_field traced_span_checked)"
terr="$(bench_field traced_span_sum_err_us)"
if [[ -z "$tchecked" || -z "$terr" ]]; then
    echo "perf gate: BENCH_kv.json missing traced-run fields" >&2
    exit 1
fi
awk -v c="$tchecked" -v e="$terr" \
    'BEGIN { exit !(c + 0 >= 1 && e + 0 == 0) }' || {
    echo "perf gate: span-sum check failed (${tchecked} checked," \
         "max err ${terr}us)" >&2
    exit 1
}
echo "perf gate ok: tput ${tput4}/${tput8}/${tput20}/${tput100}" \
     "ops/s (4/8/20/100n)," \
     "W=1 read p99 ${rp99}us, write p99 ${wp99}us," \
     "post-sweep divergence ${div}, ${susp} suspended programs," \
     "${tchecked} traced gets telescoped exactly"

echo "=== membership gate (BENCH_kv.json) ==="
# Elastic-membership floors at 20 nodes: crashing a node must not
# blow the serving tail past 3x steady state during detection, the
# rebuild must leave zero divergence and actually ride the
# Background flash class, and the ring expansion must move keys
# while holding the same 3x transition bound.
ksteady="$(bench_field member_kill_steady_p99_us)"
kwindow="$(bench_field member_kill_window_p99_us)"
kdiv="$(bench_field member_kill_divergent_final)"
kbgw="$(bench_field member_kill_bg_writes)"
krep="$(bench_field member_kill_rebuild_repairs)"
esteady="$(bench_field member_expand_steady_p99_us)"
ewindow="$(bench_field member_expand_window_p99_us)"
ediv="$(bench_field member_expand_divergent_final)"
emoved="$(bench_field member_expand_moved_keys)"
if [[ -z "$ksteady" || -z "$kwindow" || -z "$kdiv" || -z "$kbgw" ||
      -z "$krep" || -z "$esteady" || -z "$ewindow" ||
      -z "$ediv" || -z "$emoved" ]]; then
    echo "membership gate: BENCH_kv.json missing fields" >&2
    exit 1
fi
awk -v w="$kwindow" -v s="$ksteady" 'BEGIN { exit !(w + 0 <= 3 * s) }' || {
    echo "membership gate: kill-window p99 ${kwindow}us > 3x steady ${ksteady}us" >&2
    exit 1
}
awk -v d="$kdiv" 'BEGIN { exit !(d + 0 == 0) }' || {
    echo "membership gate: divergence survived the rebuild" >&2
    exit 1
}
awk -v r="$krep" -v b="$kbgw" 'BEGIN { exit !(r + 0 > 0 && b + 0 > 0) }' || {
    echo "membership gate: rebuild applied no background repairs" >&2
    exit 1
}
awk -v w="$ewindow" -v s="$esteady" 'BEGIN { exit !(w + 0 <= 3 * s) }' || {
    echo "membership gate: handoff-window p99 ${ewindow}us > 3x steady ${esteady}us" >&2
    exit 1
}
awk -v d="$ediv" -v m="$emoved" 'BEGIN { exit !(d + 0 == 0 && m + 0 > 0) }' || {
    echo "membership gate: expansion left divergence or moved no keys" >&2
    exit 1
}
# Phase attribution of the membership counters (registry snapshot
# deltas): the crash window -- not steady state -- must account for
# the detection timeouts and the dead transition. At 20 nodes the
# default detection knobs sit far above the steady tail, so steady
# must own exactly zero.
ksteadyto="$(bench_field member_kill_steady_read_timeouts)"
kwindowto="$(bench_field member_kill_window_read_timeouts)"
kwindowdead="$(bench_field member_kill_window_dead_transitions)"
if [[ -z "$ksteadyto" || -z "$kwindowto" || -z "$kwindowdead" ]]; then
    echo "membership gate: BENCH_kv.json missing phase-delta fields" >&2
    exit 1
fi
awk -v s="$ksteadyto" -v w="$kwindowto" -v d="$kwindowdead" \
    'BEGIN { exit !(s + 0 == 0 && w + 0 > 0 && d + 0 > 0) }' || {
    echo "membership gate: crash window does not own the detection" \
         "cost (steady ${ksteadyto} / window ${kwindowto} timeouts," \
         "${kwindowdead} dead transitions in window)" >&2
    exit 1
}
echo "membership gate ok: kill p99 ${ksteady}->${kwindow}us," \
     "${krep} rebuild repairs (${kbgw} bg writes), divergence ${kdiv};" \
     "join p99 ${esteady}->${ewindow}us, ${emoved} keys moved," \
     "divergence ${ediv}; crash window owns ${kwindowto} timeouts" \
     "(steady ${ksteadyto})"

echo "=== aging gate (BENCH_kv.json) ==="
# Aged-flash floors (docs/aging.md): serving on a worn card at
# 80-90% occupancy must hold p99 within 3x of fresh, every
# uncorrectable page must heal from a replica (zero divergence,
# zero corrupt keys, zero bad read-backs after convergence), wear
# must actually bite (>= 1 retired block, live pages relocated),
# and write amplification must be reported sane alongside the
# erase-count distribution.
afresh="$(bench_field age_fresh_p99_us)"
aaged="$(bench_field age_aged_p99_us)"
adiv="$(bench_field age_divergent_final)"
acorrupt="$(bench_field age_corrupt_final)"
abad="$(bench_field age_read_back_bad)"
aretired="$(bench_field age_retired_blocks)"
areloc="$(bench_field age_relocated_pages)"
awa="$(bench_field age_write_amp)"
autil="$(bench_field age_utilization)"
auncorr="$(bench_field age_uncorrectable_pages)"
if [[ -z "$afresh" || -z "$aaged" || -z "$adiv" || -z "$acorrupt" ||
      -z "$abad" || -z "$aretired" || -z "$areloc" || -z "$awa" ||
      -z "$autil" || -z "$auncorr" ]]; then
    echo "aging gate: BENCH_kv.json missing age_* fields" >&2
    exit 1
fi
awk -v a="$aaged" -v f="$afresh" 'BEGIN { exit !(a + 0 <= 3 * f) }' || {
    echo "aging gate: aged p99 ${aaged}us > 3x fresh ${afresh}us" >&2
    exit 1
}
awk -v d="$adiv" -v c="$acorrupt" -v b="$abad" \
    'BEGIN { exit !(d + 0 == 0 && c + 0 == 0 && b + 0 == 0) }' || {
    echo "aging gate: corruption survived convergence" \
         "(divergent ${adiv}, corrupt ${acorrupt}, bad ${abad})" >&2
    exit 1
}
awk -v u="$auncorr" -v r="$aretired" -v l="$areloc" \
    'BEGIN { exit !(u + 0 > 0 && r + 0 >= 1 && l + 0 > 0) }' || {
    echo "aging gate: wear never bit (${auncorr} uncorrectable," \
         "${aretired} retired, ${areloc} relocated)" >&2
    exit 1
}
awk -v w="$awa" 'BEGIN { exit !(w + 0 >= 1) }' || {
    echo "aging gate: write amplification ${awa} < 1" >&2
    exit 1
}
awk -v u="$autil" 'BEGIN { exit !(u + 0 >= 0.78 && u + 0 <= 0.93) }' || {
    echo "aging gate: occupancy ${autil} outside the 80-90% band" >&2
    exit 1
}
echo "aging gate ok: p99 ${afresh}->${aaged}us, WA ${awa}," \
     "occupancy ${autil}, ${aretired} retired / ${areloc} relocated," \
     "${auncorr} uncorrectable all healed"

echo "=== figure JSON bit-identity (wear defaults off) ==="
# The wear model defaults OFF (NandArray::setWearModel unarmed):
# the tracked figure reproductions must regenerate bit-identical,
# proving this PR's aging machinery costs the paper's numbers
# nothing.
for fig in fig12_latency:BENCH_fig12.json fig13_bandwidth:BENCH_fig13.json; do
    bin="build/${fig%%:*}"
    json="${fig##*:}"
    if [[ ! -x "$bin" ]]; then
        echo "figure gate: $bin missing" >&2
        exit 1
    fi
    cp "$json" "build/${json}.tracked"
    "./$bin" > /dev/null
    cmp "$json" "build/${json}.tracked" || {
        echo "figure gate: $json changed with wear defaults off" >&2
        exit 1
    }
done
echo "figure gate ok: fig12/fig13 JSONs bit-identical"

echo "=== KV JSON bit-identity ==="
# Every BENCH_kv.json field is simulated, so a change that only
# moves host cost must leave it byte-identical to the tracked file.
cmp BENCH_kv.json build/BENCH_kv.json.tracked || {
    echo "kv gate: BENCH_kv.json differs from the tracked file" >&2
    exit 1
}
echo "kv gate ok: BENCH_kv.json bit-identical"

echo "=== CI OK ==="
