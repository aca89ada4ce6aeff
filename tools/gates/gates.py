#!/usr/bin/env python3
"""The benchmark gate table and its checker.

Every numeric bound that CI holds the benches to is one row of GATES:
(json file, expression over that file's field names, one-line
reason).  Paths are relative to the repository root:

  * BENCH_kernel.json and BENCH_kv.json are the tracked bench JSONs
    that scripts/ci.sh regenerates (ablation_kernel, svc_kv); both
    hold simulated fields only and must regenerate byte-identical;
  * build/BENCH_kernel_host.json holds ablation_kernel's host-time
    fields, written next to the binary so no host-time number is
    tracked;
  * build-sanitize/SMOKE_*.json are written by the svc_kv smoke modes
    (--smoke, --smoke-quorum, --kill-node, --expand, --age,
    --smoke-100), which ci.sh runs inside build-sanitize/ under
    ASan/UBSan.  Each mode writes its own file, using the field names
    BENCH_kv.json gives the same scenario.

Where a bound holds for both the full run and its smoke, it is a row
for each file.

A row fails when its file is absent or not a JSON object, when a
field it names is missing, null, not a number or not finite, or when
its expression is false.  Expressions may use numbers, field names,
+ - *, comparisons and and/or/not, nothing else.  Every row is
evaluated on every run; the exit status is 1 if any row fails.

Usage: python3 tools/gates/gates.py   (stdlib only, no options)
"""

import ast
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

KERNEL = "BENCH_kernel.json"
KERNEL_HOST = "build/BENCH_kernel_host.json"
KV = "BENCH_kv.json"
SMOKE = "build-sanitize/SMOKE_kv.json"
SMOKE_TRACED = "build-sanitize/SMOKE_kv_traced.json"
SMOKE_QUORUM = "build-sanitize/SMOKE_quorum.json"
SMOKE_KILL = "build-sanitize/SMOKE_kill.json"
SMOKE_EXPAND = "build-sanitize/SMOKE_expand.json"
SMOKE_AGE = "build-sanitize/SMOKE_age.json"
SMOKE_N100 = "build-sanitize/SMOKE_n100.json"

GATES = [
    # Event kernel and network (ablation_kernel).  Host-time fields
    # are gated only as ratios taken within one run.
    (KERNEL_HOST, "tracing_off_ratio >= 0.90",
     "disabled tracing may cost at most 10% of pooled event "
     "throughput (the median of 9 alternating pooled/traced-off "
     "pairs; single samples ranged 0.85-1.06)"),
    (KERNEL_HOST, "events_speedup >= 3.0",
     "the pooled event queue must stay >= 3x the legacy heap"),
    (KERNEL, "cluster_n4_sim_events_per_sec < "
     "cluster_n8_sim_events_per_sec < cluster_n20_sim_events_per_sec "
     "< cluster_n100_sim_events_per_sec",
     "simulated event density must grow monotonically with nodes"),
    (KERNEL, "message_payload_pool_slots > 0",
     "the payload-pool slab must engage in the message bench"),
    (KERNEL, "0 < routing_table_bytes_n100 < 300000",
     "100-node next-hop routing tables must stay compact"),

    # Serving (svc_kv scaling, quorum and traced runs).
    (KV, "nodes20_tput_ops >= 1900000",
     "20-node serving throughput floor"),
    (KV, "nodes4_tput_ops >= 400000",
     "4-node floor, the config program interference used to sink"),
    (KV, "nodes100_tput_ops >= 10000000",
     "100 nodes must clear the paper-scale 10M aggregate ops/s"),
    (KV, "nodes4_tput_ops < nodes8_tput_ops < nodes20_tput_ops < "
     "nodes100_tput_ops",
     "added nodes must keep paying for themselves (monotone scaling)"),
    (KV, "quorum_w1_write_p99_us <= 1.6 * quorum_w1_read_p99_us",
     "the quorum-acked write tail stays within 1.6x the read tail"),
    (KV, "quorum_w1_divergent_after_sweep == 0",
     "one repair sweep must drain all divergence"),
    (KV, "nodes20_suspended_programs > 0",
     "read-priority program suspension must engage under mixed load"),
    (KV, "traced_span_checked >= 1",
     "at least one sampled NAND-reaching get must be span-checked"),
    (KV, "traced_span_sum_err_us == 0",
     "top-level spans telescope exactly to e2e latency (one clock)"),
    (SMOKE, "nodes4_tput_ops > 0",
     "the hot-key smoke must make progress"),
    (SMOKE_TRACED, "traced_tput_ops > 0",
     "the traced smoke must make progress"),
    (SMOKE_TRACED, "traced_started > 0 and traced_retained > 0",
     "the traced smoke must retain traces"),
    (SMOKE_TRACED, "traced_span_checked >= 1",
     "at least one sampled NAND-reaching get must be span-checked"),
    (SMOKE_TRACED, "traced_span_sum_err_us == 0",
     "top-level spans telescope exactly to e2e latency (one clock)"),
    (SMOKE_N100, "nodes100_tput_ops > 0",
     "the 100-node smoke must make progress"),
    (SMOKE_N100, "nodes100_divergent_after_sweep == 0",
     "the 100-node smoke's repair sweep must drain all divergence"),

    # Quorum fault injection (svc_kv --smoke-quorum): W=1 puts against
    # a node that fails every NAND program.
    (SMOKE_QUORUM, "quorum_w1_puts_ok == quorum_w1_puts",
     "every fault-free put must succeed"),
    (SMOKE_QUORUM, "quorum_w1_divergent > 0",
     "the injected program faults must be counted as divergence"),
    (SMOKE_QUORUM, "quorum_w1_divergent_after_sweep == 0",
     "one repair sweep must drain all divergence"),
    (SMOKE_QUORUM, "quorum_w1_reads == 4 * quorum_w1_puts and "
     "quorum_w1_reads_bad == 0",
     "after the sweep every key reads its overwrite from all 4 nodes"),

    # Node crash + Background rebuild (20 nodes in BENCH_kv.json; the
    # 4-node smoke runs tight detection knobs, which sit below its
    # steady tail, so its steady phase may time out too).
    (KV, "member_kill_window_p99_us <= 3 * member_kill_steady_p99_us",
     "crash detection may not blow the tail past 3x steady"),
    (SMOKE_KILL,
     "member_kill_window_p99_us <= 3 * member_kill_steady_p99_us",
     "crash detection may not blow the tail past 3x steady"),
    (KV, "member_kill_divergent_final == 0",
     "the rebuild and final sweep must heal all divergence"),
    (SMOKE_KILL, "member_kill_divergent_final == 0",
     "the rebuild and final sweep must heal all divergence"),
    (KV, "member_kill_rebuild_repairs > 0 and member_kill_bg_writes > 0",
     "the rebuild must apply repairs on the Background flash class"),
    (KV, "member_kill_steady_read_timeouts == 0",
     "at 20 nodes the default detection knobs sit far above the "
     "steady tail: steady owns no timeouts"),
    (KV, "member_kill_window_read_timeouts > 0 and "
     "member_kill_window_dead_transitions > 0",
     "the crash window owns the detection timeouts and the death"),
    (SMOKE_KILL, "member_kill_dead_transitions > 0",
     "the crash must be detected"),
    (SMOKE_KILL, "member_kill_steady_dead_transitions == 0 and "
     "member_kill_window_dead_transitions > 0",
     "dead transitions land in the crash window, not steady state"),
    (SMOKE_KILL, "member_kill_window_read_timeouts > "
     "member_kill_steady_read_timeouts",
     "the crash window owns the timeout surge"),
    (SMOKE_KILL, "member_kill_steady_read_timeouts + "
     "member_kill_window_read_timeouts == member_kill_read_timeouts",
     "phase deltas sum to the cumulative counter (none dropped)"),

    # Ring expansion: a standby node joins under live load.
    (KV, "member_expand_window_p99_us <= "
     "3 * member_expand_steady_p99_us",
     "the join handoff may not blow the tail past 3x steady"),
    (SMOKE_EXPAND, "member_expand_window_p99_us <= "
     "3 * member_expand_steady_p99_us",
     "the join handoff may not blow the tail past 3x steady"),
    (KV, "member_expand_divergent_final == 0 and "
     "member_expand_moved_keys > 0",
     "the join must move keys and leave no divergence"),
    (SMOKE_EXPAND, "member_expand_divergent_final == 0",
     "the handoff and final sweep must leave no divergence"),
    (SMOKE_EXPAND, "member_expand_moved_keys > 0 and "
     "member_expand_ring_epoch == 1",
     "the join must move keys in exactly one ring flip"),

    # Aged flash at 88-92% occupancy (docs/aging.md).
    (KV, "age_aged_p99_us <= 3 * age_fresh_p99_us",
     "the aged tail stays within 3x of fresh"),
    (SMOKE_AGE, "age_aged_p99_us <= 3 * age_fresh_p99_us",
     "the aged tail stays within 3x of fresh"),
    (KV, "age_divergent_final == 0 and age_corrupt_final == 0 and "
     "age_read_back_bad == 0",
     "every uncorrectable page heals from its replica; nothing lost"),
    (SMOKE_AGE, "age_divergent_final == 0 and age_corrupt_final == 0",
     "every uncorrectable page heals from its replica"),
    (SMOKE_AGE, "age_read_back_bad == 0",
     "no key may be lost after the heal"),
    (KV, "age_uncorrectable_pages > 0 and age_retired_blocks >= 1 and "
     "age_relocated_pages > 0",
     "wear must bite: uncorrectable senses, a retired block, "
     "relocated pages"),
    (SMOKE_AGE, "age_uncorrectable_pages > 0 and "
     "age_retry_successes > 0",
     "wear must bite and the read-retry ladder must rescue pages"),
    (SMOKE_AGE, "age_retired_blocks > 0 and age_relocated_pages > 0",
     "a block must retire behind the cleaner with live pages moved"),
    (KV, "age_write_amp >= 1",
     "write amplification is reported sane"),
    (SMOKE_AGE, "age_write_amp >= 1",
     "write amplification is reported sane"),
    (KV, "0.88 <= age_utilization <= 0.92",
     "occupancy stays inside the 88-92% aged-flash band"),
    (SMOKE_AGE, "0.88 <= age_utilization <= 0.92",
     "occupancy stays inside the 88-92% aged-flash band"),
]

_ALLOWED = (ast.Expression, ast.Compare, ast.BoolOp, ast.BinOp,
            ast.UnaryOp, ast.Name, ast.Load, ast.Constant, ast.And,
            ast.Or, ast.Not, ast.USub, ast.Add, ast.Sub, ast.Mult,
            ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def parse(expr):
    """The syntax tree of a gate expression; ValueError when it uses
    anything but numbers, names, arithmetic, comparisons and
    and/or/not."""
    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED) or (
                isinstance(node, ast.Constant) and
                not _number(node.value)):
            raise ValueError("unsupported syntax: %s"
                             % ast.dump(node))
    return tree


def comparisons(rows):
    """Number of comparison operators across @p rows."""
    return sum(len(node.ops) for _, expr, _ in rows
               for node in ast.walk(parse(expr))
               if isinstance(node, ast.Compare))


def evaluate(expr, doc):
    """None when @p expr holds over the fields of @p doc, else why
    it does not."""
    try:
        tree = parse(expr)
    except (SyntaxError, ValueError) as e:
        return "bad expression: %s" % e
    values = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Name) or node.id in values:
            continue
        if node.id not in doc:
            return "field %s is missing" % node.id
        v = doc[node.id]
        if v is None:
            return "field %s is null" % node.id
        if not _number(v):
            return "field %s is not a number: %r" % (node.id, v)
        if not math.isfinite(v):
            return "field %s is %r" % (node.id, v)
        values[node.id] = v
    if eval(compile(tree, "<gate>", "eval"),
            {"__builtins__": {}}, values):
        return None
    return "false with " + ", ".join(
        "%s = %r" % kv for kv in sorted(values.items()))


def _load(path):
    """(parsed JSON object, None) or (None, why it is unusable)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError:
        return None, "file is absent"
    except ValueError as e:
        return None, "file is not JSON: %s" % e
    if not isinstance(doc, dict):
        return None, "file is not a JSON object"
    return doc, None


def check(rows, root=ROOT):
    """[(row, why)] for every failing row of @p rows, with file paths
    taken relative to @p root.  Every row is evaluated."""
    docs = {}
    failures = []
    for row in rows:
        path = row[0]
        if path not in docs:
            docs[path] = _load(os.path.join(root, path))
        doc, why = docs[path]
        why = why or evaluate(row[1], doc)
        if why:
            failures.append((row, why))
    return failures


def main():
    failures = check(GATES, ROOT)
    for (path, expr, reason), why in failures:
        print("gate FAILED: %s\n  %s: %s\n  %s"
              % (reason, path, expr, why), file=sys.stderr)
    files = len({row[0] for row in GATES})
    if failures:
        print("gates: %d of %d rows failed" % (len(failures),
                                               len(GATES)),
              file=sys.stderr)
        return 1
    print("gates ok: %d rows, %d comparisons over %d files"
          % (len(GATES), comparisons(GATES), files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
