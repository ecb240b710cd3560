#!/usr/bin/env python3
"""Turns a bih_perfbench span dump into the benchmark's per-layer metrics.

usage: python3 perfbench/spans.py SPANS.tsv

The dump (written by bih_perfbench --trace 1) has one line per span,
    S name id parent req tag start_ns end_ns a b c
and one per counter measured outside spans,
    C name value
Tags name the phase a span belongs to: "setup|<engine>", "suite|<class>|
<engine>|<query>" (req = round; round 0 is the warm-up), "served|<kind>"
(client-side spans of the traced served phases), "replay|<kind>" (the
in-process replay of the same reads), "mixed|<kind>" (the replayed reads
beside the replayed durable updates) and "check|recovery".

Self time is a span's duration minus the time its child spans cover; the
only nesting used here is Execute -> TemporalEngine::Scan, SessionManager::
ReadTxn -> ReadTxn.callback and SessionManager::Write -> Write.callback.
"""

import math
import statistics
import sys
from collections import defaultdict

CLASSES = ["T", "K", "R", "B", "H"]
LETTERS = ["A", "B", "C", "D"]
READ_KINDS = ("K1", "asof", "current")


def _pct(values, p):
    """Nearest-rank percentile, as the benchmark binary computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, math.ceil(p * len(v)))
    return v[min(rank, len(v)) - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


def derive(path):
    """Returns ({metric name: value}, spans dropped) for one dump."""
    counters = {}
    durations = defaultdict(list)  # (name, phase, is a read) -> [us]
    parents = {}  # id of a mixed-phase ReadTxn/Write span -> (name, us)
    callback_us = {}  # parent id -> callback duration in us
    scan_us = defaultdict(float)  # Execute id -> child scan time
    scan_rows = defaultdict(int)  # Execute id -> rows examined by its scans
    executes = []  # (id, req, class, letter, query, us, rows_out)
    setup = defaultdict(lambda: defaultdict(float))  # name -> req -> s
    loads = defaultdict(list)  # letter -> [s]
    index_scans = {"replay": [], "suite": []}
    recovery = []

    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "C":
                counters[p[1]] = float(p[2])
                continue
            name, sid, parent, req, tag = p[1], int(p[2]), int(p[3]), int(p[4]), p[5]
            us = (int(p[7]) - int(p[6])) / 1000.0
            a, c = int(p[8]), int(p[10])
            phase = tag.split("|", 1)[0]
            if name == "TemporalEngine::Scan":
                if phase in index_scans:
                    index_scans[phase].append(c)
                scan_us[parent] += us
                scan_rows[parent] += a
            elif name in ("ReadTxn.callback", "Write.callback"):
                callback_us[parent] = us
            elif name in ("SessionManager::ReadTxn", "SessionManager::Write"):
                if phase == "mixed":
                    parents[sid] = (name, us)
            elif name == "Execute" and phase == "suite":
                _, cls, letter, query = tag.split("|")
                executes.append((sid, req, cls, letter, query, us, a))
            elif name in ("tpch.GenerateTpch", "bih.HistoryGenerator::Generate",
                          "workload.ApplyIndexSetting"):
                setup[name][req] += us / 1e6
            elif name == "workload.LoadEngine":
                loads[tag.split("|", 1)[1]].append(us / 1e6)
            elif name == "RecoverEngine":
                recovery.append(us / 1e6)
            if phase in ("served", "replay", "mixed"):
                kind = tag.split("|", 1)[1]
                durations[(name, phase, kind in READ_KINDS)].append(us)

    m = {}
    served = durations[("Client::Query", "served", True)]
    replay = durations[("SessionManager::ReadTxn", "replay", True)]
    for q, label in ((0.5, "p50"), (0.99, "p99")):
        m["net.wire_us." + label] = (
            _pct(served, q) - _pct(replay, q) if served and replay else 0.0)

    waits = {"SessionManager::ReadTxn": [], "SessionManager::Write": []}
    for sid, (name, us) in parents.items():
        if sid in callback_us:
            waits[name].append(us - callback_us[sid])
    for name, key in (("SessionManager::ReadTxn", "read"),
                      ("SessionManager::Write", "write")):
        m["server.%s_wait_us.p50" % key] = _pct(waits[name], 0.5)
        m["server.%s_wait_us.p99" % key] = _pct(waits[name], 0.99)

    m["sql.parse_us"] = _median(durations[("ParseSelect", "replay", True)])
    m["sql.plan_us"] = _median(durations[("PlanSelect", "replay", True)])
    m["sql.dml_us"] = _median(durations[("ExecuteDml", "mixed", False)])
    m["exec.optimize_us"] = _median(durations[("OptimizePlan", "replay", True)])

    # Measured runs only (req > 0; round 0 is the warm-up). Like suite_ms,
    # each figure sums over queries (and engines) the 10th percentile of one
    # query's runs on one engine: a query can run several times per round.
    runs = defaultdict(list)  # (class, letter, query) -> [(self, scan, us, rows)]
    examined = defaultdict(int)
    rows_out = defaultdict(int)
    for sid, req, cls, letter, query, us, out in executes:
        if req == 0:
            continue
        runs[(cls, letter, query)].append(
            ((us - scan_us[sid]) / 1000.0, scan_us[sid] / 1000.0, us / 1000.0, out))
        examined[cls] += scan_rows[sid]
        rows_out[cls] += out
    sums = defaultdict(float)
    for (cls, letter, _), samples in runs.items():
        sums[("self", cls)] += _pct([x[0] for x in samples], 0.10)
        sums[("scan", cls)] += _pct([x[1] for x in samples], 0.10)
        sums[("rows", cls)] += samples[0][3]
        sums[("round", letter)] += _pct([x[2] for x in samples], 0.10)
    for cls in CLASSES:
        m["exec.self_ms." + cls] = sums[("self", cls)]
        m["exec.rows_out." + cls] = sums[("rows", cls)]
        m["engine.scan_ms." + cls] = sums[("scan", cls)]
        m["engine.rows_examined_per_row_out." + cls] = (
            examined[cls] / rows_out[cls] if rows_out[cls] else 0.0)
    for letter in LETTERS:
        m["engine.round_ms." + letter] = sums[("round", letter)]
    used = index_scans["replay"] or index_scans["suite"]
    m["engine.index_used_ratio"] = sum(used) / len(used) if used else 0.0

    generate = [setup["tpch.GenerateTpch"][r] + setup["bih.HistoryGenerator::Generate"][r]
                for r in setup["tpch.GenerateTpch"]]
    m["setup.generate_s"] = _median(generate)
    for letter in LETTERS:
        m["setup.load_s." + letter] = _median(loads[letter])
    m["setup.index_s"] = _median(list(setup["workload.ApplyIndexSetting"].values()))
    m["durability.recovery_s"] = _median(recovery)

    for name in ("net.reply_bytes_per_op", "server.reads_shed",
                 "server.reads_deadline", "durability.syncs_per_ack",
                 "durability.max_group", "durability.wal_bytes_per_update",
                 "durability.fsync_probe_us", "error_ratio",
                 "failed.ResourceExhausted", "failed.DeadlineExceeded",
                 "failed.other", "trace.overhead_pct"):
        m[name] = counters.get(name, 0.0)
    return m, int(counters.get("trace.spans_dropped", 0))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics, dropped = derive(argv[1])
    for name in sorted(metrics):
        print("%-40s %16.4f" % (name, metrics[name]))
    print("tracing overhead: %+.2f%% (traced vs untraced window of the same run)"
          % metrics["trace.overhead_pct"])
    if dropped:
        print("spans dropped at the per-thread cap: %d" % dropped)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
