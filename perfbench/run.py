#!/usr/bin/env python3
"""The repository benchmark: builds bih_perfbench from this checkout, runs one
workload and prints the result as the last line of standard output.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--h H --m M] [--tamper CHECK]

BENCHMARK.json at the checkout root names the workloads and the metrics.
With --trace 0 the result carries every end_to_end metric; with --trace 1
every per_layer metric, reduced from the run's span dump by spans.py, and
the tracing overhead is printed beside them. Any failed output check, a
missing metric or a failed build exits non-zero without a result line.
--h/--m override the archive scale and --tamper corrupts one output check's
input; both exist for the smoke tests (test_perfbench.py).

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), the
WAL, the fsync probe and the span dump to a run directory beside it, and a
copy of each result with its host stamp and sample counts to results/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds bih_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under %s/src: run from a full checkout" % ROOT)
    bdir = build_base() / "perfbench"
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout path
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", "bih_perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (log: %s)" % log)
    return bdir / "bih_perfbench"


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomization, so every run of a build has the same memory layout and
    no run's figures depend on where its heap and stacks happened to land."""
    import ctypes
    ctypes.CDLL(None).personality(0x0040000)  # ADDR_NO_RANDOMIZE


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--h", type=float)
    ap.add_argument("--m", type=float)
    ap.add_argument("--tamper")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    binary = build()

    base = build_base()
    workdir = base / "run" / ("%s-%d" % (args.workload, os.getpid()))
    dump = workdir / "spans.tsv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--dump", str(dump), "--source-id", source_id()]
    for flag in ("h", "m", "tamper"):
        if getattr(args, flag) is not None:
            cmd += ["--" + flag, str(getattr(args, flag))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run failed (exit %d): an output check or the program failed"
             % proc.returncode, 1)
    raw = json.loads(lines[-1])

    if args.trace:
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        import spans
        values, dropped = spans.derive(dump)
        wanted = spec["per_layer"]
        print("tracing overhead: %+.2f%%%s" % (
            values.get("trace.overhead_pct", 0.0),
            " (%d spans dropped at the per-thread cap)" % dropped if dropped else ""))
        metrics = {}
        for m in wanted:
            if m["name"] not in values:
                fail("span dump lacks per-layer metric %s" % m["name"], 1)
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            got = raw["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("run did not report %s in %s" % (m["name"], m["unit"]), 1)
            if not math.isfinite(got["value"]) or got["value"] <= 0:
                fail("metric %s is %r; every end-to-end metric must be positive"
                     % (m["name"], got["value"]), 1)
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  wall_s=time.monotonic() - started, run=raw)
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
