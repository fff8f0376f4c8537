#!/usr/bin/env python3
"""wild5g benchmark: builds the library, the service and the C++ runner from
this checkout, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload abr_mpc_1s --seed 1 --seconds 30 --trace 0

Workloads: abr_mpc_1s, abr_gbdt_4s, serve_metro (see perfbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, and the spans are written as a
Chrome trace under .bench_build/traces/. A summary goes to stderr.
Exit 0 after a run (failed checks show in "failed" and "correct"), 1 when
the build or a workload could not run, 2 on bad arguments or when the
wild5g sources are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from pbench import workloads  # noqa: E402

SOURCES = ("src/CMakeLists.txt", "tools/wild5g_serve.cpp")
EXPECTED_COUNTERS = BENCH / "expected_counters.json"


def build_root():
    configured = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build():
    """Configures once and builds the C++ runner and the service (a no-op when
    nothing changed). Returns their paths."""
    out = build_root() / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench_native", "wild5g_serve"])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise workloads.BenchError("build failed: %s" % " ".join(step))
    return str(out / "perfbench_native"), str(out / "wild5g_serve")


def check_counters(ctx):
    """Counters must match the ones recorded for this seed, if any."""
    try:
        recorded = json.loads(EXPECTED_COUNTERS.read_text())
    except (OSError, ValueError):
        ctx.checks.record(False, "cannot read %s" % EXPECTED_COUNTERS.name)
        return
    expected = recorded.get(ctx.workload, {}).get(str(ctx.seed))
    if expected is not None:
        ctx.checks.record(expected == ctx.counters,
                          "work counters differ from the ones recorded for seed %d" % ctx.seed)


def summary(ctx, metrics, units):
    lines = ["perfbench %s seed %d trace %d" % (ctx.workload, ctx.seed, int(ctx.trace))]
    lines += ["  %-28s %14.6g %s" % (name, metrics[name], unit) for name, unit in units]
    lines.append("  counters %s" % json.dumps(ctx.counters, sort_keys=True))
    lines += ["  %s" % note for note in ctx.notes]
    lines += ["  FAILED: %s" % failure for failure in ctx.checks.failures]
    if ctx.layer_table:
        # Self time as a share of its own process: the C++ runner (pid 1) and,
        # for serve_metro, the service client's view of the wire (pid 2).
        totals = {}
        for (pid, _), row in ctx.layer_table.items():
            totals[pid] = totals.get(pid, 0.0) + row["self_us"]
        lines.append("  %-3s %-26s %8s %12s %12s %7s"
                     % ("pid", "span", "calls", "total s", "self s", "self%"))
        for (pid, name), row in ctx.layer_table.items():
            lines.append("  %-3d %-26s %8d %12.6f %12.6f %6.1f%%" % (
                pid, name, row["count"], row["total_us"] * 1e-6, row["self_us"] * 1e-6,
                100.0 * row["self_us"] / totals[pid] if totals[pid] else 0.0))
        lines.append("  trace: %s" % ctx.spans_path)
    return "\n".join(lines) + "\n"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    missing = [name for name in SOURCES if not (ROOT / name).exists()]
    if missing:
        sys.stderr.write("perfbench: wild5g sources missing: %s\n" % ", ".join(missing))
        return 2

    try:
        native, serve = build()
    except workloads.BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    trace_dir = build_root() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=build_root()) as workdir:
        ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                                native, serve, workdir, str(trace_dir))
        try:
            metrics = workloads.RUNNERS[args.workload](ctx)
        except workloads.BenchError as exc:
            sys.stderr.write("perfbench: %s\n" % exc)
            return 1
    check_counters(ctx)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    sys.stderr.write(summary(ctx, metrics, units))
    result = {
        "correct": ctx.checks.failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
