#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then for each metric the distance between the
first and third quartile of its values as a share of their median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_metro --seeds 1-10 [--seconds S]

Runs are sequential; the JSON result lines are appended to --log if given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from pbench.stats import quartile_spread  # noqa: E402


def seed_list(text):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--log")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not line:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(line)
        if args.log:
            with open(args.log, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print("seed %-4d correct=%s failed=%d  %s" % (
            seed, result["correct"], result["failed"],
            "  ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("%-14s %12s %8s %8s %s" % ("metric", "median", "spread", "bound", "spread/bound"))
    for name, series in values.items():
        spread = quartile_spread(series)
        print("%-14s %12.5g %7.1f%% %7.0f%% %5.2f" % (
            name, statistics.median(series), 100 * spread, 100 * bounds[name],
            spread / bounds[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
