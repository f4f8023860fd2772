#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload pool-cd79-mixed --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for each end-to-end metric its values, median and quartile spread
((Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), next to the metric's bound in ``BENCHMARK.json``.  A spread
at or above a third of its bound is flagged; ``setup_s`` is reported
but not flagged.  Exits non-zero when a run fails or a spread is
flagged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import describe

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    report = {}
    for name, series in values.items():
        summary = describe(series)
        flagged = name != "setup_s" and summary["spread"] >= bounds[name] / 3
        ok &= not flagged
        report[name] = {**summary, "bound": bounds[name],
                        "flagged": flagged, "values": series}
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "ok": bool(ok), "metrics": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
