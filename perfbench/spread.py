"""Run a workload on several seeds and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload scanner-train --seeds 1-10

Each seed is one ``perfbench/run.py`` process, run one after another.  For
every metric the script prints the median over seeds and the distance
between the first and third quartile as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the bound BENCHMARK.json
fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{json.dumps(line)}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        med = statistics.median(vals)
        spread = f"{quartile_spread(vals):.3f}" if len(vals) >= 2 else "-"
        print(f"{key:28s} median={med:<14.6g} spread={spread:>6} "
              f"bound={bounds.get(key)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
