"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wire_hot_tiles --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (one after another, never in parallel)
and prints, per end-to-end metric, the median and the interquartile
distance as a share of the median — the figure each metric's ``bound``
in ``BENCHMARK.json`` must exceed with room to spare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else 0.0
        print(
            f"{name:<16} median {statistics.median(series):>12.4f}  spread {spread:6.3f}"
            f"  bound {bounds.get(name, float('nan')):.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
