"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload sim-folded --seeds 10 [--first-seed 1]
                                [--seconds S] [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for
every metric the median over the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread
from workloads import END_TO_END

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT, {result['failed']}/{result['attempted']} failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
            if m["value"] is not None and n in {e['name'] for e in END_TO_END}), flush=True)

    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    print(f"{'metric':<34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        numbers = [v for v in series if v is not None]
        if len(numbers) < 2:
            continue
        median = statistics.median(numbers)
        spread = quartile_spread(numbers) if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<34} {median:>14.6g} {spread:>8.4f} {'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
