"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload levels --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload words --seeds 4,4 --trace 1

Run from the root of a checkout.  Each seed is one ``run.py`` invocation,
one after the other.  For every metric it prints the values, their median
and the quartile spread (q3 - q1) / median from
``statistics.quantiles(values, n=4)``; for end-to-end metrics it compares the
spread with the metric's bound in BENCHMARK.json.  With one seed repeated
(``--seeds 4,4``) it also lists the metrics that repeated exactly, which is
how the counting pass's counts are shown to be deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={info.get('passes', info.get('traced_passes'))}",
              flush=True)

    names = list(runs[0]["metrics"])
    exact = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(set(values)) == 1 and len(values) > 1:
            exact.append(name)
        med = statistics.median(values)
        spread = None
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        line = f"{name:42s} median {med:12.6g}"
        if args.verbose:
            line += "  [" + " ".join(f"{v:.4g}" for v in values) + "]"
        if spread is not None:
            line += f"  spread {spread:7.4f}"
        bound = bounds.get(name) if not args.trace else None
        if bound is not None and spread is not None:
            line += f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE' if spread < bound else 'OVER'}"
        print(line)
    if len(runs) > 1:
        print("repeated exactly:", ", ".join(exact) if exact else "none")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
