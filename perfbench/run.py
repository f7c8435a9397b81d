"""Entry point of the wickalg benchmark.

    python3 perfbench/run.py --workload {levels,words,solve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The run happens in a fresh worker process
(``worker.py``) with BLAS/OpenMP threads pinned to 1 and a whole-run
deadline, so caches start cold, import cost is counted, and a hang ends as a
failure instead of a stall.  The worker runs one caller in a closed loop:
each op starts only after the previous one returned.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it holds the environment, the op-tail
percentile with its sample count, ``fail_frac``, the first failures, the
within-run spreads and any further figures the worker measured.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True

DEADLINE_S = 175.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wickalg", "__init__.py")):
        return fail(f"no wickalg sources under {root}/src; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(root), cwd=root,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.monotonic() - t_start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail(f"worker exceeded the {DEADLINE_S:.0f} s run deadline and was killed", 3)
    if proc.returncode != 0 or not out.strip():
        return fail(f"worker exited with code {proc.returncode}", 1)
    result = json.loads(out.strip().splitlines()[-1])

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            return fail(f"worker did not produce metric {m['name']!r}")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    info = {"workload": args.workload, "trace": args.trace, **result["info"]}
    others = {k: v for k, v in result["metrics"].items() if k not in metrics}
    if others:
        info["other_metrics"] = others
    print(json.dumps(info))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
