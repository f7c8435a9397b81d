"""Self-test of the benchmark's checkers and failure accounting.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  For every op of every workload it runs the
op once and confirms that its check accepts the answer; then it feeds each
deliberately wrong answer (an entry of P_k changed, a rank off by one, a
flipped verdict, a wrong exit code, a non-normal word, ...) through the
worker's own pass loop and confirms that the op is counted as failed.  It
also confirms that an op that raises and an op that hangs past its deadline
are counted as failed, and that the P_k column oracle used by the words
workload agrees with ``wickalg.p_n``.  Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import worker  # noqa: E402
from workloads import WORKLOADS, Op, p_column  # noqa: E402

import wickalg as W  # noqa: E402


def failures_of(op: Op):
    runner = worker.Runner([op], worker.RefClock())
    runner.hard_deadline = time.perf_counter() + 60
    runner.run_pass()
    return runner.failures


def check_workload(name: str, seed: int, tmp: str) -> list:
    problems = []
    ops = WORKLOADS[name](random.Random(f"{name}:{seed}"), tmp)
    for op in ops:
        result = op.run()
        reason = op.check(result)
        if reason is not None:
            problems.append(f"{op.name}: correct answer rejected ({reason})")
            continue
        if not op.corrupts:
            problems.append(f"{op.name}: no wrong answer to test its check with")
        for n, corrupt in enumerate(op.corrupts):
            bad = corrupt(result)
            if len(failures_of(Op(op.name, lambda bad=bad: bad, op.check))) != 1:
                problems.append(f"{op.name}: wrong answer #{n} was not counted as failed")
    print(f"{name}: {len(ops)} ops, {sum(len(op.corrupts) for op in ops)} wrong answers tried")
    return problems


def check_accounting() -> list:
    problems = []

    def boom():
        raise ValueError("deliberate")

    def hang():
        while True:
            time.sleep(0.01)

    saved = worker.OP_TIMEOUT_S
    worker.OP_TIMEOUT_S = 0.5
    try:
        for label, fn in (("raising op", boom), ("hanging op", hang)):
            got = failures_of(Op(label, fn, lambda r: None))
            if len(got) != 1:
                problems.append(f"{label} was not counted as failed")
            else:
                print(f"{label}: {got[0]}")
    finally:
        worker.OP_TIMEOUT_S = saved
    return problems


def check_oracle() -> list:
    problems = []
    cases = [("qccr", 2, {"q": "3/7"}, 4), ("twisted_car", 3, {"mu": "2/5"}, 3),
             ("twisted_ccr", 3, {"mu": "5/7"}, 3), ("snu2", None, {"nu": "1/3"}, 4),
             ("aklt", None, {"lam": "1"}, 3), ("degenerate", 2, {}, 3),
             ("q_ij", 2, {"q11": "1/2", "q12": "1/3", "q12_im": "1/5", "q21": "1/3",
                          "q21_im": "-1/5", "q22": "-1/4"}, 3)]
    for family, d, params, k in cases:
        T = W.make_preset(family, d, **params).tensor
        P = W.p_n(T, k)
        for c in range(P.cols):
            J = W.index_to_word(c, T.d, k)
            col = p_column(T, J)
            for r in range(P.rows):
                got = col.get(W.index_to_word(r, T.d, k), W.Scalar(0))
                if got != P.data[r][c]:
                    problems.append(f"oracle P_{k}[{r},{c}] of {family} is {got}, p_n has {P.data[r][c]}")
    print(f"oracle: P_k columns agree with p_n on {len(cases)} presets")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    tmp = os.path.join(os.getcwd(), ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        problems = check_oracle() + check_accounting()
        for name in WORKLOADS:
            problems += check_workload(name, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
