"""One benchmark run in a fresh process: set up a workload, run its op list
in a closed loop, check every answer, and print one JSON line.

Started by ``run.py``; not meant to be called directly.  The op list is
repeated in whole passes for as long as the next pass still fits in
``--seconds``.  With ``--trace 1`` the time is split into untraced passes,
span-traced passes and one counting pass (see ``tracing.py``).

Times are reported in reference-normalised seconds.  The benchmark was
written on a shared 2-core host whose speed drifts by +-25% over tens of
seconds with its neighbours' load (5 s medians of a fixed Fraction loop
ranged from 0.70 to 1.22 of their overall median), so raw run medians moved
by up to 40% between runs of one seed.  A fixed pure-Python reference loop
(``reference_kernel``) therefore runs between ops, at least every
``REF_EVERY_S`` seconds, and also inside ops: a profiling timer interrupts
an op every ``REF_EVERY_S`` seconds of CPU time to run it, and that time is
taken out of the op's interval.  Without the samples inside, ops longer
than a second varied by 30-60% from pass to pass after normalisation; with
them, by about 5-10%.  Each measured interval is multiplied by
``REF_NOMINAL_S / r``, with r the median reference time within
``REF_WINDOW_S`` of the interval.  The ratio of a Fraction loop to this
reference stayed within 1% over 75 s on that host while the loop itself
moved by 25%.  The raw times are printed alongside.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

T_PROCESS = time.perf_counter()
HARD_LIMIT_S = 165.0  # run.py kills the worker at 175 s; leave room to report
OP_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
SAMPLES_PER_OP = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REF_NOMINAL_S = 0.002
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.25


def reference_kernel():
    s = Fraction(0)
    d = {}
    for i in range(1, 400):
        s += Fraction(1, i % 97 + 1)
        d[i % 50] = s
    return s


class RefClock:
    """Reference-loop samples over time, and the speed factor of an interval."""

    def __init__(self):
        self.times, self.values = [], []

    def sample(self, repeats=1) -> float:
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.values.append(t1 - t0)
        return t1

    def factor(self, t0, t1) -> float:
        lo = bisect.bisect_left(self.times, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + REF_WINDOW_S)
        near = self.values[lo:hi]
        if len(near) < 2:
            a = max(0, bisect.bisect_left(self.times, t0) - 1)
            near = self.values[a:a + 2]
        return REF_NOMINAL_S / statistics.median(near)


class OpTimeout(Exception):
    pass


class _Alarm:
    """SIGALRM-based per-op deadline; the alarm only raises inside an op."""

    def __init__(self):
        self.in_op = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.in_op:
            self.in_op = False
            raise OpTimeout()


def percentile(values, p):
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that leaves at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def middle(values, k):
    """The k values around the median (all of them if there are fewer)."""
    xs = sorted(values)
    start = max(0, (len(xs) - k) // 2)
    return xs[start:start + k]


def iqr_share(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


class Runner:
    def __init__(self, ops, clock, tracer=None, counters=None):
        self.ops = ops
        self.clock = clock
        self.tracer = tracer
        self.counters = counters
        self.alarm = _Alarm()
        # (start, end, reference time inside) of each timed run
        self.intervals = [[] for _ in ops]
        self.attempted = 0
        self.failures = []
        self.hard_deadline = T_PROCESS + HARD_LIMIT_S
        self._last_ref = 0.0
        self._held = 0.0
        signal.signal(signal.SIGPROF, self._sample_inside)

    def _sample_inside(self, signum, frame):
        t = time.perf_counter()
        self.clock.sample()
        self._held += time.perf_counter() - t

    def _budget_left(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def execute(self, op, trace=False, count=False):
        """Run one op under its deadline, then check it.  Returns its
        interval and the failure reason or None.  The counting pass takes no
        reference samples inside ops, since they would add to its counts."""
        timeout = max(0.1, min(OP_TIMEOUT_S, self._budget_left()))
        result, error = None, None
        if trace:
            self.tracer.active = True
        if count:
            self.counters.active = True
        signal.setitimer(signal.ITIMER_REAL, timeout)
        self.alarm.in_op = True
        self._held = 0.0
        if not count:
            signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except OpTimeout:
            error = f"timed out after {timeout:.1f} s"
        except Exception as exc:  # an op that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.alarm.in_op = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            if trace:
                self.tracer.active = False
            if count:
                self.counters.active = False
        if t1 - self._last_ref >= REF_EVERY_S:
            self._last_ref = self.clock.sample()
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        return (t0, t1, self._held), error

    def run_pass(self, record=True, trace=False, count=False, on_op=None):
        """One pass over the op list; returns its ops' intervals."""
        self._last_ref = self.clock.sample()
        intervals = []
        for i, op in enumerate(self.ops):
            if self._budget_left() <= 0:
                raise RuntimeError("run exceeded its hard time limit")
            mark = self.tracer.mark() if trace else 0
            interval, error = self.execute(op, trace, count)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{op.name}: {error}")
            if record:
                self.intervals[i].append(interval)
            if on_op is not None:
                on_op(mark, interval)
            intervals.append(interval)
        return intervals

    def run_until(self, deadline, min_passes=1, **kw):
        """Whole passes: at least ``min_passes``, then more while the next one
        is expected to end by ``deadline``; returns each pass's op intervals.
        A run whose minimum passes overrun the hard limit fails."""
        passes, elapsed = [], []
        while True:
            t = time.perf_counter()
            passes.append(self.run_pass(**kw))
            elapsed.append(time.perf_counter() - t)
            if (len(passes) >= min_passes
                    and time.perf_counter() + statistics.median(elapsed) > deadline):
                return passes

    def seconds(self, interval) -> float:
        """A measured (start, end) or (start, end, reference time inside)
        interval in reference-normalised seconds."""
        return raw_seconds(interval) * self.clock.factor(*interval[:2])


def raw_seconds(interval) -> float:
    """An interval's length, less the reference samples taken inside it."""
    return interval[1] - interval[0] - (interval[2] if len(interval) > 2 else 0.0)


def environment(seed) -> dict:
    import numpy

    from wickalg import eigen, scalars

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "HAVE_GMPY2": scalars.HAVE_GMPY2,
        "USING_NUMBA": eigen.USING_NUMBA,
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


IMPORT_PROBE = ("import time; t = time.perf_counter(); import wickalg; "
                "print(time.perf_counter() - t)")


def import_times(clock, first):
    """The worker's own import interval plus IMPORT_REPEATS - 1 imports in
    fresh interpreters, as (raw seconds, interval) pairs."""
    out = [(first[1] - first[0], first)]
    for _ in range(IMPORT_REPEATS - 1):
        clock.sample(5)
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                               text=True, check=True, timeout=60)
        out.append((float(probe.stdout.split()[-1]), (t0, time.perf_counter())))
        clock.sample(5)
    return out


def setup(workload, seed, tmp, clock):
    """Build the op list SETUP_REPEATS times from fresh presets; returns the
    last op list and the build intervals."""
    from workloads import WORKLOADS

    intervals, ops = [], None
    for _ in range(SETUP_REPEATS):
        clock.sample(5)
        t0 = time.perf_counter()
        ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tmp)
        intervals.append((t0, time.perf_counter()))
    clock.sample(5)
    return ops, intervals


def end_to_end(runner, passes) -> dict:
    per_op = [[runner.seconds(iv) for iv in ivs] for ivs in runner.intervals]
    # Every op weighs the same in the latency distribution, however many
    # passes the run held: each contributes the SAMPLES_PER_OP runs around
    # its median.  The run holds at least SAMPLES_PER_OP passes, so the
    # sample count, and with it the tail percentile, is fixed per workload.
    samples = [x for xs in per_op for x in middle(xs, SAMPLES_PER_OP)]
    assert len(samples) == len(runner.ops) * SAMPLES_PER_OP
    p = tail_percentile(len(samples))
    raw = [[raw_seconds(iv) for iv in ivs] for ivs in runner.intervals]
    walls = [sum(runner.seconds(iv) for iv in ivs) for ivs in passes]
    return {
        "metrics": {
            "wall_s": sum(statistics.median(xs) for xs in per_op),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": percentile(samples, p),
        },
        "info": {
            "passes": len(passes),
            "op_samples": len(samples),
            "op_tail_percentile": p,
            "op_tail_samples_beyond": int(len(samples) * (1 - p / 100.0)),
            "pass_wall_s": walls,
            "raw_wall_s": sum(statistics.median(xs) for xs in raw),
            "spread": {"pass_wall_s": iqr_share(walls)},
        },
    }


def per_layer(runner, tracer, counters, untraced, traced, segments) -> dict:
    from tracing import FUNCTIONS, LAYERS, METHODS

    names = sorted({span for *_, span in FUNCTIONS} | {span for *_, span in METHODS}
                   | {"trace.post"})
    per_pass = [tracer.self_times(segs, runner.seconds) for segs in segments]
    m = {}
    for name in names:
        m[f"{name}.self_s"] = statistics.median(st[0].get(name, 0.0) for st in per_pass)
        m[f"{name}.calls"] = per_pass[0][1].get(name, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(m[f"{n}.self_s"] for n in names if n.split(".")[0] == layer)
        m[f"{layer}.calls"] = sum(m[f"{n}.calls"] for n in names if n.split(".")[0] == layer)
    f = tracer.facts
    m["tensorops.p_n.max_dim"] = f["tensorops.p_n.max_dim"]
    m["tensorops.p_n.nnz_frac"] = (f["tensorops.p_n.nnz"] / f["tensorops.p_n.entries"]
                                   if f["tensorops.p_n.entries"] else 0.0)
    for key in ("linalg.rank.max_dim", "linalg.solve.max_dim", "kms.max_system_dim"):
        m[key] = f[key]
    c = counters.counts
    for key in ("scalars.scalar_new", "scalars.fraction_new", "rewrite.nf_calls",
                "rewrite.work_terms"):
        m[key] = c[key]
    m["rewrite.memo_hit_ratio"] = (1 - c["rewrite.memo_new"] / c["rewrite.nf_calls"]
                                   if c["rewrite.nf_calls"] else 0.0)
    untraced_walls = [sum(runner.seconds(iv) for iv in ivs) for ivs in untraced]
    traced_walls = [sum(runner.seconds(iv) for iv in ivs) for ivs in traced]
    m["trace.wall_s"] = statistics.median(traced_walls)
    m["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.uncovered_s"] = statistics.median(
        wall - st[2] for wall, st in zip(traced_walls, per_pass))
    m["trace.spans"] = segments[0][-1][1] - segments[0][0][0]
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    clock = RefClock()
    clock.sample(5)
    t0 = time.perf_counter()
    import wickalg

    import_iv = (t0, time.perf_counter())
    clock.sample(5)
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(wickalg.__file__).startswith(src + os.sep):
        print(f"wickalg was imported from {wickalg.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(args.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp = os.path.join(scratch, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        imports = import_times(clock, import_iv)
        ops, setup_ivs = setup(args.workload, args.seed, tmp, clock)
        runner = Runner(ops, clock)
        import_s = [raw * clock.factor(*iv) for raw, iv in imports]
        builds = [runner.seconds(iv) for iv in setup_ivs]
        setup_s = statistics.median(import_s) + statistics.median(builds)
        info = {"env": environment(args.seed), "import_s": import_s, "setup_build_s": builds,
                "raw_setup_s": statistics.median(raw for raw, _ in imports)
                + statistics.median(t1 - t0 for t0, t1 in setup_ivs),
                "ops_per_pass": len(ops)}
        t_measure = time.perf_counter()
        if not args.trace:
            passes = runner.run_until(t_measure + args.seconds, min_passes=SAMPLES_PER_OP)
            clock.sample()
            e2e = end_to_end(runner, passes)
            metrics = {**e2e["metrics"], "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            info.update(e2e["info"])
            info["spread"]["setup_build_s"] = iqr_share(builds)
            info["spread"]["import_s"] = iqr_share(import_s)
            info["host_speed"] = REF_NOMINAL_S / statistics.median(clock.values)
        else:
            from tracing import Counters, Tracer

            tracer, counters = Tracer(), Counters()
            runner.tracer, runner.counters = tracer, counters
            untraced = runner.run_until(t_measure + 0.35 * args.seconds, record=False)
            tracer.install()
            traced, segments = [], []
            deadline = t_measure + 0.8 * args.seconds
            while True:
                segs = []
                t = time.perf_counter()
                traced.append(runner.run_pass(
                    record=False, trace=True,
                    on_op=lambda mark, iv: segs.append((mark, tracer.mark(), iv))))
                segments.append(segs)
                if 2 * time.perf_counter() - t > deadline:
                    break
            counters.install()
            try:
                runner.run_pass(record=False, count=True)
            finally:
                counters.uninstall()
            clock.sample()
            metrics = per_layer(runner, tracer, counters, untraced, traced, segments)
            info.update({"untraced_passes": len(untraced), "traced_passes": len(traced)})
            path = os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"passes": [[segs[0][0], segs[-1][1]] for segs in segments],
                           "spans": tracer.spans}, fh)
            info["spans_file"] = os.path.relpath(path, args.root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info["fail_frac"] = len(runner.failures) / runner.attempted
    info["failures"] = runner.failures[:20]
    print(json.dumps({"attempted": runner.attempted, "failed": len(runner.failures),
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
