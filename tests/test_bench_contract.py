"""The benchmark's contract with the library.

``perfbench/`` looks wickalg names up at run time: the tracer wraps functions
and methods by name, and the worker reads module attributes for its
environment line.  Deleting or renaming one of them breaks the benchmark
run, so this test runs those lookups and fails first.  The benchmark's own
self-test runs here too: its checkers read report fields, so a change to a
field they check fails the test suite instead of the benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing, worker, workloads
tracing.Tracer().install()
counters = tracing.Counters()
counters.install()
counters.uninstall()
assert worker.environment(0)["seed"] == 0
"""


def test_perfbench_finds_every_name_it_uses():
    script = SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                           src=os.path.join(ROOT, "src"))
    # -B: no bytecode is written under perfbench/ (or src/).
    res = subprocess.run([sys.executable, "-B", "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_perfbench_selftest_passes():
    # The checkers read report fields (``is_psd`` of each level, the
    # criteria, ranks), so a change to one of them fails here first.  The
    # self-test removes its own scratch directory under .perfbench/.
    res = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
