"""The benchmark's contract with the library.

``perfbench/`` looks wickalg names up at run time: the tracer wraps functions
and methods by name, and the worker reads module attributes for its
environment line.  Deleting or renaming one of them breaks the benchmark
run, so this test runs those lookups and fails first.
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
