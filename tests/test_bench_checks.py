"""The benchmark's own checks, run as part of the test suite.

jbench/test_jbench.py traces one pass of every workload and requires
identical digests, no failed job and a non-zero count on every per-layer
counter the workload is built to exercise (EXERCISED in jbench/run.py). It
lies outside testpaths, so it runs here as its own pytest process from the
checkout root, as its docstring says to, with one BLAS thread, writing
no cache or bytecode under jbench/.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_jbench_checks_pass():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "jbench/test_jbench.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
