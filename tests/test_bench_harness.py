"""The benchmark's own tests pass against the library as it stands.

The benchmark reads library internals (the graph's vertex count, the
functions its tracer wraps), so a library change can break it without
failing any other test here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
