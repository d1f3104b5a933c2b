"""`tools/layer_times.py` runs every row once and prints a finite time for each.

The tool reaches into private chain helpers (`langevin._stream_words`,
`langevin._draw_streams`), so a change to them shows here first. It runs
in a subprocess, as the tool caps BLAS threads before importing numpy,
with its block and call counts and its fit's epochs cut to 1.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROWS = {
    "_stream_words",
    "_draw_streams",
    "forward",
    "forward+input-grad",
    "param-grad",
    "adam_update",
    "collect_valid",
    "base_eu",
    "training update",
}

ONE_PASS = """
import layer_times
layer_times.BLOCKS = layer_times.CALLS_PER_BLOCK = layer_times.FIT_EPOCHS = 1
layer_times.main()
"""


def test_every_row_prints_a_finite_median():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tools"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", ONE_PASS], env=env, capture_output=True, text=True, check=True
    )
    elapsed = time.perf_counter() - start
    environment, header, *lines = done.stdout.splitlines()
    assert environment.startswith("{") and header.split()[-2:] == ["median_us", "iqr_us"]
    medians = {}
    for line in lines:
        medians.setdefault(line[:20].strip(), []).append(float(line.split()[-2]))
    assert set(medians) == ROWS
    assert all(math.isfinite(m) and m > 0 for ms in medians.values() for m in ms)
    assert elapsed < 5.0
