"""`tools/artifact_digests.py` prints the same artifact digests on every run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest_lines() -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_two_runs_print_identical_digests():
    first = _digest_lines()
    assert first == _digest_lines()
    names = [line.split()[0] for line in first]
    assert len(names) == len(set(names)) == 16
    assert all(len(line.split()[1]) == 64 for line in first)
