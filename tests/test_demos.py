"""Smoke test: the narrative demos 01-05 run to completion.

Each demo runs in a fresh interpreter with ``src`` on the import path and
its temporary directories under the test's own tmp_path.  Demo 06 (live
benchmarks over generated datasets) is left out for its run time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(src_env(), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
