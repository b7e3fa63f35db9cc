"""Pinned stdout of every demo under demos/.

`tests/golden/demos/<demo>.txt` holds what `python demos/<demo>.py` prints.
Each demo runs in a fresh interpreter with src/ on the path, as CI runs it;
together they take about a second.

Regenerate with `PYTHONPATH=src:tests python tests/test_demos_golden.py` only
for a change that is meant to alter what a demo prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def demo_stdout(demo):
    "The stdout of one demo run with src/ on the path; a nonzero exit raises."
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout


def test_every_demo_is_pinned():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    assert demo_stdout(demo) == (GOLDEN / (demo.stem + ".txt")).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / (demo.stem + ".txt")).write_text(demo_stdout(demo))
    sys.exit(0)
