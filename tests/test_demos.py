import os
import subprocess
import sys
from pathlib import Path

import pytest

import tradeflux

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    """Each demo runs to completion in a new interpreter, from an empty directory."""
    src_root = Path(tradeflux.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(src_root)), timeout=300,
    )
    assert result.returncode == 0, result.stderr
