import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tradeflux

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Each ```python block of the README, in order.
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


def test_demos_are_found():
    assert len(DEMOS) >= 5


def _run(args, cwd) -> subprocess.CompletedProcess:
    """``python args`` in a new interpreter from ``cwd``, importing this tree's package."""
    src_root = Path(tradeflux.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(src_root)), timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    """Each demo runs to completion in a new interpreter, from an empty directory."""
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_python_blocks_run(tmp_path):
    """The README's quick start runs as printed, in a new interpreter, from an
    empty directory, and prints the accounts it describes."""
    outputs = []
    for block in README_BLOCKS:
        result = _run(["-c", block], tmp_path)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == "JPN 51.5 sink\nUSA -51.5 source\n"  # the quick start
