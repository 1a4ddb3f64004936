"""Every demo, and every Python code block of the README, runs to
completion against the package's public names.

Each script is written into a temporary directory first, so files it
writes next to itself (demo 04's ``out/``) land there, not in the
repository."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S
)
SCRIPTS = [(demo.name, demo.read_text()) for demo in DEMOS] + [
    (f"README-block-{i}.py", block) for i, block in enumerate(README_BLOCKS, 1)
]


@pytest.mark.parametrize("name, source", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_demo_runs(tmp_path, name, source):
    script = tmp_path / name
    script.write_text(source)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
