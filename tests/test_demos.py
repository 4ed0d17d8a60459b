"""Every demo script, and the README's library quick start, runs
standalone to a clean exit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _script(path, tmp_path):
    """A demo as it is; for the README, its quick-start block written out
    to tmp_path."""
    if path.suffix == ".py":
        return path
    quickstart = path.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quickstart.py"
    script.write_text(block, encoding="utf-8")
    return script


@pytest.mark.parametrize("demo", DEMOS + [README], ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(_script(demo, tmp_path))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
