"""The demo scripts run to completion and write nothing into the source tree."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _tree(directory):
    return {(str(p), p.stat().st_mtime_ns, p.stat().st_size) for p in directory.rglob("*")}


def test_importing_figure1_demo_creates_no_output_directory(tmp_path):
    copy = tmp_path / "figure1_datasets.py"
    shutil.copy(DEMOS / "figure1_datasets.py", copy)
    spec = importlib.util.spec_from_file_location("figure1_datasets_copy", copy)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.OUT == tmp_path / "demo_output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["figure1_datasets.py"]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_from_a_copy(tmp_path, demo):
    shutil.copy(DEMOS / demo, tmp_path / demo)
    before = _tree(DEMOS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert _tree(DEMOS) == before
