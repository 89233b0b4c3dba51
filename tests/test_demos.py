"""The demo scripts and the README's library example run to completion.

The demos write nothing into the source tree.
"""

import importlib
import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
README = ROOT / "README.md"


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


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the values its comments state
    assert namespace["t_best"] == 42
    assert 1.2e-14 < namespace["p_best"] < 1.4e-14
    assert namespace["amps"].shape == (21, 2, 13)
    assert "theorem2_tail" in capsys.readouterr().out


def test_readme_module_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"\b(walk|full|specfun|spectral|bounds|cli)\.([A-Za-z_]\w*)", text))
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"hypercube_walk.{module}"), name)]
    assert missing == []
