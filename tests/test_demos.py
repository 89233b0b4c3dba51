"""The demo scripts: importing one must not write anything."""

import importlib.util
import pathlib
import shutil

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_importing_figure1_demo_creates_no_output_directory(tmp_path):
    copy = tmp_path / "figure1_datasets.py"
    shutil.copy(DEMOS / "figure1_datasets.py", copy)
    spec = importlib.util.spec_from_file_location("figure1_datasets_copy", copy)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.OUT == tmp_path / "demo_output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["figure1_datasets.py"]
