"""The bundled demo's outputs are pinned byte for byte by the files in
``tests/golden``; a refactor that changes any of them must explain why."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def load_demo():
    path = ROOT / "scripts" / "run_example_analysis.py"
    spec = importlib.util.spec_from_file_location("run_example_analysis", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_outputs_match_golden_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["run_example_analysis.py", "--out", str(tmp_path)])
    load_demo().main()
    capsys.readouterr()
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
