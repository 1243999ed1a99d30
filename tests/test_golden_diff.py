"""The golden-comparison tool: verdict and check equality, CSV cell bounds."""

import importlib.util
import json

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("golden_diff", REPO / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def _run_dir(root, verdict="PASS", passed=True, table="x,label\n1.0,a\n-4.0,b\n"):
    run = root / "demo"
    run.mkdir(parents=True)
    checks = [{"name": "c1", "passed": True, "detail": ""}, {"name": "c2", "passed": passed}]
    (run / "verdict.json").write_text(json.dumps({"verdict": verdict, "checks": checks}))
    (run / "demo.csv").write_text(table)
    return root


def test_identical_trees_pass(tmp_path, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert golden_diff.main([str(a), str(b)]) == 0
    assert "identical demo/demo.csv" in capsys.readouterr().out


@pytest.mark.parametrize("verdict,passed", [("FAIL", True), ("PASS", False)])
def test_verdict_or_check_change_fails(tmp_path, verdict, passed):
    a = _run_dir(tmp_path / "a")
    b = _run_dir(tmp_path / "b", verdict=verdict, passed=passed)
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1


def test_cell_bound_is_relative_to_the_column_max(tmp_path, capsys):
    a = _run_dir(tmp_path / "a")
    # 1.0 -> 1.0 + 4e-13 is 1e-13 of the column max |-4.0|
    b = _run_dir(tmp_path / "b", table="x,label\n1.0000000000004,a\n-4.0,b\n")
    assert golden_diff.main([str(a), str(b), "--bound", "1e-12"]) == 0
    assert "worst 1e-13 x column max at row 1 column x" in capsys.readouterr().out
    assert golden_diff.main([str(a), str(b), "--bound", "1e-14"]) == 1
    assert golden_diff.main([str(a), str(b)]) == 1


def test_text_and_shape_changes_fail(tmp_path):
    a = _run_dir(tmp_path / "a")
    text = _run_dir(tmp_path / "b", table="x,label\n1.0,z\n-4.0,b\n")
    shape = _run_dir(tmp_path / "c", table="x,label\n1.0,a\n")
    for other in (text, shape):
        assert golden_diff.main([str(a), str(other), "--bound", "1"]) == 1
    (tmp_path / "a" / "demo" / "demo.csv").unlink()
    assert golden_diff.main([str(a), str(text), "--bound", "1"]) == 1
