"""The golden-comparison tool: verdict, check, outputs- and warnings-list equality, cell
bounds for CSV tables and their JSON mirrors, column by header name, byte equality for
other files."""

import importlib.util
import json

import pytest

from conftest import REPO

_spec = importlib.util.spec_from_file_location("golden_diff", REPO / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


_MIRROR = [{"x": 1.0, "label": "a"}, {"x": -4.0, "label": "b"}]


def _run_dir(
    root,
    verdict="PASS",
    passed=True,
    table="x,label\n1.0,a\n-4.0,b\n",
    mirror=None,
    text=None,
    outputs=None,
    checks=None,
    warnings=None,
):
    run = root / "demo"
    run.mkdir(parents=True)
    if checks is None:
        checks = [{"name": "c1", "passed": True, "detail": ""}, {"name": "c2", "passed": passed}]
    (run / "verdict.json").write_text(json.dumps({"verdict": verdict, "checks": checks}))
    (run / "demo.csv").write_text(table)
    if mirror is not None:
        (run / "demo.json").write_text(json.dumps(mirror, indent=2) + "\n")
    if text is not None:
        (run / "comparison.txt").write_text(text)
    if outputs is not None:
        manifest = {"outputs": outputs, "warnings": warnings or []}
        (run / "manifest.json").write_text(json.dumps(manifest))
    return root


def _full_run_dir(root, **changes):
    kwargs = dict(
        mirror=_MIRROR,
        text="ratio 1.0\n",
        outputs=["comparison.txt", "demo.csv", "demo.json", "verdict.json"],
    )
    return _run_dir(root, **{**kwargs, **changes})


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


def test_every_column_of_a_differing_table_is_reported(tmp_path, capsys):
    a = _run_dir(tmp_path / "a", table="x,y,z,label\n1.0,2.0,3.0,a\n-4.0,8.0,6.0,b\n")
    # y moves by 1e-7 and 5e-8 of its column max 8, z by 1e-8 of 6 in row 2
    table = "x,y,z,label\n1.0,2.0000008,3.0,a\n-4.0,8.0000004,6.00000006,b\n"
    b = _run_dir(tmp_path / "b", table=table)
    assert golden_diff.main([str(a), str(b), "--bound", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "within demo/demo.csv: worst 1e-07 x column max at row 1 column y" in out
    assert "  column x: identical\n" in out
    assert "  column y: 2 cell(s) differ, worst 1e-07 x column max at row 1\n" in out
    assert "  column z: 1 cell(s) differ, worst 1e-08 x column max at row 2\n" in out
    assert "  column label: identical\n" in out
    assert golden_diff.main([str(a), str(b)]) == 1


def test_a_column_on_one_side_only_is_named_and_fails(tmp_path, capsys):
    a = _run_dir(tmp_path / "a", table="x,y,label\n1.0,2.0,a\n-4.0,8.0,b\n")
    b = _run_dir(tmp_path / "b", table="x,label,z\n1.0,a,2.0\n-4.0,b,8.0\n")
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    out = capsys.readouterr().out
    assert "OVER demo/demo.csv: worst inf x column max at column y only in before" in out
    assert "  column y: only in before\n" in out
    assert "  column z: only in after\n" in out


def test_shared_columns_are_compared_across_a_dropped_column(tmp_path, capsys):
    a = _run_dir(tmp_path / "a", table="x,y,z,label\n1.0,2.0,3.0,a\n-4.0,8.0,6.0,b\n")
    # y is dropped; z moves by 1e-8 of its column max 6 in row 2
    b = _run_dir(tmp_path / "b", table="x,z,label\n1.0,3.0,a\n-4.0,6.00000006,b\n")
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    out = capsys.readouterr().out
    assert "  column x: identical\n" in out
    assert "  column y: only in before\n" in out
    assert "  column z: 1 cell(s) differ, worst 1e-08 x column max at row 2\n" in out
    assert "  column label: identical\n" in out


def test_reordered_columns_fail_as_a_shape_change(tmp_path, capsys):
    a = _run_dir(tmp_path / "a")
    b = _run_dir(tmp_path / "b", table="label,x\na,1.0\nb,-4.0\n")
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "OVER demo/demo.csv: worst inf x column max at table shape" in capsys.readouterr().out


def test_text_and_shape_changes_fail(tmp_path):
    a = _run_dir(tmp_path / "a")
    text = _run_dir(tmp_path / "b", table="x,label\n1.0,z\n-4.0,b\n")
    shape = _run_dir(tmp_path / "c", table="x,label\n1.0,a\n")
    for other in (text, shape):
        assert golden_diff.main([str(a), str(other), "--bound", "1"]) == 1
    (tmp_path / "a" / "demo" / "demo.csv").unlink()
    assert golden_diff.main([str(a), str(text), "--bound", "1"]) == 1


def test_identical_trees_with_every_output_pass(tmp_path, capsys):
    a, b = _full_run_dir(tmp_path / "a"), _full_run_dir(tmp_path / "b")
    assert golden_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    for name in ("comparison.txt", "demo.csv", "demo.json"):
        assert f"identical demo/{name}" in out
    assert "same verdict demo" in out


def test_json_mirror_cell_bound(tmp_path, capsys):
    a = _full_run_dir(tmp_path / "a")
    # the mirror's 1.0 -> 1.0 + 4e-13 is 1e-13 of the column max |-4.0|
    mirror = [{"x": 1.0000000000004, "label": "a"}, {"x": -4.0, "label": "b"}]
    b = _full_run_dir(tmp_path / "b", mirror=mirror)
    assert golden_diff.main([str(a), str(b), "--bound", "1e-12"]) == 0
    assert "within demo/demo.json: worst 1e-13 x column max at row 1 column x" in (
        capsys.readouterr().out
    )
    assert golden_diff.main([str(a), str(b), "--bound", "1e-14"]) == 1


def test_json_mirror_text_stays_text(tmp_path):
    a = _full_run_dir(tmp_path / "a", mirror=[{"x": 1.0, "label": "1"}])
    b = _full_run_dir(tmp_path / "b", mirror=[{"x": 1.0, "label": 1.0}])
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1


def test_edited_text_output_fails(tmp_path, capsys):
    a = _full_run_dir(tmp_path / "a")
    b = _full_run_dir(tmp_path / "b", text="ratio 1.00\n")
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "DIFF demo/comparison.txt" in capsys.readouterr().out


def test_missing_mirror_fails(tmp_path, capsys):
    a = _full_run_dir(tmp_path / "a")
    b = _full_run_dir(tmp_path / "b", mirror=None)
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "MISSING demo/demo.json in after" in capsys.readouterr().out


def test_manifest_outputs_must_match(tmp_path, capsys):
    a = _full_run_dir(tmp_path / "a")
    b = _full_run_dir(tmp_path / "b", outputs=["demo.csv", "verdict.json"])
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "manifest outputs" in capsys.readouterr().out


_LARGE_STEP = {"category": "LargeStepWarning", "message": "dt * omega_max = 0.1 > 0.05"}


@pytest.mark.parametrize(
    "before,after",
    [
        # a warning no longer raised
        ([_LARGE_STEP], []),
        # the same category with another message
        ([_LARGE_STEP], [{**_LARGE_STEP, "message": "dt * omega_max = 0.2 > 0.05"}]),
        # a new category
        ([_LARGE_STEP], [_LARGE_STEP, {"category": "ShortBurnInWarning", "message": "short"}]),
    ],
)
def test_manifest_warnings_must_match(tmp_path, capsys, before, after):
    a = _full_run_dir(tmp_path / "a", warnings=before)
    b = _full_run_dir(tmp_path / "b", warnings=after)
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "manifest warnings" in capsys.readouterr().out


def test_equal_manifest_warnings_pass(tmp_path):
    a = _full_run_dir(tmp_path / "a", warnings=[_LARGE_STEP])
    b = _full_run_dir(tmp_path / "b", warnings=[_LARGE_STEP])
    assert golden_diff.main([str(a), str(b)]) == 0


def _checks(*names_passed):
    return [{"name": n, "passed": p, "detail": ""} for n, p in names_passed]


def test_reordered_checks_fail(tmp_path, capsys):
    a = _run_dir(tmp_path / "a", checks=_checks(("c1", True), ("c2", True)))
    b = _run_dir(tmp_path / "b", checks=_checks(("c2", True), ("c1", True)))
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "check #0: c1 passed -> c2 passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "before,after",
    [
        # the same repeat on both sides
        ([("c1", True), ("c1", True)], [("c1", True), ("c1", True)]),
        # keyed by name, BEFORE would keep only its last c1 and match AFTER
        ([("c1", True), ("c1", False)], [("c1", False)]),
    ],
)
def test_repeated_check_name_fails(tmp_path, capsys, before, after):
    a = _run_dir(tmp_path / "a", checks=_checks(*before))
    b = _run_dir(tmp_path / "b", checks=_checks(*after))
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "check c1 repeated 2x in before" in capsys.readouterr().out


def test_dropped_check_fails(tmp_path, capsys):
    a = _run_dir(tmp_path / "a")
    b = _run_dir(tmp_path / "b", checks=_checks(("c1", True)))
    assert golden_diff.main([str(a), str(b), "--bound", "1"]) == 1
    assert "check #1: c2 passed -> absent" in capsys.readouterr().out
