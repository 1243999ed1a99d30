"""The timing harness: its exact-route, Welch, simulate, import, run and tier-1 sections and
the file it writes."""

import importlib.util
import json

from conftest import REPO

_spec = importlib.util.spec_from_file_location("bench", REPO / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PAPER_NUMBERS = REPO / "configs" / "paper_numbers.json"
# Stands in for the test suite, which must not run itself: it checks the working
# directory and the path the suite gets, and prints a pytest summary line.
FAKE_TIER1 = [
    "-c",
    "import os, sys; import modeheat.config; assert os.path.isdir('src/modeheat');"
    " print('..F'); print('1 failed, 2 passed, 1 warning in 0.50s'); sys.exit(1)",
]


def test_exact_route_times_every_size_and_chain():
    section = bench.exact_route(sizes=(2, 5), seeds=2, repeats=1)
    assert list(section["by_n"]) == ["2", "5"]
    for times in section["by_n"].values():
        assert list(times) == [
            "steady_state", "normal_modes", "steady_then_modes", "solve_stationary", "refinements",
        ]
        assert all(len(t) == 2 and min(t) >= 0 for t in times.values())
        assert all(isinstance(rounds, int) for rounds in times["refinements"])


def test_exact_route_builds_a_fresh_model_for_every_call(monkeypatch):
    built, factored = [], []

    def record(setup, call, repeats):
        made = [setup() for _ in range(repeats)]
        built.extend(made)
        if call is bench.solve_stationary:
            factored.extend(made)
        return 0.0

    monkeypatch.setattr(bench, "cpu_seconds", record)
    bench.exact_route(sizes=(2,), seeds=1, repeats=2)
    # four entries, two calls each, and no model or compiled matrices shared
    assert len(built) == 8 and len({id(obj) for obj in built}) == 8
    # the solve alone gets matrices whose Schur factor is cached before the timer starts
    assert len(factored) == 2 and all("schur" in vars(matrices) for matrices in factored)


def test_welch_times_and_traces_every_record_length():
    section = bench.welch(samples=(4096, 6000), seed=0, repeats=1)
    assert list(section["by_samples"]) == ["4096", "6000"]
    for row in section["by_samples"].values():
        assert row["n_segments"] == 1  # the linewidth floor exceeds these records
        assert row["cpu_ms"] >= 0
        # the windowed segment and its spectrum, at least
        assert 4096 * 8 / 1e6 < row["peak_mb"] < 1.0


def test_simulate_times_every_dimension_and_ensemble_size():
    section = bench.simulate_times(dims=(2, 4), members=(1, 3), repeats=1, n_steps=50)
    assert list(section["by_dim"]) == ["2", "4"]
    for dim, rows in section["by_dim"].items():
        assert list(rows) == ["1", "3"]
        for size, row in rows.items():
            assert set(row) == {
                "us_per_member_step", "ensemble_stats_ms", "peak_mb",
                "simulate_stats_ms", "simulate_stats_peak_mb",
            }
            assert row["us_per_member_step"] >= 0 and row["ensemble_stats_ms"] >= 0
            assert row["simulate_stats_ms"] >= 0
            # the record of every coordinate (members x 2N x 50 float64), at least
            assert row["peak_mb"] >= int(size) * int(dim) * 50 * 8 / 1e6
            # one block of up to 16 members of that record, at least
            assert row["simulate_stats_peak_mb"] >= min(16, int(size)) * int(dim) * 50 * 8 / 1e6


def test_run_times_a_fresh_modeheat_run_per_config():
    section = bench.run_times([PAPER_NUMBERS], repeats=2)
    assert list(section["by_config"]) == ["paper_numbers"]
    row = section["by_config"]["paper_numbers"]
    # the pinned entry, and beside it the same run without the thread variables
    assert set(row) == {"wall_s", "cpu_s", "exit_code", "unpinned"}
    assert set(row["unpinned"]) == {"wall_s", "cpu_s", "exit_code"}
    for entry in (row, row["unpinned"]):
        assert entry["exit_code"] == 0
        assert 0 < entry["wall_s"] < 60 and 0 < entry["cpu_s"] < 60


def test_unpinned_children_get_no_thread_variables(monkeypatch):
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    pinned, unpinned = bench.child_env(), bench.child_env(pinned=False)
    assert {var: pinned[var] for var in bench.THREAD_VARS} == dict.fromkeys(bench.THREAD_VARS, "1")
    assert not set(bench.THREAD_VARS) & set(unpinned)
    assert pinned["PYTHONPATH"] == unpinned["PYTHONPATH"]


def test_import_times_every_start_up_command():
    section = bench.import_times([PAPER_NUMBERS], repeats=1)
    assert section["configs"] == ["paper_numbers"]
    assert list(section["by_command"]) == [
        "python", "import_modeheat", "load_configs", "cli_version", "cli_schema",
    ]
    for row in section["by_command"].values():
        assert row["exit_code"] == 0
        assert 0 < row["wall_s"] < 60


def test_tier1_time_reads_the_counts_of_the_summary_line():
    section = bench.tier1_time(FAKE_TIER1)
    assert section["exit_code"] == 1
    assert (section["passed"], section["failed"]) == (2, 1)
    assert section["summary"] == "1 failed, 2 passed, 1 warning in 0.50s"
    assert 0 < section["wall_s"] < 60


def test_main_writes_machine_and_sections(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "CHAIN_SIZES", (2,))
    monkeypatch.setattr(bench, "WELCH_SAMPLES", (4096,))
    monkeypatch.setattr(bench, "SIM_DIMS", (2,))
    monkeypatch.setattr(bench, "SIM_MEMBERS", (2,))
    monkeypatch.setattr(bench, "CONFIGS", [PAPER_NUMBERS])
    monkeypatch.setattr(bench, "TIER1", FAKE_TIER1)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--seeds", "1", "--repeats", "1"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["machine"]) >= {"cpu", "nproc", "numpy", "scipy", "blas", "threads"}
    assert set(doc["machine"]["threads"]) == set(bench.THREAD_VARS)
    assert list(doc["exact_route"]["by_n"]) == ["2"]
    assert len(doc["exact_route"]["by_n"]["2"]["refinements"]) == 1
    assert list(doc["welch"]["by_samples"]) == ["4096"]
    assert list(doc["simulate"]["by_dim"]) == ["2"]
    assert list(doc["simulate"]["by_dim"]["2"]) == ["2"]
    assert doc["import"]["configs"] == ["paper_numbers"]
    assert list(doc["run"]["by_config"]) == ["paper_numbers"]
    unpinned = doc["run"]["by_config"]["paper_numbers"]["unpinned"]
    assert set(unpinned) == {"wall_s", "cpu_s", "exit_code"}
    assert (doc["tier1"]["passed"], doc["tier1"]["failed"]) == (2, 1)
