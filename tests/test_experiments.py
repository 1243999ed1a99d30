"""Experiment plumbing: CSV writing, model rebuilds, sweep table layout."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from modeheat import (
    BOLTZMANN,
    ConfigError,
    LargeStepWarning,
    coupling_g,
    mode_temperature_mc,
    simulate_stats,
)
from modeheat import cli
from modeheat.config import ExperimentConfig, config_from_dict, load_config
from modeheat.experiments import (
    _gap_flux,
    _sim_from_config,
    _with_equal_baths,
    run_experiment,
    run_strong_coupling_sweep,
)
from modeheat.model import _with_coupling
from modeheat.tables import Table, write_csv

from conftest import REPO, oscillator_pair, single_oscillator


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[1.0, math.pi, 6.5e-21], [2.0, -1.2345678901234567e-9, 0.0]]
    write_csv(Table(["a", "b", "c"], rows), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # %.17g keeps float64 values exact through the text round trip
    assert np.array_equal(data, np.array(rows))


def test_with_coupling_replaces_existing_spring():
    model = oscillator_pair(g_over_gamma=10.0)
    target_g = 500.0
    rebuilt = _with_coupling(model, ("A", "B"), target_g)
    assert len(rebuilt.couplings) == 1
    assert coupling_g(rebuilt, ("A", "B")) == pytest.approx(target_g, rel=1e-12)
    mA, mB = (o.mass for o in rebuilt.oscillators)
    wA, wB = (o.omega for o in rebuilt.oscillators)
    expected_k = 2.0 * math.sqrt(mA * mB) * math.sqrt(wA * wB) * target_g
    assert rebuilt.couplings[0].spring_constant == pytest.approx(expected_k, rel=1e-12)


def test_with_coupling_adds_spring_to_uncoupled_pair():
    model = oscillator_pair(g_over_gamma=10.0)
    bare = dataclasses.replace(model, couplings=())
    rebuilt = _with_coupling(bare, ("A", "B"), 123.0)
    assert len(rebuilt.couplings) == 1
    assert coupling_g(rebuilt, ("A", "B")) == pytest.approx(123.0, rel=1e-12)


def test_with_equal_baths():
    model = oscillator_pair(t_a=400.0, t_b=200.0)
    equal = _with_equal_baths(model, 321.0)
    assert all(o.bath_temperature == 321.0 for o in equal.oscillators)
    # everything else untouched
    assert equal.couplings == model.couplings
    assert [o.label for o in equal.oscillators] == ["A", "B"]


def _short_sweep(model, n_steps=200, **analysis):
    """A one-point sweep config with short records."""
    return ExperimentConfig(
        experiment="strong_coupling_sweep",
        model=model,
        sim={"dt": 0.0200125, "n_steps": n_steps, "ensemble_size": 8, "allow_large_step": True},
        analysis={"g_over_gamma": [10.0], "psd_duration_s": 4.0, "psd_ensemble": 2, **analysis},
    )


def _run_sweep(cfg, threads=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        outcome = run_strong_coupling_sweep(cfg, seed=3, threads=threads)
    return outcome.tables["strong_coupling_sweep"], outcome.checks


def test_sweep_table_layout():
    model = oscillator_pair(t_a=400.0, t_b=200.0)
    table, checks = _run_sweep(_short_sweep(model), threads=4)
    header, rows = table.columns, table.rows
    for column in (
        "g_over_gamma",
        "T_prime_A_lyap",
        "T_prime_A_mc",
        "T_prime_A_psd",
        "P_A_gap",
        "P_A_lyap",
        "balance_residual",
        "P_A_equal_gap",
    ):
        assert column in header
    assert len(rows) == 1
    assert len(rows[0]) == len(header)
    assert rows[0][header.index("g_over_gamma")] == 10.0
    assert rows[0][header.index("balance_residual")] < 1e-8
    # short-record smoke run: exact-route columns still correct
    t_lyap = rows[0][header.index("T_prime_A_lyap")]
    assert 200.0 < t_lyap < 400.0


def test_sweep_requires_a_pair():
    with pytest.raises(ConfigError):
        _run_sweep(_short_sweep(single_oscillator(), n_steps=100))


def test_sweep_gap_flux_uses_the_model_boltzmann():
    # natural units (k_B = 1): the gap route must report its flux and SE in the
    # units of the exact route, not in SI, so both scale by 1/k_B from an SI run
    si = oscillator_pair(t_a=400.0, t_b=200.0)
    rows = []
    for model in (si, dataclasses.replace(si, boltzmann=1.0)):
        table, checks = _run_sweep(_short_sweep(model))
        rows.append(dict(zip(table.columns, table.rows[0])))
        assert {c.name: c.passed for c in checks}["p_gap_vs_lyap_g10"]
    for column in ("P_A_lyap", "P_A_gap", "P_A_gap_se", "P_A_equal_gap_se"):
        assert rows[1][column] * BOLTZMANN == pytest.approx(rows[0][column], rel=1e-6)


def test_sweep_holds_one_position_only_psd_record_at_a_time():
    # two points: point 2 draws its PSD ensemble after point 1's is released,
    # and each records only the swept oscillator's position
    doc = json.loads((REPO / "configs" / "strong_coupling_sweep.json").read_text())
    doc["sim"].update(n_steps=200, ensemble_size=8)
    doc["analysis"].update(g_over_gamma=[1.0, 10.0], psd_duration_s=4.0)
    cfg = config_from_dict(doc)
    psd_rate = 2.5 * cfg.model.oscillators[0].omega / (2.0 * math.pi)
    record_bytes = 8 * 8 * round(4.0 * psd_rate)  # 8 members of one float64 series
    # Welch's segments and simulate's chunk temporaries, about 11 MB
    slack = 12e6
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LargeStepWarning)
            run_experiment(cfg, seed=1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record_bytes == 12_800_000
    assert peak < 1.5 * record_bytes + slack


def test_gap_flux_is_the_work_average_of_the_same_moment():
    # S_0/(2m) = 2 gamma k_B T_eq with T_eq = (noise_factor / 4) T, so the gap
    # reading equals the work average S_0/(2m) - 2 gamma m <v^2> of the
    # kinetic temperature's <v^2>, in value and SE, at every noise factor
    cfg = load_config(REPO / "configs" / "coupled_transfer.json")
    for noise_factor in (4.0, 8.0):
        model = dataclasses.replace(cfg.model, noise_factor=noise_factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LargeStepWarning)
            stats = simulate_stats(model, _sim_from_config(cfg.sim, 1), 1)
        mc = mode_temperature_mc(stats, model)
        for i in range(len(model.labels)):
            gap = _gap_flux(model, mc, i)
            c = model.damping_coefficient[i]
            work = model.injected_power[i] - c * stats.variance[2 * i + 1]
            assert gap.value == pytest.approx(work, rel=1e-12, abs=0)
            assert gap.se == pytest.approx(c * stats.variance_se[2 * i + 1], rel=1e-12, abs=0)


def test_run_experiment_writes_nothing(tmp_path, monkeypatch):
    # the experiment returns data; only the command-line runner writes files
    monkeypatch.chdir(tmp_path)
    config = REPO / "configs" / "paper_numbers.json"
    outcome = run_experiment(load_config(config), seed=1, threads=1)
    assert list(tmp_path.iterdir()) == []
    assert all(c.passed for c in outcome.checks)
    out_dir = tmp_path / "out"
    assert cli.run(config, out=out_dir) == 0
    written = {p.name for p in out_dir.iterdir()} - {"verdict.json", "manifest.json"}
    assert written == {f"{stem}.csv" for stem in outcome.tables} | set(outcome.texts)


@pytest.mark.parametrize("name", ["equipartition", "cold_damping", "coupled_transfer", "spectrum"])
def test_shipped_config_passes_at_noise_factor_eight(tmp_path, name):
    # the checks compare with T_eq = 2 T, the temperature the bath alone holds
    # its mode at under this convention, not with the bath temperature T
    doc = json.loads((REPO / "configs" / f"{name}.json").read_text())
    doc["model"]["noise_factor"] = 8.0
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LargeStepWarning)
        assert cli.run(config, out=tmp_path / "out") == 0
