"""Experiment implementations behind the command-line runner.

Each experiment builds its models, runs the exact and/or stochastic
solvers, and returns an `Outcome`: its result tables, its named tolerance
checks and any verbatim text files.  Experiments write nothing; the runner
turns the tables into files and the checks into the verdict file.  A PASS
verdict means every single check passed.

No experiment holds a record: the MC routes reduce their members as they
are integrated, the moments by ``simulate_stats`` and the spectra by a
``WelchReducer`` fed the whole state through ``integrate``: it reads one
position and also sums the Parseval target, the record's mean square, chunk
by chunk.

An MC bath flux is read one way, by the flux-gap formula on the MC kinetic
temperature (``_gap_flux``), and checked against the exact flux.  The work
average S_0/(2m) - 2 gamma m <v^2> is the same statistic, so no experiment
reads it a second time.

All randomness is rooted in the config seed; data rows never contain
timestamps or environment-dependent values, so reruns are bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    BULK_THERMAL_RESISTANCE_REFERENCE,
    MODE_DAMPING_RATE_REFERENCE,
    REFERENCE_BULK_DELTA_T,
    REFERENCE_BULK_FLUX,
    REFERENCE_MODE_FLUX,
    REFERENCE_MODE_GAP,
    SEED_LIMIT,
)
from .config import ExperimentConfig
from .errors import ConfigError
from .fluxlab import (
    compare_mode_vs_bulk,
    comparison_to_json,
    comparison_to_text,
    flux_from_gap,
    flux_gap_slope,
)
from .langevin import (
    Estimate,
    SimConfig,
    integrate,
    mode_temperature_mc,
    simulate_stats,
)
from .model import SystemModel, _with_coupling
from .spectra import WelchReducer, fit_lorentzian, psd_table, temperature_from_area
from .steady import steady_state
from .tables import Table

__all__ = ["Check", "Outcome", "run_experiment"]


@dataclass(frozen=True)
class Check:
    """One named tolerance check contributing to the run verdict."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Outcome:
    """What an experiment returns: result tables by file stem, tolerance
    checks in verdict order, and verbatim text files by file name."""

    tables: dict[str, Table]
    checks: list[Check]
    texts: dict[str, str] = field(default_factory=dict)


def _rel(err: float, scale: float) -> float:
    return abs(err) / max(abs(scale), np.finfo(float).tiny)


def _check_rel(name: str, value: float, target: float, tol: float) -> Check:
    rel = _rel(value - target, target)
    return Check(
        name,
        rel <= tol,
        f"value={value:.10e} target={target:.10e} rel_err={rel:.3e} tol={tol:.0e}",
    )


def _check_within_se(name: str, value: float, target: float, se: float, n_se: float = 4.0) -> Check:
    dev = abs(value - target)
    limit = n_se * se
    return Check(
        name,
        dev <= limit,
        f"value={value:.10e} target={target:.10e} |dev|={dev:.3e} {n_se:g}*se={limit:.3e}",
    )


def _energy_imbalance(ss) -> tuple[float, float]:
    """|sum(P_bath) + sum(P_fb)| and the scale sum(|P_bath|) it is judged against."""
    total = abs(float(np.sum(ss.bath_flux) + np.sum(ss.feedback_flux)))
    return total, float(np.sum(np.abs(ss.bath_flux)))


def _balance_check(ss) -> Check:
    total, scale = _energy_imbalance(ss)
    limit = 1e-8 * scale + 1e-30
    return Check(
        "energy_balance",
        total <= limit,
        f"|sum(P_bath)+sum(P_fb)|={total:.3e} limit={limit:.3e}",
    )


def _sim_from_config(sim_block: dict, seed: int, source: str = "sim") -> SimConfig:
    """The SimConfig of ``sim_block``; errors name the config block ``source``
    it was built from."""
    if not sim_block:
        raise ConfigError("this experiment requires a 'sim' block in the config")
    kwargs = {k: v for k, v in sim_block.items() if k != "seed"}
    try:
        return SimConfig(seed=seed, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {source} block: {exc}") from exc


def _table(records: list[dict]) -> Table:
    """The table whose columns are the keys of its row records, in order."""
    return Table(list(records[0]), [list(r.values()) for r in records])


def _routes(model: SystemModel, sim: SimConfig, threads: int):
    """Both routes on one model: the exact steady state and the MC mode
    temperatures of the simulated ensemble, reduced without holding its
    record."""
    return steady_state(model), mode_temperature_mc(simulate_stats(model, sim, threads), model)


def _ensemble(cfg: ExperimentConfig, seed: int, threads: int):
    """``_routes`` on the config's model, with the two checks every ensemble
    experiment opens with."""
    model = cfg.model
    ss, mc = _routes(model, _sim_from_config(cfg.sim, seed), threads)
    checks = [
        Check(
            "lyapunov_residual",
            ss.residual <= 1e-10,
            f"residual={ss.residual:.3e} refinements={ss.refinements}",
        ),
        _balance_check(ss),
    ]
    return model, ss, mc, checks


def _gap_flux(model: SystemModel, mc, i: int) -> Estimate:
    """Oscillator i's MC bath flux, the one MC reading of it: the flux-gap
    formula 2 gamma k_B (T_eq - T'_kin) on its MC kinetic temperature, with
    that temperature's SE carried through the slope 2 gamma k_B.  The gap is
    taken from the equilibrium temperature T_eq, so at every noise_factor it
    equals the work average S_0/(2m) - 2 gamma m <v^2> of the same <v^2>."""
    o = model.oscillators[i]
    return Estimate(
        flux_from_gap(o.gamma, model.equilibrium_temperature[i], mc.kinetic[i], model.boltzmann),
        flux_gap_slope(o.gamma, model.boltzmann) * mc.kinetic_se[i],
    )


# -- equipartition ---------------------------------------------------------------


def run_equipartition(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    model, ss, mc, checks = _ensemble(cfg, seed, threads)
    rows = []
    for i, o in enumerate(model.oscillators):
        rows.append(
            {
                "oscillator": o.label,
                "bath_temperature_k": o.bath_temperature,
                "t_lyap_pos_k": ss.mode_temperature_positional[i],
                "t_lyap_kin_k": ss.mode_temperature_kinetic[i],
                "t_mc_pos_k": mc.positional[i],
                "t_mc_pos_se_k": mc.positional_se[i],
                "t_mc_kin_k": mc.kinetic[i],
                "t_mc_kin_se_k": mc.kinetic_se[i],
            }
        )
        T = model.equilibrium_temperature[i]
        if T <= 0:
            continue
        checks += [
            _check_rel(f"lyap_pos_{o.label}", ss.mode_temperature_positional[i], T, 1e-8),
            _check_rel(f"lyap_kin_{o.label}", ss.mode_temperature_kinetic[i], T, 1e-8),
            _check_within_se(f"mc_pos_4se_{o.label}", mc.positional[i], T, mc.positional_se[i]),
            _check_within_se(f"mc_kin_4se_{o.label}", mc.kinetic[i], T, mc.kinetic_se[i]),
            Check(
                f"mc_se_fraction_{o.label}",
                mc.positional_se[i] / T <= 0.01,
                f"se/T={mc.positional_se[i] / T:.4f} tol=0.01",
            ),
            _check_rel(f"mc_rel_err_{o.label}", mc.positional[i], T, 0.03),
        ]
    return Outcome({"equipartition": _table(rows)}, checks)


# -- cold damping ----------------------------------------------------------------


def run_cold_damping(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    model, ss, mc, checks = _ensemble(cfg, seed, threads)
    rows = []
    for i, o in enumerate(model.oscillators):
        fb = model.feedback(o.label)
        gamma_fb = -fb.velocity_gain / (2.0 * o.mass)
        t_eq = model.equilibrium_temperature[i]
        predicted = t_eq * o.gamma / (o.gamma + gamma_fb)
        flux = _gap_flux(model, mc, i)
        rows.append(
            {
                "oscillator": o.label,
                "bath_temperature_k": o.bath_temperature,
                "gamma_per_s": o.gamma,
                "gamma_fb_per_s": gamma_fb,
                "t_kin_lyap_k": ss.mode_temperature_kinetic[i],
                "t_kin_predicted_k": predicted,
                "t_kin_mc_k": mc.kinetic[i],
                "t_kin_mc_se_k": mc.kinetic_se[i],
                "p_bath_lyap_w": ss.bath_flux[i],
                "p_fb_lyap_w": ss.feedback_flux[i],
                "p_gap_mc_w": flux.value,
                "p_gap_mc_se_w": flux.se,
            }
        )
        checks += [
            _check_rel(
                f"cooling_ratio_lyap_{o.label}", ss.mode_temperature_kinetic[i], predicted, 1e-8
            ),
            _check_within_se(
                f"t_kin_mc_4se_{o.label}", mc.kinetic[i], ss.mode_temperature_kinetic[i],
                mc.kinetic_se[i],
            ),
            _check_rel(
                f"flux_gap_identity_{o.label}",
                ss.bath_flux[i],
                flux_from_gap(o.gamma, t_eq, ss.mode_temperature_kinetic[i], model.boltzmann),
                1e-8,
            ),
            _check_rel(
                f"feedback_balances_bath_{o.label}", ss.feedback_flux[i], -ss.bath_flux[i], 1e-8
            ),
            _check_within_se(f"p_gap_mc_4se_{o.label}", flux.value, ss.bath_flux[i], flux.se),
        ]
    return Outcome({"cold_damping": _table(rows)}, checks)


# -- coupled transfer ------------------------------------------------------------


def run_coupled_transfer(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    if len(cfg.model.oscillators) != 2:
        raise ConfigError("coupled_transfer expects exactly two oscillators")
    model, ss, mc, checks = _ensemble(cfg, seed, threads)
    checks.append(_check_rel("antisymmetry_lyap", ss.bath_flux[0], -ss.bath_flux[1], 1e-10))
    rows = []
    gaps = []
    for i, o in enumerate(model.oscillators):
        gap = _gap_flux(model, mc, i)
        gaps.append(gap)
        rows.append(
            {
                "oscillator": o.label,
                "bath_temperature_k": o.bath_temperature,
                "t_kin_lyap_k": ss.mode_temperature_kinetic[i],
                "t_kin_mc_k": mc.kinetic[i],
                "t_kin_mc_se_k": mc.kinetic_se[i],
                "p_lyap_w": ss.bath_flux[i],
                "p_gap_mc_w": gap.value,
                "p_gap_mc_se_w": gap.se,
            }
        )
        checks.append(
            _check_within_se(f"p_gap_vs_lyap_{o.label}", gap.value, ss.bath_flux[i], gap.se)
        )
    checks.append(
        _check_within_se(
            "antisymmetry_mc", gaps[0].value, -gaps[1].value, math.hypot(gaps[0].se, gaps[1].se)
        )
    )
    return Outcome({"coupled_transfer": _table(rows)}, checks)


# -- spectrum --------------------------------------------------------------------


def _welch(model: SystemModel, sim: SimConfig, label: str, threads: int, **options):
    """The ``WelchReducer`` of oscillator ``label``'s position, fed as its
    members are integrated."""
    welch = WelchReducer(label, model=model, **options)
    integrate(model, sim, [welch], threads)
    return welch


def run_spectrum(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    model = cfg.model
    o = model.oscillators[0]
    analysis = cfg.analysis
    welch_keys = ("segment_length", "overlap_fraction", "window")
    options = {k: analysis[k] for k in welch_keys if k in analysis}
    welch = _welch(model, _sim_from_config(cfg.sim, seed), o.label, threads, **options)
    (psd,), (mean_square,) = welch.psds, welch.mean_squares
    band = tuple(analysis["band"]) if "band" in analysis else None
    temp = temperature_from_area(psd, model, o.label, band=band)
    fit = fit_lorentzian(psd, band=temp.band)

    # Welch does not detrend, so Parseval equates its area with the mean square
    area_full = psd.area()
    f0 = o.omega / (2.0 * math.pi)
    t_from_fit_area = model.kelvin_per_moment[0] * fit.area

    checks = [
        _check_rel("parseval_full_band", area_full, mean_square, 0.01),
        _check_rel("band_temperature", temp.value, model.equilibrium_temperature[0], 0.05),
        Check(
            "fit_center_within_rbw",
            abs(fit.center - f0) <= psd.resolution_bandwidth,
            f"center={fit.center:.6f} Hz f0={f0:.6f} Hz rbw={psd.resolution_bandwidth:.3e} Hz",
        ),
        _check_rel("fit_linewidth_gamma", fit.fwhm_gamma, o.gamma, 0.10),
        _check_rel("fit_area_vs_band_area", t_from_fit_area, temp.value, 0.10),
        Check("fit_converged", fit.converged, f"converged={fit.converged}"),
        Check(
            "band_capture",
            not temp.low_capture,
            f"variance_fraction={temp.variance_fraction:.4f}",
        ),
    ]

    summary = {
        "oscillator": o.label,
        "bath_temperature_k": o.bath_temperature,
        "band_lo_hz": temp.band[0],
        "band_hi_hz": temp.band[1],
        "t_psd_k": temp.value,
        "t_psd_se_k": temp.se,
        "variance_fraction": temp.variance_fraction,
        "fit_center_hz": fit.center,
        "fit_gamma_per_s": fit.fwhm_gamma,
        "fit_area_m2": fit.area,
        "fit_background": fit.background,
        "fit_goodness": fit.goodness,
    }
    tables = {"spectrum_psd": psd_table(psd), "spectrum_summary": _table([summary])}
    return Outcome(tables, checks)


# -- paper-number closure ---------------------------------------------------------


def run_paper_numbers(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    ref = cfg.analysis.get("reference", {})
    mode_flux = ref.get("mode_flux_w", REFERENCE_MODE_FLUX)
    mode_gap = ref.get("mode_gap_k", REFERENCE_MODE_GAP)
    mode_gamma = ref.get("mode_gamma_per_s", MODE_DAMPING_RATE_REFERENCE)
    bulk_flux = ref.get("bulk_flux_w", REFERENCE_BULK_FLUX)
    bulk_dT_quoted = ref.get("bulk_delta_t_k", REFERENCE_BULK_DELTA_T)
    r_th = ref.get("bulk_thermal_resistance_k_per_w", BULK_THERMAL_RESISTANCE_REFERENCE)

    flux_computed = flux_from_gap(mode_gamma, mode_gap, 0.0)
    cmp = compare_mode_vs_bulk((mode_flux, mode_gamma), (bulk_flux, r_th))
    if mode_flux == 0 or cmp.bulk_delta_T == 0:
        # the ratio closures below divide by both
        raise ConfigError(
            "invalid analysis block: reference mode_flux_w and bulk_flux_w must be nonzero, "
            f"got mode_flux_w = {mode_flux:g} and bulk_flux_w = {bulk_flux:g} "
            f"(bulk delta T = {cmp.bulk_delta_T:g} K)"
        )

    # (check, quantity, computed, quoted, tol): one check and one table row each
    closures = [
        ("flux_from_gap_closure", "mode_flux_w", flux_computed, mode_flux, 0.01),
        ("gap_from_flux_closure", "mode_gap_k", cmp.mode_delta_T, mode_gap, 0.01),
        ("bulk_delta_t_closure", "bulk_delta_t_k", cmp.bulk_delta_T, bulk_dT_quoted, 0.01),
        (
            "flux_ratio_consistent",
            "flux_ratio_bulk_over_mode",
            cmp.flux_ratio,
            bulk_flux / mode_flux,
            1e-12,
        ),
        (
            "delta_t_ratio_consistent",
            "delta_t_ratio_mode_over_bulk",
            cmp.delta_T_ratio,
            cmp.mode_delta_T / cmp.bulk_delta_T,
            1e-12,
        ),
    ]
    checks = [_check_rel(name, value, quoted, tol) for name, _, value, quoted, tol in closures]
    table = Table(
        ["quantity", "computed", "quoted", "rel_err"],
        [[q, value, quoted, _rel(value - quoted, quoted)] for _, q, value, quoted, _ in closures],
    )
    texts = {
        "comparison.json": comparison_to_json(cmp) + "\n",
        "comparison.txt": comparison_to_text(cmp) + "\n",
    }
    return Outcome({"paper_numbers": table}, checks, texts)


# -- strong-coupling sweep ---------------------------------------------------------


def _with_equal_baths(model: SystemModel, temperature: float) -> SystemModel:
    oscillators = tuple(
        dataclasses.replace(o, bath_temperature=temperature) for o in model.oscillators
    )
    return dataclasses.replace(model, oscillators=oscillators)


def _psd_temperature(model: SystemModel, sim: SimConfig, label: str, threads: int):
    """Mean band-area temperature of oscillator ``label`` over the members of
    one ensemble, with the SE of that mean: the members' scatter, or the
    per-bin SE of a lone member.  The members' PSDs are reduced as they are
    integrated; no record is held."""
    psds = _welch(model, sim, label, threads).psds
    temps = [temperature_from_area(psd, model, label) for psd in psds]
    t_psd = float(np.mean([t.value for t in temps]))
    if len(temps) > 1:
        return t_psd, float(np.std([t.value for t in temps], ddof=1) / math.sqrt(len(temps)))
    return t_psd, temps[0].se


def run_strong_coupling_sweep(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    """Sweep the coupling rate on a two-oscillator model; at each point
    estimate the mode temperature of the pair's first oscillator three ways (exact,
    time-domain MC, spectral) and its bath flux two ways (exact, and the gap
    formula on its MC kinetic temperature), plus the exact energy-balance
    residual and the gap flux of an equal-bath control, which must vanish.

    ``analysis.g_over_gamma`` sets the coupling rates in units of that
    oscillator's gamma.  The spectral estimate averages ``psd_ensemble``
    independent records of ``psd_duration_s`` each; its SE is the scatter
    across members, which stays honest where the per-bin model would
    undercount correlated segments.  The verdict demands pairwise 4-SE
    agreement of all estimator pairs and balance residual < 1e-8 at every
    point.
    """
    template = cfg.model
    if len(template.oscillators) != 2:
        raise ConfigError("strong_coupling_sweep expects exactly two oscillators")
    analysis = cfg.analysis
    pair = tuple(analysis.get("pair", template.labels))
    if set(pair) != set(template.labels):
        raise ConfigError(
            f"invalid analysis block: pair {list(pair)} must name the model's two "
            f"oscillators {list(template.labels)}, each once"
        )
    a_label = pair[0]
    ia = template.index(a_label)
    osc_a = template.oscillators[ia]
    if osc_a.gamma <= 0:
        raise ConfigError("the swept oscillator needs gamma > 0 to define g/gamma")
    ratios = analysis.get("g_over_gamma", [0.1, 1.0, 10.0, 100.0])
    sim = _sim_from_config(cfg.sim, seed)
    psd_rate = analysis.get(
        "psd_sample_rate_hz", 2.5 * max(o.omega for o in template.oscillators) / (2.0 * math.pi)
    )
    psd_duration = analysis.get("psd_duration_s", 16.0)
    psd_steps = int(round(psd_duration * psd_rate))
    if psd_steps < 1:
        # SimConfig would name its own n_steps, which the user never wrote
        raise ConfigError(
            f"invalid analysis block: psd_duration_s = {psd_duration:g} s at "
            f"psd_sample_rate_hz = {psd_rate:g} Hz gives a PSD record of "
            f"n_steps = {psd_steps}; it must be > 0"
        )
    psd_block = {
        "dt": 1.0 / psd_rate,
        "n_steps": psd_steps,
        "ensemble_size": analysis.get("psd_ensemble", 8),
        "allow_large_step": True,
    }
    psd_sim = _sim_from_config(psd_block, (seed + 1) % SEED_LIMIT, "analysis")

    rows = []
    checks: list[Check] = []

    for r in ratios:
        g = r * osc_a.gamma
        tag = f"g{g / osc_a.gamma:g}"
        model = _with_coupling(template, pair, g)
        ss, mc = _routes(model, sim, threads)
        t_lyap = ss.mode_temperature_positional[ia]
        balance = _rel(*_energy_imbalance(ss))
        t_mc, t_mc_se = mc.positional[ia], mc.positional_se[ia]
        gap = _gap_flux(model, mc, ia)

        t_psd, t_psd_se = _psd_temperature(model, psd_sim, a_label, threads)

        equal_model = _with_equal_baths(model, osc_a.bath_temperature)
        equal_mc = mode_temperature_mc(simulate_stats(equal_model, sim, threads), equal_model)
        equal = _gap_flux(equal_model, equal_mc, ia)

        rows.append(
            {
                "g_over_gamma": g / osc_a.gamma,
                "T_prime_A_lyap": t_lyap,
                "T_prime_A_mc": t_mc,
                "T_prime_A_mc_se": t_mc_se,
                "T_prime_A_psd": t_psd,
                "T_prime_A_psd_se": t_psd_se,
                "P_A_gap": gap.value,
                "P_A_gap_se": gap.se,
                "P_A_lyap": ss.bath_flux[ia],
                "balance_residual": balance,
                "P_A_equal_gap": equal.value,
                "P_A_equal_gap_se": equal.se,
            }
        )
        checks += [
            _check_within_se(f"t_mc_vs_lyap_{tag}", t_mc, t_lyap, t_mc_se),
            _check_within_se(f"t_psd_vs_lyap_{tag}", t_psd, t_lyap, t_psd_se),
            _check_within_se(
                f"t_psd_vs_mc_{tag}", t_psd, t_mc, math.hypot(t_psd_se, t_mc_se)
            ),
            _check_within_se(f"p_gap_vs_lyap_{tag}", gap.value, ss.bath_flux[ia], gap.se),
            Check(f"balance_{tag}", balance < 1e-8, f"balance_residual={balance:.3e}"),
            _check_within_se(f"equal_bath_control_{tag}", equal.value, 0.0, equal.se),
        ]
    return Outcome({"strong_coupling_sweep": _table(rows)}, checks)


_RUNNERS = {
    "equipartition": run_equipartition,
    "cold_damping": run_cold_damping,
    "coupled_transfer": run_coupled_transfer,
    "strong_coupling_sweep": run_strong_coupling_sweep,
    "spectrum": run_spectrum,
    "paper_numbers": run_paper_numbers,
}


def run_experiment(cfg: ExperimentConfig, seed: int, threads: int) -> Outcome:
    """Dispatch to the named experiment; returns its tables and checks."""
    return _RUNNERS[cfg.experiment](cfg, seed, threads)
