"""Run one workload in this fresh process and write its result as JSON.

Started by run.py with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1 before numpy is imported, and with the checkout's
``src`` on PYTHONPATH.  Passes repeat until the next one would end after
``--seconds``, and at least MIN_PASSES times.  Each pass runs the workload
once into emptied output directories; the outputs are checked after its
clock has stopped.  Each pass time is expressed at the calibration
machine's speed, sampled while the pass runs (reference.py).  With ``--trace 1`` untraced and traced passes alternate, so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
import scipy.signal

import modeheat
import modeheat.cli
import modeheat.config
import modeheat.errors
import modeheat.langevin
import modeheat.model
import modeheat.spectra
import modeheat.steady

import inputs
import reference
import tracer

ROOT = Path(__file__).resolve().parents[1]
REQUIRED_RESIDUAL = 1e-10
BALANCE_SHARE = 1e-8
# Largest relative Frobenius distance, in stiffness-scaled coordinates, between
# modeheat's covariance and scipy's Bartels-Stewart solve.  Measured at most
# 2.2e-11 over seeds 0-29 at every chain size; the bound leaves a 45x margin.
SCIPY_AGREEMENT = 1e-9
FREQUENCY_AGREEMENT = 1e-9
# long_record.  The exact scheme makes the residuals x[k+1] - E x[k] white
# with covariance Q; over 1.6 M records an element of their sample covariance
# scatters by about 0.1% of sqrt(Q_ii Q_jj), so 1% is about nine standard
# errors, while a wrong propagator or noise factor moves it by far more.
INTEGRATOR_SHARE = 0.01
RESIDUAL_MEAN_SIGMAS = 5.0
# Welch, band area and fit statistic against their references computed here.
SPECTRUM_AGREEMENT = 1e-9
# Relative step of each fitted parameter that must not lower the fit's chi-square.
FIT_PROBE = 1e-3
SCIPY_WINDOWS = {"hann": "hann", "rectangular": "boxcar"}
# Untraced passes a measuring run makes at least, even past ``--seconds``: a
# pass's speed on a shared machine varies by tens of percent from one pass to
# the next, and the median of three damps that where a pass lasts about 9 s.
MIN_PASSES = 3


def environment() -> dict:
    """What a result depends on besides the code: two results compare only
    when they ran the same kernel path."""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    sources = sorted((ROOT / "src" / "modeheat").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": numpy_blas(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "have_numba": bool(modeheat.langevin.HAVE_NUMBA),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def numpy_blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def seed_fingerprints(workload: str, seed: int) -> tuple:
    """Config bytes and model fingerprints generated from one workload seed."""
    if workload == "exact_network":
        docs = inputs.chain_docs(seed)
        data = [json.dumps(d, sort_keys=True).encode() for d in docs]
        prints = [modeheat.model.model_from_dict(d).fingerprint() for d in docs]
    else:
        configs = inputs.config_bytes(ROOT, workload, seed)
        data = list(configs.values())
        prints = [
            modeheat.config.config_from_dict(json.loads(b)).model.fingerprint() for b in data
        ]
    return tuple(data), tuple(prints)


def seed_self_check(workload: str, seed: int) -> list[str]:
    first, again = seed_fingerprints(workload, seed), seed_fingerprints(workload, seed)
    other = seed_fingerprints(workload, seed + 1)
    problems = []
    if first != again:
        problems.append("one seed gave different inputs on two generations")
    if first == other:
        problems.append("seeds differing by one gave identical inputs")
    return problems


# -- ensemble: shipped configs through modeheat.cli.run ----------------------------


class CliWorkload:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.seed = inputs.modeheat_seed(seed)
        self.configs = inputs.write_configs(ROOT, workload, seed, run_dir / "inputs")
        self.outdirs = [run_dir / "out" / p.stem for p in self.configs]
        self.digests: list[str | None] = [None] * len(self.configs)
        self.bytes_written = 0

    def prepare(self) -> None:
        """Remove the previous pass's outputs, so that every check reads this pass's own."""
        for out in self.outdirs:
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, trace: tracer.Tracer | None) -> list:
        codes = []
        for op, (config, out) in enumerate(zip(self.configs, self.outdirs)):
            if trace is not None:
                trace.op = op
            try:
                codes.append(modeheat.cli.run(config, seed=self.seed, out=out, threads=1))
            except Exception:
                codes.append(traceback.format_exc())
        return codes

    def check(self, codes: list) -> list[list[str]]:
        """Per run: exit code 0, verdict PASS, and CSV tables byte-identical to
        those of the first pass at the same seed."""
        problems = []
        self.bytes_written = 0
        for i, (code, out) in enumerate(zip(codes, self.outdirs)):
            name = self.configs[i].stem
            if isinstance(code, str):
                missed = [f"{name}: {code.strip().splitlines()[-1]}"]
            else:
                missed = [] if code == 0 else [f"{name}: exit code {code}"]
            verdict_path = out / "verdict.json"
            if verdict_path.is_file():
                verdict = json.loads(verdict_path.read_text())
                if verdict.get("verdict") != "PASS":
                    names = [c["name"] for c in verdict.get("checks", []) if not c["passed"]]
                    missed.append(f"{name}: verdict {verdict.get('verdict')} ({', '.join(names)})")
            else:
                missed.append(f"{name}: no verdict.json")
            digest = hashlib.sha256()
            for table in sorted(out.glob("*.csv")):
                digest.update(table.read_bytes())
            if self.digests[i] is None:
                self.digests[i] = digest.hexdigest()
            elif self.digests[i] != digest.hexdigest():
                missed.append(f"{name}: CSV tables differ from the first pass at the same seed")
            if out.is_dir():
                self.bytes_written += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
            problems.append(missed)
        return problems


# -- long_record: the spectrum experiment's record and analysis, through the library --


class RecordWorkload:
    """The shipped `spectrum` config: one long record, Welch, band temperature,
    Lorentzian fit and the PSD table, the calls `run_spectrum` makes.  Its
    verdict is left out: its Parseval and band-temperature tolerances are
    tighter than this record's statistical scatter, so it fails on a correct
    program at many seeds (README.md).  The outputs are checked against
    references instead."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        (self.config,) = inputs.write_configs(ROOT, workload, seed, run_dir / "inputs")
        self.out = run_dir / "out"
        self.digest: str | None = None
        self.bytes_written = 0

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run_pass(self, trace: tracer.Tracer | None) -> list:
        try:
            cfg = modeheat.config.load_config(self.config)
            label = cfg.model.oscillators[0].label
            with warnings.catch_warnings():
                # The shipped step is 2.5 rad of the resonance; the record aliases it, as intended.
                warnings.simplefilter("ignore", modeheat.errors.LargeStepWarning)
                traj = modeheat.langevin.simulate(cfg.model, modeheat.langevin.SimConfig(**cfg.sim), 1)[0]
            analysis = cfg.analysis
            psd = modeheat.spectra.welch_psd(
                traj, label, segment_length=analysis.get("segment_length"),
                overlap_fraction=analysis.get("overlap_fraction", 0.5),
                window=analysis.get("window", "hann"), model=cfg.model,
            )
            band = tuple(analysis["band"]) if "band" in analysis else None
            temp = modeheat.spectra.temperature_from_area(psd, cfg.model, label, band=band)
            fit = modeheat.spectra.fit_lorentzian(psd, band=temp.band)
            modeheat.spectra.psd_to_csv(psd, self.out / "spectrum_psd.csv")
            return [(cfg, traj, psd, temp, fit)]
        except Exception:
            return [traceback.format_exc()]

    def check(self, results: list) -> list[list[str]]:
        """Per record: the reference checks, and a PSD table byte-identical to
        that of the first pass at the same seed."""
        problems = []
        for result in results:
            if isinstance(result, str):
                problems.append([result.strip().splitlines()[-1]])
                continue
            missed = check_record(*result)
            table = self.out / "spectrum_psd.csv"
            if table.is_file():
                digest = hashlib.sha256(table.read_bytes()).hexdigest()
                self.digest = self.digest or digest
                if digest != self.digest:
                    missed.append("PSD table differs from the first pass at the same seed")
            else:
                missed.append("no spectrum_psd.csv")
            problems.append(missed)
        return problems


def check_record(cfg, traj, psd, temp, fit) -> list[str]:
    """Integrator, Welch PSD, band temperature and Lorentzian fit, each against
    a reference computed here from the model and the record."""
    model = cfg.model
    osc = model.oscillators[0]
    problems = []

    mats = modeheat.model.compile(model)
    s = stiffness_scale(mats.drift)
    M = s[:, None] * mats.drift / s[None, :]
    step = float(traj.times[1] - traj.times[0])
    E = scipy.linalg.expm(M * step)
    C = scipy.linalg.solve_continuous_lyapunov(M, -(s[:, None] * mats.diffusion * s[None, :]))
    Q = C - E @ C @ E.T
    x = traj.states * s
    w = x[1:] - x[:-1] @ E.T
    sd = np.sqrt(np.diag(Q))
    deviation = np.max(np.abs(w.T @ w / len(w) - Q) / np.outer(sd, sd))
    if not deviation <= INTEGRATOR_SHARE:
        problems.append(f"integrator residual covariance off by {deviation:.3e} > {INTEGRATOR_SHARE}")
    drift = np.max(np.abs(w.mean(axis=0)) / sd) * np.sqrt(len(w))
    if not drift <= RESIDUAL_MEAN_SIGMAS:
        problems.append(f"integrator residual mean at {drift:.2f} > {RESIDUAL_MEAN_SIGMAS} standard errors")

    fs = 1.0 / step
    nperseg = round(fs / psd.resolution_bandwidth)
    freqs, values = scipy.signal.welch(
        traj.position(osc.label), fs=fs, window=SCIPY_WINDOWS[psd.window], nperseg=nperseg,
        noverlap=int(cfg.analysis.get("overlap_fraction", 0.5) * nperseg), detrend=False,
    )
    if freqs.shape != psd.frequencies.shape or not (
        np.allclose(psd.frequencies, freqs, rtol=SPECTRUM_AGREEMENT, atol=0)
        and np.allclose(psd.values, values, rtol=SPECTRUM_AGREEMENT, atol=0)
    ):
        return problems + ["Welch PSD differs from scipy.signal.welch of the record"]

    lo, hi = temp.band
    mask = (freqs >= lo) & (freqs <= hi)
    f0 = osc.omega / (2.0 * np.pi)
    expected = osc.mass * osc.omega**2 * np.sum(values[mask]) * psd.resolution_bandwidth / model.boltzmann
    if not (lo < f0 < hi and abs(temp.value - expected) <= SPECTRUM_AGREEMENT * expected):
        problems.append(f"band temperature {temp.value:.6e} K, band {temp.band}; expected {expected:.6e} K")

    f, p = freqs[mask], values[mask]
    sigma = np.maximum(p, 1e-12 * p.max()) / np.sqrt(psd.n_segments)

    def chi2(center, width, area, background):
        half = 0.5 * width
        lorentzian = background + (area / np.pi) * half / ((f - center) ** 2 + half**2)
        return float(np.sum(((lorentzian - p) / sigma) ** 2))

    best = (fit.center, fit.fwhm_gamma / np.pi, fit.area, fit.background)
    least = chi2(*best)
    if not fit.converged:
        problems.append("Lorentzian fit did not converge")
    if not abs(least / max(f.size - 4, 1) - fit.goodness) <= SPECTRUM_AGREEMENT * fit.goodness:
        problems.append(f"fit goodness {fit.goodness:.6e} differs from the chi-square of its parameters")
    width, area = best[1], best[2]
    probes = [(FIT_PROBE * width, 0, 0, 0), (-FIT_PROBE * width, 0, 0, 0),
              (0, FIT_PROBE * width, 0, 0), (0, -FIT_PROBE * width, 0, 0),
              (0, 0, FIT_PROBE * area, 0), (0, 0, -FIT_PROBE * area, 0),
              (0, 0, 0, FIT_PROBE * p.max())]
    if any(chi2(*np.add(best, d)) < least for d in probes):
        problems.append("Lorentzian fit is not a least-squares minimum over its band")
    return problems


# -- exact_network: steady_state and normal_modes on seeded chains -----------------


class NetworkWorkload:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.docs = inputs.chain_docs(seed)
        self.bytes_written = 0

    def prepare(self) -> None:
        pass

    def run_pass(self, trace: tracer.Tracer | None) -> list:
        results = []
        for op, doc in enumerate(self.docs):
            if trace is not None:
                trace.op = op
            try:
                model = modeheat.model.model_from_dict(doc)
                ss = modeheat.steady.steady_state(model)
                modes = modeheat.steady.normal_modes(modeheat.model.compile(model))
                results.append((model, ss, modes))
            except Exception:
                results.append(traceback.format_exc())
        return results

    def check(self, results: list) -> list[list[str]]:
        problems = []
        for doc, result in zip(self.docs, results):
            n = len(doc["oscillators"])
            if isinstance(result, str):
                missed = [result.strip().splitlines()[-1]]
            else:
                missed = check_network(*result)
            problems.append([f"N={n}: {p}" for p in missed])
        return problems


def stiffness_scale(drift: np.ndarray) -> np.ndarray:
    """State scale that turns positions into their stiffness frequency times
    position: a plain solve of the SI-unit system is too badly conditioned to
    serve as a reference."""
    s = np.ones(drift.shape[0])
    s[0::2] = np.sqrt(-drift[1::2, 0::2].sum(axis=1))
    return s


def check_network(model, ss, modes) -> list[str]:
    """Residual, energy balance, scipy agreement and the normal-mode frequencies,
    each recomputed here from the compiled matrices."""
    mats = modeheat.model.compile(model)
    M, D, C = mats.drift, mats.diffusion, ss.covariance
    problems = []
    residual = np.linalg.norm(M @ C + C @ M.T + D) / np.linalg.norm(D)
    if not residual <= REQUIRED_RESIDUAL:
        problems.append(f"Lyapunov residual {residual:.3e} > {REQUIRED_RESIDUAL:.0e}")
    imbalance = abs(float(np.sum(ss.bath_flux) + np.sum(ss.feedback_flux)))
    scale = float(np.sum(np.abs(ss.bath_flux)))
    if not imbalance <= BALANCE_SHARE * scale:
        problems.append(f"energy balance {imbalance:.3e} > {BALANCE_SHARE:.0e} * {scale:.3e}")
    s = stiffness_scale(M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reference = scipy.linalg.solve_continuous_lyapunov(
            s[:, None] * M / s[None, :], -(s[:, None] * D * s[None, :])
        )
    scaled = s[:, None] * C * s[None, :]
    distance = np.linalg.norm(reference - scaled) / np.linalg.norm(scaled)
    if not distance <= SCIPY_AGREEMENT:
        problems.append(f"covariance differs from scipy's solve by {distance:.3e} > {SCIPY_AGREEMENT:.0e}")
    lam = np.linalg.eigvals(M)
    expected = np.sort(np.abs(lam[lam.imag >= 0].imag))
    got = np.sort(modes.frequencies)
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=FREQUENCY_AGREEMENT, atol=0):
        problems.append("normal-mode frequencies differ from the drift eigenvalues")
    return problems


# -- driver -------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    self_check = seed_self_check(args.workload, args.seed)
    kind = {"ensemble": CliWorkload, "long_record": RecordWorkload, "exact_network": NetworkWorkload}
    work = kind[args.workload](args.workload, args.seed, args.run_dir)

    walls = {False: [], True: []}
    scaled_walls: list[float] = []
    scaled_cpus: list[float] = []
    slices: list[float] = []
    spans: list[tracer.Span] = []
    bytes_written: list[int] = []
    problems: list[str] = []
    attempted = failed = 0
    peak_rss_mb = 0.0
    start = time.perf_counter()
    for k in itertools.count():
        # With tracing, pass 0 only warms up; traced and untraced passes then alternate.
        warmup = bool(args.trace) and k == 0
        traced = bool(args.trace) and k % 2 == 1
        trace = tracer.Tracer() if traced else None
        work.prepare()
        if trace is not None:
            trace.install()
        with reference.Sampler() as sampler:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcome = work.run_pass(trace)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                if trace is not None:
                    trace.uninstall()
        if k == 0:
            # Taken before any output check, so that the checks' own arrays do not count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            spans += trace.spans
        if not warmup:
            walls[traced].append(t1 - t0)
        if not (warmup or traced):
            scaled_walls.append(sampler.scale(t1 - t0))
            # The process CPU time less the sampler's own slices.
            scaled_cpus.append(sampler.scale(c1 - c0 - sum(sampler.cpus[:-1])))
            slices.append(sampler.slice_s())
        missed = work.check(outcome)
        del outcome
        bytes_written.append(work.bytes_written)
        attempted += len(missed)
        failed += sum(1 for m in missed if m)
        problems += [p for m in missed for p in m]
        floor = 1 if args.trace else MIN_PASSES
        enough = len(walls[False]) >= floor and (walls[True] or not args.trace)
        if enough and time.perf_counter() - start + (t1 - t0) > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "self_check": self_check,
        "passes": len(walls[False]) + len(walls[True]),
        "wall_s": statistics.median(scaled_walls),
        "cpu_s": statistics.median(scaled_cpus),
        "peak_rss_mb": peak_rss_mb,
        "measured_wall_s": statistics.median(walls[False]),
        "slice_s": statistics.median(slices),
        "env": environment(),
    }
    if args.trace:
        layers = tracer.summarise(spans, sum(walls[True]), len(walls[True]), inputs.CHAIN_SIZES)
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["cli.bytes_written"] = statistics.median(bytes_written)
        result["layers"] = layers
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
