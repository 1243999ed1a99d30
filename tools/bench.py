"""Per-layer timings of modeheat, written to BENCH_<date>.json with the machine.

    python tools/bench.py [--out PATH] [--seeds 3] [--repeats 3]

Run it from anywhere; it times the checkout it sits in (``src/``).  The BLAS
and OpenMP thread counts are pinned to 1 before numpy loads, and the file
records the machine, the thread settings and the BLAS build next to the
numbers.

Sections:

- ``exact_route``: ``steady_state`` (compile, Lyapunov solve and the derived
  temperatures and fluxes), ``normal_modes`` (eigenfrequencies and
  linewidths of the drift matrix), ``steady_then_modes`` (both, on one
  model, as the benchmark's ``exact_network`` workload calls them) and
  ``solve_stationary`` against the oscillator count N, on that workload's
  seeded nearest-neighbour chains (``perfbench/inputs.py``), one chain per
  seed.  Each entry is the CPU time of this process, the least of
  ``--repeats`` calls.  A compiled model keeps its matrices and their Schur
  factor, so every call gets a model built afresh from the chain document,
  outside the timer: the times are those of a cold model, as a run sees
  it.  ``solve_stationary`` alone is timed on a model compiled and
  Schur-factored outside the timer, so that its time is the Lyapunov
  kernel and the refinement without the Schur form.  ``refinements`` gives
  the refinement rounds of each chain's solve.
- ``welch``: ``welch_psd`` on records of 2**17, 2**20 and 1.6 M samples of the
  shipped ``configs/spectrum.json`` oscillator (seeded ``simulate``, made
  outside the timer), at the default segmentation that ``run_spectrum``
  uses.  Each entry is the least process CPU time of ``--repeats`` calls, in
  ms, and the tracemalloc peak of one further call, in MB: the estimator's
  own working set, on top of the record.
- ``simulate``: ``simulate``, ``ensemble_stats`` and ``simulate_stats`` by
  state dimension 2N and ensemble size, on the chain of N oscillators that
  ``chain_doc(random.Random(0), N)`` draws, at the ``ensemble`` workload's
  step (dt = 5.0025 ms, 2000 recorded steps after 200 burn-in steps).  Each
  entry is the least process CPU time of ``--repeats`` calls: ``simulate``
  in µs per member-step (burn-in included), ``ensemble_stats`` and
  ``simulate_stats`` (the two together, without the record) in ms; and the
  tracemalloc peak of one further call, in MB: for ``simulate`` the record
  of every coordinate, for ``simulate_stats`` what the moments reducer
  allocates.  The integrator's scratch (chunk temporaries, noise generators,
  the reducer's 16-member block) lasts the process, so the timed calls
  before have made it and the peaks do not count it.
- ``import``: start-up in fresh interpreters with the pinned thread
  settings: a bare ``python -c pass``, ``import modeheat``, ``import
  modeheat, modeheat.cli`` plus ``load_config`` of every shipped config, and
  ``python -m modeheat.cli version`` and ``schema``.  Each entry is the
  least wall time and the least CPU time of ``--repeats`` interpreters,
  interpreter start-up included, in s, and the exit code of the last.
- ``run``: ``modeheat run CONFIG`` end to end for each shipped
  ``configs/*.json``, each in a fresh interpreter (``python -m
  modeheat.cli``, imports included) with its outputs in a temporary
  directory.  Each entry is the least wall time and the least child CPU time
  of ``--repeats`` runs, in s, and the exit code of the last, with the
  pinned thread settings; ``unpinned`` gives the same with the three thread
  variables removed from the child's environment, as a user's plain
  ``modeheat run`` starts.
- ``tier1``: one run of the tier-1 test suite in a subprocess, with the
  invocation ``ROADMAP.md`` gives (``PYTHONPATH=src python -m pytest -q
  --continue-on-collection-errors``, from the checkout's root, with the
  pinned thread settings): its wall time in s, its exit code, the passed
  and failed counts of pytest's summary line, and that line.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import math
import os
import platform
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHAIN_SIZES = (2, 5, 10, 20, 50, 100, 200)
WELCH_SAMPLES = (1 << 17, 1 << 20, 1_600_000)
WELCH_SEED = 1
SIM_DIMS = (2, 4, 8)
SIM_MEMBERS = (1, 16, 200)
SIM_STEPS = 2000
SIM_BURN_IN = 200
SIM_DT = 5.0025e-3
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

if __name__ == "__main__":
    # OpenBLAS reads its thread count once, when numpy loads.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from modeheat.config import load_config  # noqa: E402
from modeheat.errors import LargeStepWarning  # noqa: E402
from modeheat.langevin import SimConfig, ensemble_stats, simulate, simulate_stats  # noqa: E402
from modeheat.model import compile, model_from_dict  # noqa: E402
from modeheat.spectra import welch_psd  # noqa: E402
from modeheat.steady import (  # noqa: E402
    _solve_stationary,
    normal_modes,
    solve_stationary,
    steady_state,
)

# The benchmark's input generator, loaded by path: perfbench is not a package.
_spec = importlib.util.spec_from_file_location("chain_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def machine() -> dict:
    """What the numbers depend on besides the code."""
    try:
        with open("/proc/cpuinfo") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        cpu = names[0] if names else None
    except OSError:
        cpu = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit, dirty = None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
        if head.returncode == 0 and status.returncode == 0:
            # uncommitted changes to tracked files mean the numbers are not HEAD's
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def cpu_seconds(setup, call, repeats: int) -> float:
    """Least CPU time of ``repeats`` calls ``call(setup())``; ``setup`` is untimed."""
    best = math.inf
    for _ in range(repeats):
        arg = setup()
        start = time.process_time()
        call(arg)
        best = min(best, time.process_time() - start)
    return best


def steady_then_modes(model) -> None:
    steady_state(model)
    normal_modes(compile(model))


def factored(model):
    """The compiled matrices of ``model`` with their Schur factor computed."""
    matrices = compile(model)
    matrices.schur
    return matrices


# Timed exact-route calls: what is made, untimed, from a fresh model, and the call timed on it.
ROUTES = {
    "steady_state": (lambda model: model, steady_state),
    "normal_modes": (compile, normal_modes),
    "steady_then_modes": (lambda model: model, steady_then_modes),
    "solve_stationary": (factored, solve_stationary),
}


def exact_route(sizes, seeds: int, repeats: int) -> dict:
    """Exact-route CPU seconds per chain, by oscillator count, each on a fresh model, and
    the refinement rounds of each chain's solve."""
    by_size = {}
    for n in sizes:
        times = {key: [] for key in ROUTES}
        times["refinements"] = []
        for seed in range(seeds):
            doc = inputs.chain_doc(random.Random(seed), n)
            for key, (prepare, call) in ROUTES.items():
                def fresh():
                    return prepare(model_from_dict(doc))

                times[key].append(cpu_seconds(fresh, call, repeats))
            times["refinements"].append(_solve_stationary(factored(model_from_dict(doc)))[2])
        by_size[str(n)] = times
    return {
        "unit": "s",
        "timer": f"process CPU time, least of {repeats} calls per chain, each on a fresh model",
        "chains": f"perfbench/inputs.py chain_doc(random.Random(seed), N), seeds 0-{seeds - 1}",
        "by_n": by_size,
    }


def peak_bytes(call) -> int:
    """Tracemalloc peak of one ``call()``: what it allocates at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def welch(samples, seed: int, repeats: int) -> dict:
    """Welch CPU ms and tracemalloc peak MB by record length, on the spectrum oscillator."""
    cfg = load_config(ROOT / "configs" / "spectrum.json")
    by_size = {}
    for n in samples:
        sim = SimConfig(**dict(cfg.sim, n_steps=n, seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LargeStepWarning)
            traj = simulate(cfg.model, sim)[0]

        def call(record):
            return welch_psd(record, 0, model=cfg.model)

        by_size[str(n)] = {
            "n_segments": call(traj).n_segments,
            "cpu_ms": 1e3 * cpu_seconds(lambda: traj, call, repeats),
            "peak_mb": peak_bytes(lambda: call(traj)) / 1e6,
        }
    return {
        "timer": f"process CPU time in ms, least of {repeats} calls; tracemalloc peak of one call in MB",
        "records": f"configs/spectrum.json oscillator, simulate seed {seed}, default segmentation",
        "by_samples": by_size,
    }


def simulate_times(dims, members, repeats: int, n_steps: int = SIM_STEPS) -> dict:
    """simulate µs per member-step and peak MB, ensemble_stats ms, and simulate_stats ms and
    peak MB, by 2N and ensemble size."""
    by_dim = {}
    for dim in dims:
        model = model_from_dict(inputs.chain_doc(random.Random(0), dim // 2))
        rows = {}
        for size in members:
            sim = SimConfig(
                dt=SIM_DT, n_steps=n_steps, seed=1, burn_in=SIM_BURN_IN,
                ensemble_size=size, allow_large_step=True,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LargeStepWarning)
                sim_s = cpu_seconds(lambda: None, lambda _: simulate(model, sim), repeats)
                ens = simulate(model, sim)
                peak = peak_bytes(lambda: simulate(model, sim))
                stats_s = cpu_seconds(lambda: None, lambda _: simulate_stats(model, sim), repeats)
                stats_peak = peak_bytes(lambda: simulate_stats(model, sim))
            rows[str(size)] = {
                "us_per_member_step": 1e6 * sim_s / (size * (SIM_BURN_IN + n_steps)),
                "ensemble_stats_ms": 1e3 * cpu_seconds(lambda: ens, ensemble_stats, repeats),
                "peak_mb": peak / 1e6,
                "simulate_stats_ms": 1e3 * stats_s,
                "simulate_stats_peak_mb": stats_peak / 1e6,
            }
        by_dim[str(dim)] = rows
    return {
        "timer": f"process CPU time, least of {repeats} calls; tracemalloc peak of one call in MB",
        "models": "perfbench/inputs.py chain_doc(random.Random(0), 2N / 2)",
        "steps": f"dt = {SIM_DT} s, {SIM_BURN_IN} burn-in + {n_steps} recorded steps per member",
        "by_dim": by_dim,
    }


def child_env(pinned: bool = True) -> dict:
    """This environment with the thread settings pinned to 1, or removed when
    not ``pinned``, and this checkout's ``src`` first on the path."""
    env = {var: value for var, value in os.environ.items() if var not in THREAD_VARS}
    if pinned:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_wall_seconds(args, repeats: int, pinned: bool = True) -> dict:
    """Least wall and least CPU seconds of ``repeats`` fresh ``python ARGS``
    interpreters, with ``child_env(pinned)``, and the exit code of the last."""
    env = child_env(pinned)
    wall, cpu, code = math.inf, math.inf, None
    for _ in range(repeats):
        start, start_cpu = time.perf_counter(), children_cpu_seconds()
        code = subprocess.run(
            [sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ).returncode
        wall = min(wall, time.perf_counter() - start)
        cpu = min(cpu, children_cpu_seconds() - start_cpu)
    return {"wall_s": wall, "cpu_s": cpu, "exit_code": code}


LOAD_CONFIGS = """
import sys
import modeheat, modeheat.cli
from modeheat.config import load_config
for path in sys.argv[1:]:
    load_config(path)
"""


def import_times(configs, repeats: int) -> dict:
    """Least wall seconds of fresh interpreters that import modeheat, load the configs
    or print the version or the schema."""
    commands = {
        "python": ["-c", "pass"],
        "import_modeheat": ["-c", "import modeheat"],
        "load_configs": ["-c", LOAD_CONFIGS, *map(str, configs)],
        "cli_version": ["-m", "modeheat.cli", "version"],
        "cli_schema": ["-m", "modeheat.cli", "schema"],
    }
    return {
        "unit": "s",
        "timer": f"wall time of a fresh interpreter, start-up included, least of {repeats}",
        "configs": [config.stem for config in configs],
        "by_command": {name: fresh_wall_seconds(args, repeats) for name, args in commands.items()},
    }


def run_times(configs, repeats: int) -> dict:
    """Least wall and CPU seconds of ``modeheat run`` per config, each run in a fresh
    interpreter, with the thread settings pinned and unpinned."""
    by_config = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            args = ["-m", "modeheat.cli", "run", str(config), "--out", str(Path(tmp) / config.stem)]
            by_config[config.stem] = {
                **fresh_wall_seconds(args, repeats),
                "unpinned": fresh_wall_seconds(args, repeats, pinned=False),
            }
    return {
        "unit": "s",
        "timer": (
            f"wall time and child CPU time of a fresh `python -m modeheat.cli run CONFIG`, each "
            f"the least of {repeats}; `unpinned` without the thread variables"
        ),
        "by_config": by_config,
    }


def tier1_time(args) -> dict:
    """Wall seconds, exit code and outcome counts of one ``python ARGS`` run of the
    test suite from the checkout's root, with ``child_env``."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    lines = result.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = dict.fromkeys(("passed", "failed"), 0)
    for count, outcome in re.findall(r"(\d+) (passed|failed)\b", summary):
        counts[outcome] = int(count)
    return {
        "command": f"PYTHONPATH=src python {' '.join(args)}",
        "wall_s": wall,
        "exit_code": result.returncode,
        **counts,
        "summary": summary,
    }


def main(argv=None) -> int:
    today = datetime.date.today().isoformat()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, default=ROOT / f"BENCH_{today}.json")
    parser.add_argument("--seeds", type=int, default=3, help="chains per size (default 3)")
    parser.add_argument("--repeats", type=int, default=3, help="calls per chain or record (default 3)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.repeats < 1:
        parser.error("--seeds and --repeats must be >= 1")

    result = {
        "date": today,
        "machine": machine(),
        "exact_route": exact_route(CHAIN_SIZES, args.seeds, args.repeats),
        "welch": welch(WELCH_SAMPLES, WELCH_SEED, args.repeats),
        "simulate": simulate_times(SIM_DIMS, SIM_MEMBERS, args.repeats),
        "import": import_times(CONFIGS, args.repeats),
        "run": run_times(CONFIGS, args.repeats),
        "tier1": tier1_time(TIER1),
    }
    print(f"{'N':>5}" + "".join(f"{key + ' s':>24}" for key in ROUTES) + f"{'refinements':>13}")
    for n, times in result["exact_route"]["by_n"].items():
        spans = (f"{min(times[key]):.4g}-{max(times[key]):.4g}" for key in ROUTES)
        rounds = ",".join(map(str, times["refinements"]))
        print(f"{n:>5}" + "".join(f"{span:>24}" for span in spans) + f"{rounds:>13}")
    print(f"{'samples':>9}{'segments':>10}{'welch ms':>10}{'peak MB':>10}")
    for n, row in result["welch"]["by_samples"].items():
        print(f"{n:>9}{row['n_segments']:>10}{row['cpu_ms']:>10.1f}{row['peak_mb']:>10.1f}")
    print(
        f"{'2N':>4}{'members':>9}{'us/member-step':>16}{'peak MB':>10}{'stats ms':>10}"
        f"{'streamed ms':>13}{'peak MB':>10}"
    )
    for dim, rows in result["simulate"]["by_dim"].items():
        for size, row in rows.items():
            print(
                f"{dim:>4}{size:>9}{row['us_per_member_step']:>16.3f}"
                f"{row['peak_mb']:>10.2f}{row['ensemble_stats_ms']:>10.2f}"
                f"{row['simulate_stats_ms']:>13.2f}{row['simulate_stats_peak_mb']:>10.2f}"
            )
    print(f"{'start-up':>22}{'wall s':>9}{'exit':>6}")
    for name, row in result["import"]["by_command"].items():
        print(f"{name:>22}{row['wall_s']:>9.3f}{row['exit_code']:>6}")
    print(f"{'config':>22}{'wall s':>9}{'cpu s':>9}{'unpinned wall s':>17}{'cpu s':>9}{'exit':>6}")
    for name, row in result["run"]["by_config"].items():
        free = row["unpinned"]
        print(
            f"{name:>22}{row['wall_s']:>9.2f}{row['cpu_s']:>9.2f}{free['wall_s']:>17.2f}"
            f"{free['cpu_s']:>9.2f}{max(row['exit_code'], free['exit_code']):>6}"
        )
    tier1 = result["tier1"]
    print(f"{'tier-1':>22}{tier1['wall_s']:>9.2f}{tier1['exit_code']:>6}  {tier1['summary']}")
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
