"""Per-layer timings of modeheat, written to BENCH_<date>.json with the machine.

    python tools/bench.py [--out PATH] [--seeds 3] [--repeats 3]

Run it from anywhere; it times the checkout it sits in (``src/``).  The BLAS
and OpenMP thread counts are pinned to 1 before numpy loads, and the file
records the machine, the thread settings and the BLAS build next to the
numbers.

Sections:

- ``exact_route``: ``steady_state`` (compile, Lyapunov solve and the derived
  temperatures and fluxes), ``normal_modes`` (eigenfrequencies and
  linewidths of the drift matrix) and ``steady_then_modes`` (both, on one
  model, as the benchmark's ``exact_network`` workload calls them) against
  the oscillator count N, on that workload's seeded nearest-neighbour chains
  (``perfbench/inputs.py``), one chain per seed.  Each entry is the CPU time
  of this process, the least of ``--repeats`` calls.  A compiled model keeps
  its matrices and their Schur factor, so every call gets a model built
  afresh from the chain document, outside the timer: the times are those
  of a cold model, as a run sees it.
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
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHAIN_SIZES = (2, 5, 10, 20, 50, 100, 200)

if __name__ == "__main__":
    # OpenBLAS reads its thread count once, when numpy loads.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from modeheat.model import compile, model_from_dict  # noqa: E402
from modeheat.steady import normal_modes, steady_state  # noqa: E402

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


# Timed exact-route calls: what is made, untimed, from a fresh model, and the call timed on it.
ROUTES = {
    "steady_state": (lambda model: model, steady_state),
    "normal_modes": (compile, normal_modes),
    "steady_then_modes": (lambda model: model, steady_then_modes),
}


def exact_route(sizes, seeds: int, repeats: int) -> dict:
    """Exact-route CPU seconds per chain, by oscillator count, each on a fresh model."""
    by_size = {}
    for n in sizes:
        times = {key: [] for key in ROUTES}
        for seed in range(seeds):
            doc = inputs.chain_doc(random.Random(seed), n)
            for key, (prepare, call) in ROUTES.items():
                def fresh():
                    return prepare(model_from_dict(doc))

                times[key].append(cpu_seconds(fresh, call, repeats))
        by_size[str(n)] = times
    return {
        "unit": "s",
        "timer": f"process CPU time, least of {repeats} calls per chain, each on a fresh model",
        "chains": f"perfbench/inputs.py chain_doc(random.Random(seed), N), seeds 0-{seeds - 1}",
        "by_n": by_size,
    }


def main(argv=None) -> int:
    today = datetime.date.today().isoformat()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, default=ROOT / f"BENCH_{today}.json")
    parser.add_argument("--seeds", type=int, default=3, help="chains per size (default 3)")
    parser.add_argument("--repeats", type=int, default=3, help="calls per chain (default 3)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.repeats < 1:
        parser.error("--seeds and --repeats must be >= 1")

    result = {
        "date": today,
        "machine": machine(),
        "exact_route": exact_route(CHAIN_SIZES, args.seeds, args.repeats),
    }
    print(f"{'N':>5}" + "".join(f"{key + ' s':>24}" for key in ROUTES))
    for n, times in result["exact_route"]["by_n"].items():
        spans = (f"{min(t):.4g}-{max(t):.4g}" for t in times.values())
        print(f"{n:>5}" + "".join(f"{span:>24}" for span in spans))
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
