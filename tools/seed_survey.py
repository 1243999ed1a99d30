"""Count how often each check of an experiment fails over seeds 1..K.

    python tools/seed_survey.py CONFIG [CONFIG ...] [-k 30]

Each config runs through `run_experiment` once per seed 1..K on one thread,
exactly as `modeheat run --seed` would, but writes no files.  For every
config the script prints the number of FAIL verdicts and, per check in
verdict order, the number of seeds on which that check failed.  A correct
program fails a check at a fixed tolerance only as often as its error bar
allows; a count far above that rate shows a miscalibrated check.  The BLAS
and OpenMP thread counts are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    # OpenBLAS reads its thread count once, when numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

from modeheat.config import load_config  # noqa: E402
from modeheat.experiments import run_experiment  # noqa: E402


def survey(config_path, k: int) -> tuple[int, dict[str, int]]:
    """(FAIL verdicts, failures per check) of the config over seeds 1..k."""
    cfg = load_config(config_path)
    failed_runs = 0
    failures: dict[str, int] = {}
    for seed in range(1, k + 1):
        checks = run_experiment(cfg, seed, 1).checks
        failed_runs += not all(c.passed for c in checks)
        for c in checks:
            failures[c.name] = failures.get(c.name, 0) + (not c.passed)
    return failed_runs, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("-k", type=int, default=30, help="seeds 1..k (default 30)")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be >= 1")

    for path in args.configs:
        failed_runs, failures = survey(path, args.k)
        print(f"{path}: {failed_runs} of {args.k} seeds FAIL")
        width = max(map(len, failures))
        for name, count in failures.items():
            print(f"  {name:<{width}} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
