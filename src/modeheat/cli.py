"""Command-line entry point: `modeheat run|schema|version`.

Exit codes: 0 success (verdict PASS), 2 configuration problem, 3 numerical
failure, 4 oracle FAIL (the run completed but a built-in tolerance check
did not pass).  Error messages go to stderr with a machine-parsable
`code=` prefix.  Every run directory gets a manifest (config hash, seed,
versions, RNG algorithm) sufficient to bit-reproduce the data rows, the
warnings the run raised and its BLAS thread counts: a run holds numpy's and
scipy's OpenBLAS to one thread unless the environment sets the count.
Experiments return data; `run` alone writes it, tables via `modeheat.tables`.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .config import CONFIG_SCHEMA, load_config
from .constants import DEFAULT_SEED, RNG_ALGORITHM, SEED_LIMIT
from .errors import ConfigError, ModeheatError

__all__ = ["main", "run"]

# BLAS and OpenMP thread settings, read once when numpy loads; the integrator's
# small products run slower on more than one thread, so the manifest records them.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(
    config_path: str | Path,
    seed: int | None = None,
    out: str | Path | None = None,
    threads: int = 1,
) -> int:
    """Execute the experiment named in the config; returns the exit code."""
    try:
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        if seed is not None and not 0 <= seed < SEED_LIMIT:
            raise ConfigError(f"--seed must fit in 64 bits, got {seed}")
        cfg = load_config(config_path)
        raw = Path(config_path).read_bytes()
        outdir = Path(out) if out else Path(cfg.output.get("directory", f"runs/{cfg.experiment}"))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
        if not os.access(outdir, os.W_OK):
            raise ConfigError(f"output directory {outdir} is not writable")
    except ConfigError as exc:
        print(f"code=2 {exc}", file=sys.stderr)
        return 2

    from ._blas import one_blas_thread  # deferred: ctypes, which only a run uses

    resolved_seed = seed if seed is not None else cfg.sim.get("seed", DEFAULT_SEED)

    raised: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as raised, one_blas_thread() as blas_threads:
            # deferred: numpy and every numerical layer, loaded on the pinned BLAS pools
            from .experiments import run_experiment

            outcome = run_experiment(cfg, resolved_seed, threads)
    except ConfigError as exc:
        print(f"code=2 {exc}", file=sys.stderr)
        return 2
    except ModeheatError as exc:
        print(f"code=3 {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        # recorded for the manifest, then shown as the filters say (stderr by default)
        for w in raised:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    from .tables import write_csv, write_json  # deferred: numpy

    mirror = "json" in cfg.output.get("formats", [])
    written = ["verdict.json"]
    for stem, table in outcome.tables.items():
        write_csv(table, outdir / f"{stem}.csv")
        written.append(f"{stem}.csv")
        if mirror:
            write_json(table, outdir / f"{stem}.json")
            written.append(f"{stem}.json")
    for name, text in outcome.texts.items():
        (outdir / name).write_text(text)
        written.append(name)

    checks = outcome.checks
    verdict = "PASS" if all(c.passed for c in checks) else "FAIL"
    (outdir / "verdict.json").write_text(
        json.dumps(
            {
                "experiment": cfg.experiment,
                "verdict": verdict,
                "checks": [
                    # numpy bool_ sneaks in through float comparisons; json
                    # refuses it.
                    {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
                    for c in checks
                ],
            },
            indent=2,
        )
        + "\n"
    )

    import numpy
    import scipy

    manifest = {
        "experiment": cfg.experiment,
        "config_file": str(config_path),
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": int(resolved_seed),
        "threads": int(threads),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "blas_threads": blas_threads,
        "versions": {
            "modeheat": __version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "rng": RNG_ALGORITHM,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # what this run wrote, not whatever an earlier run left in the directory
        "outputs": sorted(written),
        # each distinct warning once, in the order first raised
        "warnings": [
            {"category": category, "message": message}
            for category, message in dict.fromkeys(
                (w.category.__name__, str(w.message)) for w in raised
            )
        ],
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    n_fail = sum(not c.passed for c in checks)
    print(f"{cfg.experiment}: verdict {verdict} ({len(checks)} checks, {n_fail} failed)")
    for c in checks:
        if not c.passed:
            print(f"  FAIL {c.name}: {c.detail}")
    print(f"outputs in {outdir}")
    if verdict != "PASS":
        print(f"code=4 oracle FAIL in experiment {cfg.experiment}", file=sys.stderr)
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modeheat",
        description="Heat-flux and mode-temperature laboratory for coupled "
        "thermally driven oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=1, help="ensemble worker threads")

    sub.add_parser("schema", help="print the config JSON schema")
    sub.add_parser("version", help="print versions and the RNG algorithm")

    args = parser.parse_args(argv)
    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return 0
    if args.command == "version":
        import numpy
        import scipy

        print(f"modeheat {__version__}")
        print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
              f"scipy {scipy.__version__}")
        print(f"rng: {RNG_ALGORITHM}")
        return 0
    return run(args.config, seed=args.seed, out=args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
