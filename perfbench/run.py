"""modeheat benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, --seconds split among them

Run from the root of a checkout.  Each workload runs in a fresh worker
process with the BLAS thread variables pinned to 1 and modeheat at
``threads=1``.  ``setup_s`` is the median over fresh interpreters that import
modeheat and load the workload's configs.  Times are expressed at the
calibration machine's speed, sampled while they are measured (reference.py).
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The speed sampler runs numpy in this process too, with one BLAS thread
# like the children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
# run_seconds in BENCHMARK.json; `--workload all` splits it among the workloads.
DEFAULT_SECONDS = 20
# Per-child limit; a run must end within 180 s.
CHILD_TIMEOUT_S = 120
MODULES = (
    "modeheat", "cli", "config", "constants", "errors", "experiments",
    "fluxlab", "langevin", "model", "spectra", "steady",
)
UNACCOUNTED_LIMIT = 0.02
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = tracer.metric_units(inputs.CHAIN_SIZES, MODULES)

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import modeheat
if sys.argv[1:]:
    import modeheat.cli, modeheat.config
    for path in sys.argv[1:]:
        modeheat.config.load_config(path)
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; a timeout kills and reaps it."""
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=timeout, check=True,
    )


def setup_seconds(configs: list[Path]) -> float:
    """Median set-up time of SETUP_SAMPLES fresh interpreters, each expressed
    at the calibration machine's speed sampled while it ran."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with reference.Sampler() as sampler:
            seconds = float(child(["-c", SETUP_PROBE, *map(str, configs)]).stdout.split()[-1])
        samples.append(sampler.scale(seconds))
    return statistics.median(samples)


def import_seconds(configs: list[Path]) -> dict[str, float]:
    """Cumulative import time of each modeheat module, from `python -X importtime`."""
    imports = "import modeheat" + (", modeheat.cli" if configs else "")
    stderr = child(["-X", "importtime", "-c", imports]).stderr
    out = {f"{m}.import_s": 0.0 for m in MODULES}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
        if match:
            name = match.group(2).strip()
            module = "modeheat" if name == "modeheat" else name.removeprefix("modeheat.")
            if module in MODULES and (name == "modeheat" or name.startswith("modeheat.")):
                out[f"{module}.import_s"] = int(match.group(1)) * 1e-6
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; returns the worker's result plus setup."""
    run_dir = ROOT / ".perfbench_runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        configs = (inputs.write_configs(ROOT, workload, seed, run_dir / "setup")
                   if workload in inputs.CONFIGS else [])
        result_path = run_dir / "result.json"
        child(
            [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--run-dir", str(run_dir), "--result", str(result_path)],
            timeout=seconds + CHILD_TIMEOUT_S,
        )
        result = json.loads(result_path.read_text())
        if trace:
            result["layers"].update(import_seconds(configs))
        else:
            result["setup_s"] = setup_seconds(configs)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            run_dir.parent.rmdir()


def summary(result: dict, trace: int) -> dict:
    """The benchmark's result line: correctness, operation counts and metrics."""
    correct = result["failed"] == 0 and not result["self_check"]
    if trace:
        layers = result["layers"]
        correct = correct and layers["trace.unaccounted_frac"] <= UNACCOUNTED_LIMIT
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def report(workload: str, result: dict, line: dict) -> None:
    """Human-readable lines that precede the result line."""
    print(f"[{workload}] env {json.dumps(result['env'], sort_keys=True)}")
    for problem in result["problems"] + result["self_check"]:
        print(f"[{workload}] MISS {problem}")
    share = result["failed"] / result["attempted"]
    print(f"[{workload}] passes {result['passes']}  failed_frac {share:.4g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"[{workload}] measured pass wall time {result['measured_wall_s']:.6g} s; speed slice "
          f"{1e3 * result['slice_s']:.4g} ms against {1e3 * reference.NOMINAL_SLICE_S:.4g} ms nominal")
    for name, metric in line["metrics"].items():
        print(f"[{workload}] {name:32s} {metric['value']:.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/modeheat/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a modeheat checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = args.seconds / len(workloads)
    lines = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, seconds, args.trace)
        except subprocess.CalledProcessError as exc:
            print(f"error: a {workload} child exited with {exc.returncode}:\n{exc.stdout}{exc.stderr}",
                  file=sys.stderr)
            return 1
        except subprocess.TimeoutExpired:
            print(f"error: a {workload} child ran past its time limit", file=sys.stderr)
            return 1
        lines[workload] = summary(result, args.trace)
        report(workload, result, lines[workload])
    if len(lines) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
