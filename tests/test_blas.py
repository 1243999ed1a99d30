"""`modeheat run` holds numpy's and scipy's OpenBLAS to one thread, unless the environment
sets the count, and records the setting in the manifest."""

import json
import os
import subprocess
import sys

import pytest

import modeheat
from conftest import REPO
from modeheat import _blas

CONFIG = REPO / "configs" / "cold_damping.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Run in a fresh interpreter, since OpenBLAS reads the environment once, when it loads.
# "fresh" leaves the loading to the run; "preset" gives the pools distinct counts
# first, so that a count restored to the wrong pool shows; "no_pool" makes the
# finder find nothing.  "tasks" counts the process's threads after the run.
_RUN_PROBE = """
import json, os, sys
from modeheat import _blas, cli

config, out, mode = sys.argv[1:]
pools = {} if mode == "fresh" else _blas.find_pools()
if mode == "preset":
    pools["numpy"][1](3)
    pools["scipy"][1](2)
if mode == "no_pool":
    _blas.find_pools = dict
before = {name: get() for name, (get, _) in pools.items()}
code = cli.run(config, out=out)
after = {name: get() for name, (get, _) in pools.items()}
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "before": before, "after": after, "tasks": tasks}))
"""

pytestmark = pytest.mark.skipif(
    set(_blas.find_pools()) != {"numpy", "scipy"},
    reason="numpy and scipy do not both bundle OpenBLAS here",
)


def _run(out, mode, **env):
    """``cli.run`` on the config in a fresh interpreter without the thread variables,
    plus ``env``; returns the probe's readings and the manifest's ``blas_threads``."""
    child = {var: value for var, value in os.environ.items() if var not in THREAD_VARS}
    child.update(env)
    child["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(modeheat.__file__)), child.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE, str(CONFIG), str(out), mode],
        env=child, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    readings = json.loads(result.stdout.strip().splitlines()[-1])
    assert readings["code"] == 0
    return readings, json.loads((out / "manifest.json").read_text())["blas_threads"]


def _tables(out):
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    return out, *_run(out, "preset")


def test_run_sets_each_pool_to_one_thread(pinned):
    _, _, blas_threads = pinned
    assert blas_threads == {"numpy": 1, "scipy": 1, "set_by": "modeheat"}


def test_run_loads_each_pool_on_one_thread(tmp_path):
    # a pool that started a second thread would spin it for about 0.1 s of CPU
    readings, blas_threads = _run(tmp_path, "fresh")
    assert blas_threads == {"numpy": 1, "scipy": 1, "set_by": "modeheat"}
    if readings["tasks"] is not None:
        assert readings["tasks"] == 1


def test_run_gives_each_pool_its_earlier_count_back(pinned):
    _, readings, _ = pinned
    assert readings["before"] == readings["after"] == {"numpy": 3, "scipy": 2}


def test_run_leaves_a_count_the_environment_sets(tmp_path):
    readings, blas_threads = _run(tmp_path, "plain", OPENBLAS_NUM_THREADS="2")
    assert blas_threads == {"numpy": 2, "scipy": 2, "set_by": "environment"}
    assert readings["before"] == readings["after"] == {"numpy": 2, "scipy": 2}


def test_run_without_a_pool_runs_unpinned_to_the_same_tables(pinned, tmp_path):
    pinned_out, _, _ = pinned
    readings, blas_threads = _run(tmp_path, "no_pool")
    assert blas_threads == {"numpy": None, "scipy": None, "set_by": "none"}
    # OpenBLAS's own default, one thread per core, throughout the run
    assert readings["before"] == readings["after"]
    tables = _tables(tmp_path)
    assert tables and tables == _tables(pinned_out)
