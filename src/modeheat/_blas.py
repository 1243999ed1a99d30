"""One OpenBLAS thread for the length of a command-line run.

The integrator's small matrix products and the Lyapunov kernel's small GEMMs
run slower on more than one BLAS thread, and a plain ``modeheat run`` starts
with OpenBLAS's default of one thread per core.  The numpy and scipy wheels
each bundle an OpenBLAS with a thread pool of its own; ``one_blas_thread``
finds both through ``ctypes``, sets each to one thread and gives each its
earlier count back on exit (a pool that the run itself loads starts on one
thread and keeps it).  An ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` in the environment is the user's choice and is left
alone, and a BLAS that is not a bundled OpenBLAS runs as it is.  Only
``cli.run`` enters it: library callers keep their own setting.

Standard library only, so that importing it loads no numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import os
from collections.abc import Callable, Iterator
from pathlib import Path

# OpenBLAS reads either when it loads; one set means the user chose the count.
ENVIRONMENT = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# The suffix of each package's OpenBLAS symbols: numpy's is built with 64-bit integers.
_SUFFIX = {"numpy": "64_", "scipy": ""}


def find_pools() -> dict[str, tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of numpy's and scipy's bundled OpenBLAS,
    keyed by package; a package without one is left out.

    A library its package has not loaded yet is loaded here, and the package
    shares that copy when it loads."""
    pools = {}
    for package, suffix in _SUFFIX.items():
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        home = Path(next(iter(spec.submodule_search_locations))).parent / f"{package}.libs"
        for path in sorted(home.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = lib[f"scipy_openblas_get_num_threads{suffix}"]
                put = lib[f"scipy_openblas_set_num_threads{suffix}"]
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            pools[package] = (get, put)
            break
    return pools


@contextlib.contextmanager
def one_blas_thread() -> Iterator[dict]:
    """Run the body on one thread of each bundled OpenBLAS, unless the environment
    sets the count.

    Enter it before numpy loads.  Both pools are loaded here, with
    ``OPENBLAS_NUM_THREADS=1`` in the environment for that moment only, so that
    neither starts a second thread: a pool that started more spins them for about
    0.1 s of CPU each before they sleep, which setting the count cannot take back.
    When the environment sets the count, no count is set.

    Yields the record the manifest keeps: ``{"numpy": k, "scipy": k, "set_by": s}``,
    each pool's thread count in the body (None for a pool not found) and ``s`` one
    of ``"modeheat"``, ``"environment"`` or ``"none"`` (no pool found)."""
    user_set = any(var in os.environ for var in ENVIRONMENT)
    if user_set:
        pools = find_pools()
    else:
        os.environ[ENVIRONMENT[0]] = "1"
        try:
            pools = find_pools()
        finally:
            del os.environ[ENVIRONMENT[0]]
    saved = {} if user_set else {package: get() for package, (get, _) in pools.items()}
    for package in saved:
        pools[package][1](1)
    record = {package: pools[package][0]() if package in pools else None for package in _SUFFIX}
    record["set_by"] = "environment" if user_set else "modeheat" if pools else "none"
    try:
        yield record
    finally:
        for package, count in saved.items():
            pools[package][1](count)
