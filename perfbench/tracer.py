"""Spans around calls into modeheat's layers, recorded from outside the package.

`Tracer.install` replaces every public function that a layer module binds,
whether defined there or imported from another layer, with a wrapper that
records a span.  Callers look functions up by the name bound in their own
module (``experiments.simulate``, ``steady.compile``), so each binding gets
its own wrapper; the span is named after the function's home layer
(``langevin.simulate``, ``model.compile``).  Spans stay in memory; `summarise`
turns the spans of the traced passes into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from dataclasses import dataclass, field

LAYERS = ("config", "model", "steady", "langevin", "spectra", "experiments", "cli")


@dataclass
class Span:
    """One call into a layer: ``parent`` indexes the enclosing span (-1 at top
    level) and ``op`` is the operation (experiment run or network) it served."""

    name: str
    layer: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _simulate_attrs(args, kwargs, result) -> dict:
    config = args[1] if len(args) > 1 else kwargs["config"]
    first = result[0]
    n_records, dim = first.states.shape
    return {
        "members": len(result),
        "records": n_records,
        "dim": dim,
        # Record k sits at dt * (burn_in + stride * (k + 1)).
        "burn_in": round(first.times[0] / config.dt) - config.record_stride,
        "n_steps": config.n_steps,
    }


# Counts taken at the boundary where the work happens, from a call's arguments
# and result.
_ATTRS = {
    "langevin.simulate": _simulate_attrs,
    "spectra.welch_psd": lambda args, kwargs, result: {"samples": args[0].states.shape[0]},
    "steady.steady_state": lambda args, kwargs, result: {"residual": float(result.residual)},
    "steady.solve_stationary": lambda args, kwargs, result: {"n_osc": args[0].drift.shape[0] // 2},
}


class Tracer:
    """Records spans while installed; `op` tags new spans with the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        layer = name.partition(".")[0]
        annotate = _ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, clock(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"modeheat.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                package, _, home = obj.__module__.rpartition(".")
                if package == "modeheat" and home in LAYERS:
                    self._patch(module, attr, f"{home}.{obj.__name__}")
        model = importlib.import_module("modeheat.model")
        self._patch(model.SystemModel, "fingerprint", "model.fingerprint")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def metric_units(chain_sizes, modules) -> dict[str, str]:
    """Per-layer metric names and their units, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.failures"] = "count"
    for module in modules:
        units[f"{module}.import_s"] = "s"
    units.update(
        {
            "config.load_s": "s",
            "model.compile_calls": "count",
            "model.fingerprint_calls": "count",
            "model.fingerprint_s": "s",
        }
    )
    for n in chain_sizes:
        units[f"steady.solve_ms.N{n}"] = "ms"
    units.update(
        {
            "steady.steady_state_s": "s",
            "steady.normal_modes_s": "s",
            "steady.residual_max": "1",
            "langevin.simulate_s": "s",
            "langevin.us_per_member_step": "us",
            "langevin.member_steps": "count",
            "langevin.burn_in_frac": "1",
            "langevin.record_bytes": "B",
            "langevin.ensemble_stats_s": "s",
            "langevin.estimators_s": "s",
            "spectra.welch_s": "s",
            "spectra.band_s": "s",
            "spectra.fit_s": "s",
            "spectra.welch_samples": "count",
            "cli.bytes_written": "B",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unaccounted_frac": "1",
        }
    )
    return units


def summarise(spans: list[Span], wall: float, passes: int, chain_sizes) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes lasting
    ``wall`` seconds in total.  Self time is a span's duration minus that of its
    children; what no top-level span covers is reported as unaccounted."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        out[f"{layer}.self_s"] = sum(spans[i].duration - child[i] for i in mine) / passes
        out[f"{layer}.calls"] = len(mine) / passes
        out[f"{layer}.failures"] = sum(spans[i].failed for i in mine) / passes

    def total(*names):
        return sum(s.duration for s in spans if s.name in names) / passes

    def count(name):
        return sum(s.name == name for s in spans) / passes

    out["config.load_s"] = total("config.load_config")
    out["model.compile_calls"] = count("model.compile")
    out["model.fingerprint_calls"] = count("model.fingerprint")
    out["model.fingerprint_s"] = total("model.fingerprint")
    for n in chain_sizes:
        times = [s.duration for s in spans if s.name == "steady.solve_stationary" and s.attrs.get("n_osc") == n]
        out[f"steady.solve_ms.N{n}"] = 1e3 * statistics.median(times) if times else 0.0
    out["steady.steady_state_s"] = total("steady.steady_state")
    out["steady.normal_modes_s"] = total("steady.normal_modes")
    residuals = [s.attrs["residual"] for s in spans if "residual" in s.attrs]
    out["steady.residual_max"] = max(residuals, default=0.0)

    sims = [s.attrs for s in spans if s.name == "langevin.simulate" and s.attrs]
    member_steps = sum(a["members"] * (a["burn_in"] + a["n_steps"]) for a in sims) / passes
    simulate_s = total("langevin.simulate")
    out["langevin.simulate_s"] = simulate_s
    out["langevin.us_per_member_step"] = 1e6 * simulate_s / member_steps if member_steps else 0.0
    out["langevin.member_steps"] = member_steps
    burn = sum(a["members"] * a["burn_in"] for a in sims) / passes
    out["langevin.burn_in_frac"] = burn / member_steps if member_steps else 0.0
    out["langevin.record_bytes"] = sum(a["members"] * a["records"] * a["dim"] * 8 for a in sims) / passes
    out["langevin.ensemble_stats_s"] = total("langevin.ensemble_stats")
    out["langevin.estimators_s"] = total("langevin.mode_temperature_mc", "langevin.direct_heat_flux_mc")

    out["spectra.welch_s"] = total("spectra.welch_psd")
    out["spectra.band_s"] = total("spectra.temperature_from_area")
    out["spectra.fit_s"] = total("spectra.fit_lorentzian")
    out["spectra.welch_samples"] = sum(s.attrs.get("samples", 0) for s in spans if s.name == "spectra.welch_psd") / passes

    covered = sum(s.duration for s in spans if s.parent < 0)
    out["trace.wall_s"] = wall / passes
    out["trace.unaccounted_frac"] = (wall - covered) / wall
    return out
