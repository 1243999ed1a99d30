"""Experiment configuration: JSON schema, validation, loading.

Configs are checked against ``CONFIG_SCHEMA`` by a small interpreter of the
Draft 7 keywords that schema uses, not by a JSON Schema library: importing
the reference library (the ``test`` extra in ``pyproject.toml``), with attrs,
referencing, rpds and its format libraries, took 80-105 ms, far more than
validating, and was the largest single cost of ``modeheat run``'s start-up.
The interpreter gives that library's verdicts and the message its
``validate`` would raise; the test suite, which keeps the library as its
reference, checks both on a seeded corpus of mutated configs.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, UnknownLabel
from .model import SystemModel, model_from_dict

__all__ = ["ExperimentConfig", "CONFIG_SCHEMA", "load_config", "config_from_dict"]

EXPERIMENTS = (
    "equipartition",
    "cold_damping",
    "coupled_transfer",
    "strong_coupling_sweep",
    "spectrum",
    "paper_numbers",
)

_OSCILLATOR_SCHEMA = {
    "type": "object",
    "required": ["label", "mass", "omega", "gamma", "bath_temperature"],
    "additionalProperties": False,
    "properties": {
        "label": {"type": "string", "minLength": 1},
        "mass": {"type": "number", "exclusiveMinimum": 0},
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "minimum": 0},
        "bath_temperature": {"type": "number", "minimum": 0},
    },
}

_MODEL_SCHEMA = {
    "type": "object",
    "required": ["oscillators"],
    "additionalProperties": False,
    "properties": {
        "oscillators": {"type": "array", "minItems": 1, "items": _OSCILLATOR_SCHEMA},
        "couplings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pair", "spring_constant"],
                "additionalProperties": False,
                "properties": {
                    "pair": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "spring_constant": {"type": "number"},
                },
            },
        },
        "feedbacks": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "position_gain": {"type": "number"},
                    "velocity_gain": {"type": "number"},
                    "noise_psd": {"type": "number", "minimum": 0},
                },
            },
        },
        "noise_factor": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SIM_SCHEMA = {
    "type": "object",
    "required": ["dt", "n_steps"],
    "additionalProperties": False,
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "n_steps": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "burn_in": {"type": "integer", "minimum": 0},
        "ensemble_size": {"type": "integer", "minimum": 1},
        "record_stride": {"type": "integer", "minimum": 1},
        "allow_large_step": {"type": "boolean"},
    },
}

_ANALYSIS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "band": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "window": {"enum": ["hann", "rectangular"]},
        "segment_length": {"type": "integer", "minimum": 2},
        "overlap_fraction": {"type": "number", "minimum": 0, "maximum": 0.9},
        "pair": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 2,
            "maxItems": 2,
        },
        "g_over_gamma": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
            "uniqueItems": True,
        },
        "psd_duration_s": {"type": "number", "exclusiveMinimum": 0},
        "psd_sample_rate_hz": {"type": "number", "exclusiveMinimum": 0},
        "psd_ensemble": {"type": "integer", "minimum": 1},
        "reference": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode_flux_w": {"type": "number"},
                "mode_gap_k": {"type": "number"},
                "mode_gamma_per_s": {"type": "number", "exclusiveMinimum": 0},
                "bulk_flux_w": {"type": "number"},
                "bulk_delta_t_k": {"type": "number"},
                "bulk_thermal_resistance_k_per_w": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                },
            },
        },
    },
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "modeheat-experiment-config",
    "title": "modeheat experiment configuration",
    "type": "object",
    "required": ["experiment"],
    # paper_numbers reads only its analysis block; every other experiment runs the model
    "if": {"properties": {"experiment": {"const": "paper_numbers"}}},
    "else": {"required": ["model"]},
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "model": _MODEL_SCHEMA,
        "sim": _SIM_SCHEMA,
        "analysis": _ANALYSIS_SCHEMA,
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json"]},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description.

    ``sim`` and ``analysis`` stay as plain dicts here; each experiment
    resolves them against its own defaults (e.g. the sweep builds several
    SimConfigs from one block).  ``model`` is None only for ``paper_numbers``,
    the one experiment that may omit the block.
    """

    experiment: str
    model: SystemModel | None
    sim: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


# -- a Draft 7 interpreter for the keywords CONFIG_SCHEMA uses ----------------------
#
# Each keyword behaves, and words its message, as in the reference library's
# Draft7Validator (4.x): a bool is neither a number nor an integer, an integral
# float is an integer, and enum, const and uniqueItems tell True from 1.

_ANNOTATIONS = frozenset({"$schema", "$id", "title"})

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_TRUE, _FALSE = object(), object()


def _is_type(instance, name: str) -> bool:
    if name == "integer":
        if isinstance(instance, float):
            return instance.is_integer()
        return isinstance(instance, int) and not isinstance(instance, bool)
    if name == "number":
        return isinstance(instance, numbers.Number) and not isinstance(instance, bool)
    return isinstance(instance, _TYPES[name])


def _unbool(value):
    return _TRUE if value is True else _FALSE if value is False else value


def _equal(one, two) -> bool:
    """JSON equality: a bool equals no number, in containers too."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(k in two and _equal(v, two[k]) for k, v in one.items())
    return _unbool(one) == _unbool(two)


def _unique(items: list) -> bool:
    # the reference compares neighbours after a sort, and every pair when the items do not sort
    try:
        ordered = sorted(map(_unbool, items))
        pairs = zip(ordered, ordered[1:])
    except TypeError:
        pairs = ((a, b) for i, a in enumerate(items) for b in items[i + 1:])
    return not any(_equal(a, b) for a, b in pairs)


def _too_short(bound: int, x) -> str | None:
    if len(x) < bound:
        return f"{x!r} {'should be non-empty' if bound == 1 else 'is too short'}"
    return None


def _too_long(bound: int, x) -> str | None:
    if len(x) > bound:
        return f"{x!r} {'is expected to be empty' if bound == 0 else 'is too long'}"
    return None


# keyword: (the type it applies to, or None for any; message(value, instance) if it fails)
_CHECKS = {
    "type": (None, lambda t, x: None if _is_type(x, t) else f"{x!r} is not of type {t!r}"),
    "enum": (
        None,
        lambda e, x: None if any(_equal(each, x) for each in e) else f"{x!r} is not one of {e!r}",
    ),
    "const": (None, lambda c, x: None if _equal(x, c) else f"{c!r} was expected"),
    "minimum": (
        "number",
        lambda m, x: f"{x!r} is less than the minimum of {m!r}" if x < m else None,
    ),
    "maximum": (
        "number",
        lambda m, x: f"{x!r} is greater than the maximum of {m!r}" if x > m else None,
    ),
    "exclusiveMinimum": (
        "number",
        lambda m, x: f"{x!r} is less than or equal to the minimum of {m!r}" if x <= m else None,
    ),
    "minItems": ("array", _too_short),
    "maxItems": ("array", _too_long),
    "minLength": ("string", _too_short),
    "uniqueItems": (
        "array",
        lambda u, x: f"{x!r} has non-unique elements" if u and not _unique(x) else None,
    ),
}
# the keywords _schema_errors implements: the checks above, and those it applies itself
KEYWORDS = _CHECKS.keys() | {
    "required", "properties", "additionalProperties", "items", "if", "else"
}


def _schema_errors(instance, schema: dict, path: tuple = ()):
    """Yield ``(path, message, typed)`` for every error the reference Draft 7 validator
    finds in ``instance``, in its order.  ``path`` leads from the document to the
    value at fault; ``typed`` says whether ``schema`` has a ``type`` that the value
    matches.  A keyword outside ``KEYWORDS`` raises KeyError."""
    typed = "type" in schema and _is_type(instance, schema["type"])
    is_object = isinstance(instance, dict)
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS or keyword == "else":
            continue
        if keyword == "required":
            for name in value if is_object else ():
                if name not in instance:
                    yield path, f"{name!r} is a required property", typed
        elif keyword == "properties":
            for name, subschema in value.items() if is_object else ():
                if name in instance:
                    yield from _schema_errors(instance[name], subschema, (*path, name))
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted((k for k in instance if k not in known), key=str) if is_object else []
            if isinstance(value, dict):
                for name in extras:
                    yield from _schema_errors(instance[name], value, (*path, name))
            elif not value and extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield path, message, typed
        elif keyword == "items":
            for index, item in enumerate(instance) if isinstance(instance, list) else ():
                yield from _schema_errors(item, value, (*path, index))
        elif keyword == "if":
            valid = next(_schema_errors(instance, value, path), None) is None
            if not valid and "else" in schema:
                yield from _schema_errors(instance, schema["else"], path)
        else:
            applies_to, check = _CHECKS[keyword]
            if applies_to is None or _is_type(instance, applies_to):
                message = check(value, instance)
                if message is not None:
                    yield path, message, typed


def _non_finite(value, path: tuple = ()):
    """``(path, value)`` of the first float in the document that is not
    finite, in document order; None if there is none.  The schema's bounds
    pass nan and inf (``nan <= 0`` is False), so they are looked for apart."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        found = _non_finite(child, (*path, key))
        if found is not None:
            return found
    return None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the config objects."""
    # The error the reference's validate would raise, as best_match picks it: the first of
    # those at the shallowest path, then at the last path in sorted order, then of a
    # schema whose type the value fails (or that has none) over one whose type it matches.
    error = max(
        _schema_errors(doc, CONFIG_SCHEMA), key=lambda e: (-len(e[0]), e[0], not e[2]), default=None
    )
    if error is not None:
        raise ConfigError(f"config does not match the schema: {error[1]}")
    # after the schema's verdict, so that its message stays the reference's
    bad = _non_finite(doc)
    if bad is not None:
        where = "/".join(map(str, bad[0]))
        raise ConfigError(f"invalid config: {where} = {bad[1]} is not a finite number")
    try:
        model = model_from_dict(doc["model"]) if "model" in doc else None
    except (ValueError, KeyError, UnknownLabel) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    return ExperimentConfig(
        experiment=doc["experiment"],
        model=model,
        sim=dict(doc.get("sim", {})),
        analysis=dict(doc.get("analysis", {})),
        output=dict(doc.get("output", {})),
    )


def _finite(token: str) -> float:
    """A JSON number, parsed as json does, unless it is not finite.

    ``json`` reads the non-standard tokens ``NaN``, ``Infinity`` and
    ``-Infinity``, and overflows ``1e999`` to ``inf``; the schema's bounds
    cannot catch either (``nan <= 0`` is False), so they are refused here."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, parse, and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {p} is not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {p} must hold a JSON object at top level")
    return config_from_dict(doc)
