"""Experiment configuration: JSON schema, validation, loading."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, UnknownLabel
from .model import SystemModel, model_from_dict

if TYPE_CHECKING:
    import jsonschema

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


@functools.cache
def _validator() -> jsonschema.protocols.Validator:
    """Validator for CONFIG_SCHEMA, built on first use.  Unlike
    ``jsonschema.validate`` it does not check the schema against its
    metaschema on every load; the test suite checks it once."""
    import jsonschema  # deferred: a slow import, paid only by callers that validate

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the config objects."""
    import jsonschema  # deferred: see _validator

    # best_match picks the error jsonschema.validate would raise.
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config does not match the schema: {error.message}") from error
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


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, parse, and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {p} must hold a JSON object at top level")
    return config_from_dict(doc)
