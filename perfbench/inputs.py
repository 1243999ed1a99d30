"""Deterministic workload inputs, generated from the workload seed alone.

Only the standard library is used here, so the inputs do not depend on the
numpy or modeheat version under test.  The same seed always gives the same
config bytes and chain documents; modeheat sees only these generated inputs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Shipped configs each workload loads, with ``sim.seed`` set from the workload
# seed.  `ensemble` runs many short trajectories through `modeheat.cli.run`;
# `long_record` takes one long record through Welch and a Lorentzian fit.
CONFIGS = {
    "ensemble": ("equipartition", "cold_damping", "coupled_transfer"),
    "long_record": ("spectrum",),
}
# Oscillator counts of the exact_network chains.  Small N stays in the set so
# that a solver with a higher fixed cost shows up in the per-size metrics.
CHAIN_SIZES = (2, 5, 10, 20, 30, 40)
WORKLOADS = ("ensemble", "long_record", "exact_network")


def modeheat_seed(seed: int) -> int:
    """The seed handed to modeheat: any integer maps into the config schema's range."""
    return seed % 2**63


def config_bytes(root: Path, workload: str, seed: int) -> dict[str, bytes]:
    """The workload's shipped configs with ``sim.seed`` set from the workload seed."""
    out = {}
    for name in CONFIGS[workload]:
        doc = json.loads((root / "configs" / f"{name}.json").read_text())
        doc.setdefault("sim", {})["seed"] = modeheat_seed(seed)
        out[name] = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return out


def write_configs(root: Path, workload: str, seed: int, dest: Path) -> list[Path]:
    """Write the workload's generated configs into ``dest``; returns their paths."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in config_bytes(root, workload, seed).items():
        path = dest / f"{name}.json"
        path.write_bytes(data)
        paths.append(path)
    return paths


def chain_doc(rng: random.Random, n: int) -> dict:
    """Nearest-neighbour chain of ``n`` oscillators in modeheat's model-document form.

    Bare frequencies sit within 1e-4 of 100 kHz, so neighbours hybridise at
    coupling rates of 0.5-5 damping rates; baths span 100-500 K so that every
    chain carries heat.  About one oscillator in eight carries cold-damping
    velocity feedback or a small position gain.
    """
    omega0 = 2.0 * math.pi * 1e5
    oscillators = [
        {
            "label": f"o{i}",
            "mass": 1e-12 * rng.uniform(0.5, 2.0),
            "omega": omega0 * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0)),
            "gamma": rng.uniform(5.0, 50.0),
            "bath_temperature": rng.uniform(100.0, 500.0),
        }
        for i in range(n)
    ]
    couplings = []
    for a, b in zip(oscillators, oscillators[1:]):
        g = rng.uniform(0.5, 5.0) * min(a["gamma"], b["gamma"])
        k = 2.0 * math.sqrt(a["mass"] * b["mass"]) * math.sqrt(a["omega"] * b["omega"]) * g
        couplings.append({"pair": [a["label"], b["label"]], "spring_constant": k})
    feedbacks = {}
    for i in sorted(rng.sample(range(n), max(1, n // 8))):
        o = oscillators[i]
        if rng.random() < 0.5:
            gain = -2.0 * o["mass"] * o["gamma"] * rng.uniform(0.5, 3.0)
            feedbacks[o["label"]] = {"velocity_gain": gain}
        else:
            gain = o["mass"] * o["omega"] ** 2 * 1e-4 * rng.uniform(-1.0, 1.0)
            feedbacks[o["label"]] = {"position_gain": gain}
    return {"oscillators": oscillators, "couplings": couplings, "feedbacks": feedbacks}


def chain_docs(seed: int) -> list[dict]:
    """One chain per size in CHAIN_SIZES, drawn from the workload seed."""
    rng = random.Random(seed)
    return [chain_doc(rng, n) for n in CHAIN_SIZES]
