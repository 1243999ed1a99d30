"""Flux-gap arithmetic and the mode-vs-bulk energy-scale comparator.

The bath/mode heat flux and the mode-temperature gap are tied by the
model-independent relation P = 2 gamma k_B (T - T'), so either one is
measurable through the other once gamma is known.  ``compare_mode_vs_bulk``
puts a single-mode heat channel (heat capacity of order k_B) side by side
with a bulk conduction channel (macroscopic heat capacity, lumped thermal
resistance): the point is that a flux utterly negligible for the bulk can
still move a mode temperature by many kelvin, so the two scales must not be
read off one common axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .constants import BOLTZMANN
from .errors import ZeroDamping

__all__ = [
    "BulkComparison",
    "flux_gap_slope",
    "flux_from_gap",
    "gap_from_flux",
    "bulk_delta_T",
    "compare_mode_vs_bulk",
    "comparison_to_json",
    "comparison_to_text",
]


@dataclass(frozen=True)
class BulkComparison:
    """Side-by-side mode vs bulk channel numbers.

    ``flux_ratio`` = bulk_flux / mode_flux; ``delta_T_ratio`` =
    mode_delta_T / bulk_delta_T.  ``degenerate`` marks zero fluxes, where
    the ratios stop being meaningful.
    """

    mode_flux: float
    mode_gamma: float
    mode_delta_T: float
    bulk_flux: float
    bulk_thermal_resistance: float
    bulk_delta_T: float
    flux_ratio: float
    delta_T_ratio: float
    degenerate: bool = False


def flux_gap_slope(gamma: float, boltzmann: float = BOLTZMANN) -> float:
    """Slope 2 gamma k_B, W/K, of the flux-gap relation P = 2 gamma k_B (T - T').

    The one definition of the slope: ``flux_from_gap`` and ``gap_from_flux``
    use it, and so does the standard error of a flux inferred from a mode
    temperature with standard error se, flux_gap_slope(gamma) * se.
    """
    return 2.0 * gamma * boltzmann


def flux_from_gap(gamma: float, T: float, T_mode: float, boltzmann: float = BOLTZMANN) -> float:
    """Heat flux P = 2 gamma k_B (T - T_mode), W; positive = bath heats mode.

    Holds for any linear coupling and feedback acting on the mode: whatever
    holds the mode temperature away from the bath temperature, the bath
    responds only to the gap.  ``T`` is the temperature the bath alone holds
    its mode at, ``SystemModel.equilibrium_temperature``: the bath
    temperature under the default noise_factor 4.  ``boltzmann`` is the k_B
    of the model the temperatures come from (``SystemModel.boltzmann``); SI
    by default.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return flux_gap_slope(gamma, boltzmann) * (T - T_mode)


def gap_from_flux(gamma: float, P: float) -> float:
    """Temperature gap T - T' = P / (2 gamma k_B), K."""
    if gamma <= 0:
        raise ZeroDamping(
            f"gamma must be > 0 to infer a gap from a flux, got {gamma}"
        )
    return P / flux_gap_slope(gamma)


def bulk_delta_T(P: float, R_th: float) -> float:
    """Steady temperature change of a lumped bulk channel, dT = P * R_th."""
    if R_th <= 0:
        raise ValueError(f"thermal resistance must be > 0, got {R_th}")
    return P * R_th


def compare_mode_vs_bulk(
    mode: tuple[float, float], bulk: tuple[float, float]
) -> BulkComparison:
    """Compare a (flux, gamma) mode channel with a (flux, R_th) bulk channel.

    The mode-side temperature change is the flux-gap inversion P/(2 gamma k_B);
    the bulk side is P * R_th.  Ratios are bulk/mode for flux and mode/bulk
    for the temperature change, so both are >> 1 in the regime where a tiny
    flux is spectroscopically visible yet thermally invisible to the bulk.
    """
    mode_flux, mode_gamma = mode
    bulk_flux, r_th = bulk
    mode_dT = gap_from_flux(mode_gamma, mode_flux)
    bulk_dT = bulk_delta_T(bulk_flux, r_th)

    degenerate = mode_flux == 0.0 or bulk_flux == 0.0
    flux_ratio = bulk_flux / mode_flux if mode_flux != 0 else math.inf
    delta_T_ratio = mode_dT / bulk_dT if bulk_dT != 0 else math.inf
    return BulkComparison(
        mode_flux=mode_flux,
        mode_gamma=mode_gamma,
        mode_delta_T=mode_dT,
        bulk_flux=bulk_flux,
        bulk_thermal_resistance=r_th,
        bulk_delta_T=bulk_dT,
        flux_ratio=flux_ratio,
        delta_T_ratio=delta_T_ratio,
        degenerate=degenerate,
    )


def comparison_to_json(cmp: BulkComparison) -> str:
    return json.dumps(
        {
            "mode": {
                "flux_w": cmp.mode_flux,
                "gamma_per_s": cmp.mode_gamma,
                "delta_T_k": cmp.mode_delta_T,
                "heat_capacity_scale": "single mode, ~k_B",
            },
            "bulk": {
                "flux_w": cmp.bulk_flux,
                "thermal_resistance_k_per_w": cmp.bulk_thermal_resistance,
                "delta_T_k": cmp.bulk_delta_T,
                "heat_capacity_scale": "macroscopic",
            },
            "flux_ratio_bulk_over_mode": cmp.flux_ratio,
            "delta_T_ratio_mode_over_bulk": cmp.delta_T_ratio,
            "degenerate": cmp.degenerate,
        },
        indent=2,
    )


def comparison_to_text(cmp: BulkComparison) -> str:
    """Fixed-width two-channel table; one row per quantity."""
    rows = [
        ("channel", "mode (heat capacity ~k_B)", "bulk (macroscopic)"),
        ("flux [W]", f"{cmp.mode_flux:.3e}", f"{cmp.bulk_flux:.3e}"),
        (
            "response",
            f"gamma = {cmp.mode_gamma:.4g} 1/s",
            f"R_th = {cmp.bulk_thermal_resistance:.4g} K/W",
        ),
        ("delta T [K]", f"{cmp.mode_delta_T:.3e}", f"{cmp.bulk_delta_T:.3e}"),
    ]
    widths = [max(len(r[k]) for r in rows) for k in range(3)]
    lines = ["  ".join(r[k].ljust(widths[k]) for k in range(3)).rstrip() for r in rows]
    lines.append(
        f"flux ratio (bulk/mode) = {cmp.flux_ratio:.3e}; "
        f"delta T ratio (mode/bulk) = {cmp.delta_T_ratio:.3e}"
        + ("; degenerate" if cmp.degenerate else "")
    )
    return "\n".join(lines)
