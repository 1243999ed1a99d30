"""Flux-gap arithmetic and the mode-vs-bulk comparison report."""

import json
import math

import pytest

from modeheat import (
    BOLTZMANN,
    ZeroDamping,
    bulk_delta_T,
    compare_mode_vs_bulk,
    comparison_to_json,
    comparison_to_text,
    flux_from_gap,
    flux_gap_slope,
    gap_from_flux,
)


def test_flux_from_gap_reference_point():
    # 2 * gamma * k_B * (T - T') at gamma = 13.08 1/s and an 18 K gap
    p = flux_from_gap(13.08, 300.0, 282.0)
    assert p == pytest.approx(2 * 13.08 * BOLTZMANN * 18.0, rel=1e-15)
    assert p == flux_gap_slope(13.08) * 18.0
    assert flux_gap_slope(13.08, boltzmann=1.0) == 26.16
    assert p == pytest.approx(6.5e-21, rel=2e-3)


def test_bulk_delta_t_reference_point():
    assert bulk_delta_T(3.5e-6, 5.71e3) == pytest.approx(0.02, rel=1e-3)
    assert bulk_delta_T(3.5e-6, 5.71e3) == 3.5e-6 * 5.71e3


def test_gap_flux_round_trip():
    gamma, t, t_mode = 13.08, 300.0, 282.0
    p = flux_from_gap(gamma, t, t_mode)
    assert gap_from_flux(gamma, p) == pytest.approx(t - t_mode, rel=1e-12)
    # and the other composition order
    gap = gap_from_flux(gamma, 6.5e-21)
    assert flux_from_gap(gamma, gap, 0.0) == pytest.approx(6.5e-21, rel=1e-12)


def test_flux_gap_in_natural_units():
    # k_B = 1: the relation carries the model's Boltzmann constant, not SI's
    assert flux_from_gap(2.0, 5.0, 3.0, boltzmann=1.0) == 8.0
    assert flux_from_gap(2.0, 5.0, 3.0) == 2.0 * 2.0 * BOLTZMANN * 2.0


def test_flux_sign_follows_gap_sign():
    assert flux_from_gap(10.0, 300.0, 200.0) > 0
    assert flux_from_gap(10.0, 200.0, 300.0) < 0
    assert flux_from_gap(10.0, 250.0, 250.0) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        flux_from_gap(-1.0, 300.0, 290.0)
    with pytest.raises(ZeroDamping):
        gap_from_flux(0.0, 1e-21)
    with pytest.raises(ZeroDamping):
        gap_from_flux(-2.0, 1e-21)
    with pytest.raises(ValueError):
        bulk_delta_T(1e-6, 0.0)
    with pytest.raises(ValueError):
        bulk_delta_T(1e-6, -5.0)


def test_compare_mode_vs_bulk_ratios():
    cmp = compare_mode_vs_bulk((6.5e-21, 13.08), (3.5e-6, 5.71e3))
    assert cmp.mode_flux == 6.5e-21
    assert cmp.bulk_flux == 3.5e-6
    assert cmp.flux_ratio == pytest.approx(3.5e-6 / 6.5e-21, rel=1e-12)
    assert cmp.mode_delta_T == pytest.approx(gap_from_flux(13.08, 6.5e-21), rel=1e-12)
    assert cmp.bulk_delta_T == pytest.approx(0.02, rel=1e-3)
    assert cmp.delta_T_ratio == pytest.approx(cmp.mode_delta_T / cmp.bulk_delta_T, rel=1e-12)
    assert not cmp.degenerate
    # fifteen decades of flux separation; the gaps stay within about one decade
    assert cmp.flux_ratio > 1e14
    assert 0.1 < cmp.delta_T_ratio < 10000.0


def test_compare_degenerate_zero_flux():
    cmp = compare_mode_vs_bulk((0.0, 13.08), (3.5e-6, 5.71e3))
    assert cmp.degenerate
    assert math.isinf(cmp.flux_ratio)


def test_comparison_json_round_trip():
    cmp = compare_mode_vs_bulk((6.5e-21, 13.08), (3.5e-6, 5.71e3))
    payload = json.loads(comparison_to_json(cmp))
    assert payload["mode"]["flux_w"] == 6.5e-21
    assert payload["mode"]["gamma_per_s"] == 13.08
    assert payload["mode"]["delta_T_k"] == cmp.mode_delta_T
    assert payload["bulk"]["flux_w"] == 3.5e-6
    assert payload["bulk"]["delta_T_k"] == cmp.bulk_delta_T
    assert payload["flux_ratio_bulk_over_mode"] == cmp.flux_ratio
    assert payload["delta_T_ratio_mode_over_bulk"] == cmp.delta_T_ratio


def test_comparison_text_mentions_both_scales():
    cmp = compare_mode_vs_bulk((6.5e-21, 13.08), (3.5e-6, 5.71e3))
    text = comparison_to_text(cmp)
    assert "6.500e-21" in text
    assert "3.500e-06" in text
    assert "flux ratio (bulk/mode)" in text
