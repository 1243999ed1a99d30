"""The seed survey: FAIL counts per check over seeds 1..K."""

import importlib.util

import pytest

from modeheat import LargeStepWarning

from conftest import REPO

_spec = importlib.util.spec_from_file_location("seed_survey", REPO / "tools" / "seed_survey.py")
seed_survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_survey)


def test_survey_counts_every_check_over_two_seeds(capsys):
    configs = [REPO / "configs" / f"{name}.json" for name in ("paper_numbers", "equipartition")]
    # equipartition steps at dt * omega_max = 3.14e3 with allow_large_step set
    with pytest.warns(LargeStepWarning):
        assert seed_survey.main([str(c) for c in configs] + ["-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # paper_numbers is deterministic and passes; equipartition has 2 x 6 checks
    assert lines[0] == f"{configs[0]}: 0 of 2 seeds FAIL"
    assert [line.split()[0] for line in lines[1:6]] == [
        "flux_from_gap_closure",
        "gap_from_flux_closure",
        "bulk_delta_t_closure",
        "flux_ratio_consistent",
        "delta_t_ratio_consistent",
    ]
    assert all(line.split()[1] == "0" for line in lines[1:6])
    assert lines[6].startswith(f"{configs[1]}: ")
    counts = {line.split()[0]: int(line.split()[1]) for line in lines[7:]}
    assert len(counts) == 2 + 2 * 6 and "mc_pos_4se_B" in counts
    assert all(0 <= n <= 2 for n in counts.values())

