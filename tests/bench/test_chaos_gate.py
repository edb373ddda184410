"""The engine chaos suite's gate and its blind-spot extraction.

A paranoid-mode cell whose injected fault went undetected fails the gate
unless its ``mode:scenario:kind`` key is documented in the baseline's
``blind_spots`` map; :func:`repro.bench.chaos.blind_spots` lists exactly
those keys, so a gate failure always names a key the fragment would add.
"""

import pytest

from repro.bench import chaos


def _cell(outcome, kind="perturb_sort_key", scenario="primitives", seed=1,
          mode="paranoid", injected=True):
    return {
        "mode": mode,
        "scenario": scenario,
        "kind": kind,
        "seed": seed,
        "outcome": outcome,
        "injected": [{"kind": kind}] if injected else [],
    }


def _report(*cells):
    return {"results": list(cells)}


class TestGate:
    @pytest.mark.parametrize("outcome", ["silent_corruption", "no_effect"])
    def test_undetected_injection_fails_without_baseline(self, outcome):
        report = _report(_cell(outcome))
        assert chaos.gate(report, None) == [
            f"paranoid:primitives:perturb_sort_key seed=1: injected fault went "
            f"{outcome} and is not in the blind-spot baseline"
        ]
        assert list(chaos.blind_spots(report)) == ["paranoid:primitives:perturb_sort_key"]

    @pytest.mark.parametrize(
        "outcome", ["detected:paranoid", "detected:validator", "crash", "no_opportunity"]
    )
    def test_detected_or_crashed_cells_pass(self, outcome):
        report = _report(_cell(outcome))
        assert chaos.gate(report, None) == []
        assert chaos.blind_spots(report) == {}

    def test_bare_mode_is_not_gated(self):
        report = _report(_cell("silent_corruption", mode="bare"))
        assert chaos.gate(report, None) == []
        assert chaos.blind_spots(report) == {}

    def test_cell_without_injection_is_not_gated(self):
        report = _report(_cell("no_effect", injected=False))
        assert chaos.gate(report, None) == []
        assert chaos.blind_spots(report) == {}

    def test_process_map_does_not_excuse_engine_cells(self):
        report = _report(_cell("silent_corruption"))
        baseline = {"process_blind_spots": {"paranoid:primitives:perturb_sort_key": "x"}}
        assert chaos.gate(report, baseline) != []

    def test_failures_are_the_blind_spots_missing_from_baseline(self):
        report = _report(
            _cell("silent_corruption", kind="a", seed=1),
            _cell("no_effect", kind="a", seed=2),
            _cell("no_effect", kind="b", seed=1),
            _cell("detected:paranoid", kind="c", seed=1),
            _cell("silent_corruption", kind="d", scenario="vm_sort", seed=3),
        )
        spots = chaos.blind_spots(report)
        assert list(spots) == [
            "paranoid:primitives:a", "paranoid:primitives:b", "paranoid:vm_sort:d",
        ]
        assert spots["paranoid:primitives:a"] == "silent_corruption (first seen seed=1)"
        baseline = {"blind_spots": {"paranoid:primitives:b": "known"}}
        failed = {f.split(" ")[0] for f in chaos.gate(report, baseline)}
        assert failed == set(spots) - set(baseline["blind_spots"])
        assert len(chaos.gate(report, baseline)) == 3  # two cells of a, one of d
        assert chaos.gate(report, {"blind_spots": spots}) == []
