"""Process-fault chaos suite and the E14 supervision bench.

The live matrix (workers actually killed/hung/slowed) runs in CI's
supervision-chaos job; these tests pin the *logic* around it — gate
semantics, blind-spot extraction, the committed artifacts — plus one
live cell so the suite can't silently rot between CI runs.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.bench import chaos
from repro.bench.runner import BENCH_DIR

REPO = pathlib.Path(__file__).resolve().parents[2]


def _load_e14():
    spec = importlib.util.spec_from_file_location(
        "bench_e14_supervision", BENCH_DIR / "bench_e14_supervision.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _cell(outcome, kind="worker_crash", seed=1, **over):
    cell = {
        "scenario": "serve_pool",
        "kind": kind,
        "seed": seed,
        "mode": "supervised",
        "outcome": outcome,
        "wrong_answers": 0,
        "typed_errors": 0,
        "untyped_errors": 0,
        "cache_polluted": 0,
        "evidence": 1,
        "pool_stats": {},
    }
    cell.update(over)
    return cell


def _report(*cells):
    return {"schema": chaos.SCHEMA_VERSION, "suite": "process", "results": list(cells)}


class TestProcessGate:
    def test_recovered_detected_and_no_opportunity_pass(self):
        report = _report(
            _cell("recovered"),
            _cell("detected", kind="worker_corrupt_reply"),
            _cell("no_opportunity", kind="worker_slow"),
        )
        assert chaos.gate_process(report, None) == []
        assert chaos.process_blind_spots(report) == {}

    @pytest.mark.parametrize(
        "outcome", ["silent_corruption", "cache_pollution", "unresolved", "crash"]
    )
    def test_invariant_breaks_fail_without_baseline(self, outcome):
        report = _report(_cell(outcome, wrong_answers=1))
        failures = chaos.gate_process(report, None)
        assert len(failures) == 1
        assert outcome in failures[0]
        assert "supervised:serve_pool:worker_crash" in failures[0]

    def test_documented_blind_spot_passes(self):
        report = _report(_cell("unresolved", kind="worker_hang"))
        baseline = {
            "process_blind_spots": {
                "supervised:serve_pool:worker_hang": "unresolved (known)"
            }
        }
        assert chaos.gate_process(report, baseline) == []
        # but the engine-suite blind_spots map must not leak across gates
        assert chaos.gate_process(
            report, {"blind_spots": {"supervised:serve_pool:worker_hang": "x"}}
        ) != []

    def test_blind_spots_keyed_once_per_kind(self):
        report = _report(
            _cell("crash", seed=1), _cell("crash", seed=2), _cell("recovered", seed=3)
        )
        spots = chaos.process_blind_spots(report)
        assert list(spots) == ["supervised:serve_pool:worker_crash"]
        assert "seed=1" in spots["supervised:serve_pool:worker_crash"]

    def test_failures_are_the_blind_spots_missing_from_baseline(self):
        report = _report(
            _cell("crash", kind="worker_crash", seed=1),
            _cell("crash", kind="worker_crash", seed=2),
            _cell("unresolved", kind="worker_hang", seed=1),
            _cell("recovered", kind="worker_slow", seed=1),
        )
        spots = chaos.process_blind_spots(report)
        assert set(spots) == {
            "supervised:serve_pool:worker_crash",
            "supervised:serve_pool:worker_hang",
        }
        baseline = {"process_blind_spots": {"supervised:serve_pool:worker_hang": "x"}}
        failures = chaos.gate_process(report, baseline)
        assert {f.split(" ")[0] for f in failures} == set(spots) - set(
            baseline["process_blind_spots"]
        )
        assert len(failures) == 2  # both crash cells
        assert chaos.gate_process(report, {"process_blind_spots": spots}) == []

    def test_matrix_rejects_engine_kinds(self):
        with pytest.raises(ValueError, match="not process fault kinds"):
            chaos.run_process_matrix([1], kinds=["perturb_sort_key"])

    def test_every_process_kind_has_tuning_and_evidence(self):
        from repro.mesh.faults import PROCESS_FAULT_KINDS

        assert set(chaos._PROCESS_TUNING) == set(PROCESS_FAULT_KINDS)
        assert set(chaos._PROCESS_EVIDENCE) == set(PROCESS_FAULT_KINDS)
        from repro.serve.pool import POOL_STAT_KEYS

        for stats in chaos._PROCESS_EVIDENCE.values():
            assert set(stats) <= set(POOL_STAT_KEYS)


class TestProcessMatrixLive:
    def test_one_crash_cell_upholds_invariants(self, tmp_path):
        """A real 2-worker pool under mid-batch worker kills: every query
        resolves, nothing wrong, nothing untyped, and the crash shows up
        in the supervisor counters."""
        report = chaos.run_process_matrix([1], kinds=["worker_crash"], tmpdir=tmp_path)
        (cell,) = report["results"]
        assert cell["outcome"] in ("recovered", "detected", "no_opportunity")
        assert cell["wrong_answers"] == 0
        assert cell["untyped_errors"] == 0
        assert cell["cache_polluted"] == 0
        if cell["outcome"] != "no_opportunity":
            assert cell["evidence"] >= 1
        assert chaos.gate_process(report, None) == []


class TestFaultsBaselineArtifact:
    def test_committed_baseline_covers_process_suite(self):
        baseline = json.loads((REPO / "FAULTS_baseline.json").read_text())
        assert "process_blind_spots" in baseline
        # acceptance: seeds 1-9 x 4 worker kinds handled — no blind spots
        assert baseline["process_blind_spots"] == {}
        covers = baseline.get("process_covers", {})
        assert covers.get("scenarios") == ["serve_pool"]
        from repro.mesh.faults import PROCESS_FAULT_KINDS

        assert set(covers.get("kinds", [])) == set(PROCESS_FAULT_KINDS)


class TestE14Artifact:
    def test_committed_sweep_passes_its_own_gate(self):
        e14 = _load_e14()
        doc = json.loads((REPO / "BENCH_e14_supervision.json").read_text())
        assert doc["schema"] == e14.SCHEMA_VERSION
        assert doc["bench"] == "e14_supervision"
        assert e14.availability_failures(doc) == []
        # the headline acceptance number, asserted directly
        by_rate = {p["kill_rate"]: p for p in doc["points"]}
        assert by_rate[0.1]["qps"] >= 0.8 * by_rate[0.0]["qps"]
        for p in doc["points"]:
            assert p["answered"] == p["n_queries"]
            assert p["errors"] == 0

    def test_compare_flags_qps_regression(self):
        e14 = _load_e14()
        base = {"points": [{"kill_rate": 0.0, "qps": 100.0}]}
        good = {"points": [{"kill_rate": 0.0, "qps": 80.0}]}
        bad = {"points": [{"kill_rate": 0.0, "qps": 40.0}]}
        assert e14.compare(good, base) == []
        failures = e14.compare(bad, base)
        assert len(failures) == 1 and "kill_rate=0.0" in failures[0]
        # unknown rates in the new doc are not an error
        extra = {"points": [{"kill_rate": 0.5, "qps": 1.0}]}
        assert e14.compare(extra, base) == []

    def test_gate_requires_both_anchor_points(self):
        e14 = _load_e14()
        doc = {"points": [{"kill_rate": 0.0, "qps": 10.0, "errors": 0}]}
        assert e14.availability_failures(doc) != []
