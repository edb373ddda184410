"""The resilient runner: crash isolation, timeouts, checkpoints, resume.

Uses the registered ``selftest`` bench (benchmarks/bench_selftest.py):
its crash/hang/fail modes must live in a real module because spawned
workers re-import the bench by name — a monkeypatched stub would not
survive the spawn.  The sweep *points* are chosen in the parent, so the
tests override those freely.
"""

import json

import pytest

from repro.bench import report, runner
from repro.bench.report import compare
from repro.bench.runner import (
    BenchSpec,
    _load_checkpoint,
    _pts,
    run_bench,
    run_point,
)


def _selftest_points(monkeypatch, modes):
    monkeypatch.setitem(
        runner.REGISTRY,
        "selftest",
        BenchSpec("bench_selftest", "run_once", _pts(mode=list(modes))),
    )


class TestCrashIsolation:
    def test_exception_recorded_not_fatal(self, monkeypatch):
        _selftest_points(monkeypatch, ["fail", "ok"])
        doc = run_bench("selftest", jobs=2, repeats=1, warmup=0, retries=0)
        by_mode = {p["params"]["mode"]: p for p in doc["points"]}
        assert "error" not in by_mode["ok"]
        err = by_mode["fail"]
        assert "RuntimeError: selftest: deliberate failure" in err["error"]
        assert "deliberate failure" in err["traceback"]
        assert err["error_kind"] == "exception"
        assert doc["n_errors"] == 1

    def test_crash_retried_then_recorded(self, monkeypatch):
        _selftest_points(monkeypatch, ["crash"])
        doc = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=1, backoff=0.05
        )
        (point,) = doc["points"]
        assert "worker crashed" in point["error"]
        assert point["error_kind"] == "crash"
        assert point["attempts"] == 2  # first run + one retry
        assert any("retrying" in note for note in point["notes"])

    def test_timeout_kills_and_records(self, monkeypatch):
        _selftest_points(monkeypatch, ["hang", "ok"])
        doc = run_bench(
            "selftest", jobs=2, repeats=1, warmup=0, timeout=2.0, retries=0
        )
        by_mode = {p["params"]["mode"]: p for p in doc["points"]}
        assert "error" not in by_mode["ok"]
        assert "timed out after 2.0s" in by_mode["hang"]["error"]
        assert by_mode["hang"]["error_kind"] == "timeout"


class TestCheckpointResume:
    def test_partial_streams_and_resume_skips(self, monkeypatch, tmp_path):
        _selftest_points(monkeypatch, ["fail", "ok"])
        ckpt = tmp_path / "BENCH_selftest.partial.json"
        doc = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=0, checkpoint=ckpt
        )
        assert ckpt.exists()
        saved = json.loads(ckpt.read_text())
        assert saved["partial"] is True
        assert len(saved["points"]) == 2
        # resume: the ok point is reused verbatim, the errored one reruns
        doc2 = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=0,
            checkpoint=ckpt, resume=True,
        )
        assert doc2["resumed_points"] == 1
        ok1 = [p for p in doc["points"] if "error" not in p][0]
        ok2 = [p for p in doc2["points"] if "error" not in p][0]
        assert ok1 == ok2  # identical record, not a re-measure

    def test_resumed_error_point_gets_full_retry_budget(self, monkeypatch, tmp_path):
        """An errored checkpoint record reruns with the whole --retries budget."""
        _selftest_points(monkeypatch, ["crash"])
        ckpt = tmp_path / "BENCH_selftest.partial.json"
        doc = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=0, backoff=0.05,
            checkpoint=ckpt,
        )
        assert doc["points"][0]["attempts"] == 1
        doc2 = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=1, backoff=0.05,
            checkpoint=ckpt, resume=True,
        )
        assert "resumed_points" not in doc2  # nothing was skipped
        (point,) = doc2["points"]
        assert point["attempts"] == 2  # rerun + the retry the resume grants

    def test_resultless_record_not_resumed(self, monkeypatch, tmp_path):
        """A record with neither results nor an error reruns on resume.

        A checkpoint truncated mid-write (crash between the params line
        and the measurements) yields such records; skipping them would
        hand compare/report a point with no measurements.
        """
        _selftest_points(monkeypatch, ["ok"])
        config = {"bench": "selftest", "repeats": 1, "warmup": 0,
                  "smoke": False, "trace": False}
        ckpt = tmp_path / "BENCH_selftest.partial.json"
        ckpt.write_text(json.dumps({
            "config": config, "partial": True,
            "points": [{"params": {"mode": "ok"}}],
        }))
        assert _load_checkpoint(ckpt, config) == {}
        doc = run_bench(
            "selftest", jobs=1, repeats=1, warmup=0, retries=0,
            checkpoint=ckpt, resume=True,
        )
        (point,) = doc["points"]
        assert point["wall_s_min"] > 0

    def test_config_mismatch_ignores_checkpoint(self, monkeypatch, tmp_path):
        _selftest_points(monkeypatch, ["ok"])
        ckpt = tmp_path / "BENCH_selftest.partial.json"
        run_bench("selftest", jobs=1, repeats=1, warmup=0, checkpoint=ckpt)
        config = {"bench": "selftest", "repeats": 2, "warmup": 0,
                  "smoke": False, "trace": False}
        assert _load_checkpoint(ckpt, config) == {}

    def test_unreadable_checkpoint_ignored(self, tmp_path):
        ckpt = tmp_path / "garbage.json"
        ckpt.write_text("{not json")
        assert _load_checkpoint(ckpt, {"bench": "x"}) == {}

    def test_main_deletes_checkpoint_on_success(self, monkeypatch, tmp_path, capsys):
        _selftest_points(monkeypatch, ["ok"])
        rc = runner.main(
            ["selftest", "--jobs", "1", "--repeats", "1", "--warmup", "0",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        written = json.loads((tmp_path / "BENCH_selftest.json").read_text())
        assert not (tmp_path / "BENCH_selftest.partial.json").exists()
        # the sweep is printed by report's renderer, the same as a later
        # `python -m repro.bench.report` of the written document
        assert report.render_doc(written) in capsys.readouterr().out

    def test_main_keeps_checkpoint_and_fails_on_error(self, monkeypatch, tmp_path):
        _selftest_points(monkeypatch, ["fail", "ok"])
        rc = runner.main(
            ["selftest", "--jobs", "1", "--repeats", "1", "--warmup", "0",
             "--retries", "0", "--out-dir", str(tmp_path)]
        )
        assert rc == 1  # errored point surfaces in the exit code
        assert (tmp_path / "BENCH_selftest.partial.json").exists()


class TestStepsNullWarning:
    def test_no_warning_when_steps_found(self):
        record = run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0)
        assert record["mesh_steps"] == 1.0
        assert "warnings" not in record


class TestErrorAwareCompareAndReport:
    ERR_POINT = {
        "params": {"n": 1},
        "error": "timed out after 2.0s",
        "error_kind": "timeout",
        "traceback": None,
        "attempts": 1,
    }
    OK_POINT = {
        "params": {"n": 2},
        "wall_s_min": 1.0,
        "mesh_steps": 5.0,
        "repeats": 1,
        "peak_rss_kb": 1024,
    }

    def test_compare_flags_errored_point(self):
        doc = {"bench": "demo", "points": [self.ERR_POINT, self.OK_POINT]}
        base = {"bench": "demo", "points": [self.OK_POINT]}
        failures = compare(doc, base)
        assert len(failures) == 1
        assert "timed out" in failures[0]

    def test_compare_flags_errored_baseline(self):
        doc = {"bench": "demo", "points": [dict(self.OK_POINT, params={"n": 1})]}
        base = {"bench": "demo", "points": [self.ERR_POINT]}
        failures = compare(doc, base)
        assert len(failures) == 1
        assert "baseline point errored" in failures[0]

    def test_report_render_doc_shows_error(self):
        doc = {
            "bench": "demo", "repeats": 1,
            "points": [self.ERR_POINT, self.OK_POINT],
        }
        text = report.render_doc(doc)
        assert "ERROR(timeout) after 1 attempt(s): timed out" in text
        assert "wall=1000.00ms steps=5" in text
        assert "ERRORS: 1 of 2 points failed (timeout=1)" in text

    def test_report_render_diff_handles_errors(self):
        old = {"bench": "demo", "points": [self.OK_POINT, self.ERR_POINT]}
        new = {
            "bench": "demo",
            "points": [self.OK_POINT, dict(self.OK_POINT, params={"n": 1})],
        }
        text, failures = report.render_diff(old, new, tolerance=0.10)
        assert "baseline point errored" in text
        assert any("baseline point errored" in f for f in failures)

    def test_render_distinguishes_crash_from_timeout(self):
        crash_point = {
            "params": {"n": 3},
            "error": "worker crashed (exit code -11)",
            "error_kind": "crash",
            "traceback": None,
            "attempts": 2,
        }
        doc = {
            "bench": "demo", "repeats": 1,
            "points": [self.ERR_POINT, crash_point],
        }
        rep = report.render_doc(doc)
        assert "ERROR(timeout) after 1 attempt(s)" in rep
        assert "ERROR(crash) after 2 attempt(s)" in rep
        assert "(crash=1, timeout=1)" in rep
        base = {"bench": "demo", "points": []}
        failures = compare(doc, base)
        assert any(f.startswith("demo {'n': 3}: crash — ") for f in failures)
        assert any("timeout — " in f for f in failures)


class TestChaosDeterminism:
    @pytest.mark.parametrize("kind", ["perturb_sort_key", "corrupt_route_payload"])
    def test_same_seed_same_cell(self, kind):
        from repro.bench import chaos

        clean = chaos.SCENARIOS["primitives"](False, None)
        a = chaos.run_cell("primitives", kind, seed=3, paranoid=True, clean=clean)
        b = chaos.run_cell("primitives", kind, seed=3, paranoid=True, clean=clean)
        assert a == b
        assert a["outcome"] == "detected:paranoid"
        assert a["injected"]

    def test_gate_respects_baseline(self):
        from repro.bench.chaos import gate

        report_doc = {
            "results": [
                {"mode": "paranoid", "scenario": "s", "kind": "k",
                 "seed": 1, "outcome": "silent_corruption",
                 "injected": [{"kind": "k"}]},
            ]
        }
        assert gate(report_doc, None)  # undocumented -> failure
        baseline = {"blind_spots": {"paranoid:s:k": "known"}}
        assert gate(report_doc, baseline) == []
