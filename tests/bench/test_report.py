"""Tests for the bench report CLI (repro.bench.report)."""

import json

import pytest

from repro.bench import report
from repro.bench.runner import REPO_ROOT, compare


def _point(params, wall, steps):
    return {
        "params": dict(params),
        "wall_s_min": wall,
        "repeats": 3,
        "mesh_steps": steps,
        "peak_rss_kb": 4096,
    }


def _doc(bench, points, profile=None):
    doc = {
        "schema": 2,
        "bench": bench,
        "created": "2026-01-01T00:00:00Z",
        "repeats": 3,
        "points": [_point(*pt) for pt in points],
    }
    if profile is not None:
        doc["profile"] = profile
    return doc


BASE = _doc(
    "demo",
    [({"n": 1}, 0.010, 100.0), ({"n": 2}, 0.020, 200.0)],
    profile={"by_label": {"sort": 60.0, "route": 40.0}, "calls": {"sort": 2, "route": 1}},
)
SAME = _doc(
    "demo",
    [({"n": 1}, 0.0101, 100.0), ({"n": 2}, 0.0199, 200.0)],
    profile={"by_label": {"sort": 60.0, "route": 40.0}, "calls": {"sort": 2, "route": 1}},
)
REGRESSED = _doc(
    "demo",
    [({"n": 1}, 0.050, 120.0), ({"n": 2}, 0.020, 200.0)],
)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRender:
    def test_render_single_doc(self, capsys, tmp_path):
        assert report.main([_write(tmp_path, "a.json", BASE)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "n=1" in out and "n=2" in out
        assert "10.00ms" in out
        assert "sort" in out  # merged profile rendered

    def test_render_doc_without_profile(self, capsys, tmp_path):
        assert report.main([_write(tmp_path, "a.json", REGRESSED)]) == 0
        assert "demo" in capsys.readouterr().out


class TestDiff:
    def test_no_regression_exits_zero(self, capsys, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        new = _write(tmp_path, "new.json", SAME)
        assert report.main(["--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "no mesh-step change and no wall regression" in out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        new = _write(tmp_path, "new.json", REGRESSED)
        assert report.main(["--diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out

    def test_exit_matches_runner_compare(self, tmp_path):
        # acceptance: --diff exits non-zero iff runner --compare would fail
        for new_doc in (SAME, REGRESSED):
            old = _write(tmp_path, "old.json", BASE)
            new = _write(tmp_path, "new.json", new_doc)
            rc = report.main(["--diff", old, new])
            runner_failures = compare(new_doc, BASE)
            assert (rc != 0) == bool(runner_failures)

    def test_tolerance_forwarded(self, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        wall_only = _doc("demo", [({"n": 1}, 0.050, 100.0), ({"n": 2}, 0.020, 200.0)])
        new = _write(tmp_path, "new.json", wall_only)
        # 5x wall regression passes under an absurdly loose tolerance
        assert report.main(["--diff", old, new, "--tolerance", "10.0"]) == 0
        # REGRESSED also changes n=1's steps (100 -> 120): exact, so no
        # tolerance forgives it
        new = _write(tmp_path, "new.json", REGRESSED)
        assert report.main(["--diff", old, new, "--tolerance", "10.0"]) == 1

    def test_per_label_deltas_rendered(self, capsys, tmp_path):
        new_doc = _doc(
            "demo",
            [({"n": 1}, 0.010, 100.0)],
            profile={"by_label": {"sort": 90.0, "route": 40.0}, "calls": {"sort": 3, "route": 1}},
        )
        old = _write(tmp_path, "old.json", BASE)
        new = _write(tmp_path, "new.json", new_doc)
        report.main(["--diff", old, new])
        out = capsys.readouterr().out
        assert "per-label step deltas" in out
        assert "sort" in out and "+50.0%" in out
        assert "dropped" in out  # n=2 exists only in the baseline

    def test_diff_needs_two_files(self, tmp_path):
        with pytest.raises(SystemExit):
            report.main(["--diff", _write(tmp_path, "a.json", BASE)])

    def test_missing_file_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        assert report.main(["--diff", old, str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert report.main(["--diff", old, str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_bench_doc_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "old.json", BASE)
        hollow = _write(tmp_path, "hollow.json", {"bench": "demo"})
        assert report.main(["--diff", old, hollow]) == 2
        assert "malformed bench document" in capsys.readouterr().err

    def test_committed_e11_blob_shows_sqrt_construction(self):
        # the E11 acceptance criterion: per pipeline, modelled construction
        # steps normalised by sqrt(n) stay in a bounded band across a 64x
        # size sweep — construction is O(sqrt(n)) in the cost model
        import math

        doc = json.loads((REPO_ROOT / "BENCH_e11_construct.json").read_text())
        ratios: dict[str, list[float]] = {}
        spans: dict[str, list[int]] = {}
        for p in doc["points"]:
            assert "error" not in p
            n = p["params"]["n"]
            steps = p["mesh_steps"]
            assert steps > 0
            ratios.setdefault(p["params"]["pipeline"], []).append(
                steps / math.sqrt(n)
            )
            spans.setdefault(p["params"]["pipeline"], []).append(n)
        assert set(ratios) == {"kirkpatrick", "dk3d"}
        for pipeline, rs in ratios.items():
            ns = spans[pipeline]
            assert max(ns) / min(ns) >= 64, f"{pipeline} sweep too narrow"
            assert max(rs) / min(rs) < 3.0, (
                f"{pipeline}: steps/sqrt(n) band {min(rs):.1f}..{max(rs):.1f} "
                "too wide for an O(sqrt(n)) claim"
            )


def _trace_doc(bstar_steps=100.0, extra_span=False):
    """A TRACE_* sidecar as the runner would write it, via real tracers."""
    from repro.mesh.clock import StepClock
    from repro.mesh.trace import Tracer, chrome_doc

    clock = StepClock()
    tracer = Tracer(clock=clock)
    with tracer.span("search"):
        clock.charge(40.0, "setup")
        with tracer.span("search:bstar"):
            clock.charge(bstar_steps, "bstar")
        if extra_span:
            with tracer.span("search:extra"):
                clock.charge(5.0, "extra")
    return chrome_doc([tracer])


class TestTraceDiff:
    def test_render_single_trace_doc(self, capsys, tmp_path):
        path = _write(tmp_path, "TRACE_a.json", _trace_doc())
        assert report.main([path]) == 0
        out = capsys.readouterr().out
        assert "search:bstar" in out and "net steps" in out

    def test_self_diff_exits_zero(self, capsys, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc())
        new = _write(tmp_path, "TRACE_new.json", _trace_doc())
        assert report.main(["--diff", old, new]) == 0
        assert "no per-span step regression" in capsys.readouterr().out

    def test_identifies_regressed_phase(self, capsys, tmp_path):
        # acceptance: an injected per-phase regression is named in the diff
        old = _write(tmp_path, "TRACE_old.json", _trace_doc(bstar_steps=100.0))
        new = _write(tmp_path, "TRACE_new.json", _trace_doc(bstar_steps=150.0))
        assert report.main(["--diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "search:bstar" in out  # the regressed phase is identified
        assert "+50.0%" in out

    def test_added_and_removed_spans_reported(self, capsys, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc(extra_span=True))
        new = _write(tmp_path, "TRACE_new.json", _trace_doc())
        assert report.main(["--diff", old, new]) == 0  # removal is not a regression
        out = capsys.readouterr().out
        assert "search:extra: removed" in out
        report.main(["--diff", new, old])
        assert "search:extra: added" in capsys.readouterr().out

    def test_tolerance_forwarded(self, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc(bstar_steps=100.0))
        new = _write(tmp_path, "TRACE_new.json", _trace_doc(bstar_steps=150.0))
        assert report.main(["--diff", old, new, "--tolerance", "0.60"]) == 0

    def test_missing_sidecar_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc())
        assert report.main(["--diff", old, str(tmp_path / "TRACE_gone.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_sidecar_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc())
        bad = tmp_path / "TRACE_bad.json"
        bad.write_text("{]")
        assert report.main(["--diff", old, str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_trace_doc_without_span_trees_exits_two(self, capsys, tmp_path):
        old = _write(tmp_path, "TRACE_old.json", _trace_doc())
        # a pre-spanTrees sidecar: raw Chrome events only
        legacy = _write(tmp_path, "TRACE_legacy.json", {"traceEvents": []})
        assert report.main(["--diff", old, legacy]) == 2
        assert "no spanTrees" in capsys.readouterr().err

    def test_mixed_doc_kinds_exit_two(self, capsys, tmp_path):
        bench = _write(tmp_path, "bench.json", BASE)
        trace = _write(tmp_path, "TRACE_a.json", _trace_doc())
        assert report.main(["--diff", bench, trace]) == 2
        assert "cannot diff" in capsys.readouterr().err
