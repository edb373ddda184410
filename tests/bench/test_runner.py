"""Unit tests for the parallel benchmark runner (repro.bench.runner)."""

import json

import numpy as np
import pytest

from repro.bench import runner
from repro.bench.runner import (
    BENCH_DIR,
    REGISTRY,
    _extract_steps,
    _peak_rss_kib,
    _pts,
    compare,
    main,
    provenance,
    run_point,
)


class TestRegistry:
    def test_every_bench_module_is_registered(self):
        # every benchmarks/bench_*.py is driven by the runner, except the
        # figure-generation script (plots, not measurements) and the
        # supervision bench (its qps-vs-kill-rate points don't fit the
        # runner's per-point record schema; it ships its own CLI + gates)
        on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        registered = {spec.module for spec in REGISTRY.values()}
        assert on_disk - registered == {"bench_figures", "bench_e14_supervision"}
        assert registered <= on_disk

    def test_points_ascend(self):
        for name, spec in REGISTRY.items():
            assert spec.points, name
            keys = list(spec.points[0])
            seq = [[p[k] for k in keys] for p in spec.points]
            assert seq == sorted(seq), name

    def test_pts_cartesian(self):
        pts = _pts(a=[1, 2], b=["x", "y"])
        assert len(pts) == 4
        assert pts[0] == {"a": 1, "b": "x"}
        assert pts[-1] == {"a": 2, "b": "y"}
        assert _pts({"fixed": 3}, a=[1])[0] == {"fixed": 3, "a": 1}

    def test_pts_order_pinned(self):
        # documented contract: lexicographic by sweep keys in declaration
        # order (first key slowest, last fastest), values ascending even
        # when listed descending — points[0] is the smallest point
        pts = _pts(a=[2, 1], b=["y", "x"])
        assert pts == (
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        )


class TestPeakRssKib:
    def test_linux_passthrough(self):
        assert _peak_rss_kib(123456, platform="linux") == 123456

    def test_darwin_bytes_to_kib(self):
        assert _peak_rss_kib(123456 * 1024, platform="darwin") == 123456
        assert _peak_rss_kib(1023, platform="darwin") == 0  # sub-KiB floors

    def test_default_platform_is_current(self):
        import sys

        expected = 2048 // 1024 if sys.platform == "darwin" else 2048
        assert _peak_rss_kib(2048) == expected


class _WithSteps:
    mesh_steps = 42.0


class TestExtractSteps:
    def test_shapes(self):
        assert _extract_steps(17) == 17.0
        assert _extract_steps(3.5) == 3.5
        assert _extract_steps(np.int64(9)) == 9.0
        assert _extract_steps(_WithSteps()) == 42.0
        assert _extract_steps((_WithSteps(), 1024)) == 42.0
        assert _extract_steps((12.0, 4096)) == 12.0
        assert _extract_steps({"sort": 2.0, "route": 3.0}) == 5.0

    def test_non_steps(self):
        assert _extract_steps(True) is None  # bool is not a step count
        assert _extract_steps("nope") is None
        assert _extract_steps((None, "x")) is None
        assert _extract_steps({"sort": 2.0, "note": "hi"}) is None


def _doc(wall_by_params):
    points = [{"params": dict(p), "wall_s_min": w} for p, w in wall_by_params]
    return {"bench": "demo", "points": points}


class TestCompare:
    BASE = _doc([({"n": 1}, 1.0), ({"n": 2}, 2.0)])

    def test_within_tolerance_passes(self):
        doc = _doc([({"n": 1}, 1.05), ({"n": 2}, 1.9)])
        assert compare(doc, self.BASE, tolerance=0.10) == []

    def test_regression_fails(self):
        doc = _doc([({"n": 1}, 1.5), ({"n": 2}, 2.0)])
        failures = compare(doc, self.BASE, tolerance=0.10)
        assert len(failures) == 1
        assert "n': 1" in failures[0] or "'n': 1" in failures[0]

    def test_unknown_points_skipped(self):
        doc = _doc([({"n": 99}, 100.0)])
        assert compare(doc, self.BASE, tolerance=0.10) == []

    @staticmethod
    def _with_steps(doc, *steps):
        for point, s in zip(doc["points"], steps):
            point["mesh_steps"] = s
        return doc

    def test_changed_steps_fail_at_equal_wall(self):
        base = self._with_steps(_doc([({"n": 1}, 1.0), ({"n": 2}, 2.0)]), 100, 200)
        doc = self._with_steps(_doc([({"n": 1}, 1.0), ({"n": 2}, 2.0)]), 100, 201)
        failures = compare(doc, base, tolerance=0.10)
        assert len(failures) == 1
        assert "mesh steps 201 vs baseline 200" in failures[0]

    def test_equal_steps_pass_across_numeric_spelling(self):
        base = self._with_steps(_doc([({"n": 1}, 1.0)]), 4463.0)
        doc = self._with_steps(_doc([({"n": 1}, 1.0)]), 4463)
        assert compare(doc, base, tolerance=0.10) == []

    def test_steps_gated_only_when_both_numeric(self):
        base = self._with_steps(_doc([({"n": 1}, 1.0), ({"n": 2}, 1.0)]), None, 7)
        doc = self._with_steps(_doc([({"n": 1}, 1.0), ({"n": 2}, 1.0)]), 5, None)
        assert compare(doc, base, tolerance=0.10) == []

    def test_report_diff_fails_on_changed_steps(self):
        from repro.bench.report import render_diff

        base = self._with_steps(_doc([({"n": 1}, 1.0)]), 100)
        doc = self._with_steps(_doc([({"n": 1}, 1.0)]), 99)
        _, failures = render_diff(base, doc, tolerance=0.10)
        assert failures == compare(doc, base, tolerance=0.10)
        assert len(failures) == 1


class TestRunPoint:
    def test_record_schema_in_process(self):
        # the smallest E10 point is cheap enough to measure inline
        record = run_point("e10_vm", {"side": 8}, repeats=1, warmup=0)
        assert set(record) == {
            "params", "wall_s_min", "repeats", "mesh_steps", "peak_rss_kb"
        }
        assert record["params"] == {"side": 8}
        assert record["wall_s_min"] > 0
        assert record["repeats"] == 1
        assert record["mesh_steps"] > 0
        assert record["peak_rss_kb"] > 0

    def test_trace_record(self):
        record = run_point(
            "e1_hierdag",
            {"height": 8, "method": "hierdag"},
            repeats=1,
            warmup=0,
            trace=True,
        )
        events = record["trace"]["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "hierdag" in names and "hierdag:bstar" in names
        # summed span charges match the bench's reported mesh steps: the
        # traced pass re-runs the same deterministic schedule
        assert record["trace_steps"] == record["mesh_steps"]
        assert "hierdag" in record["trace_tree"]
        # spanTrees ride in the sidecar for report --diff
        assert record["trace"]["spanTrees"]
        # collapsed-stack export: values sum to the traced steps
        from repro.mesh.trace import parse_collapsed

        parsed = parse_collapsed(record["trace_collapsed"])
        assert sum(parsed.values()) == record["trace_steps"]
        assert any("hierdag:bstar" in ";".join(p) for p in parsed)

    def test_profile_record(self, monkeypatch):
        # e10 runs on the raw MeshVM (no StepClock), so profile an
        # engine-based bench: E1's smallest point.  The profile is the
        # fold of the traced pass's own tracers.
        from repro.mesh import trace
        from repro.mesh.profile import CostProfile

        drained: list = []
        drain = trace.drain_traced_tracers

        def spy():
            drained.append(drain())
            return drained[-1]

        monkeypatch.setattr(trace, "drain_traced_tracers", spy)
        record = run_point(
            "e1_hierdag",
            {"height": 8, "method": "hierdag"},
            repeats=1,
            warmup=0,
            trace=True,
        )
        tracers = drained[-1]
        assert set(record["profile"]) == {"by_label", "calls"}
        assert record["profile"] == CostProfile.from_tracers(tracers).to_dict()
        assert record["profile"]["by_label"]
        assert sum(record["profile"]["by_label"].values()) > 0
        assert sum(record["profile"]["calls"].values()) == sum(
            t.root.calls_total for t in tracers
        )


class TestProvenance:
    def test_schema(self):
        prov = provenance()
        assert set(prov) == {"versions", "platform", "cpu"}
        versions = prov["versions"]
        assert versions["python"] and versions["numpy"]
        assert prov["platform"]

    def test_stamped_into_bench_doc(self):
        doc = runner.run_bench("selftest", jobs=1, repeats=1, warmup=0, smoke=True)
        assert doc["provenance"] == provenance()

    def test_rendered_by_report(self):
        from repro.bench.report import render_doc

        doc = {
            "bench": "demo",
            "provenance": provenance(),
            "points": [],
        }
        text = render_doc(doc)
        assert "environment: python" in text
        assert "numpy" in text


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1_hierdag" in out and "e2_constrained" in out

    def test_unknown_bench_errors(self):
        with pytest.raises(SystemExit):
            main(["not_a_bench"])

    def test_requires_selection(self):
        with pytest.raises(SystemExit):
            main([])


def _probe_callable(monkeypatch, seen, result=1.0):
    """Swap the bench entry point for a closure that records the env flags."""
    import os

    spec = runner.BenchSpec("probe", "probe", ({},))

    def fake(bench):
        def fn(**kwargs):
            seen.append(os.environ.get("REPRO_TRACE"))
            return result

        return spec, fn

    monkeypatch.setattr(runner, "_bench_callable", fake)


class TestRunPointEnvHygiene:
    # regression: run_point used to pop REPRO_TRACE on exit, clobbering
    # whatever the caller had exported

    def test_restores_caller_value(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_TRACE", "1")
        run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0, trace=True)
        assert os.environ["REPRO_TRACE"] == "1"

    def test_unset_var_stays_unset(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_point("selftest", {"mode": "ok"}, repeats=1, warmup=0, trace=True)
        assert "REPRO_TRACE" not in os.environ

    def test_only_the_traced_pass_sees_the_flag(self, monkeypatch):
        seen: list = []
        _probe_callable(monkeypatch, seen)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_point("probe", {}, repeats=1, warmup=1, trace=True)
        # warmup, timed pass, traced pass: one extra pass, not two
        assert seen == [None, None, "1"]

    def test_restores_env_when_entry_raises(self, monkeypatch):
        import os

        spec = runner.BenchSpec("probe", "probe", ({},))

        def fake(bench):
            def fn(**kwargs):
                raise RuntimeError("boom")

            return spec, fn

        monkeypatch.setattr(runner, "_bench_callable", fake)
        monkeypatch.setenv("REPRO_TRACE", "0")
        with pytest.raises(RuntimeError):
            run_point("probe", {}, repeats=1, warmup=0, trace=True)
        assert os.environ["REPRO_TRACE"] == "0"


class TestRepeatsValidation:
    # regression: --repeats 0 left wall_s_min at infinity, which json.dumps
    # wrote as the non-JSON token Infinity, and the run exited 0

    @pytest.mark.parametrize(
        "flags", [["--repeats", "0"], ["--repeats", "-3"], ["--warmup", "-1"]]
    )
    def test_cli_rejects(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--jobs", "1", "--out-dir", str(tmp_path), *flags])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_point_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_point("selftest", {"mode": "ok"}, repeats=0, warmup=0)

    def test_documents_are_strict_json(self, tmp_path):
        with pytest.raises(ValueError):
            runner._write_checkpoint(
                tmp_path / "ck.json", {}, {0: {"params": {}, "wall_s_min": float("inf")}}
            )
        assert main(
            ["selftest", "--jobs", "1", "--repeats", "1", "--warmup", "0",
             "--out-dir", str(tmp_path)]
        ) == 0

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        doc = json.loads(
            (tmp_path / "BENCH_selftest.json").read_text(), parse_constant=reject
        )
        assert doc["schema"] == 2


class TestParamsKey:
    # regression: json.dumps keyed 4096 and 4096.0 differently, so a
    # checkpoint whose params round-tripped through JSON as floats missed
    # on --resume and silently re-ran every point

    def test_whole_float_equals_int(self):
        assert runner._params_key({"n": 4096}) == runner._params_key({"n": 4096.0})
        assert runner._params_key({"x": 2, "y": 1.0}) == runner._params_key(
            {"y": 1, "x": 2.0}
        )

    def test_distinct_values_stay_distinct(self):
        assert runner._params_key({"x": 0.5}) != runner._params_key({"x": 1})
        assert runner._params_key({"b": True}) != runner._params_key({"b": 1})
        assert runner._params_key({"s": "4096"}) != runner._params_key({"n": 4096})

    def test_checkpoint_resume_across_numeric_spelling(self, tmp_path):
        path = tmp_path / "ck.partial.json"
        config = {"repeats": 1}
        record = _doc([({"n": 4096.0}, 1.0)])["points"][0]
        runner._write_checkpoint(path, config, {0: record})
        done = runner._load_checkpoint(path, config)
        assert runner._params_key({"n": 4096}) in done

    def test_compare_matches_across_numeric_spelling(self):
        doc = _doc([({"n": 4096}, 10.0)])
        base = _doc([({"n": 4096.0}, 1.0)])
        failures = compare(doc, base, tolerance=0.10)
        assert len(failures) == 1  # the 10x regression is detected, not skipped
