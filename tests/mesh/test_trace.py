"""Tests for the hierarchical span tracer (repro.mesh.trace)."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.clock import StepClock
from repro.mesh.engine import MeshEngine
from repro.mesh.trace import (
    Span,
    Tracer,
    _collapsed_name,
    chrome_doc,
    drain_traced_tracers,
    parse_collapsed,
    traced,
)


class TestSpanTree:
    def test_charges_attribute_to_innermost_span(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        with tracer.span("outer"):
            eng.root.sort_by(np.arange(64), label="sort")
            with tracer.span("inner"):
                eng.root.scan(np.arange(64), label="scan")
        outer = tracer.root.children[0]
        inner = outer.children[0]
        assert outer.name == "outer" and inner.name == "inner"
        assert outer.steps == eng.clock.cost.sort * 8  # self excludes child
        assert inner.steps == eng.clock.cost.scan * 8
        assert outer.steps_total == eng.clock.time

    def test_counters_record_calls_steps_volume(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        with tracer.span("s"):
            eng.root.sort_by(np.arange(64), label="sort")
            eng.root.sort_by(np.arange(32), label="sort")
        counter = tracer.root.children[0].counters["sort"]
        assert counter.calls == 2
        assert counter.steps == 2 * eng.clock.cost.sort * 8
        assert counter.volume == 96  # 64 + 32 records moved

    def test_total_steps_equals_clock_time_without_parallel(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        eng.root.sort_by(np.arange(64))  # root-span charge, no open span
        with tracer.span("a"):
            eng.root.scan(np.arange(64))
        assert tracer.total_steps == eng.clock.time

    def test_detach_stops_recording(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        eng.root.scan(np.arange(64))
        tracer.detach(eng.clock)
        eng.root.scan(np.arange(64))
        assert tracer.total_steps == eng.clock.cost.scan * 8

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("boom")
        assert tracer._stack == [tracer.root]
        assert tracer.root.children[0].t1 is not None

    def test_span_roundtrip_dict(self):
        tracer = Tracer()
        clock = StepClock()
        tracer.attach(clock)
        with tracer.span("a"):
            clock.charge(5.0, "x", volume=7)
        back = Span.from_dict(tracer.root.to_dict())
        assert back.children[0].name == "a"
        assert back.children[0].counters["x"].volume == 7
        assert back.steps_total == tracer.total_steps


class TestTracedHelper:
    def test_noop_without_tracer(self):
        eng = MeshEngine(8)
        with traced(eng.clock, "nothing"):
            eng.root.scan(np.arange(64))
        assert eng.clock.time == eng.clock.cost.scan * 8

    def test_disabled_tracing_changes_no_charges(self):
        # zero-mesh-step guarantee: identical charges with and without the
        # instrumented code path entered
        def run(clock_tracer: bool) -> float:
            eng = MeshEngine(8)
            if clock_tracer:
                Tracer(clock=eng.clock)
            with traced(eng.clock, "span"):
                eng.root.sort_by(np.arange(64))
            return eng.clock.time

        assert run(False) == run(True)

    def test_opens_span_when_attached(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        with traced(eng.clock, "phase"):
            eng.root.scan(np.arange(64))
        assert tracer.root.children[0].name == "phase"


class TestExporters:
    def _traced_run(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        with tracer.span("sortphase"):
            eng.root.sort_by(np.arange(64), label="sort")
        with tracer.span("scanphase"):
            eng.root.scan(np.arange(64), label="scan")
        return eng, tracer

    def test_chrome_events_valid(self):
        eng, tracer = self._traced_run()
        doc = tracer.to_chrome()
        blob = json.dumps(doc)  # must be JSON-serializable
        parsed = json.loads(blob)
        events = parsed["traceEvents"]
        assert {e["name"] for e in events} == {"run", "sortphase", "scanphase"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        by_name = {e["name"]: e for e in events}
        assert by_name["run"]["args"]["steps"] == eng.clock.time
        assert by_name["sortphase"]["args"]["counters"]["sort"]["calls"] == 1

    def test_chrome_doc_merges_tracers_with_distinct_pids(self):
        _, t1 = self._traced_run()
        _, t2 = self._traced_run()
        doc = chrome_doc([t1, t2])
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 2}

    def test_chrome_args_schema(self):
        eng, tracer = self._traced_run()
        by_name = {e["name"]: e for e in tracer.to_chrome()["traceEvents"]}
        args = by_name["run"]["args"]
        assert set(args) == {
            "steps", "steps_self", "calls", "volume", "counters", "events",
        }
        assert args["steps_self"] == 0.0
        assert by_name["sortphase"]["args"]["steps_self"] == eng.clock.cost.sort * 8

    def test_span_dict_schema(self):
        _, tracer = self._traced_run()
        tracer.finish()
        doc = tracer.root.to_dict()
        assert set(doc) == {"name", "wall_s", "steps", "counters", "events", "children"}
        assert [c["name"] for c in doc["children"]] == ["sortphase", "scanphase"]

    def test_render_tree(self):
        _, tracer = self._traced_run()
        text = tracer.render()
        assert "sortphase" in text and "scanphase" in text
        assert "steps=" in text and "wall=" in text
        # children indented under the root
        lines = text.splitlines()
        root_line = next(ln for ln in lines if ln.startswith("run"))
        child_line = next(ln for ln in lines if "sortphase" in ln)
        assert child_line.startswith("  ")
        assert not root_line.startswith(" ")


class TestCollapsed:
    def test_collapsed_values_sum_to_clock_time(self):
        eng = MeshEngine(8)
        tracer = Tracer(clock=eng.clock)
        with tracer.span("sort"):
            eng.root.sort_by(np.arange(64))
        with tracer.span("quads"):
            for col0 in (0, 4):
                eng.root.subregion(0, col0, 4, 4).scan(np.arange(16))
        parsed = parse_collapsed(tracer.collapsed())
        assert sum(parsed.values()) == eng.clock.time

    def test_names_sanitized(self):
        tracer = Tracer()
        with tracer.span("odd name;with parts"):
            pass
        text = tracer.collapsed()
        assert "run;odd_name:with_parts 0" in text.splitlines()

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed("lonetoken")
        with pytest.raises(ValueError):
            parse_collapsed("a;b notanumber")


_names = st.text(alphabet="abXY0 ;.:-_", min_size=1, max_size=8)
_steps = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_trees = st.recursive(
    st.tuples(_names, _steps, st.just(())),
    lambda children: st.tuples(
        _names, _steps, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=10,
)


def _build_span(node) -> Span:
    name, steps, children = node
    span = Span(name, t0=0.0, t1=0.0, steps=steps)
    span.children = [_build_span(c) for c in children]
    return span


@pytest.mark.slow
class TestCollapsedRoundTrip:
    """Property: parsing the collapsed export reconstructs the same
    (sanitized path -> summed self steps) multiset for any span tree.

    Long hypothesis suite — nightly tier (``pytest -m slow``)."""

    @given(_trees)
    @settings(max_examples=75, deadline=None)
    def test_round_trip(self, node):
        tracer = Tracer()
        tracer.root.children.append(_build_span(node))
        expected: dict[tuple[str, ...], float] = {}

        def walk(span: Span, prefix: tuple[str, ...]) -> None:
            path = prefix + (_collapsed_name(span.name),)
            expected[path] = expected.get(path, 0.0) + span.steps
            for child in span.children:
                walk(child, path)

        walk(tracer.root, ())
        assert parse_collapsed(tracer.collapsed()) == expected


class TestEnvRegistry:
    def test_repro_trace_attaches_and_drains(self, monkeypatch):
        drain_traced_tracers()
        monkeypatch.setenv("REPRO_TRACE", "1")
        clock = StepClock()
        clock.charge(3.0, "x")
        monkeypatch.delenv("REPRO_TRACE")
        tracers = drain_traced_tracers()
        assert len(tracers) == 1
        assert tracers[0].total_steps == 3.0
        assert drain_traced_tracers() == []

    def test_no_env_no_tracer(self):
        assert os.environ.get("REPRO_TRACE") is None
        clock = StepClock()
        assert clock.tracer is None


class TestEndToEndE1:
    """Acceptance: a span-traced E1 run exports valid Chrome JSON whose
    summed span step-charges equal the StepClock total."""

    def _run(self):
        from repro.core.hierdag import hierdag_multisearch
        from repro.core.model import QuerySet
        from repro.graphs.adapters import hierdag_search_structure
        from repro.graphs.hierarchical import build_mu_ary_search_dag

        dag, keys = build_mu_ary_search_dag(2, 10, seed=0)
        st = hierdag_search_structure(dag)
        eng = MeshEngine.for_problem(dag.size)
        tracer = Tracer(clock=eng.clock)
        qs = QuerySet.start(keys[:128].astype(np.float64), 0)
        res = hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
        return eng, tracer, res

    def test_span_steps_equal_clock_total(self):
        eng, tracer, res = self._run()
        assert tracer.total_steps == eng.clock.time
        assert res.mesh_steps == pytest.approx(eng.clock.time)

    def test_phase_spans_present_and_chrome_valid(self):
        eng, tracer, _ = self._run()
        names = {e["name"] for e in tracer.to_chrome()["traceEvents"]}
        assert "hierdag" in names
        assert "hierdag:setup" in names and "hierdag:bstar" in names
        assert "hierdag:phase2" in names
        json.dumps(tracer.to_chrome())  # serializable end to end

    def test_span_tree_structure(self):
        eng, tracer, _ = self._run()
        hierdag = tracer.root.children[0]
        assert hierdag.name == "hierdag"
        child_names = [c.name for c in hierdag.children]
        assert child_names[0] == "hierdag:setup"
        assert child_names[-1] == "hierdag:bstar"


class TestEndToEndCM:
    def test_cm_and_logphase_spans(self):
        from repro.core.alpha import alpha_multisearch
        from repro.core.model import QuerySet
        from repro.graphs.broom import broom_structure, build_broom

        broom = build_broom(2, 4, 48, seed=0)
        st = broom_structure(broom)
        splitting = broom.splitting()
        rng = np.random.default_rng(1)
        keys = rng.uniform(
            broom.tree.leaf_keys[0], broom.tree.leaf_keys[-1], 200
        )
        eng = MeshEngine.for_problem(max(broom.size, keys.size))
        tracer = Tracer(clock=eng.clock)
        qs = QuerySet.start(keys, 0)
        alpha_multisearch(eng, st, qs, splitting)
        assert tracer.total_steps == eng.clock.time
        names = {e["name"] for e in tracer.to_chrome()["traceEvents"]}
        assert "alpha" in names and "cm" in names
        assert any(n.startswith("logphase") for n in names)
        assert {"cm:mark", "cm:rounds", "cm:return"} <= names
