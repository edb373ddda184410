"""Tests for the cost profiler."""

import numpy as np
import pytest

from repro.mesh.clock import StepClock
from repro.mesh.engine import MeshEngine
from repro.mesh.profile import CostProfile, profiled
from repro.mesh.trace import Tracer


def profile(charges) -> CostProfile:
    """Profile of ``(label, steps)`` charges made on a fresh traced clock."""
    clock = StepClock()
    tracer = Tracer(clock=clock)
    for label, steps in charges:
        clock.charge(steps, label)
    return CostProfile.from_tracers([tracer])


class TestProfile:
    def test_aggregates_labels(self):
        prof = profile([("sort", 10.0), ("route", 5.0), ("sort", 3.0)])
        assert prof.by_label == {"sort": 13.0, "route": 5.0}
        assert prof.calls == {"sort": 2, "route": 1}
        assert prof.total == 18.0

    def test_folds_every_span_of_every_tracer(self):
        clock = StepClock()
        first = Tracer(clock=clock)
        clock.charge(1.0, "sort")
        with first.span("a"):
            clock.charge(2.0, "sort")
            with first.span("b"):
                clock.charge(4.0, "route")
        second = Tracer(clock=clock)
        with second.span("c"):
            clock.charge(0.5, "xchip:sort")
        prof = CostProfile.from_tracers([first, second])
        assert prof.by_label == {"sort": 3.0, "route": 4.0, "xchip:sort": 0.5}
        assert prof.calls == {"sort": 2, "route": 1, "xchip:sort": 1}
        assert prof.total == first.total_steps + second.total_steps

    def test_no_tracers_is_empty(self):
        assert CostProfile.from_tracers([]) == CostProfile()

    def test_top(self):
        prof = profile([("a", 1.0), ("b", 9.0), ("c", 5.0)])
        assert prof.top(2) == [("b", 9.0), ("c", 5.0)]

    def test_fraction_by_prefix(self):
        prof = profile([("cm:round", 6.0), ("cm:mark", 2.0), ("other", 2.0)])
        assert prof.fraction("cm:") == 0.8

    def test_empty(self):
        prof = CostProfile()
        assert prof.total == 0.0
        assert prof.fraction("x") == 0.0

    def test_render_label_missing_from_calls(self):
        # a label can exist in by_label but not calls (partial from_dict
        # data, hand-built profiles); render must not KeyError
        prof = CostProfile.from_dict({"by_label": {"sort": 12.0}})
        assert prof.calls == {}
        text = prof.render()
        assert "sort" in text and "0 charges" in text

    def test_hand_built_profile_renders(self):
        prof = CostProfile(by_label={"a": 3.0, "b": 1.0}, calls={"a": 2})
        text = prof.render()
        assert "2 charges" in text and "0 charges" in text


class TestLegacyMemoKey:
    def test_from_dict_ignores_old_memo_counters(self):
        # bench documents written while the engine kept an argsort memo
        # carry its hit/miss counters next to the step breakdown
        doc = {"by_label": {"sort": 4.0}, "calls": {"sort": 1}, "memo": {"hits": 3}}
        back = CostProfile.from_dict(doc)
        assert back == CostProfile(by_label={"sort": 4.0}, calls={"sort": 1})
        assert "memo" not in back.to_dict()
        assert "memo" not in back.render()


class TestRoundTrips:
    def test_to_from_dict_round_trip(self):
        prof = profile([("sort", 10.0), ("route", 5.0), ("sort", 3.0)])
        back = CostProfile.from_dict(prof.to_dict())
        assert back.by_label == prof.by_label
        assert back.calls == prof.calls
        assert back.total == prof.total

    def test_from_dict_partial_then_render_round_trip(self):
        data = {"by_label": {"x": 7.0}}  # no calls key at all
        back = CostProfile.from_dict(data)
        again = CostProfile.from_dict(back.to_dict())
        assert again.by_label == {"x": 7.0}
        assert again.calls == {}
        again.render()  # must not raise

    def test_merge_disjoint_and_overlapping(self):
        a = profile([("sort", 10.0), ("scan", 1.0)])
        b = profile([("sort", 2.0), ("route", 4.0)])
        merged = a.merge(b)
        assert merged.by_label == {"sort": 12.0, "scan": 1.0, "route": 4.0}
        assert merged.calls == {"sort": 2, "scan": 1, "route": 1}
        # inputs untouched
        assert a.by_label["sort"] == 10.0 and b.by_label["sort"] == 2.0

    def test_merge_to_dict_round_trip(self):
        a = profile([("sort", 10.0)])
        b = profile([("route", 5.0), ("route", 5.0)])
        merged = CostProfile().merge(a, b)
        back = CostProfile.from_dict(merged.to_dict())
        assert back.by_label == merged.by_label
        assert back.calls == merged.calls


class TestProfiledContext:
    def test_captures_engine_charges(self):
        eng = MeshEngine(8)
        with profiled(eng.clock) as prof:
            eng.root.sort_by(np.arange(64), label="my-sort")
            eng.root.scan(np.arange(64), label="my-scan")
        assert prof.by_label["my-sort"] == eng.clock.cost.sort * 8
        assert prof.by_label["my-scan"] == eng.clock.cost.scan * 8
        assert prof.total == eng.clock.time

    def test_leaves_untraced_clock_untraced(self):
        eng = MeshEngine(8)
        assert eng.clock.tracer is None
        with profiled(eng.clock):
            assert eng.clock.tracer is not None
        assert eng.clock.tracer is None

    def test_detaches_on_exception(self):
        eng = MeshEngine(8)
        with pytest.raises(RuntimeError):
            with profiled(eng.clock) as prof:
                eng.root.scan(np.arange(64), label="pre-crash")
                raise RuntimeError("boom")
        assert eng.clock.tracer is None
        # charges up to the exception are still summarized
        assert prof.by_label["pre-crash"] == eng.clock.cost.scan * 8

    def test_outer_tracer_keeps_every_charge(self):
        eng = MeshEngine(8)
        outer = Tracer(clock=eng.clock)
        eng.root.sort_by(np.arange(64), label="before")
        with profiled(eng.clock) as prof:
            assert eng.clock.tracer is outer
            eng.root.scan(np.arange(64), label="inside")
        eng.root.scan(np.arange(64), label="after")
        assert eng.clock.tracer is outer
        assert prof.by_label == {"inside": eng.clock.cost.scan * 8}
        assert outer.total_steps == eng.clock.time
        assert CostProfile.from_tracers([outer]).calls == {
            "before": 1, "inside": 1, "after": 1,
        }

    def test_outer_tracer_kept_on_exception(self):
        eng = MeshEngine(8)
        outer = Tracer(clock=eng.clock)
        with pytest.raises(ValueError):
            with profiled(eng.clock):
                eng.root.scan(np.arange(64))
                raise ValueError("boom")
        assert eng.clock.tracer is outer
        assert outer.current_path == ("run",)  # the block's span closed
        assert outer.total_steps == eng.clock.time

    def test_only_block_charges_counted(self):
        eng = MeshEngine(8)
        eng.root.sort_by(np.arange(64))
        with profiled(eng.clock) as prof:
            eng.root.scan(np.arange(64))
        assert "sort" not in prof.by_label

    def test_render_mentions_top_label(self):
        eng = MeshEngine(8)
        with profiled(eng.clock) as prof:
            eng.root.rar(np.arange(64), np.arange(64), label="visit")
        assert "visit" in prof.render()

    def test_full_algorithm_breakdown(self):
        from repro.core.hierdag import hierdag_multisearch
        from repro.core.model import QuerySet
        from repro.graphs.adapters import hierdag_search_structure
        from repro.graphs.hierarchical import build_mu_ary_search_dag

        dag, keys = build_mu_ary_search_dag(2, 10, seed=0)
        st = hierdag_search_structure(dag)
        eng = MeshEngine.for_problem(dag.size)
        qs = QuerySet.start(keys[:128].astype(np.float64), 0)
        with profiled(eng.clock) as prof:
            hierdag_multisearch(eng, st, qs, mu=2.0, c=2)
        assert prof.total == eng.clock.time
        assert prof.fraction("hierdag:") == 1.0
        assert prof.by_label.get("hierdag:bstar", 0) > 0
