"""The modelled construction layer (repro.mesh.construct).

Three properties gate the tentpole:

* **determinism** — modelled construction steps are a pure function of
  the input: repeated builds with the same seed charge the identical
  step total *and* the identical (label, steps) sequence;
* **span accounting** — with a tracer attached, the span tree sums
  exactly to ``clock.time``, parallel folds included;
* **output equivalence** — a builder's outputs are byte-identical
  whether or not a construction/tracer/paranoid engine is attached: the
  charges are bookkeeping, never data flow.

Plus the E11 span gate: every converted builder charges nonzero modelled
steps under its named span.
"""

import numpy as np
import pytest

from repro.bench.workloads import random_intervals, sphere_points
from repro.geometry.dk3d import build_dk_hierarchy, dk_support_structure
from repro.geometry.hull3d import convex_hull_3d
from repro.geometry.kirkpatrick import build_kirkpatrick, kirkpatrick_structure
from repro.geometry.subdivision import merged_face_subdivision
from repro.geometry.triangulate import ear_clip
from repro.intervals.interval_tree import IntervalTree
from repro.intervals.structure import build_interval_structure
from repro.mesh.construct import CONSTRUCT_LABELS, Construction
from repro.mesh.trace import Tracer
from tests.conftest import RecordingTracer


def _kirk_points(n=80, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n, 2))


def _build_kirk(construct):
    hier = build_kirkpatrick(_kirk_points(), seed=3, construct=construct)
    st, mu = kirkpatrick_structure(hier, construct=construct)
    return hier, st, mu


def _build_dk(construct):
    pts = sphere_points(120, seed=5)
    hier = build_dk_hierarchy(pts, seed=2, construct=construct)
    st, orig = dk_support_structure(hier, construct=construct)
    return hier, st, orig


class TestDeterminism:
    @pytest.mark.parametrize("build", [_build_kirk, _build_dk],
                             ids=["kirkpatrick", "dk3d"])
    def test_steps_and_charges_repeat(self, build):
        runs = []
        for _ in range(2):
            c = Construction(128)
            tracer = RecordingTracer(clock=c.clock)
            build(c)
            runs.append((c.steps, tracer.charges))
        assert runs[0][1], "the tracer must actually record the charges"
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]  # same charges, same order, same labels
        assert runs[0][0] > 0

    def test_charge_labels_are_construct_namespaced(self):
        c = Construction(128)
        tracer = RecordingTracer(clock=c.clock)
        _build_kirk(c)
        labels = {label for label, _ in tracer.charges}
        assert labels <= set(CONSTRUCT_LABELS)
        assert "construct:sort" in labels
        assert "construct:independent-set" in labels


class TestSpanAccounting:
    @pytest.mark.parametrize("build", [_build_kirk, _build_dk],
                             ids=["kirkpatrick", "dk3d"])
    def test_spans_sum_exactly_to_clock(self, build):
        c = Construction(128)
        tracer = Tracer(clock=c.clock)
        build(c)
        assert tracer.total_steps == c.clock.time


def _all_outputs():
    """Every converted builder's outputs, with default constructions."""
    hier, st, mu = _build_kirk(Construction(128))
    out = [lv.triangles for lv in hier.levels] + [st.adjacency, st.payload, mu]
    dkh, dks, orig = _build_dk(Construction(128))
    out += [h.faces for h in dkh.hulls] + [dks.adjacency, orig]
    hull = convex_hull_3d(sphere_points(90, seed=11))
    out += [hull.faces, hull.normals]
    sub = merged_face_subdivision(hier, seed=4)
    out += [sub.face_of_triangle]
    ang = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    poly = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    out += [ear_clip(poly)]
    lo, hi = random_intervals(64, seed=9)
    ist = build_interval_structure(IntervalTree(lo, hi))
    out += [ist.structure.adjacency, ist.structure.payload,
            ist.splitting1.comp, ist.splitting2.comp]
    return out


class TestOutputEquivalence:
    def test_outputs_independent_of_metadata_modes(self, monkeypatch):
        plain = _all_outputs()
        # tracing on, paranoid on: only span/step metadata may change
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_PARANOID", "1")
        from repro.mesh.trace import drain_traced_tracers

        traced_out = _all_outputs()
        drain_traced_tracers()
        assert len(plain) == len(traced_out)
        for a, b in zip(plain, traced_out):
            np.testing.assert_array_equal(a, b)


class TestEveryBuilderCharges:
    def test_kirkpatrick(self):
        c = Construction(128)
        build_kirkpatrick(_kirk_points(), seed=3, construct=c)
        assert c.steps > 0

    def test_kirkpatrick_structure(self):
        hier = build_kirkpatrick(_kirk_points(), seed=3)
        c = Construction(128)
        kirkpatrick_structure(hier, construct=c)
        assert c.steps > 0

    def test_dk3d(self):
        c = Construction(128)
        build_dk_hierarchy(sphere_points(96, seed=5), seed=2, construct=c)
        assert c.steps > 0

    def test_hull3d(self):
        c = Construction(96)
        convex_hull_3d(sphere_points(96, seed=11), construct=c)
        assert c.steps > 0

    def test_subdivision(self):
        hier = build_kirkpatrick(_kirk_points(48), seed=3)
        c = Construction(128)
        merged_face_subdivision(hier, seed=4, construct=c)
        assert c.steps > 0

    def test_triangulate(self):
        ang = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        poly = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        c = Construction(16)
        ear_clip(poly, construct=c)
        assert c.steps > 0

    def test_interval_structure(self):
        lo, hi = random_intervals(64, seed=9)
        c = Construction(256)
        build_interval_structure(IntervalTree(lo, hi), construct=c)
        assert c.steps > 0

    def test_submesh_sizing_caps_at_engine(self):
        c = Construction(64)
        assert c.region(10_000).side == c.engine.side
        assert c.region(1).side == 1
        assert c.region(None) is c.engine.root
