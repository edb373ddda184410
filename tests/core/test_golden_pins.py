"""Golden digests of the E1/E2 multisearch paths and the served apps.

Each multisearch digest covers a finished query set (``current``,
``state``, ``steps``, every ``trace`` snapshot) and the engine clock's
total charge; each app digest covers the answers and the mesh steps of
:func:`locate_on_structure` and :func:`line_queries_on_structure`.  Every
:class:`ConstrainedStats` field of the E2 calls and of the traced alpha
run's calls is pinned as a plain value.  The values were recorded once
and must never change: how the host executes a primitive is free to
change, what it computes and charges is not.
Every case runs twice on one structure, so the second run exercises
whatever the engine caches on a structure after first use.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.interval_search import (
    _tree_splitting,
    count_on_structures,
    setup_interval_search,
)
from repro.apps.linepoly import line_polyhedron_queries
from repro.apps.pointloc import locate_on_structure
from repro.bench.workloads import random_lines, sphere_points
from repro.core import alpha as alpha_module
from repro.core.alpha import alpha_multisearch
from repro.core.constrained import constrained_multisearch
from repro.core.hierdag import hierdag_multisearch
from repro.core.model import QuerySet
from repro.core.splitters import splitting_from_labels
from repro.geometry.dk3d import build_dk_hierarchy
from repro.geometry.kirkpatrick import build_kirkpatrick, kirkpatrick_structure
from repro.graphs.adapters import (
    hierdag_search_structure,
    ktree_directed_structure,
    ktree_rank_structure,
)
from repro.graphs.hierarchical import build_mu_ary_search_dag
from repro.graphs.ktree import build_balanced_search_tree
from repro.mesh.engine import MeshEngine
from repro.mesh.topology import MeshShape


def digest(qs: QuerySet, clock_time: float) -> str:
    h = hashlib.sha256()
    for arr in (qs.current, qs.state, qs.steps, *qs.trace):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(float(clock_time).hex().encode())
    return h.hexdigest()[:16]


E1_GRID = [(h, s, m) for h in (4, 5, 6, 7) for s in (0, 1, 2**31 - 1) for m in (16, 57, 96)]
E2_GRID = [(h, s, k) for h in (4, 5, 6, 7) for s in (0, 1, 2**31 - 1) for k in (0.0, 0.5, 1.0)]

# (untraced, traced) digests per grid point
E1_PINS = {
    (4, 0, 16): ("aa03ab9150ced009", "f8d48fd99162e4ec"),
    (4, 0, 57): ("615ea9e42a0c6c25", "950c8b2ddb3ef620"),
    (4, 0, 96): ("5ee1652bb30688a9", "d0742b451d3edd1d"),
    (4, 1, 16): ("aa03ab9150ced009", "e45f673517d203b3"),
    (4, 1, 57): ("615ea9e42a0c6c25", "6b5b2c58e5dec706"),
    (4, 1, 96): ("5ee1652bb30688a9", "6a1f6bcd7d2a1348"),
    (4, 2147483647, 16): ("aa03ab9150ced009", "342972b44bee073c"),
    (4, 2147483647, 57): ("615ea9e42a0c6c25", "8ac8c59ceb483cc3"),
    (4, 2147483647, 96): ("5ee1652bb30688a9", "9077a5184aaa1e88"),
    (5, 0, 16): ("cacb327a6b6518de", "31c713dd167ce325"),
    (5, 0, 57): ("2bbd50d3700151ec", "d8f3e8811e401cad"),
    (5, 0, 96): ("31ca8576331c7aed", "aa1096a0b1e7461e"),
    (5, 1, 16): ("cacb327a6b6518de", "547c657aa43c11d6"),
    (5, 1, 57): ("2bbd50d3700151ec", "de1f528b6915e794"),
    (5, 1, 96): ("31ca8576331c7aed", "f8f161fc9816d79d"),
    (5, 2147483647, 16): ("cacb327a6b6518de", "ff048356eb4d5f49"),
    (5, 2147483647, 57): ("2bbd50d3700151ec", "6e7b3dc79edfec6d"),
    (5, 2147483647, 96): ("31ca8576331c7aed", "d867b1045876610b"),
    (6, 0, 16): ("da6dbfb7ff326771", "0b976efd20f7b3eb"),
    (6, 0, 57): ("6cb6b1f42c972e0c", "e343da50a707c68e"),
    (6, 0, 96): ("884ecf9b1b544a04", "1b2bc585630a7d88"),
    (6, 1, 16): ("da6dbfb7ff326771", "6b619fe2b7cd8281"),
    (6, 1, 57): ("6cb6b1f42c972e0c", "09c32d6edec23f52"),
    (6, 1, 96): ("884ecf9b1b544a04", "911afb46e0f565d8"),
    (6, 2147483647, 16): ("da6dbfb7ff326771", "96016c066e9c0ba8"),
    (6, 2147483647, 57): ("6cb6b1f42c972e0c", "c2a411272c557bb8"),
    (6, 2147483647, 96): ("884ecf9b1b544a04", "5a276e78647912d0"),
    (7, 0, 16): ("4bac3108132fbb55", "0b069ed41a35c414"),
    (7, 0, 57): ("3ab00462b96d1a21", "9bfaa16302d64272"),
    (7, 0, 96): ("bc10b96f2d8fc32e", "9b9d51b8dcef3855"),
    (7, 1, 16): ("4bac3108132fbb55", "e0948191b875d803"),
    (7, 1, 57): ("3ab00462b96d1a21", "ff712ee3dd7e8ec0"),
    (7, 1, 96): ("bc10b96f2d8fc32e", "9f925a7bce9823ef"),
    (7, 2147483647, 16): ("4bac3108132fbb55", "76e2ce6ac23c0719"),
    (7, 2147483647, 57): ("3ab00462b96d1a21", "55cfc48e8e4182c1"),
    (7, 2147483647, 96): ("bc10b96f2d8fc32e", "245ebccf720bcb2c"),
}
E2_PINS = {
    (4, 0, 0.0): ("ab55176162360b20:ebdc3b76", "bfd5d5c05fa9bf45:ebdc3b76"),
    (4, 0, 0.5): ("67506630c7c52963:f5b6e9dd", "1ff8b640f1f4d6c3:f5b6e9dd"),
    (4, 0, 1.0): ("46225f06a3eeb292:2fa34f0e", "6ec46844076ab52b:2fa34f0e"),
    (4, 1, 0.0): ("ecd53641d5bed15b:6940b629", "3e3e921b22706ad7:6940b629"),
    (4, 1, 0.5): ("476eb21bf0580c65:1e886150", "2fdd0d09ff67c5f3:1e886150"),
    (4, 1, 1.0): ("84219cfe5cd4c3c0:2fa34f0e", "ed616bc8e99a105a:2fa34f0e"),
    (4, 2147483647, 0.0): ("64024cad2285b5c4:ebdc3b76", "dd5e4f2cb89c7c51:ebdc3b76"),
    (4, 2147483647, 0.5): ("85ac38387af568b3:15929e15", "73583c4f2028997e:15929e15"),
    (4, 2147483647, 1.0): ("62965e2f7973f9bb:2fa34f0e", "2540c05a9e3ae3d9:2fa34f0e"),
    (5, 0, 0.0): ("235bd09d2e65c12b:18ba5504", "397de93a422885a9:18ba5504"),
    (5, 0, 0.5): ("7bef0f74f4488f9e:09a5af8e", "6294038003431213:09a5af8e"),
    (5, 0, 1.0): ("8d203269e6b8d571:be9d0bfd", "6f9cd4eab2b7ebe5:be9d0bfd"),
    (5, 1, 0.0): ("02b490b10a36d27f:25f25054", "88000c1ac8f1ea36:25f25054"),
    (5, 1, 0.5): ("644db5bcef06c136:09a5af8e", "8a5394df7697f0ca:09a5af8e"),
    (5, 1, 1.0): ("44b8fa1821a75806:be9d0bfd", "93fc3be7a239b69b:be9d0bfd"),
    (5, 2147483647, 0.0): ("aa3863a8dddc3a6a:8f3bc588", "48cb36e911dcf8ac:8f3bc588"),
    (5, 2147483647, 0.5): ("5a2910bd66751e18:09a5af8e", "716a7c24fae91fef:09a5af8e"),
    (5, 2147483647, 1.0): ("7a4422b142adf622:be9d0bfd", "6dd3590244c92a68:be9d0bfd"),
    (6, 0, 0.0): ("cadf489be8c13951:a8a86e58", "800971621412cf1a:a8a86e58"),
    (6, 0, 0.5): ("4164e27f0628a860:f987fe67", "dca8e73170c9f454:f987fe67"),
    (6, 0, 1.0): ("d5c542fa260185e2:d409be41", "344c04f60ffed0e8:d409be41"),
    (6, 1, 0.0): ("cee479e0ce44719d:b37a90d4", "15c5d6bd232e4e8c:b37a90d4"),
    (6, 1, 0.5): ("93cd68831ce6201f:a77c8346", "f87646fa63e26911:a77c8346"),
    (6, 1, 1.0): ("9c98a74532e18d92:d409be41", "6e64ef3397b1af23:d409be41"),
    (6, 2147483647, 0.0): ("b60acbb87986290f:5a4fe9f6", "68326849544faffd:5a4fe9f6"),
    (6, 2147483647, 0.5): ("5fb808b7718379fe:b0dd03d4", "7b2ecaaf5be87ec2:b0dd03d4"),
    (6, 2147483647, 1.0): ("d51b0c9b535dd804:d409be41", "c1fdb9e10889495d:d409be41"),
    (7, 0, 0.0): ("8ebe4a598976f333:331cfc39", "e85f545471c5357f:331cfc39"),
    (7, 0, 0.5): ("fd3ff297e2c33fa8:13b72cb0", "691c537e02c13bec:13b72cb0"),
    (7, 0, 1.0): ("22cc938b0c7c9375:46d9d566", "30df720d70489210:46d9d566"),
    (7, 1, 0.0): ("e1188218c713d5ac:451c49f7", "3e74c1aaa518a235:451c49f7"),
    (7, 1, 0.5): ("cb06ebf243582939:52fcc1fb", "64e89585bb9e0667:52fcc1fb"),
    (7, 1, 1.0): ("ad739ea885d7c771:46d9d566", "0994397394a47b6d:46d9d566"),
    (7, 2147483647, 0.0): ("657228630d26ca97:8ef8313b", "cacf1aa3c0476349:8ef8313b"),
    (7, 2147483647, 0.5): ("2380b4c803d42cdb:f4bc1329", "8430c3e2f0437b58:f4bc1329"),
    (7, 2147483647, 1.0): ("7979ec1ed3a6ab2d:46d9d566", "366ad7394495edab:46d9d566"),
}
#: every ConstrainedStats field of each E2 grid point's call (the same on
#: all four runs): (marked, copies_created, rounds, max_queries_per_copy,
#: max_copies_per_submesh, advanced_total, steps_histogram)
E2_STATS_PINS = {
    (4, 0, 0.0): (64, 10, 6, 8, 3, 128, {2: 64}),
    (4, 0, 0.5): (64, 10, 6, 8, 3, 101, {1: 27, 2: 37}),
    (4, 0, 1.0): (64, 8, 6, 8, 2, 64, {1: 64}),
    (4, 1, 0.0): (64, 9, 6, 8, 3, 128, {2: 64}),
    (4, 1, 0.5): (64, 10, 6, 8, 3, 93, {1: 35, 2: 29}),
    (4, 1, 1.0): (64, 8, 6, 8, 2, 64, {1: 64}),
    (4, 2147483647, 0.0): (64, 10, 6, 8, 3, 128, {2: 64}),
    (4, 2147483647, 0.5): (64, 11, 6, 8, 3, 95, {1: 33, 2: 31}),
    (4, 2147483647, 1.0): (64, 8, 6, 8, 2, 64, {1: 64}),
    (5, 0, 0.0): (64, 10, 7, 12, 2, 128, {2: 64}),
    (5, 0, 0.5): (64, 11, 7, 12, 2, 128, {2: 64}),
    (5, 0, 1.0): (64, 6, 7, 12, 1, 128, {2: 64}),
    (5, 1, 0.0): (64, 9, 7, 12, 1, 128, {2: 64}),
    (5, 1, 0.5): (64, 11, 7, 12, 2, 128, {2: 64}),
    (5, 1, 1.0): (64, 6, 7, 12, 1, 128, {2: 64}),
    (5, 2147483647, 0.0): (64, 8, 7, 11, 1, 128, {2: 64}),
    (5, 2147483647, 0.5): (64, 11, 7, 12, 2, 128, {2: 64}),
    (5, 2147483647, 1.0): (64, 6, 7, 12, 1, 128, {2: 64}),
    (6, 0, 0.0): (64, 8, 8, 15, 1, 192, {3: 64}),
    (6, 0, 0.5): (64, 10, 8, 16, 1, 165, {2: 27, 3: 37}),
    (6, 0, 1.0): (64, 4, 8, 16, 1, 128, {2: 64}),
    (6, 1, 0.0): (64, 8, 8, 13, 1, 192, {3: 64}),
    (6, 1, 0.5): (64, 11, 8, 16, 1, 157, {2: 35, 3: 29}),
    (6, 1, 1.0): (64, 4, 8, 16, 1, 128, {2: 64}),
    (6, 2147483647, 0.0): (64, 8, 8, 11, 1, 192, {3: 64}),
    (6, 2147483647, 0.5): (64, 11, 8, 16, 1, 159, {2: 33, 3: 31}),
    (6, 2147483647, 1.0): (64, 4, 8, 16, 1, 128, {2: 64}),
    (7, 0, 0.0): (64, 16, 9, 9, 1, 192, {3: 64}),
    (7, 0, 0.5): (64, 17, 9, 23, 2, 192, {3: 64}),
    (7, 0, 1.0): (64, 3, 9, 23, 1, 192, {3: 64}),
    (7, 1, 0.0): (64, 15, 9, 7, 1, 192, {3: 64}),
    (7, 1, 0.5): (64, 14, 9, 23, 1, 192, {3: 64}),
    (7, 1, 1.0): (64, 3, 9, 23, 1, 192, {3: 64}),
    (7, 2147483647, 0.0): (64, 16, 9, 7, 1, 192, {3: 64}),
    (7, 2147483647, 0.5): (64, 15, 9, 23, 1, 192, {3: 64}),
    (7, 2147483647, 1.0): (64, 3, 9, 23, 1, 192, {3: 64}),
}
#: the same fields for each Constrained-Multisearch call of the traced
#: alpha run in :func:`traced_cm_digests`, in call order
TRACED_CM_STATS_PINS = [
    (40, 1, 11, 40, 1, 160, {4: 40}),
    (40, 17, 11, 6, 1, 160, {4: 40}),
    (0, 0, 11, 0, 0, 0, {}),
    (0, 0, 11, 0, 0, 0, {}),
]
TRACED_CM_PIN = "9d75f960baa8ee1b:fd3bf6ba:0x1.d8f0000000000p+13"
TRACED_HIERDAG_PIN = "3d3230a196355010:74a69e23:0x1.c600000000000p+11"

POINTLOC_KINDS = ("random", "vertex", "edge", "outside")
POINTLOC_M = (1, 3, 64)
# (answers digest, mesh steps) per (row kind, m)
POINTLOC_PINS = {
    ("random", 1): ("483deb0e76f45725", "0x1.1b68000000000p+14"),
    ("random", 3): ("efe6e239af857bd4", "0x1.1b68000000000p+14"),
    ("random", 64): ("6ecd48d947b09ba8", "0x1.1b68000000000p+14"),
    ("vertex", 1): ("cc151cea205a8433", "0x1.1b68000000000p+14"),
    ("vertex", 3): ("86fd69398cc74a39", "0x1.1b68000000000p+14"),
    ("vertex", 64): ("76bb9e6763f185dd", "0x1.1b68000000000p+14"),
    ("edge", 1): ("076b8f5c80d4733a", "0x1.1b68000000000p+14"),
    ("edge", 3): ("1d2f465f7e4d2769", "0x1.1b68000000000p+14"),
    ("edge", 64): ("477618cf6abb83b2", "0x1.1b68000000000p+14"),
    ("outside", 1): ("12a3ae445661ce5d", "0x1.1b68000000000p+14"),
    ("outside", 3): ("44a5f7891570e563", "0x1.1b68000000000p+14"),
    ("outside", 64): ("9f56cda75fefeab9", "0x1.1b68000000000p+14"),
}
LINEPOLY_PIN = "f368714e9a7c844a:0x1.50d0000000000p+12:56"


def e1_digests(height, seed, m):
    """Untraced then traced digests, each run twice on one structure."""
    dag, leaf_keys = build_mu_ary_search_dag(2, height, seed=1)
    structure = hierdag_search_structure(dag)
    keys = np.random.default_rng(seed).uniform(leaf_keys[0], leaf_keys[-1], m)
    out = []
    for record_trace in (False, False, True, True):
        eng = MeshEngine.for_problem(max(int(dag.size), m))
        qs = QuerySet.start(keys, 0, record_trace=record_trace)
        hierdag_multisearch(eng, structure, qs, mu=2.0, c=2)
        out.append(digest(qs, eng.clock.time))
    return out


def e2_runs(height, seed, skew):
    """Untraced then traced Constrained-Multisearch calls, each run twice
    on one structure: ``(query set, clock total, stats)`` per run."""
    tree = build_balanced_search_tree(2, height, seed=1)
    structure = ktree_directed_structure(tree)
    splitting = splitting_from_labels(tree.alpha_splitter().comp, tree.children, 0.5)
    rng = np.random.default_rng(seed)
    m = 64
    keys = rng.uniform(tree.leaf_keys[0], tree.leaf_keys[-1], m)
    cut = max(1, (tree.height + 1) // 2)
    roots = np.flatnonzero(tree.depth == cut)
    starts = np.zeros(m, dtype=np.int64)
    spread = rng.random(m) >= skew
    starts[spread] = roots[rng.integers(0, roots.size, m)][spread]
    keys[spread] = tree.subtree_lo[starts[spread]] + 1e-9
    out = []
    for record_trace in (False, False, True, True):
        eng = MeshEngine.for_problem(max(int(tree.size), m))
        qs = QuerySet.start(keys, starts.copy(), record_trace=record_trace)
        stats = constrained_multisearch(eng, structure, qs, splitting)
        out.append((qs, eng.clock.time, stats))
    return out


def e2_digests(height, seed, skew):
    """Untraced then traced digests (with the call's stats), each run twice on one structure."""
    out = []
    for qs, clock_time, stats in e2_runs(height, seed, skew):
        facts = (
            stats.copies_created,
            stats.max_queries_per_copy,
            stats.advanced_total,
            sorted(stats.steps_histogram.items()),
        )
        out.append(
            digest(qs, clock_time)
            + ":"
            + hashlib.sha256(repr(facts).encode()).hexdigest()[:8]
        )
    return out


def stats_fields(stats):
    """The pinned ConstrainedStats fields, after checking that
    ``advanced_total`` is the step total its histogram records."""
    assert stats.advanced_total == sum(k * c for k, c in stats.steps_histogram.items())
    return (
        stats.marked,
        stats.copies_created,
        stats.rounds,
        stats.max_queries_per_copy,
        stats.max_copies_per_submesh,
        stats.advanced_total,
        stats.steps_histogram,
    )


def interval_case():
    rng = np.random.default_rng(5)
    lefts = rng.uniform(0, 100, 300)
    rights = lefts + rng.uniform(0, 10, 300)
    setup = setup_interval_search(lefts, rights, k=2)
    st_l = ktree_rank_structure(setup.tree_lefts, strict=False)
    st_r = ktree_rank_structure(setup.tree_rights, strict=True)
    sp_l = _tree_splitting(setup.tree_lefts)
    sp_r = _tree_splitting(setup.tree_rights)
    a = rng.uniform(0, 100, 40)
    b = a + rng.uniform(0, 15, 40)
    return st_l, st_r, sp_l, sp_r, a, b


def traced_cm_digests():
    """``record_trace`` Constrained-Multisearch (via alpha) on the rank
    structure :func:`count_on_structures` searches, plus its counts."""
    st_l, st_r, sp_l, sp_r, a, b = interval_case()
    out = []
    for _ in range(2):
        eng = MeshEngine(MeshShape.for_size(max(st_l.size, st_r.size, a.size)).side)
        qs = QuerySet.start(b, 0, state_width=1, record_trace=True)
        alpha_multisearch(eng, st_l, qs, sp_l)
        counts, steps = count_on_structures(st_l, st_r, sp_l, sp_r, a, b)
        out.append(
            digest(qs, eng.clock.time)
            + ":"
            + hashlib.sha256(counts.tobytes()).hexdigest()[:8]
            + f":{float(steps).hex()}"
        )
    return out


def traced_hierdag_digests():
    """``record_trace`` Algorithm 1 on a Kirkpatrick DAG (the
    :func:`locate_on_structure` path), plus that function's answers."""
    rng = np.random.default_rng(3)
    hier = build_kirkpatrick(rng.uniform(0, 1, (60, 2)), seed=0)
    structure, mu = kirkpatrick_structure(hier)
    queries = rng.uniform(0.1, 0.9, (50, 2))
    out = []
    for _ in range(2):
        eng = MeshEngine(MeshShape.for_size(max(structure.size, 50)).side)
        qs = QuerySet.start(queries, 0, record_trace=True)
        hierdag_multisearch(eng, structure, qs, mu=mu, c=2)
        tri, steps = locate_on_structure(structure, mu, queries)
        out.append(
            digest(qs, eng.clock.time)
            + ":"
            + hashlib.sha256(tri.tobytes()).hexdigest()[:8]
            + f":{float(steps).hex()}"
        )
    return out


@pytest.fixture(scope="module")
def pointloc_case():
    """A 1024-site Kirkpatrick DAG (the serving benchmark's size) and
    64 rows of each kind: uniform, on a site, on a base-edge midpoint,
    and outside the bounding triangle."""
    rng = np.random.default_rng(11)
    sites = rng.random((1024, 2))
    hier = build_kirkpatrick(sites, seed=0)
    structure, mu = kirkpatrick_structure(hier)
    tris = hier.base_triangles[rng.permutation(hier.base_triangles.shape[0])[:64]]
    a, b = hier.points[tris[:, 0]], hier.points[tris[:, 1]]
    far = rng.uniform(-1.0, 1.0, (64, 2))
    rows = {
        "random": rng.random((64, 2)),
        "vertex": sites[rng.permutation(1024)[:64]],
        "edge": (a + b) / 2,
        "outside": 1e3 * far / np.abs(far).max(axis=1, keepdims=True),
    }
    return structure, mu, rows


def pointloc_digests(case, kind, m):
    """Answers and steps of ``m`` rows of one kind, twice on one structure."""
    structure, mu, rows = case
    out = []
    for _ in range(2):
        tri, steps = locate_on_structure(structure, mu, rows[kind][:m])
        tri_digest = hashlib.sha256(tri.tobytes()).hexdigest()[:16]
        out.append((tri_digest, float(steps).hex()))
    return out


def linepoly_digest():
    """Every output of one E6 point (n=128, m=256 lines)."""
    hier = build_dk_hierarchy(sphere_points(128, seed=128), seed=1)
    p0, d = random_lines(256, seed=2)
    run = line_polyhedron_queries(hier, p0, d)
    h = hashlib.sha256()
    for arr in (run.intersects, run.tangent_left, run.tangent_right, run.planes):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return f"{h.hexdigest()[:16]}:{float(run.mesh_steps).hex()}:{run.improved}"


@pytest.mark.parametrize("m", POINTLOC_M)
@pytest.mark.parametrize("kind", POINTLOC_KINDS)
def test_pointloc_pinned(pointloc_case, kind, m):
    assert pointloc_digests(pointloc_case, kind, m) == [POINTLOC_PINS[kind, m]] * 2


def test_linepoly_pinned():
    assert linepoly_digest() == LINEPOLY_PIN


@pytest.mark.parametrize("height,seed,m", E1_GRID)
def test_e1_hierdag_pinned(height, seed, m):
    untraced, traced = E1_PINS[height, seed, m]
    assert e1_digests(height, seed, m) == [untraced] * 2 + [traced] * 2


@pytest.mark.parametrize("height,seed,skew", E2_GRID)
def test_e2_constrained_pinned(height, seed, skew):
    untraced, traced = E2_PINS[height, seed, skew]
    assert e2_digests(height, seed, skew) == [untraced] * 2 + [traced] * 2


def test_traced_constrained_pinned():
    assert traced_cm_digests() == [TRACED_CM_PIN] * 2


@pytest.mark.parametrize("height,seed,skew", E2_GRID)
def test_e2_constrained_stats_pinned(height, seed, skew):
    got = [stats_fields(stats) for _, _, stats in e2_runs(height, seed, skew)]
    assert got == [E2_STATS_PINS[height, seed, skew]] * 4


def test_traced_constrained_stats_pinned(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        stats = constrained_multisearch(*args, **kwargs)
        calls.append(stats_fields(stats))
        return stats

    monkeypatch.setattr(alpha_module, "constrained_multisearch", recording)
    st_l, st_r, sp_l, sp_r, a, b = interval_case()
    eng = MeshEngine(MeshShape.for_size(max(st_l.size, st_r.size, a.size)).side)
    qs = QuerySet.start(b, 0, state_width=1, record_trace=True)
    alpha_multisearch(eng, st_l, qs, sp_l)
    assert calls == TRACED_CM_STATS_PINS


def test_traced_hierdag_pinned():
    assert traced_hierdag_digests() == [TRACED_HIERDAG_PIN] * 2
