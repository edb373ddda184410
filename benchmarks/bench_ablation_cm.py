"""Ablation — Constrained-Multisearch round budget (the ``x = log2 n``
design choice of Section 4.4).

Algorithm 2's log-phase calls CM with ``x = log2 n`` rounds.  Fewer
rounds mean more log-phases, each paying the full-mesh global ops
(sorts/routes at O(sqrt(n))); more rounds add only O(sqrt(n^delta)) per
round on the submeshes.  The sweep shows the resulting asymmetry:

* starving the budget (x = log n / 4) multiplies the phase count and the
  total cost — the Omega(log n) advancement guarantee is load-bearing;
* *raising* the budget keeps helping in this regime, because a round
  costs only n^(delta/2) << sqrt(n): rounds are effectively free until
  ``x ~ n^((1-delta)/2)`` (n^(1/4) here), far above log n at any
  feasible size.  ``x = log n`` is the smallest budget that achieves the
  Theorem 5 bound; the theorem's statement is insensitive to anything in
  [log n, n^(1/4)], and the measurement confirms both halves.

The verdict is ``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_ablation_cm.json``.
"""

import math

import numpy as np

from repro.core.alpha import run_log_phase
from repro.core.model import GraphStore, MultisearchResult, QuerySet
from repro.core.constrained import constrained_multisearch
from repro.core.model import advance_queries
from repro.graphs.broom import broom_structure, build_broom
from repro.mesh.engine import MeshEngine

M = 1024


def alpha_with_rounds(engine, structure, qs, splitting, rounds, limit=10_000):
    """Algorithm 2 with an explicit CM round budget."""
    store = GraphStore.load(engine.root, structure)
    start = engine.clock.time
    phases = 0
    while qs.active.any():
        if phases >= limit:
            raise RuntimeError("no termination")
        if phases > 0:
            advance_queries(store, structure, qs, label="logphase:step1")
        constrained_multisearch(engine, structure, qs, splitting, rounds=rounds)
        advance_queries(store, structure, qs, label="logphase:step3")
        constrained_multisearch(engine, structure, qs, splitting, rounds=rounds)
        phases += 1
    return engine.clock.time - start, phases


def run_once(scale: float) -> dict:
    br = build_broom(2, 6, 192, seed=1)
    st = broom_structure(br)
    sp = br.splitting()
    rng = np.random.default_rng(2)
    keys = rng.uniform(br.tree.leaf_keys[0], br.tree.leaf_keys[-1], M)
    eng = MeshEngine.for_problem(max(br.size, M))
    qs = QuerySet.start(keys, 0)
    log_n = math.ceil(math.log2(br.size))
    rounds = max(1, int(round(scale * log_n)))
    steps, phases = alpha_with_rounds(eng, st, qs, sp, rounds)
    return {"mesh_steps": steps, "log_phases": phases, "rounds": rounds}
