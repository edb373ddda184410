"""E8 — Section 6: multiple interval intersection search.

Counting (two Theorem 5 rank multisearches) and reporting (Theorem 7
range walk + interval-tree stabbing), vs the sequential interval tree.
Success: counting cost ~ sqrt(n); reporting cost output-sensitive
(~ sqrt(n) * (1 + k_max/log n) phase scaling); all answers verified.
E8b holds n at 1024 and sweeps the query width, so the reporting cost
is measured against the answer size.  The verdicts are
``tests/bench/test_paper_verdicts.py`` over the committed
``BENCH_e8_intervals.json`` and ``BENCH_e8b_output.json``.
"""

from repro.apps.interval_search import (
    count_intersections_mesh,
    report_intersections_mesh,
    setup_interval_search,
)
from repro.bench.workloads import random_intervals
from repro.intervals.interval_tree import brute_force_intersections
from repro.util.rng import make_rng

M = 128


def make_queries(n, width=20.0):
    rng = make_rng(7)
    a = rng.uniform(0, 1000, M)
    return a, a + rng.uniform(0.1, width, M)


def run_once(n: int, mode: str) -> dict:
    """Count or report; every answer checked against the brute force."""
    lefts, rights = random_intervals(n, seed=n, domain=1000.0)
    setup = setup_interval_search(lefts, rights)
    a, b = make_queries(n)
    if mode == "count":
        out, steps = count_intersections_mesh(setup, a, b)
    else:
        out, steps = report_intersections_mesh(setup, a, b)
    ok, total_k = True, 0
    for i in range(M):
        want = brute_force_intersections(lefts, rights, a[i], b[i])
        total_k += want.size
        if mode == "count":
            ok &= bool(out[i] == want.size)
        else:
            ok &= set(out[i].tolist()) == set(want.tolist())
    return {"mesh_steps": steps, "total_k": total_k, "correct": ok}


def output_setup(n: int, width: float) -> dict:
    """Untimed: one interval structure and the query left ends."""
    lefts, rights = random_intervals(n, seed=n, domain=1000.0)
    a = make_rng(9).uniform(0, 900, M)
    return {"lefts": lefts, "rights": rights, "a": a,
            "setup": setup_interval_search(lefts, rights)}


def output_run(ctx: dict, n: int, width: float) -> dict:
    """Timed: report every interval meeting ``[a, a + width]``; every 16th
    query's answer is checked against the brute force."""
    a = ctx["a"]
    b = a + width
    reports, steps = report_intersections_mesh(ctx["setup"], a, b)
    ok = all(
        set(reports[i].tolist())
        == set(brute_force_intersections(ctx["lefts"], ctx["rights"], a[i], b[i]).tolist())
        for i in range(0, M, 16)
    )
    return {
        "mesh_steps": steps,
        "total_k": int(sum(r.size for r in reports)),
        "correct": ok,
    }
