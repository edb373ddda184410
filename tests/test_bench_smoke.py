"""Tier-2 smoke check: every registered bench runs under the parallel runner.

Each bench's *smallest* sweep point is measured once; the runner exits
non-zero if any point errors.  The whole sweep stays well under a minute
on a few cores.

Deselected from the default (tier-1) run by the ``smoke`` marker; run it
with::

    PYTHONPATH=src python -m pytest -m smoke -q
"""

import os

import pytest

from repro.bench.runner import main


@pytest.mark.smoke
def test_all_benches_smoke():
    jobs = max(1, (os.cpu_count() or 2) - 1)
    assert main(["--all", "--smoke", "--jobs", str(jobs), "--no-write"]) == 0
