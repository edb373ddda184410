"""Benchmark harness support: workload generators, the runner and its report."""

from repro.bench.workloads import (
    sphere_points,
    random_intervals,
    random_lines,
    uniform_sites,
)

__all__ = [
    "sphere_points",
    "random_intervals",
    "random_lines",
    "uniform_sites",
]
