"""Shared utilities: deterministic RNG, iterated-logarithm machinery, records,
and the start path of spawned child processes (:mod:`repro.util.child`)."""

from repro.util.mathx import (
    ilog,
    iterated_log,
    log_star,
    next_pow,
    is_perfect_square,
    isqrt_exact,
)
from repro.util.rng import make_rng

__all__ = [
    "ilog",
    "iterated_log",
    "log_star",
    "next_pow",
    "is_perfect_square",
    "isqrt_exact",
    "make_rng",
]
