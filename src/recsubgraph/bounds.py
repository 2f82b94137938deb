"""Closed-form coverage bounds, the cheap instance upper bound and the score.

Everything here is a plain formula evaluation: expected-coverage lower bounds
for the sampling and greedy strategies, the worst-case approximation ratio of
sampling, the density needed to hit a coverage target, and a lower-tail
concentration estimate.  Exponentials with large negative exponents are
evaluated in log space so the formulas stay finite at desk-to-web scales.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .graph import (
    BipartiteGraph,
    ProblemParams,
    RecSubgraph,
    _check_int,
    _check_real,
    _valid_coverage,
)

__all__ = [
    "sampling_lower_bound",
    "sampling_approx_ratio",
    "required_ck",
    "greedy_expected_bound",
    "concentration_bound",
    "upper_bound_estimate",
]


def _check_point(l: int, r: int, c: float, a: int) -> None:
    """Reject a parameter point the formulas are not defined at.

    ``c`` may be any real number (not a ``bool``); the formulas are continuous
    in it, but ``l``, ``r`` and ``a`` must be integers.  Each test is written
    so that NaN fails it.
    """
    _check_int("l", l, 0, None, ValueError)
    _check_int("r", r, 1, None, ValueError)
    _check_real("c", c, ValueError)
    if not math.inf > c >= 1:
        raise ValueError(f"c must be finite and >= 1, got c={c}")
    _check_int("a", a, 1, None, ValueError)


def _log_power_sum(x: float, a: int) -> float:
    """``ln(1 + x + ... + x^(a-1))`` for ``x > 0``; exactly ``ln a`` at x == 1.

    The sum is factored around its largest term, so no term overflows, and
    it ends at the first term that underflows to 0.
    """
    if x == 1.0:
        return math.log(a)
    lead = 0.0
    if x > 1.0:
        lead, x = (a - 1) * math.log(x), 1.0 / x
    return lead + math.log(math.fsum(itertools.takewhile(bool, (x**i for i in range(a)))))


def sampling_lower_bound(*, l: int, r: int, c: float, a: int) -> float:
    """Expected-coverage lower bound for the sampling strategy.

    ``r * (1 - exp(-ck + (a-1)/r) * (1 + ck + ... + ck^(a-1)))``, clamped to
    ``[0, r]``.  At ``ck == 1`` the sum is the continuous extension ``a``.
    The factor is evaluated in log space, and it is at least 1 — so the bound
    is 0 — whenever ``a - 1 >= ck * r``, which needs no sum at all.
    """
    _check_point(l, r, c, a)
    ck = c * l / r
    ln_factor = -ck + (a - 1) / r
    if ck <= 0.0 or ln_factor >= 0.0:
        return 0.0
    ln_factor += _log_power_sum(ck, a)
    if ln_factor >= 0.0:
        return 0.0
    return min(float(r), r * (1.0 - math.exp(ln_factor)))


def sampling_approx_ratio(ck: float) -> float:
    """Worst-case coverage ratio of sampling at density ``ck``:
    ``(1 - exp(-ck)) / min(ck, 1)``.  Minimised at ``ck == 1`` where it equals
    ``1 - 1/e``; never below it.
    """
    _check_real("ck", ck, ValueError)
    if not ck > 0.0:
        raise ValueError(f"ck must be > 0, got {ck}")
    return (1.0 - math.exp(-ck)) / min(ck, 1.0)


def required_ck(a: int, target: float) -> float:
    """Smallest ``ck`` whose limiting coverage fraction reaches ``target``.

    Solves ``1 - exp(-x) * (1 + x + ... + x^(a-1)) = target`` (the r -> inf
    limit of :func:`sampling_lower_bound` divided by r) by bisection to
    ``|f(x)| < 1e-10``.
    """
    _check_int("a", a, 1, None, ValueError)
    _check_real("target", target, ValueError)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")

    def f(x: float) -> float:
        return 1.0 - math.exp(-x + _log_power_sum(x, a)) - target

    lo = 1e-12
    hi = 1.0
    while f(hi) < 0.0:
        if hi >= 1024.0:
            raise ValueError(f"no density up to {hi:g} reaches target {target} at a={a}")
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < 1e-10:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_expm1(x: float) -> float:
    """log(exp(x) - 1) without overflow for large x."""
    if x > 36.0:  # exp(-x) below double resolution of 1
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def greedy_expected_bound(*, l: int, r: int, c: float, a: int, p: float) -> float:
    """Expected-coverage lower bound for greedy on Erdős–Rényi inputs.

    ``r - a * (l*p)^(a-1) * sum_{i=0}^{r-1} (1-p)^(l - i*a/c - a + 1)``,
    clamped to ``[0, r]``; needs ``p`` with ``l * p >= 1``.  The geometric sum
    is evaluated in closed form in log space, so no r-term loop and no
    underflow for large ``l``.
    """
    _check_point(l, r, c, a)
    _check_real("p", p, ValueError)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if l * p < 1.0:
        raise ValueError(f"needs l * p >= 1, got l*p = {l * p}")
    if p >= 1.0:
        return float(r) if l >= a else 0.0
    lnq = math.log1p(-p)
    # sum_i q^(l - i*a/c - a + 1) = q^(l - a + 1) * (t^r - 1) / (t - 1),
    # a geometric sum with ratio t = q^(-a/c) > 1.
    ln_t = -(a / c) * lnq
    ln_geo = _log_expm1(r * ln_t) - _log_expm1(ln_t)
    ln_sub = (
        math.log(a) + (a - 1) * math.log(l * p) + (l - a + 1) * lnq + ln_geo
    )
    if ln_sub >= math.log(r):
        return 0.0
    return min(float(r), max(0.0, r - math.exp(ln_sub)))


def concentration_bound(*, r: int, ck: float) -> tuple[float, float]:
    """Lower-tail threshold and its probability estimate for sampling.

    Returns ``(r * (1 - 2*exp(-ck)), (e/4)^(r * (1 - exp(-ck))))``; the
    density ``ck = c * l / r`` may be fractional.  The probability factor is
    computed as ``exp(x * (1 - ln 4))`` and underflows to 0.0 for large
    ``r``, which is the honest answer.
    """
    _check_int("r", r, 1, None, ValueError)
    _check_real("ck", ck, ValueError)
    if not ck > 0.0:
        raise ValueError(f"needs ck > 0, got ck={ck}")
    threshold = r * (1.0 - 2.0 * math.exp(-ck))
    exponent = r * (1.0 - math.exp(-ck)) * (1.0 - math.log(4.0))
    prob = math.exp(exponent) if exponent > -745.0 else 0.0
    return threshold, prob


def upper_bound_estimate(graph: BipartiteGraph, params: ProblemParams) -> int:
    """Cheap true upper bound on coverage: budget-limited target count.

    ``min(floor(l*c/a), #targets with at least a distinct candidate sources)``.
    Distinct counting keeps it a true bound on multigraphs, where parallel
    candidates cannot stack up on one target.
    """
    budget = (graph.l * params.c) // params.a
    eligible = int(np.count_nonzero(graph.distinct_in_degrees() >= params.a))
    return int(min(budget, eligible))


def _score(
    graph: BipartiteGraph, sel: RecSubgraph, params: ProblemParams, capped=True, prefix=""
) -> tuple[int, int, float]:
    """``(covered, bound, ratio)`` of ``sel``, checked by ``_valid_coverage``
    (against ``params.c`` too unless ``capped`` is false), against the cheap
    upper bound; with a bound of 0 nothing is coverable, and the ratio is 1."""
    covered = _valid_coverage(graph, sel, params.a, params if capped else None, prefix)
    bound = upper_bound_estimate(graph, params)
    return covered, bound, 1.0 if bound == 0 else covered / bound
