"""Closed-form guarantees: pinned values, limits, and cross-checks."""
import math
from fractions import Fraction

import pytest

from recsubgraph import (
    BipartiteGraph,
    ProblemParams,
    concentration_bound,
    greedy_expected_bound,
    required_ck,
    sampling_approx_ratio,
    sampling_lower_bound,
    upper_bound_estimate,
)
from recsubgraph import bounds


# Roots of 1 - e^{-x} (1 + x + ... + x^{a-1}) = 0.95, computed independently
# by Newton iteration at 60-digit decimal precision and frozen here.
REQUIRED_CK = {
    1: 2.9957322735539909934,
    2: 4.7438645183905783758,
    3: 7.0525710212018210588,
    4: 10.012299714348643778,
    5: 13.476669626674028999,
}


# ------------------------------------------------------------- sampling E[S]


def test_sampling_lower_bound_a1_pinned():
    # a=1, ck=3, r=1000: r(1 - e^{-3+0}) = 950.2129...
    got = sampling_lower_bound(l=1000, r=1000, c=3, a=1)
    assert got == pytest.approx(1000 * (1 - math.exp(-3)), rel=1e-12)


def test_sampling_lower_bound_general_term():
    # a=2: r(1 - e^{-ck + 1/r}(1 + ck)).
    l, r, c, a = 2000, 1000, 3, 2
    ck = c * l / r
    want = r * (1 - math.exp(-ck + (a - 1) / r) * (1 + ck))
    assert sampling_lower_bound(l=l, r=r, c=c, a=a) == pytest.approx(want, rel=1e-12)


def test_sampling_lower_bound_zero_when_no_edges_expected():
    assert sampling_lower_bound(l=0, r=10, c=3, a=1) == 0.0


def test_sampling_lower_bound_clamped_nonnegative():
    # Tiny ck with a=3 makes the raw expression negative; it must clamp to 0.
    got = sampling_lower_bound(l=1, r=1000, c=1, a=3)
    assert got == 0.0


def test_sampling_lower_bound_never_above_r():
    for r in (1, 10, 1000):
        for ck_mult in (1, 5, 50):
            got = sampling_lower_bound(l=r * ck_mult, r=r, c=1, a=1)
            assert 0.0 <= got <= r


def test_sampling_lower_bound_stays_finite_for_huge_a():
    # exp(-ck + (a-1)/r) overflowed a double once (a-1)/r passed about 709.
    assert sampling_lower_bound(l=10, r=10, c=1, a=10**8) == 0.0
    # ck**(a-1) overflowed once it passed about 1e308: here 1e357, while the
    # factor exp(-1000 + 119/7) * (1 + ... + 1000**119) stays near e**-161.
    r = 7
    assert sampling_lower_bound(l=1000 * r, r=r, c=1, a=120) == pytest.approx(r, abs=1e-9)
    # A factor near e**2946, whose exponential would overflow: the bound is 0.
    assert sampling_lower_bound(l=1000, r=1, c=1, a=500) == 0.0


@pytest.mark.parametrize("x", [0.25, 1.0, 1.5, 40.0, 1e3])
@pytest.mark.parametrize("a", [1, 2, 7, 300])
def test_log_power_sum_matches_exact_arithmetic(x, a):
    exact = sum(Fraction(x) ** i for i in range(a))
    want = math.log(exact.numerator) - math.log(exact.denominator)
    assert bounds._log_power_sum(x, a) == pytest.approx(want, rel=1e-13, abs=1e-13)


# ------------------------------------------------------------- approx ratio


def test_approx_ratio_at_ck_one():
    # The global minimum: 1 - 1/e.
    assert sampling_approx_ratio(1.0) == pytest.approx(1 - 1 / math.e, abs=1e-12)


def test_approx_ratio_values():
    assert sampling_approx_ratio(3.0) == pytest.approx((1 - math.exp(-3)) / 1, abs=1e-12)
    assert sampling_approx_ratio(0.5) == pytest.approx((1 - math.exp(-0.5)) / 0.5, abs=1e-12)


def test_approx_ratio_floor_on_grid():
    lo = 1 - 1 / math.e
    ck = 0.01
    while ck <= 10.0:
        val = sampling_approx_ratio(ck)
        assert val >= lo - 1e-12, ck
        ck += 0.01


def test_approx_ratio_stays_in_its_range_down_to_the_smallest_density():
    # 1 - exp(-ck) cancels to 0 (or rounds past ck) below ck ~ 1e-16 unless
    # it is taken as -expm1(-ck); the grid starts at the smallest positive double.
    lo = 1 - 1 / math.e
    grid = [5e-324] + [m * 10.0**e for e in range(-323, 1) for m in (1, 2, 5)] + [10.0]
    for ck in grid:
        assert lo <= sampling_approx_ratio(ck) <= 1.0, ck


def test_bounds_keep_their_precision_at_tiny_density():
    # Each reference is the formula with 1 - exp(x) taken as -expm1(x).
    for ck in (1e-16, 1e-17, 5e-324):
        assert sampling_approx_ratio(ck) == pytest.approx(-math.expm1(-ck) / ck, rel=1e-15)
    assert sampling_approx_ratio(1e-17) == pytest.approx(1.0, rel=1e-15)
    # ck = 1e-17: r * (1 - exp(-ck)) is about r * ck = 1.
    got = sampling_lower_bound(l=1, r=10**17, c=1, a=1)
    assert got == pytest.approx(10**17 * -math.expm1(-1e-17), rel=1e-12)
    assert got == pytest.approx(1.0, rel=1e-12)
    # The exponent is about r * ck * (1 - ln 4) = 10 * (1 - ln 4): (e/4)^10.
    _, prob = concentration_bound(r=10**18, ck=1e-17)
    want = math.exp(10**18 * -math.expm1(-1e-17) * (1 - math.log(4)))
    assert prob == pytest.approx(want, rel=1e-12)
    assert prob == pytest.approx((math.e / 4) ** 10, rel=1e-9)


def test_approx_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        sampling_approx_ratio(0.0)


# -------------------------------------------------------------- required ck


def test_required_ck_pinned_values():
    for a, want in REQUIRED_CK.items():
        assert required_ck(a, 0.95) == pytest.approx(want, abs=1e-6)


def test_required_ck_two_decimal_table():
    # The headline table: 3.00, 4.74, 7.05, 10.01, 13.48.
    table = [3.00, 4.74, 7.05, 10.01, 13.48]
    for a, want in zip(range(1, 6), table):
        assert round(required_ck(a, 0.95), 2) == pytest.approx(want, abs=0.01)


def test_required_ck_monotone_in_a_and_target():
    prev = 0.0
    for a in range(1, 8):
        cur = required_ck(a, 0.9)
        assert cur > prev
        prev = cur
    assert required_ck(2, 0.99) > required_ck(2, 0.95) > required_ck(2, 0.5)


def test_required_ck_inverts_the_bound():
    # Plugging the root back in reproduces the target fraction.
    for a in (1, 2, 4):
        ck = required_ck(a, 0.9)
        r = 10**9  # washes out the (a-1)/r correction
        frac = sampling_lower_bound(l=r, r=r, c=ck, a=a) / r
        assert frac == pytest.approx(0.9, abs=1e-6)


def test_required_ck_brackets_up_to_1024():
    # The a=83 root is near 515, past the bracket's 512 step.
    x = required_ck(83, 0.95)
    assert abs(1.0 - math.exp(-x + bounds._log_power_sum(x, 83)) - 0.95) < 1e-10
    with pytest.raises(ValueError, match="no density up to 1024 reaches target 0.95 at a=149"):
        required_ck(149, 0.95)
    # From a = 174 the exponent leaves exp's range (at x = 128) on the way to
    # 1024: refused, not overflowed.
    with pytest.raises(ValueError, match="no density up to 1024 reaches target 0.95 at a=174"):
        required_ck(174, 0.95)


def test_required_ck_validates_target():
    with pytest.raises(ValueError):
        required_ck(1, 0.0)
    with pytest.raises(ValueError):
        required_ck(1, 1.0)
    with pytest.raises(ValueError):
        required_ck(0, 0.5)


# ------------------------------------------------------------- greedy bound


def _greedy_bound_direct(l, r, c, a, p):
    # Straightforward term-by-term evaluation of the same expression.
    q = 1.0 - p
    total = 0.0
    for i in range(r):
        total += q ** (l - i * a / c - a + 1)
    return max(0.0, min(float(r), r - a * (l * p) ** (a - 1) * total))


def test_greedy_bound_matches_direct_sum():
    cases = [
        (100, 100, 1, 1, 0.05),
        (300, 300, 2, 2, 0.02),
        (500, 400, 3, 2, 0.01),
        (50, 60, 2, 1, 0.1),
    ]
    for l, r, c, a, p in cases:
        got = greedy_expected_bound(l=l, r=r, c=c, a=a, p=p)
        want = _greedy_bound_direct(l, r, c, a, p)
        assert got == pytest.approx(want, rel=1e-9), (l, r, c, a, p)


def test_greedy_bound_requires_lp_at_least_one():
    with pytest.raises(ValueError):
        greedy_expected_bound(l=10, r=10, c=1, a=1, p=0.05)


def test_greedy_bound_refuses_p_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        greedy_expected_bound(l=10, r=10, c=2, a=1, p=1.5)


def test_greedy_bound_p_one():
    assert greedy_expected_bound(l=10, r=7, c=2, a=2, p=1.0) == 7.0
    assert greedy_expected_bound(l=2, r=7, c=2, a=3, p=1.0) == 0.0


def test_greedy_bound_improves_with_density():
    vals = [greedy_expected_bound(l=400, r=400, c=2, a=2, p=p) for p in (0.01, 0.02, 0.05)]
    assert vals[0] <= vals[1] <= vals[2]


def test_greedy_bound_clamped():
    got = greedy_expected_bound(l=10000, r=50, c=5, a=1, p=0.5)
    assert 0.0 <= got <= 50.0


# ------------------------------------------------------------ concentration


def test_concentration_threshold_and_tail():
    thr, prob = concentration_bound(r=1000, ck=3.0)
    assert thr == pytest.approx(1000 * (1 - 2 * math.exp(-3)), rel=1e-12)
    want = math.exp(1000 * (1 - math.exp(-3)) * (1 - math.log(4)))
    assert prob == pytest.approx(want, rel=1e-9)


def test_concentration_ck_ln2():
    # 1 - 2e^{-ck} = 0 exactly; tail is (e/4)^{r/2}.
    thr, prob = concentration_bound(r=100, ck=math.log(2))
    assert thr == pytest.approx(0.0, abs=1e-9)
    assert prob == pytest.approx((math.e / 4) ** 50, rel=1e-9)


def test_concentration_tail_shrinks_with_r():
    probs = [concentration_bound(r=r, ck=2.0)[1] for r in (10, 100, 1000)]
    assert probs[0] > probs[1] > probs[2]
    assert probs[2] >= 0.0


def test_concentration_underflow_is_zero():
    _, prob = concentration_bound(r=10**9, ck=5.0)
    assert prob == 0.0


def test_concentration_rejects_nonpositive_ck():
    with pytest.raises(ValueError):
        concentration_bound(r=10, ck=0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: concentration_bound(r=-10, ck=1.0),
        lambda: concentration_bound(r=10, ck=math.nan),
        lambda: sampling_lower_bound(l=10, r=10, c=math.nan, a=1),
        lambda: sampling_lower_bound(l=10, r=10, c=math.inf, a=2),
        lambda: greedy_expected_bound(l=10, r=10, c=math.nan, a=1, p=0.5),
        lambda: sampling_approx_ratio(math.nan),
        lambda: sampling_lower_bound(l=10, r=10, c=1, a=1.5),
        lambda: greedy_expected_bound(l=100, r=10, c=3, a=2.5, p=0.1),
        lambda: required_ck(1.5, 0.9),
        lambda: required_ck(True, 0.9),
        lambda: sampling_lower_bound(l=10, r=10, c="2", a=1),
        lambda: sampling_lower_bound(l=10, r=10, c=True, a=1),
        lambda: greedy_expected_bound(l=10, r=10, c=1, a=1, p=None),
        lambda: concentration_bound(r=10, ck=None),
        lambda: sampling_approx_ratio("1"),
        lambda: required_ck(2, "0.5"),
    ],
    ids=[
        "concentration-r-negative", "concentration-ck-nan", "sampling-c-nan",
        "sampling-c-inf", "greedy-c-nan", "approx-ratio-nan", "sampling-a-fractional",
        "greedy-a-fractional", "required-ck-a-fractional", "required-ck-a-bool",
        "sampling-c-string", "sampling-c-bool", "greedy-p-none", "concentration-ck-none",
        "approx-ratio-string", "required-ck-target-string",
    ],
)
def test_bounds_reject_nan_and_out_of_range_points(call):
    # Each of these once returned a plausible number or raised TypeError.
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------- upper bound cap


def test_upper_bound_budget_limited():
    g = BipartiteGraph(2, 5, [0] * 5 + [1] * 5, [*range(5), *range(5)])
    # lc/a = 2*1/1 = 2 beats the 5 reachable targets.
    assert upper_bound_estimate(g, ProblemParams(c=1, a=1)) == 2


def test_upper_bound_degree_limited():
    g = BipartiteGraph(4, 4, [0, 1, 2, 3], [0, 0, 1, 2])
    # With a=2 only v=0 has two distinct sources; budget 4*2/2=4.
    assert upper_bound_estimate(g, ProblemParams(c=2, a=2)) == 1


def test_upper_bound_counts_distinct_sources():
    g = BipartiteGraph(2, 1, [0, 0, 1], [0, 0, 0])
    assert upper_bound_estimate(g, ProblemParams(c=2, a=2)) == 1
    g2 = BipartiteGraph(1, 1, [0, 0], [0, 0])
    assert upper_bound_estimate(g2, ProblemParams(c=2, a=2)) == 0


def test_upper_bound_empty():
    g = BipartiteGraph(3, 3, [], [])
    assert upper_bound_estimate(g, ProblemParams(c=2, a=1)) == 0


@pytest.mark.parametrize(
    ("call", "name"),
    [
        (lambda: sampling_lower_bound(l=10.5, r=10.5, c=1, a=1), "l"),
        (lambda: sampling_lower_bound(l=10, r=10.0, c=1, a=1), "r"),
        (lambda: sampling_lower_bound(l=True, r=10, c=1, a=1), "l"),
        (lambda: sampling_lower_bound(l=10, r=0, c=1, a=1), "r"),
        (lambda: greedy_expected_bound(l=100.5, r=10.5, c=3, a=2, p=0.1), "l"),
        (lambda: greedy_expected_bound(l=100, r=True, c=3, a=2, p=0.1), "r"),
        (lambda: greedy_expected_bound(l=-1, r=10, c=3, a=2, p=0.1), "l"),
        (lambda: concentration_bound(r=10.5, ck=1.0), "r"),
        (lambda: concentration_bound(r=True, ck=1.0), "r"),
    ],
    ids=[
        "sampling-l-fractional", "sampling-r-float", "sampling-l-bool", "sampling-r-zero",
        "greedy-l-fractional", "greedy-r-bool", "greedy-l-negative",
        "concentration-r-fractional", "concentration-r-bool",
    ],
)
def test_bounds_reject_non_integer_side_sizes(call, name):
    # Fractional and bool side sizes once returned a number.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
        call()
