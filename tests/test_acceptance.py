"""The acceptance gate: eleven criteria, one verdict line each.

Every test here prints ``[criterion N] PASS/FAIL: ...`` (collected into a
summary block at the end of the run) and then asserts.  Criteria 3 and 4
share one hundred-trial sweep via a module-scoped fixture; its wall time is
charged to criterion 3's budget.
"""
import math
import statistics
import time

import numpy as np
import pytest

from recsubgraph import (
    ErdosRenyiSpec,
    ExperimentSpec,
    FixedDegreeSpec,
    ProblemParams,
    SolverConfig,
    bounded_matching,
    build_graph,
    coverage,
    exact_opt,
    gen_erdos_renyi,
    gen_fixed_degree,
    greedy_expected_bound,
    greedy_with_stats,
    hopcroft_karp,
    partition_with_stats,
    run_experiment,
    sampling_approx_ratio,
    sampling_with_stats,
    solve,
)
from recsubgraph.cli import main
from conftest import brute_force_max_matching, record_verdict


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    record_verdict(n, line)
    assert ok, line


# -------------------------------------------------------------- criterion 1


def test_criterion_1_required_density_table(capsys):
    start = time.perf_counter()
    assert main(["bounds", "required-ck", "--target", "0.95"]) == 0
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    got = {int(row.split()[0]): float(row.split()[1]) for row in lines[1:]}
    table = {1: 3.00, 2: 4.74, 3: 7.05, 4: 10.01, 5: 13.48}
    errs = {a: abs(got[a] - want) for a, want in table.items()}
    ok = all(err <= 0.01 for err in errs.values()) and elapsed < 1.0
    with capsys.disabled():
        _verdict(
            1,
            ok,
            f"required ck for 95% at a=1..5 = "
            f"{[round(got[a], 2) for a in range(1, 6)]} "
            f"(max |err| {max(errs.values()):.4f} <= 0.01), {elapsed:.2f}s < 1s",
        )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_worst_case_ratio_floor():
    start = time.perf_counter()
    floor = 1 - 1 / math.e
    grid = [i / 100 for i in range(1, 1001)]
    vals = [sampling_approx_ratio(ck) for ck in grid]
    everywhere = all(v >= floor - 1e-12 for v in vals)
    argmin = grid[vals.index(min(vals))]
    at_one = sampling_approx_ratio(1.0)
    elapsed = time.perf_counter() - start
    ok = (
        everywhere
        and argmin == 1.0
        and abs(at_one - 0.63212) <= 1e-5
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        f"ratio >= 1-1/e everywhere on ck grid 0.01..10, minimum at "
        f"ck={argmin} with value {at_one:.5f} = 0.63212 +/- 1e-5, "
        f"{elapsed:.2f}s < 1s",
    )


# -------------------------------------------------- criteria 3 + 4 (shared)


SWEEP_L, SWEEP_R, SWEEP_D = 2500, 10000, 20
SWEEP_TRIALS = 100


@pytest.fixture(scope="module")
def hundred_trial_sweep():
    spec = ExperimentSpec(
        model="fixed-degree",
        l=SWEEP_L,
        r=SWEEP_R,
        d=SWEEP_D,
        sweep=tuple((c, 1) for c in range(1, 11)),
        algos=("sampling", "greedy"),
        trials=SWEEP_TRIALS,
        base_seed=20240819,
        measure_time=False,
    )
    start = time.perf_counter()
    rows, aggregates = run_experiment(spec)
    return rows, aggregates, time.perf_counter() - start


def test_criterion_3_sampling_expectation_and_dip(hundred_trial_sweep):
    rows, aggregates, elapsed = hundred_trial_sweep
    k = SWEEP_L / SWEEP_R
    devs = {}
    for c in range(1, 11):
        cell = [row.covered for row in rows if row.algo == "sampling" and row.c == c]
        assert len(cell) == SWEEP_TRIALS
        devs[c] = abs(statistics.fmean(cell) / SWEEP_R - (1 - math.exp(-c * k)))
    sampling_ratio = {
        agg.c: agg.mean_ratio for agg in aggregates if agg.algo == "sampling"
    }
    dip_at = min(sampling_ratio, key=sampling_ratio.get)
    ok = max(devs.values()) <= 0.02 and dip_at == 4 and elapsed < 120.0
    _verdict(
        3,
        ok,
        f"coverage law max deviation {max(devs.values()):.5f} <= 0.02 over "
        f"c=1..10 x {SWEEP_TRIALS} trials; ratio dips at c={dip_at} "
        f"(c*k=1); sweep took {elapsed:.1f}s < 120s",
    )


def test_criterion_4_greedy_dominates_sampling(hundred_trial_sweep):
    _, aggregates, _ = hundred_trial_sweep
    sampling = {agg.c: agg.mean_ratio for agg in aggregates if agg.algo == "sampling"}
    greedy = {agg.c: agg.mean_ratio for agg in aggregates if agg.algo == "greedy"}
    margins = {c: greedy[c] - sampling[c] for c in sampling}
    ok = all(margin >= 0.0 for margin in margins.values())
    _verdict(
        4,
        ok,
        f"mean greedy ratio >= mean sampling ratio at every c=1..10 "
        f"(min margin {min(margins.values()):+.4f})",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_greedy_worst_case_instance():
    start = time.perf_counter()
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    params = ProblemParams(c=1, a=1)
    config = SolverConfig(params=params, greedy_tiebreak="input-order")
    sub, _ = greedy_with_stats(g, config)
    got = coverage(g, sub, 1)
    opt = exact_opt(g, params)
    elapsed = time.perf_counter() - start
    ok = got == 1 and opt == 2 and elapsed < 1.0
    _verdict(
        5,
        ok,
        f"adversarial instance: greedy covers {got}, optimum {opt} — exactly "
        f"the 1/(a+1) worst case at a=1; {elapsed:.2f}s < 1s",
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_oracle_safety_net():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    instances = 0
    checks = 0
    greedy_floor_hits = 0
    worst = None
    while instances < 200:
        l = int(rng.integers(1, 7))
        r = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        g = gen_fixed_degree(FixedDegreeSpec(l, r, d, seed=int(rng.integers(2**31))))
        instances += 1
        for c in (1, 2):
            for a in (1, 2):
                params = ProblemParams(c=c, a=a)
                opt = exact_opt(g, params)
                for algo in ("sampling", "greedy", "partition"):
                    if algo == "partition" and a > c:
                        continue
                    cfg = SolverConfig(params=params, seed=int(rng.integers(2**31)))
                    _, report = solve(g, algo, cfg)
                    checks += 1
                    if report.covered > opt:
                        worst = (algo, c, a, report.covered, opt, g.edge_list())
                    if algo == "greedy":
                        floor = -(-opt // (a + 1))  # ceil
                        greedy_floor_hits += report.covered >= floor
                        if report.covered < floor:
                            worst = ("greedy-floor", c, a, report.covered, opt)
    elapsed = time.perf_counter() - start
    ok = worst is None and greedy_floor_hits == instances * 4 and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"{instances} tiny instances, {checks} solver runs: all coverages "
        f"<= exact optimum and greedy always >= ceil(opt/(a+1)) "
        f"(violation: {worst}); {elapsed:.1f}s < 60s",
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_7_partition_guarantee_regime():
    start = time.perf_counter()
    l, r, eps, seeds = 200, 400, 0.1, 100
    results = {}
    for a in (1, 2):
        c = 2 * a
        p = a * (math.log(l) - math.log(math.log(l))) / l
        target = (1 - eps) * min(r, l * c // a)
        hits = 0
        for seed in range(seeds):
            g = gen_erdos_renyi(ErdosRenyiSpec(l=l, r=r, p=p, seed=seed))
            cfg = SolverConfig(params=ProblemParams(c=c, a=a), seed=seed, epsilon=eps)
            sub, _ = partition_with_stats(g, cfg)
            hits += coverage(g, sub, a) >= target
        results[a] = hits
    elapsed = time.perf_counter() - start
    ok = all(hits >= 95 for hits in results.values()) and elapsed < 120.0
    _verdict(
        7,
        ok,
        f"partition reached (1-eps) of the perfect size in "
        f"{results[1]}/100 seeds at a=1 and {results[2]}/100 at a=2 "
        f"(need >= 95); {elapsed:.1f}s < 120s",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_matching_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    mismatch = None
    phase_ok = True
    for _ in range(200):
        l = int(rng.integers(1, 8))
        r = int(rng.integers(1, 8))
        mask = rng.random((l, r)) < 0.4
        us, vs = np.nonzero(mask)
        g = build_graph(l, r, list(zip(us.tolist(), vs.tolist())))
        got = hopcroft_karp(g)
        want = brute_force_max_matching(g)
        if got.size != want:
            mismatch = ("hk", g.edge_list(), got.size, want)
            break
        cap = 2 * max(1, got.size) - 1
        if bounded_matching(g, cap).size != got.size:
            mismatch = ("bounded", g.edge_list(), cap)
            break
        if got.phases > 2 * math.sqrt(l + r) + 2:
            phase_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = mismatch is None and phase_ok and elapsed < 30.0
    _verdict(
        8,
        ok,
        f"200 random graphs: layered matcher == brute force, depth-capped "
        f"variant reaches the maximum, phases <= 2*sqrt(l+r)+2 "
        f"(mismatch: {mismatch}); {elapsed:.1f}s < 30s",
    )


# -------------------------------------------------------------- criterion 9


def _greedy_bound_direct(l, r, c, a, p):
    lnq = math.log1p(-p)
    total = 0.0
    for i in range(r):
        e = (l - i * a / c - a + 1) * lnq
        total += math.exp(e) if e < 709.0 else math.inf
    raw = r - a * (l * p) ** (a - 1) * total
    return min(float(r), max(0.0, raw))


def test_criterion_9_greedy_bound_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    for _ in range(1000):
        l = int(rng.integers(2, 2001))
        r = int(rng.integers(1, 2001))
        c = int(rng.integers(1, 7))
        a = int(rng.integers(1, 7))
        p = float(rng.uniform(1.0 / l, 0.9))
        closed = greedy_expected_bound(l=l, r=r, c=c, a=a, p=p)
        direct = _greedy_bound_direct(l, r, c, a, p)
        scale = max(abs(closed), abs(direct), 1e-300)
        worst_rel = max(worst_rel, abs(closed - direct) / scale)
    # Empirical check in the lc = (1+eps) r a regime.
    l, r, c, a = 1000, 1100, 3, 2
    p = 2 * math.log(l) / l
    bound = greedy_expected_bound(l=l, r=r, c=c, a=a, p=p)
    covs = []
    for seed in range(50):
        g = gen_erdos_renyi(ErdosRenyiSpec(l=l, r=r, p=p, seed=seed))
        cfg = SolverConfig(params=ProblemParams(c=c, a=a), seed=seed)
        sub, _ = greedy_with_stats(g, cfg)
        covs.append(coverage(g, sub, a))
    mean_cov = statistics.fmean(covs)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and mean_cov >= bound and elapsed < 120.0
    _verdict(
        9,
        ok,
        f"closed form vs direct sum: worst relative gap {worst_rel:.2e} <= "
        f"1e-9 over 1000 draws; empirical greedy mean {mean_cov:.1f} >= "
        f"bound {bound:.1f} at l=1000, r=1100, c=3, a=2; {elapsed:.1f}s < 120s",
    )


# ------------------------------------------------------------- criterion 10


def test_criterion_10_cost_counters():
    start = time.perf_counter()
    cfg3 = SolverConfig(params=ProblemParams(c=3, a=1), seed=1)
    # Fixed-degree: m is exact, so doubling l doubles m exactly.
    g1 = gen_fixed_degree(FixedDegreeSpec(l=400, r=300, d=10, seed=42))
    g2 = gen_fixed_degree(FixedDegreeSpec(l=800, r=300, d=10, seed=43))
    _, s1 = sampling_with_stats(g1, cfg3)
    _, s2 = sampling_with_stats(g2, cfg3)
    _, t1 = greedy_with_stats(g1, cfg3)
    _, t2 = greedy_with_stats(g2, cfg3)
    sampling_single_pass = s1.edges_touched <= g1.m and s2.edges_touched <= g2.m
    sampling_aux_constant = s1.peak_aux == s2.peak_aux
    greedy_counter_per_source = t1.peak_aux == g1.l and t2.peak_aux == g2.l
    ratios = [s2.edges_touched / s1.edges_touched, t2.edges_touched / t1.edges_touched]
    # Erdős–Rényi: m is random, so the doubling is statistical.
    e1 = gen_erdos_renyi(ErdosRenyiSpec(l=500, r=400, p=0.02, seed=9))
    e2 = gen_erdos_renyi(ErdosRenyiSpec(l=1000, r=400, p=0.02, seed=10))
    _, es1 = sampling_with_stats(e1, cfg3)
    _, es2 = sampling_with_stats(e2, cfg3)
    ratios.append(es2.edges_touched / es1.edges_touched)
    linear = all(1.8 <= ratio <= 2.2 for ratio in ratios)
    elapsed = time.perf_counter() - start
    ok = (
        sampling_single_pass
        and sampling_aux_constant
        and greedy_counter_per_source
        and linear
        and elapsed < 60.0
    )
    _verdict(
        10,
        ok,
        f"sampling touches each edge <= once with size-independent scratch "
        f"({s1.peak_aux} == {s2.peak_aux}); greedy holds one counter per "
        f"source ({t1.peak_aux}, {t2.peak_aux}); doubling m scales touches by "
        f"{[round(x, 3) for x in ratios]} (within 2 +/- 0.2); "
        f"{elapsed:.1f}s < 60s",
    )


# ------------------------------------------------------------- criterion 11


def test_criterion_11_byte_identical_csv(tmp_path, capsys):
    args = [
        "experiment", "--model", "fixed-degree",
        "--l", str(SWEEP_L), "--r", str(SWEEP_R), "--d", str(SWEEP_D),
        "--c-min", "1", "--c-max", "10", "--a", "1",
        "--algos", "sampling,greedy", "--trials", "5", "--base-seed", "20240819",
    ]
    p1, p2, p3 = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(args + ["--no-timing", "--csv", str(p1)]) == 0
    assert main(args + ["--no-timing", "--csv", str(p2)]) == 0
    identical = p1.read_bytes() == p2.read_bytes()
    # With timing on, everything except the elapsed-ms column must still match.
    assert main(args + ["--csv", str(p3)]) == 0
    trimmed3 = [ln.rsplit(",", 1)[0] for ln in p3.read_text().splitlines()]
    trimmed1 = [ln.rsplit(",", 1)[0] for ln in p1.read_text().splitlines()]
    stable_modulo_timing = trimmed1 == trimmed3
    capsys.readouterr()
    ok = identical and stable_modulo_timing
    with capsys.disabled():
        _verdict(
            11,
            ok,
            f"same seeds, same bytes: identical CSV across reruns "
            f"({identical}); with timing enabled every column except "
            f"elapsed-ms is still identical ({stable_modulo_timing})",
        )
