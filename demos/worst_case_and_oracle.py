"""Greedy's worst case, and how the exact oracle keeps heuristics honest.

The two-source instance below makes greedy commit its only flexible source
to a target the other source could have finished, halving the optimum — the
textbook 1/(a+1) worst case.  The second half cross-checks all three
strategies against the exhaustive flow-based optimum on a batch of tiny
random instances.
"""
import numpy as np

from recsubgraph import (
    FixedDegreeSpec,
    ProblemParams,
    SolverConfig,
    build_graph,
    coverage,
    exact_opt,
    gen_fixed_degree,
    greedy_with_stats,
    solve,
)


def main():
    # Source 0 reaches both targets, source 1 only the first.  Greedy meets
    # target 0 first and spends source 0 on it; target 1 is then unreachable.
    g = build_graph(2, 2, [(0, 0), (0, 1), (1, 0)])
    params = ProblemParams(c=1, a=1)
    sub, _ = greedy_with_stats(
        g, SolverConfig(params=params, greedy_tiebreak="input-order")
    )
    print("adversarial instance, c=1, a=1")
    print(f"  greedy picks {sub.edge_list()} -> coverage "
          f"{coverage(g, sub, 1)}")
    print(f"  exact optimum: {exact_opt(g, params)} "
          f"(pair source 0 with target 1, source 1 with target 0)")

    print("\ncross-check on 50 tiny random instances (c=2, a=2):")
    rng = np.random.default_rng(3)
    gaps = []
    for i in range(50):
        inst = gen_fixed_degree(
            FixedDegreeSpec(l=int(rng.integers(2, 7)), r=int(rng.integers(2, 7)),
                            d=2, seed=int(rng.integers(2**31)))
        )
        params = ProblemParams(c=2, a=2)
        opt = exact_opt(inst, params)
        line = [f"opt={opt}"]
        for algo in ("sampling", "greedy", "partition"):
            _, report = solve(inst, algo, SolverConfig(params=params, seed=i))
            assert report.covered <= opt
            line.append(f"{algo}={report.covered}")
            if algo == "greedy":
                gaps.append(opt - report.covered)
        if i < 8:
            print("  " + " ".join(line))
    print(f"  ... greedy matched the optimum in "
          f"{sum(1 for gap in gaps if gap == 0)}/50 instances "
          f"(worst gap {max(gaps)})")


if __name__ == "__main__":
    main()
