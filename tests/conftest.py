"""Shared test helpers: small independent oracles and random-instance builders.

The oracles here deliberately share no code with the package: matchings are
found by exhaustive recursion and tiny optima by enumerating every admissible
selection, so agreement with the fast paths actually means something.
"""
from __future__ import annotations

import sys
from itertools import combinations, product

import numpy as np
import pytest

from recsubgraph import BipartiteGraph, build_graph, matching, solvers


def _neighborhoods(graph: BipartiteGraph) -> list[list[int]]:
    """Each source's distinct candidates, ascending, read off the edge list."""
    adj: list[set[int]] = [set() for _ in range(graph.l)]
    for u, v in graph.edge_list():
        adj[u].add(v)
    return [sorted(vs) for vs in adj]


def brute_force_max_matching(graph: BipartiteGraph) -> int:
    """Maximum matching size by exhaustive recursion (fine for l, r <= 8)."""
    adj = _neighborhoods(graph)

    def best(u: int, used: frozenset[int]) -> int:
        if u == graph.l:
            return 0
        top = best(u + 1, used)  # leave u unmatched
        for v in adj[u]:
            if v not in used:
                top = max(top, 1 + best(u + 1, used | {v}))
        return top

    return best(0, frozenset())


def enumerate_opt(graph: BipartiteGraph, c: int, a: int) -> int:
    """Exact optimum by trying every admissible selection (tiny graphs only).

    Each source independently keeps any subset of at most c of its distinct
    candidates; the optimum is the best coverage over the full product space.
    """
    local: list[list[tuple[int, ...]]] = []
    for nbrs in _neighborhoods(graph):
        opts = [()]
        for k in range(1, min(c, len(nbrs)) + 1):
            opts.extend(combinations(nbrs, k))
        local.append(opts)
    best = 0
    for pick in product(*local):
        counts: dict[int, int] = {}
        for chosen in pick:
            for v in chosen:
                counts[v] = counts.get(v, 0) + 1
        best = max(best, sum(1 for n in counts.values() if n >= a))
    return best


def random_simple_graph(rng: np.random.Generator, max_l: int = 7, max_r: int = 7,
                        p: float = 0.4) -> BipartiteGraph:
    l = int(rng.integers(1, max_l + 1))
    r = int(rng.integers(1, max_r + 1))
    mask = rng.random((l, r)) < p
    us, vs = np.nonzero(mask)
    return build_graph(l, r, list(zip(us.tolist(), vs.tolist())))


def chain_graph(n: int) -> BipartiteGraph:
    """u_i -> {v_i, v_i+1} for i < n-1 and u_n-1 -> v_0.

    Its maximum matching is perfect, but a search that first matches
    u_i -> v_i is then left one augmenting path of about 2n edges.
    """
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)]
    return build_graph(n, n, edges + [(n - 1, 0)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240819)


@pytest.fixture
def matching_engines(monkeypatch):
    """Run a loop body once on each of ``_match``'s two phase engines.

    ``for engine in matching_engines(): ...`` first sends every window set
    to the list engine, then every window set to the layered one, by moving
    ``matching._LAYERED_MIN``, the private threshold on a window set's
    sources in all (``windows * n_left``), between them; ``engine`` names the
    one in force.
    """

    def engines():
        for name, threshold in (("list", sys.maxsize), ("layered", 0)):
            monkeypatch.setattr(matching, "_LAYERED_MIN", threshold)
            yield name

    return engines


def partition_windows(monkeypatch, graph, config) -> list[tuple]:
    """Run partition on ``graph`` and return the windows it matched.

    Each window is ``(keys, n_left, n_right, max_path_len, matching size)``,
    keyed as ``_match`` takes one window.  Partition hands all of them to one
    ``solvers._match`` call, at one cap, which is split here.
    """
    windows = []

    def split(keys, n_left, n_right, caps):
        got = real_match(keys, n_left, n_right, caps)
        ((cap, count),) = caps
        span = n_left * n_right
        cuts = np.searchsorted(keys, np.arange(count + 1) * span)
        sizes = np.count_nonzero(got[0].reshape(count, n_left) >= 0, axis=1)
        assert sizes.tolist() == got[2]
        for i in range(count):
            windows.append((keys[cuts[i] : cuts[i + 1]] - i * span, n_left, n_right, cap, sizes[i]))
        return got

    real_match = solvers._match
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_match", split)
        solvers.partition_with_stats(graph, config)
    return windows


@pytest.fixture
def greedy_engines(monkeypatch):
    """Run a loop body once on each of greedy's two engines.

    ``for engine in greedy_engines(): ...`` first sends every graph to the
    target loop, then every graph to the wave engine, by moving the private
    distinct-edge threshold between them; ``engine`` names the one in force.
    """

    def engines():
        for name, threshold in (("loop", sys.maxsize), ("waves", 0)):
            monkeypatch.setattr(solvers, "_WAVES_MIN_EDGES", threshold)
            yield name

    return engines


# -- acceptance verdict collection ---------------------------------------------
#
# The acceptance tests call record_verdict() with one line per criterion;
# the terminal-summary hook reprints them in a block at the end of the run so
# the pass/fail table is visible even when pytest captures per-test stdout.

_VERDICTS: list[tuple[int, str]] = []


def record_verdict(n: int, line: str) -> None:
    _VERDICTS.append((n, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_VERDICTS):
            terminalreporter.write_line(line)
