"""Bipartite candidate graphs, per-source selections, and coverage accounting.

A candidate graph G = (L, R, E) holds directed candidate links from source
vertices in L to target vertices in R.  A selection keeps at most ``c`` of the
candidate links per source, and a target counts as covered once it receives at
least ``a`` distinct selected links.

Adjacency is stored twice as flat CSR-style arrays (sorted by source and by
target) so solvers can scan either side without per-vertex allocations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "SubgraphValidationError",
    "ProblemParams",
    "BipartiteGraph",
    "RecSubgraph",
    "CoverageReport",
    "build_graph",
    "coverage",
    "validate",
]


class GraphError(ValueError):
    """Malformed graph construction input."""


class SubgraphValidationError(ValueError):
    """A selection violates its contract against the host graph."""


@dataclass(frozen=True)
class ProblemParams:
    """Out-degree budget per source (``c``) and target in-degree goal (``a``)."""

    c: int
    a: int

    def __post_init__(self) -> None:
        for name, value in (("c", self.c), ("a", self.a)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class BipartiteGraph:
    """Immutable bipartite multigraph with both adjacency directions pre-sorted.

    Edges are kept once sorted by (u, v) — ``edge_u``/``edge_v`` with offsets
    ``indptr_l``, so ``edge_v[indptr_l[u]:indptr_l[u+1]]`` is N(u) ascending —
    and once sorted by (v, u) — ``rev_u`` with offsets ``indptr_r``.  Parallel
    edges are preserved: generators that sample with replacement may produce
    them, file input may not.
    """

    __slots__ = (
        "l",
        "r",
        "m",
        "edge_u",
        "edge_v",
        "indptr_l",
        "indptr_r",
        "rev_u",
        "_keys",
        "_distinct_keys",
        "_distinct_in_deg",
    )

    def __init__(self, l: int, r: int, edge_u, edge_v) -> None:
        # One sort of the (u, v) keys gives the (u, v) order; a stable sort by
        # v of that order gives the (v, u) order.
        keys = _pair_keys(l, r, edge_u, edge_v, GraphError)
        indptr_l, eu, ev = _csr(keys, l, r)
        self.l = int(l)
        self.r = int(r)
        self.m = int(eu.size)
        self.edge_u = eu
        self.edge_v = ev
        self.indptr_l = indptr_l
        self.rev_u = eu[np.argsort(ev, kind="stable")]
        indptr_r = np.zeros(r + 1, dtype=np.int64)
        np.cumsum(np.bincount(ev, minlength=r), out=indptr_r[1:])
        self.indptr_r = indptr_r
        self._keys = keys
        for arr in (eu, ev, indptr_l, indptr_r, self.rev_u, keys):
            arr.flags.writeable = False
        self._distinct_keys = None
        self._distinct_in_deg = None

    # -- accessors ---------------------------------------------------------

    @property
    def left_degrees(self) -> np.ndarray:
        return np.diff(self.indptr_l)

    def edge_keys(self) -> np.ndarray:
        """Edges encoded as ``u * r + v``, ascending; parallel edges repeat."""
        return self._keys

    def distinct_keys(self) -> np.ndarray:
        """:meth:`edge_keys` with parallel edges collapsed to one."""
        if self._distinct_keys is None:
            distinct = _distinct_sorted(self._keys)
            distinct.flags.writeable = False
            self._distinct_keys = distinct
        return self._distinct_keys

    def distinct_in_degrees(self) -> np.ndarray:
        """Per-target count of distinct sources (parallel edges collapse to one)."""
        if self._distinct_in_deg is None:
            deg = np.bincount(self.distinct_keys() % self.r, minlength=self.r)
            deg.flags.writeable = False
            self._distinct_in_deg = deg
        return self._distinct_in_deg

    def has_parallel_edges(self) -> bool:
        return self.distinct_keys().size < self.m

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BipartiteGraph(l={self.l}, r={self.r}, m={self.m})"


def build_graph(l: int, r: int, edges) -> BipartiteGraph:
    """Build a :class:`BipartiteGraph` from an iterable of ``(u, v)`` pairs."""
    pairs = list(edges)
    if pairs:
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        return BipartiteGraph(l, r, arr[:, 0], arr[:, 1])
    empty = np.empty(0, dtype=np.int64)
    return BipartiteGraph(l, r, empty, empty)


class RecSubgraph:
    """A per-source choice of targets: the links a selection keeps.

    Stored flat: ``targets[indptr[u]:indptr[u+1]]`` are the picks of source u,
    sorted ascending.  Construction does not deduplicate — :func:`validate`
    reports duplicate picks as violations.  The raw constructor checks only
    the offsets and the order of each source's picks, so targets out of range
    reach :func:`validate` too.
    """

    __slots__ = ("l", "r", "indptr", "targets")

    def __init__(self, l: int, r: int, indptr, targets) -> None:
        if l < 0 or r < 0:
            raise ValueError(f"side sizes must be >= 0, got l={l}, r={r}")
        self.l = int(l)
        self.r = int(r)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        ptr = self.indptr
        if ptr.shape != (self.l + 1,) or ptr[0] != 0 or ptr[-1] != self.targets.size:
            raise ValueError("inconsistent selection offsets")
        if (ptr[1:] < ptr[:-1]).any():
            raise ValueError("selection offsets must not decrease")
        # falls[j]: pick j is below pick j-1 of the same source.  The offsets
        # hold 0 and the pick count, so clearing them also clears the two
        # unwritten end slots.  Equal neighbours are left for validate.
        falls = np.empty(self.targets.size + 1, dtype=bool)
        np.less(self.targets[1:], self.targets[:-1], out=falls[1:-1])
        falls[ptr] = False
        if np.count_nonzero(falls):
            u = int(np.searchsorted(ptr, falls.argmax(), side="right")) - 1
            raise ValueError(f"targets of source {u} must not decrease")
        self.indptr.flags.writeable = False
        self.targets.flags.writeable = False

    @classmethod
    def from_edges(cls, l: int, r: int, sel_u, sel_v) -> "RecSubgraph":
        """Selection of the picks ``(sel_u[i], sel_v[i])``, given in any order.

        Raises ``ValueError`` naming the first pick outside ``[0,l)×[0,r)``;
        duplicate picks are kept for :func:`validate` to report.
        """
        return cls._from_keys(l, r, _pair_keys(l, r, sel_u, sel_v, ValueError))

    @classmethod
    def _from_keys(cls, l: int, r: int, keys: np.ndarray) -> "RecSubgraph":
        """Selection of ascending ``u*r + v`` keys; a repeated key is a duplicate pick."""
        indptr, _, targets = _csr(keys, l, r)
        return cls(l, r, indptr, targets)

    @property
    def n_selected(self) -> int:
        return int(self.targets.size)

    def selected_u(self) -> np.ndarray:
        """Source endpoint of every selected link, parallel to ``targets``."""
        return np.repeat(np.arange(self.l, dtype=np.int64), np.diff(self.indptr))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.selected_u().tolist(), self.targets.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecSubgraph(l={self.l}, r={self.r}, selected={self.n_selected})"


@dataclass
class CoverageReport:
    """Outcome of one solve: coverage, the cheap upper bound, and cost proxies."""

    covered: int
    upper_bound: int
    ratio: float
    elapsed_ms: float
    peak_edges_held: int


def simplify(graph: BipartiteGraph) -> BipartiteGraph:
    """The same graph with parallel edges collapsed to one."""
    if not graph.has_parallel_edges():
        return graph
    return BipartiteGraph(graph.l, graph.r, *np.divmod(graph.distinct_keys(), graph.r))


def validate(
    graph: BipartiteGraph, sub: RecSubgraph, params: ProblemParams | None = None
) -> list[str]:
    """Check a selection against its host graph; return ``[]`` when clean.

    Violations come back as human-readable strings: dimension mismatches,
    per-source degree caps (only when ``params`` is given), targets out of
    range, duplicate picks, and picks that are not candidate edges.
    """
    if sub.l != graph.l or sub.r != graph.r:
        return [
            f"dimension mismatch: selection is {sub.l}x{sub.r}, "
            f"graph is {graph.l}x{graph.r}"
        ]
    out: list[str] = []
    if params is not None:
        for u in np.flatnonzero(sub.out_degrees() > params.c).tolist():
            out.append(f"degree cap violated at u={u}")
    su = sub.selected_u()
    sv = sub.targets
    # An out-of-range target would alias another edge's key, so those picks
    # are reported here and kept out of the key checks below.
    bad = (sv < 0) | (sv >= graph.r)
    if bad.any():
        for u, v in zip(su[bad].tolist(), sv[bad].tolist()):
            out.append(f"target out of range ({u},{v})")
        su, sv = su[~bad], sv[~bad]
    keys = su * graph.r + sv
    keys.sort()
    distinct = _distinct_sorted(keys)
    if distinct.size < keys.size:
        for key in _distinct_sorted(keys[1:][keys[1:] == keys[:-1]]).tolist():
            out.append(f"duplicate edge ({key // graph.r},{key % graph.r})")
    gkeys = graph.edge_keys()
    pos = np.searchsorted(gkeys, distinct)
    found = pos < graph.m
    found[found] = gkeys[pos[found]] == distinct[found]
    for key in distinct[~found].tolist():
        out.append(f"non-candidate edge ({key // graph.r},{key % graph.r})")
    return out


def coverage(graph: BipartiteGraph, sub: RecSubgraph, a: int) -> int:
    """Number of targets receiving at least ``a`` distinct selected links.

    The selection is validated against ``graph`` first; an invalid selection
    raises :class:`SubgraphValidationError` naming the first violation.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    problems = validate(graph, sub, None)
    if problems:
        raise SubgraphValidationError(problems[0])
    return _count_covered(sub, a)


def _count_covered(sub: RecSubgraph, a: int) -> int:
    """Targets with at least ``a`` picks; ``sub`` must already be valid."""
    return int(np.count_nonzero(np.bincount(sub.targets, minlength=sub.r) >= a))


def _pair_keys(l: int, r: int, edge_u, edge_v, error: type[ValueError]) -> np.ndarray:
    """Ascending ``u*r + v`` keys of the pairs ``(edge_u[i], edge_v[i])``.

    Raises ``error`` naming the first pair outside ``[0,l)×[0,r)``, whose key
    would alias another pair's.
    """
    if l < 0 or r < 0:
        raise error(f"side sizes must be >= 0, got l={l}, r={r}")
    if int(l) * int(r) >= 1 << 63:
        raise error(f"l*r must be < 2**63 for int64 edge keys, got l={l}, r={r}")
    eu = np.ascontiguousarray(edge_u, dtype=np.int64)
    ev = np.ascontiguousarray(edge_v, dtype=np.int64)
    if eu.ndim != 1 or eu.shape != ev.shape:
        raise error("edge endpoint arrays must be 1-D and equal length")
    bad = np.flatnonzero((eu < 0) | (eu >= l) | (ev < 0) | (ev >= r))
    if bad.size:
        i = int(bad[0])
        raise error(
            f"endpoint out of range at index {i}: ({int(eu[i])}, {int(ev[i])})"
            f" with l={l}, r={r}"
        )
    keys = eu * r + ev
    keys.sort()
    return keys


def _csr(keys: np.ndarray, n_left: int, n_right: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ascending ``u*n_right + v`` keys into ``(indptr, left, right)``.

    ``left``/``right`` are the endpoints of every key, and
    ``right[indptr[u]:indptr[u+1]]`` are the ``v`` of source ``u``.
    """
    left = keys // n_right
    right = keys - left * n_right
    indptr = np.zeros(n_left + 1, dtype=np.int64)
    np.cumsum(np.bincount(left, minlength=n_left), out=indptr[1:])
    return indptr, left, right


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Ascending ``keys`` with repeats dropped; ``keys`` itself when none repeat.

    What a sorting unique would return, without sorting the keys again and
    with far less time and scratch memory.
    """
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys if first.all() else keys[first]
