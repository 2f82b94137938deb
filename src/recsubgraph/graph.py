"""Bipartite candidate graphs, per-source selections, and coverage accounting.

A candidate graph G = (L, R, E) holds directed candidate links from source
vertices in L to target vertices in R.  A selection keeps at most ``c`` of the
candidate links per source, and a target counts as covered once it receives at
least ``a`` distinct selected links.

Adjacency is stored once, as flat CSR-style arrays sorted by source, so
solvers scan it without per-vertex allocations.  The one other layout,
each target's distinct sources, is decoded from the edge keys on demand by
``_by_target``.
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
        _check_int("c", self.c, 1, None, ValueError)
        _check_int("a", self.a, 1, None, ValueError)


class BipartiteGraph:
    """Immutable bipartite multigraph with a by-source adjacency.

    Edges are kept sorted by (u, v) — ``edge_u``/``edge_v`` with offsets
    ``indptr_l``, so ``edge_v[indptr_l[u]:indptr_l[u+1]]`` is N(u) ascending.
    Parallel edges are preserved: generators that sample with replacement may
    produce them, file input may not.
    """

    __slots__ = (
        "l",
        "r",
        "m",
        "edge_u",
        "edge_v",
        "indptr_l",
        "_keys",
        "_distinct_keys",
        "_distinct_in_deg",
    )

    def __init__(self, l: int, r: int, edge_u, edge_v) -> None:
        keys = _pair_keys(l, r, edge_u, edge_v, GraphError)
        indptr_l, eu, ev = _csr(keys, l, r)
        self.l = l
        self.r = r
        self.m = int(eu.size)
        self.edge_u = eu
        self.edge_v = ev
        self.indptr_l = indptr_l
        self._keys = keys
        for arr in (eu, ev, indptr_l, keys):
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
    """Build a :class:`BipartiteGraph` from an iterable of integer ``(u, v)`` pairs."""
    pairs = list(edges)
    if pairs:
        arr = np.asarray(pairs)
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
    that offsets and targets are integers, the offsets and the order of each
    source's picks, so targets out of range reach :func:`validate` too; only
    an unsigned target too large for int64 is refused here.  It
    copies what it is given, so the caller keeps its arrays writeable and
    later writes to them do not reach the selection.
    """

    __slots__ = ("l", "r", "indptr", "targets")

    def __init__(self, l: int, r: int, indptr, targets) -> None:
        self._adopt(l, r, np.array(indptr), np.array(targets))

    def _adopt(self, l: int, r: int, indptr, targets) -> None:
        """Check the selection and keep its arrays, read-only, without a copy
        where they already are contiguous int64."""
        _check_side_limit(l, r, ValueError)
        self.l = l
        self.r = r
        indptr = np.ascontiguousarray(indptr)
        targets = np.ascontiguousarray(targets)
        if indptr.dtype.kind not in "iu" or (targets.size and targets.dtype.kind not in "iu"):
            raise ValueError(
                f"selection offsets and targets must be integers, got {indptr.dtype} and "
                f"{targets.dtype} arrays"
            )
        self.indptr = indptr.astype(np.int64, copy=False)
        self.targets = targets.astype(np.int64, copy=False)
        ptr = self.indptr
        if ptr.shape != (self.l + 1,) or ptr[0] != 0 or ptr[-1] != self.targets.size:
            raise ValueError("inconsistent selection offsets")
        if (ptr[1:] < ptr[:-1]).any():
            raise ValueError("selection offsets must not decrease")
        if targets.dtype.kind == "u" and (self.targets < 0).any():
            # An unsigned target of 2**63 or more wrapped in int64; name it as given.
            j = int((self.targets < 0).argmax())
            u = int(np.searchsorted(ptr, j, side="right")) - 1
            raise ValueError(f"target out of range ({u},{int(targets[j])})")
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
        sel = cls.__new__(cls)
        sel._adopt(l, r, indptr, targets)  # fresh arrays: nobody else holds them
        return sel

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
    deg = np.diff(sub.indptr)
    if params is not None:
        for u in np.flatnonzero(deg > params.c).tolist():
            out.append(f"degree cap violated at u={u}")
    su = np.repeat(np.arange(sub.l, dtype=np.int64), deg)
    sv = sub.targets
    # An out-of-range target would alias another edge's key, so those picks
    # are reported here and kept out of the key checks below.
    bad = (sv < 0) | (sv >= graph.r)
    if bad.any():
        for u, v in zip(su[bad].tolist(), sv[bad].tolist()):
            out.append(f"target out of range ({u},{v})")
        su, sv = su[~bad], sv[~bad]
    # Sources ascend and each source's targets do not decrease (the
    # constructor checks both), so with every target in range the keys
    # already ascend and a duplicate pick sits next to its twin.
    keys = su * graph.r + sv
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
    raises :class:`SubgraphValidationError` naming the first violation, and
    an ``a`` that is not an ``int`` >= 1 raises ``ValueError``.
    """
    _check_int("a", a, 1, None, ValueError)
    return _valid_coverage(graph, sub, a)


def _valid_coverage(graph: BipartiteGraph, sub: RecSubgraph, a: int, params=None, prefix="") -> int:
    """Targets with at least ``a`` picks in ``sub``, once :func:`validate`
    finds it clean; its first problem raises ``SubgraphValidationError(prefix
    + problem)``.  ``params`` turns on the degree cap, as in :func:`validate`."""
    problems = validate(graph, sub, params)
    if problems:
        raise SubgraphValidationError(prefix + problems[0])
    return int(np.count_nonzero(np.bincount(sub.targets, minlength=sub.r) >= a))


def _check_int(
    name: str, value, lo: int, hi: int | None, error: type[ValueError], kind: str = "an integer"
) -> None:
    """Raise ``error`` unless ``value`` is an ``int``, not a ``bool``, with
    ``lo <= value`` and, unless ``hi`` is None, ``value < hi``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value >= hi)
    ):
        limit = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise error(f"{name} must be {kind} {limit}, got {value!r}")


def _check_real(name: str, value, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` or ``float``, not a
    ``bool``.  The caller tests the range, written so that NaN fails it."""
    if isinstance(value, bool) or not isinstance(value, int | float):
        raise error(f"{name} must be a real number, got {value!r}")


def _check_side_limit(l: int, r: int, error: type[ValueError]) -> None:
    """Raise ``error`` unless both sides are integers in ``[0, 2**31)``, so
    ``u*r + v`` fits int64."""
    _check_int("l", l, 0, None, error)
    _check_int("r", r, 0, None, error)
    if l >= 1 << 31 or r >= 1 << 31:
        raise error(
            f"side sizes must be < 2**31 (so l*r < 2**63 fits int64 edge keys), got l={l}, r={r}"
        )


def _pair_keys(l: int, r: int, edge_u, edge_v, error: type[ValueError]) -> np.ndarray:
    """Ascending ``u*r + v`` keys of the pairs ``(edge_u[i], edge_v[i])``.

    Raises ``error`` naming the first pair outside ``[0,l)×[0,r)``, whose key
    would alias another pair's, and for endpoints that are not integers (an
    empty array of any dtype is fine).
    """
    _check_side_limit(l, r, error)
    eu = np.ascontiguousarray(edge_u)
    ev = np.ascontiguousarray(edge_v)
    if eu.ndim != 1 or eu.shape != ev.shape:
        raise error("edge endpoint arrays must be 1-D and equal length")
    if eu.size and (eu.dtype.kind not in "iu" or ev.dtype.kind not in "iu"):
        raise error(f"edge endpoints must be integers, got {eu.dtype} and {ev.dtype} arrays")
    # Checked as given: an unsigned endpoint of 2**63 or more wraps negative
    # in int64 and would be reported as another value.
    bad = np.flatnonzero((eu < 0) | (eu >= l) | (ev < 0) | (ev >= r))
    if bad.size:
        i = int(bad[0])
        raise error(
            f"endpoint out of range at index {i}: ({int(eu[i])}, {int(ev[i])})"
            f" with l={l}, r={r}"
        )
    keys = eu.astype(np.int64, copy=False) * r
    keys += ev.astype(np.int64, copy=False)
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
    np.add.accumulate(np.bincount(left, minlength=n_left), out=indptr[1:])
    return indptr, left, right


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``starts[i] : starts[i] + lengths[i]``."""
    ends = np.add.accumulate(lengths)
    idx = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    idx += np.repeat(starts - ends + lengths, lengths)
    return idx


def _by_target(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, sources)``: ``sources[offsets[v]:offsets[v+1]]`` are the
    distinct candidate sources of target ``v``, ascending.

    The offsets are running sums of :meth:`BipartiteGraph.distinct_in_degrees`;
    the re-keying runs in place, so the call holds two edge-sized arrays at most.
    """
    u, sources = np.divmod(graph.distinct_keys(), graph.r)
    sources *= graph.l
    sources += u
    del u
    sources.sort()
    sources %= graph.l
    offsets = np.zeros(graph.r + 1, dtype=np.int64)
    np.add.accumulate(graph.distinct_in_degrees(), out=offsets[1:])
    return offsets, sources


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Ascending ``keys`` with repeats dropped; ``keys`` itself when none repeat.

    What a sorting unique would return, without sorting the keys again and
    with far less time and scratch memory.
    """
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys if first.all() else keys[first]
