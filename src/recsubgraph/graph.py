"""Bipartite candidate graphs, per-source selections, and coverage accounting.

A candidate graph G = (L, R, E) holds directed candidate links from source
vertices in L to target vertices in R.  A selection keeps at most ``c`` of the
candidate links per source, and a target counts as covered once it receives at
least ``a`` distinct selected links.

Adjacency is stored once, as ascending ``u*r + v`` keys and the flat
CSR-style arrays decoded from them, so solvers scan it without per-vertex
allocations.  Users build graphs and selections alike,
``BipartiteGraph(l, r, u, v)`` and ``RecSubgraph(l, r, u, v)``, from
endpoint arrays that are checked pair by pair and sorted; generators,
readers, solvers and :func:`simplify` hand over keys that already ascend,
which get one check.  A graph also keeps, read-only, what its solvers would
otherwise derive again on every solve (see :class:`BipartiteGraph`).
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
    "coverage",
    "validate",
]


class GraphError(ValueError):
    """Malformed graph construction input."""


class SubgraphValidationError(ValueError):
    """A selection violates its contract against the host graph."""


@dataclass(frozen=True)
class ProblemParams:
    """Out-degree budget per source (``c``) and target in-degree goal (``a``),
    each an ``int`` in ``[1, 2**63)`` so that numpy can hold it."""

    c: int
    a: int

    def __post_init__(self) -> None:
        for name, value in (("c", self.c), ("a", self.a)):
            _check_int(name, value, 1, None, ValueError)
            if value >= 1 << 63:
                raise ValueError(f"{name} must be < 2**63, got {value}")


class BipartiteGraph:
    """Immutable bipartite multigraph with a by-source adjacency.

    Edges are kept sorted by (u, v) — ``edge_u``/``edge_v`` with offsets
    ``indptr_l``, so ``edge_v[indptr_l[u]:indptr_l[u+1]]`` is N(u) ascending.
    Parallel edges are preserved: generators that sample with replacement may
    produce them, file input may not.  The constructor checks and sorts the
    caller's endpoints; ``_from_keys`` checks keys that already ascend, once.

    Views that solvers read at every ``(c, a)`` are computed on first use and
    kept, read-only: :meth:`distinct_keys` and :meth:`distinct_in_degrees`,
    ``_by_target``'s index (8 bytes per distinct edge, 8 per target) and
    sampling's ranking of the edges for the last seed it ran at (4 bytes per
    edge, 8 from ``m = 2**31``).  A new seed replaces that ranking, so the
    graph holds one at most.
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
        "_target_index",
        "_sampling_rank",
    )

    def __init__(self, l: int, r: int, edge_u, edge_v) -> None:
        self._set_keys(l, r, _pair_keys(l, r, edge_u, edge_v, GraphError))

    @classmethod
    def _from_keys(cls, l: int, r: int, keys: np.ndarray) -> "BipartiteGraph":
        """Graph of ascending ``u*r + v`` keys, kept as given; refused keys raise GraphError."""
        _check_keys(l, r, keys, "edge", GraphError)
        graph = cls.__new__(cls)
        graph._set_keys(l, r, keys)
        return graph

    def _set_keys(self, l: int, r: int, keys: np.ndarray) -> None:
        """Keep checked ascending keys, decoded once into the CSR arrays, read-only."""
        self.l = l
        self.r = r
        self.indptr_l, self.edge_u, self.edge_v = _csr(keys, l, r)
        self.m = int(keys.size)
        self._keys = keys
        for arr in (self.edge_u, self.edge_v, self.indptr_l, keys):
            arr.flags.writeable = False
        self._distinct_keys = None
        self._distinct_in_deg = None
        self._target_index = None
        self._sampling_rank = None

    # -- accessors ---------------------------------------------------------

    @property
    def left_degrees(self) -> np.ndarray:
        return self.indptr_l[1:] - self.indptr_l[:-1]

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

    def __repr__(self) -> str:
        return f"BipartiteGraph(l={self.l}, r={self.r}, m={self.m})"


class RecSubgraph:
    """A per-source choice of targets: the links a selection keeps.

    Built, like :class:`BipartiteGraph`, from parallel pick arrays
    ``(sel_u[i], sel_v[i])`` in any order, with the same checks and
    messages: a pick outside ``[0,l)×[0,r)`` is named as given, and arrays
    of more than one dimension, of unequal length or not of integers are
    refused.  The selection keeps none of the caller's arrays, so later
    writes to them do not reach it.  Duplicate picks are kept for
    :func:`validate` to report.

    Stored flat: ``targets[indptr[u]:indptr[u+1]]`` are the picks of source u,
    ascending, beside their ascending ``u*r + v`` keys, all read-only.
    """

    __slots__ = ("l", "r", "indptr", "targets", "_keys")

    def __init__(self, l: int, r: int, sel_u, sel_v) -> None:
        self._set_keys(l, r, _pair_keys(l, r, sel_u, sel_v, ValueError))

    @classmethod
    def _from_keys(cls, l: int, r: int, keys: np.ndarray) -> "RecSubgraph":
        """Selection of ascending ``u*r + v`` keys, kept as given; a repeat is a duplicate
        pick.  Refused keys raise ValueError."""
        _check_keys(l, r, keys, "selection", ValueError)
        sel = cls.__new__(cls)
        sel._set_keys(l, r, keys)
        return sel

    def _set_keys(self, l: int, r: int, keys: np.ndarray) -> None:
        """Keep checked ascending keys, decoded once into offsets and targets, read-only."""
        self.l = l
        self.r = r
        self.indptr, _, self.targets = _csr(keys, l, r)
        self._keys = keys
        for arr in (self.indptr, self.targets, keys):
            arr.flags.writeable = False

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

    def __repr__(self) -> str:
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
    return BipartiteGraph._from_keys(graph.l, graph.r, graph.distinct_keys())


def validate(
    graph: BipartiteGraph, sub: RecSubgraph, params: ProblemParams | None = None
) -> list[str]:
    """Check a selection against its host graph; return ``[]`` when clean.

    Violations come back as human-readable strings: dimension mismatches,
    per-source degree caps (only when ``params`` is given), duplicate picks,
    and picks that are not candidate edges.  A ``params`` that is neither
    ``None`` nor a ``ProblemParams`` raises ``ValueError``.  The checks run
    on the selection's kept keys, which are in range by construction.  Each
    check lists its problems only once a whole-array test has failed.
    """
    if params is not None:
        _check_type("params", params, ProblemParams, ValueError)
    if sub.l != graph.l or sub.r != graph.r:
        return [
            f"dimension mismatch: selection is {sub.l}x{sub.r}, "
            f"graph is {graph.l}x{graph.r}"
        ]
    out: list[str] = []
    deg = sub.indptr[1:] - sub.indptr[:-1]
    if params is not None and deg.max(initial=0) > params.c:
        for u in np.flatnonzero(deg > params.c).tolist():
            out.append(f"degree cap violated at u={u}")
    keys = sub._keys
    distinct = _distinct_sorted(keys)
    if distinct.size < keys.size:
        for key in _distinct_sorted(keys[1:][keys[1:] == keys[:-1]]).tolist():
            out.append(f"duplicate edge ({key // graph.r},{key % graph.r})")
    # take() from an edgeless graph's empty keys would raise: nothing is a candidate.
    gkeys = graph.edge_keys()
    if graph.m:
        found = gkeys.take(np.searchsorted(gkeys, distinct), mode="clip") == distinct
    else:
        found = np.zeros(distinct.size, dtype=bool)
    if np.count_nonzero(found) < distinct.size:
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


def _check_type(name: str, value, cls: type, error: type[ValueError]) -> None:
    """Raise ``error`` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, got {value!r}")


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


def _check_keys(l: int, r: int, keys: np.ndarray, noun: str, error: type[ValueError]) -> None:
    """Raise ``error`` unless the sides pass :func:`_check_side_limit` and
    ``keys`` is an int64 array that does not decrease, within ``[0, l*r)``."""
    _check_side_limit(l, r, error)
    if keys.dtype != np.int64:
        raise error(f"{noun} keys must be int64, got {keys.dtype}")
    if keys.size and (keys[0] < 0 or keys[-1] >= l * r or np.count_nonzero(keys[1:] < keys[:-1])):
        raise error(f"{noun} keys must ascend within [0, {l * r})")


def _pair_keys(l: int, r: int, edge_u, edge_v, error: type[ValueError]) -> np.ndarray:
    """Ascending ``u*r + v`` keys of the pairs ``(edge_u[i], edge_v[i])``.

    Raises ``error`` naming the first pair outside ``[0,l)×[0,r)``, whose key
    would alias another pair's, for endpoints that are not integers (an
    empty array of any dtype is fine) and for arrays, scalars included, that
    are not 1-D and of equal length.
    """
    _check_side_limit(l, r, error)
    eu = np.asarray(edge_u)
    ev = np.asarray(edge_v)
    # Checked before the shapes, so that non-integer arrays are named as such
    # whatever their lengths.
    if any(a.size and a.dtype.kind not in "iu" for a in (eu, ev)):
        raise error(f"edge endpoints must be integers, got {eu.dtype} and {ev.dtype} arrays")
    if eu.ndim != 1 or eu.shape != ev.shape:
        raise error("edge endpoint arrays must be 1-D and equal length")
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
    left, right = np.divmod(keys, n_right)
    indptr = np.zeros(n_left + 1, dtype=np.int64)
    np.add.accumulate(np.bincount(left, minlength=n_left), out=indptr[1:])
    return indptr, left, right


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``starts[i] : starts[i] + lengths[i]``."""
    ends = np.add.accumulate(lengths)
    idx = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    idx += (starts - ends + lengths).repeat(lengths)
    return idx


def _by_target(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, sources)``: ``sources[offsets[v]:offsets[v+1]]`` are the
    distinct candidate sources of target ``v``, ascending; both int64.

    The offsets are running sums of :meth:`BipartiteGraph.distinct_in_degrees`.
    The graph keeps both arrays, read-only, from the first call on; that
    call re-keys in place, so it holds two edge-sized arrays at most.
    """
    if graph._target_index is None:
        u, sources = np.divmod(graph.distinct_keys(), graph.r)
        sources *= graph.l
        sources += u
        del u
        sources.sort()
        sources %= graph.l
        offsets = np.zeros(graph.r + 1, dtype=np.int64)
        np.add.accumulate(graph.distinct_in_degrees(), out=offsets[1:])
        for arr in (offsets, sources):
            arr.flags.writeable = False
        graph._target_index = (offsets, sources)
    return graph._target_index


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Ascending ``keys`` with repeats dropped; ``keys`` itself when none repeat.

    What a sorting unique would return, without sorting the keys again and
    with far less time and scratch memory.
    """
    repeats = keys[1:] == keys[:-1]
    if not np.count_nonzero(repeats):
        return keys
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.logical_not(repeats, out=first[1:])
    return keys[first]
