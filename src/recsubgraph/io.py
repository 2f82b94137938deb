"""Plain-text edge-list files for graphs and selections.

Format: ``#`` comment lines anywhere, one header line, then one ``u v`` line
per edge::

    bipartite <l> <r> <m>
    0 3
    1 0

Selections use the same line format under a ``recsubgraph`` header.  Side
sizes must be below ``2**31``.  Graph files are simple: duplicate edge lines
are dropped with a warning.  Writers emit edges in canonical (u, v) order with
a trailing newline, so identical graphs produce byte-identical files.

Readers read a file once.  A writer-style file -- the header on the first
line, then ``m`` lines of ``digits SPACE digits`` of at most 10 digits each,
every line ended by a newline except perhaps the last -- is parsed in one
:func:`numpy.fromstring` call.  Every other file (tabs, padding, blank lines,
comments, signs) and any writer-style file with an out-of-range endpoint
goes through a line loop over the same text, which returns the same arrays or
names the first malformed line in its :class:`EdgeListError`.
"""
from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph, GraphError, RecSubgraph, _distinct_sorted, simplify

__all__ = [
    "EdgeListError",
    "read_edge_list",
    "write_edge_list",
    "read_subgraph",
    "write_subgraph",
]

GRAPH_MAGIC = "bipartite"
SUBGRAPH_MAGIC = "recsubgraph"


class EdgeListError(ValueError):
    """Malformed edge-list file (reported with its line number)."""


def _parse(path, magic: str) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Header sides and the int64 endpoint arrays of the edge lines, in file order.

    The file is read once.  A writer-style file (see the module docstring) is
    parsed by :func:`_parse_plain` in one :func:`numpy.fromstring` call.  Every
    other file, and a writer-style file with an out-of-range endpoint, goes
    through :func:`_parse_lines`, which reads the same text line by line and
    raises :class:`EdgeListError` naming the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise EdgeListError(
            f"{path}: not valid UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    parsed = _parse_plain(text, magic)
    return parsed if parsed is not None else _parse_lines(path, text, magic)


def _parse_plain(text: str, magic: str) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """:func:`_parse_lines`' result for a writer-style file in one numpy call, else None."""
    head, _, body = text.partition("\n")
    tokens = head.split()
    if len(tokens) != 4 or tokens[0] != magic or not body:
        return None
    try:
        l, r, m = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        return None
    data = (body if body.endswith("\n") else body + "\n").encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    # Writer-style: the non-digit bytes alternate space, newline (m of each),
    # and every token has 1-10 digits, so int64 holds it.
    seps = np.flatnonzero((raw < 48) | (raw > 57))
    gaps = np.diff(seps, prepend=-1)
    if (
        seps.size != 2 * m
        or (raw[seps[0::2]] != 32).any()
        or (raw[seps[1::2]] != 10).any()
        or gaps.min() < 2
        or gaps.max() > 11
    ):
        return None
    flat = np.fromstring(data, dtype=np.int64, sep=" ")
    us, vs = flat[0::2].copy(), flat[1::2].copy()
    if int(us.max()) >= l or int(vs.max()) >= r:
        return None
    return l, r, us, vs


def _parse_lines(path, text: str, magic: str) -> tuple[int, int, np.ndarray, np.ndarray]:
    """:func:`_parse` one line at a time: skips comments, reports the first bad line."""
    header: tuple[int, int, int] | None = None
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != magic:
                raise EdgeListError(
                    f"{path}: line {lineno}: expected header "
                    f"'{magic} <l> <r> <m>', got {line!r}"
                )
            try:
                header = (int(tokens[1]), int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise EdgeListError(
                    f"{path}: line {lineno}: non-integer header field in {line!r}"
                ) from None
            continue
        if len(tokens) != 2:
            raise EdgeListError(
                f"{path}: line {lineno}: expected 'u v', got {line!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(
                f"{path}: line {lineno}: non-integer endpoint in {line!r}"
            ) from None
        l, r, _ = header
        if not (0 <= u < l and 0 <= v < r):
            raise EdgeListError(
                f"{path}: endpoint out of range at line {lineno}: "
                f"({u}, {v}) with l={l}, r={r}"
            )
        us.append(u)
        vs.append(v)
    if header is None:
        raise EdgeListError(f"{path}: missing '{magic}' header line")
    l, r, m = header
    if len(us) != m:
        raise EdgeListError(
            f"{path}: header announces m={m} but file has {len(us)} edge lines"
        )
    return l, r, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


def read_edge_list(path) -> BipartiteGraph:
    """Read a graph file; duplicate edge lines are dropped with a warning."""
    l, r, us, vs = _parse(path, GRAPH_MAGIC)
    try:
        graph = BipartiteGraph(l, r, us, vs)
    except GraphError as exc:
        raise EdgeListError(f"{path}: {exc}") from exc
    if graph.has_parallel_edges():
        warnings.warn(
            f"{path}: {graph.m - graph.distinct_keys().size} duplicate edge line(s) ignored",
            stacklevel=2,
        )
        graph = simplify(graph)
    return graph


def write_edge_list(graph: BipartiteGraph, path) -> None:
    """Write a graph file; inverse of :func:`read_edge_list` up to edge order."""
    _write(path, GRAPH_MAGIC, graph.l, graph.r, graph.edge_u, graph.edge_v)


def read_subgraph(path) -> RecSubgraph:
    """Read a selection file.  Duplicate picks are an error, not a warning."""
    l, r, us, vs = _parse(path, SUBGRAPH_MAGIC)
    try:
        sub = RecSubgraph.from_edges(l, r, us, vs)
    except ValueError as exc:
        raise EdgeListError(f"{path}: {exc}") from exc
    if _distinct_sorted(sub._keys).size < sub.n_selected:
        raise EdgeListError(f"{path}: duplicate selection lines")
    return sub


def write_subgraph(sub: RecSubgraph, path) -> None:
    """Write a selection file; inverse of :func:`read_subgraph`."""
    _write(path, SUBGRAPH_MAGIC, sub.l, sub.r, sub.selected_u(), sub.targets)


def _write(path, magic: str, l: int, r: int, us: np.ndarray, vs: np.ndarray) -> None:
    pairs = tuple(np.column_stack((us, vs)).ravel().tolist())
    body = ("%d %d\n" * us.size) % pairs
    Path(path).write_text(f"{magic} {l} {r} {us.size}\n{body}", encoding="utf-8")
