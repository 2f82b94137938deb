"""Plain-text edge-list files for graphs and selections.

Format: ``#`` comment lines anywhere, one header line, then one ``u v`` line
per edge::

    bipartite <l> <r> <m>
    0 3
    1 0

Selections use the same line format under a ``recsubgraph`` header.  Graph
files are simple: duplicate edge lines are dropped with a warning.  Writers
emit edges in canonical (u, v) order with a trailing newline, so identical
graphs produce byte-identical files.
"""
from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph, GraphError, RecSubgraph, simplify

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


def _parse(path, magic: str) -> tuple[int, int, list[tuple[int, int]]]:
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            edges.append((u, v))
    if header is None:
        raise EdgeListError(f"{path}: missing '{magic}' header line")
    l, r, m = header
    if len(edges) != m:
        raise EdgeListError(
            f"{path}: header announces m={m} but file has {len(edges)} edge lines"
        )
    return l, r, edges


def read_edge_list(path) -> BipartiteGraph:
    """Read a graph file; duplicate edge lines are dropped with a warning."""
    l, r, edges = _parse(path, GRAPH_MAGIC)
    arr = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    try:
        graph = BipartiteGraph(l, r, arr[:, 0], arr[:, 1])
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
    lines = [f"{GRAPH_MAGIC} {graph.l} {graph.r} {graph.m}"]
    lines.extend(
        f"{u} {v}" for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_subgraph(path) -> RecSubgraph:
    """Read a selection file.  Duplicate picks are an error, not a warning."""
    l, r, edges = _parse(path, SUBGRAPH_MAGIC)
    if len(set(edges)) != len(edges):
        raise EdgeListError(f"{path}: duplicate selection lines")
    if edges:
        arr = np.asarray(edges, dtype=np.int64)
        return RecSubgraph.from_edges(l, r, arr[:, 0], arr[:, 1])
    return RecSubgraph.empty(l, r)


def write_subgraph(sub: RecSubgraph, path) -> None:
    lines = [f"{SUBGRAPH_MAGIC} {sub.l} {sub.r} {sub.n_selected}"]
    lines.extend(
        f"{u} {v}" for u, v in zip(sub.selected_u().tolist(), sub.targets.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
