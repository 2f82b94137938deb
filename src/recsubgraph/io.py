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

Readers read a file's bytes once, with newlines as text mode reads them
(``\\r\\n`` and a lone ``\\r`` are ``\\n``).  A writer-style file -- the header
on the first line, then ``m`` lines of ``digits SPACE digits`` of at most 10
digits each, every line ended by a newline except perhaps the last -- is
checked and parsed from those bytes in one :func:`numpy.fromstring` call.
Every other file (tabs, padding, blank lines, comments, signs) and any
writer-style file with an out-of-range side or endpoint is decoded as UTF-8
and goes through a line loop, which returns the same arrays or names the
first malformed line in its :class:`EdgeListError`.  Writers format the
lines in numpy, a block of lines at a time, and write bytes.
"""
from __future__ import annotations

import warnings

import numpy as np

from .graph import BipartiteGraph, RecSubgraph, _check_side_limit, _distinct_sorted, simplify

__all__ = [
    "EdgeListError",
    "read_edge_list",
    "write_edge_list",
    "read_subgraph",
    "write_subgraph",
]

GRAPH_MAGIC = "bipartite"
SUBGRAPH_MAGIC = "recsubgraph"
# Lines formatted per numpy pass: bounds the writer's scratch at any m.
_WRITE_BLOCK = 1 << 15


class EdgeListError(ValueError):
    """Malformed edge-list file (reported with its line number)."""


def _parse(path, magic: str) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Header sides and the int64 endpoint arrays of the edge lines, in file order.

    The file's bytes are read once, with newlines as text mode reads them
    (``\\r\\n`` and a lone ``\\r`` are ``\\n``).  A writer-style file (see the
    module docstring) is parsed from those bytes by :func:`_parse_plain` in
    one :func:`numpy.fromstring` call.  Every other file, and a writer-style
    file with an out-of-range side or endpoint, is decoded and goes through
    :func:`_parse_lines`, which reads it line by line and raises
    :class:`EdgeListError` for sides past the limit as soon as it reads the
    header, and otherwise names the first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
    parsed = _parse_plain(text, magic)
    if parsed is not None:
        return parsed
    try:
        # The bytes as stored, so that the error names the file's own offset.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListError(
            f"{path}: not valid UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return _parse_lines(path, text.replace("\r\n", "\n").replace("\r", "\n"), magic)


def _parse_plain(text: bytes, magic: str) -> tuple[int, int, np.ndarray, np.ndarray] | None:
    """:func:`_parse_lines`' result for a writer-style file in one numpy call, else None.

    ``text`` is the file's bytes with its newlines already ``\\n``.  A body
    of digits, spaces and newlines is ASCII, so a file taken here is valid
    UTF-8 whenever its header line is.
    """
    head, _, body = text.partition(b"\n")
    try:
        tokens = head.decode("utf-8").split()
    except UnicodeDecodeError:
        return None
    if len(tokens) != 4 or tokens[0] != magic or not body:
        return None
    try:
        l, r, m = int(tokens[1]), int(tokens[2]), int(tokens[3])
        _check_side_limit(l, r, ValueError)
    except ValueError:
        return None
    if not body.endswith(b"\n"):
        body += b"\n"
    raw = np.frombuffer(body, dtype=np.uint8)
    # Writer-style: no byte above "9", the bytes below "0" alternate space,
    # newline (m of each), and every token has 1-10 digits, so int64 holds it.
    seps = np.flatnonzero(raw < 48)
    if raw.max() > 57 or seps.size != 2 * m or not 1 <= seps[0] <= 10:
        return None
    gaps = seps[1:] - seps[:-1]
    if gaps.min() < 2 or gaps.max() > 11 or (raw[seps].view("<u2") != 0x0A20).any():
        return None
    # Read as uint64, which numpy scans faster than int64; both hold 10 digits.
    flat = np.fromstring(body, dtype=np.uint64, sep=" ").view(np.int64)
    us, vs = flat[0::2], flat[1::2]
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
            # Before any line: endpoints then lie below 2**31, so int64 holds them.
            try:
                _check_side_limit(header[0], header[1], ValueError)
            except ValueError as exc:
                raise EdgeListError(f"{path}: {exc}") from None
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


def _parse_keys(path, magic: str) -> tuple[int, int, np.ndarray]:
    """Header sides and the ascending ``u*r + v`` keys of the edge lines, sorted
    only if a line descends (a writer's never does)."""
    l, r, us, vs = _parse(path, magic)
    keys = us * r
    keys += vs
    if np.count_nonzero(keys[1:] < keys[:-1]):
        keys.sort()
    return l, r, keys


def read_edge_list(path) -> BipartiteGraph:
    """Read a graph file; duplicate edge lines are dropped with a warning."""
    graph = BipartiteGraph._from_keys(*_parse_keys(path, GRAPH_MAGIC))
    if graph.has_parallel_edges():
        warnings.warn(
            f"{path}: {graph.m - graph.distinct_keys().size} duplicate edge line(s) ignored",
            stacklevel=2,
        )
        graph = simplify(graph)
    return graph


def write_edge_list(graph: BipartiteGraph, path) -> None:
    """Write a graph file in canonical edge order.

    :func:`read_edge_list` reads it back as ``graph``, except that a
    multigraph's parallel edges come back collapsed to one, with a warning.
    """
    _write(path, GRAPH_MAGIC, graph.l, graph.r, graph.edge_u, graph.edge_v)


def read_subgraph(path) -> RecSubgraph:
    """Read a selection file.  Duplicate picks are an error, not a warning."""
    l, r, keys = _parse_keys(path, SUBGRAPH_MAGIC)
    if _distinct_sorted(keys).size < keys.size:
        raise EdgeListError(f"{path}: duplicate selection lines")
    return RecSubgraph._from_keys(l, r, keys)


def write_subgraph(sub: RecSubgraph, path) -> None:
    """Write a selection file; inverse of :func:`read_subgraph`."""
    _write(path, SUBGRAPH_MAGIC, sub.l, sub.r, sub.selected_u(), sub.targets)


def _write(path, magic: str, l: int, r: int, us: np.ndarray, vs: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{magic} {l} {r} {us.size}\n".encode())
        for start in range(0, us.size, _WRITE_BLOCK):
            fh.write(_format(us[start : start + _WRITE_BLOCK], vs[start : start + _WRITE_BLOCK]))


def _format(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The bytes of ``"%d %d\\n"`` for every pair ``(us[i], vs[i])``, as one uint8 array.

    Endpoints lie in ``[0, 2**31)``.  Each column is laid out at the width of
    its largest value, right-aligned, with digits found by division by 10 on
    uint32; one compress then drops every leading zero.
    """
    xs = [x.astype(np.uint32) for x in (us, vs)]
    widths = [len(str(int(x.max()) if x.size else 0)) for x in xs]
    buf = np.empty((us.size, widths[0] + widths[1] + 2), dtype=np.uint8)
    keep = np.ones(buf.shape, dtype=bool)
    at = 0
    for x, width, sep in zip(xs, widths, b" \n"):
        q = x
        for col in range(at + width - 1, at, -1):
            nq = q // 10
            buf[:, col] = q - nq * 10 + 48
            # The digit left of ``col`` is a leading zero where nothing is left.
            np.greater(nq, 0, out=keep[:, col - 1])
            q = nq
        buf[:, at] = q + 48
        buf[:, at + width] = sep
        at += width + 1
    return buf[keep]
