"""Edge-list file format: parsing, errors, byte round-trips."""
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsubgraph import io as rio
from recsubgraph import (
    BipartiteGraph,
    EdgeListError,
    ErdosRenyiSpec,
    RecSubgraph,
    gen_erdos_renyi,
    read_edge_list,
    read_subgraph,
    write_edge_list,
    write_subgraph,
)


GOOD = """\
# comment line
bipartite 3 4 3

0 1
2 0
1 3
"""


def test_read_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(GOOD)
    g = read_edge_list(p)
    assert (g.l, g.r, g.m) == (3, 4, 3)
    assert g.edge_list() == [(0, 1), (1, 3), (2, 0)]


def test_read_out_of_range(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2 1\n0 5\n")
    with pytest.raises(EdgeListError, match=r"line 2.*\(0, 5\)"):
        read_edge_list(p)


def test_read_duplicate_lines_collapse_with_warning(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2 3\n0 0\n0 0\n1 1\n")
    with pytest.warns(UserWarning, match="duplicate"):
        g = read_edge_list(p)
    assert g.m == 2


def test_read_malformed_edge_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2 1\n0 1 extra\n")
    with pytest.raises(EdgeListError, match="line 2"):
        read_edge_list(p)


def test_read_non_integer(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2 1\n0 x\n")
    with pytest.raises(EdgeListError, match="line 2"):
        read_edge_list(p)


def test_read_bad_header(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2\n")
    with pytest.raises(EdgeListError):
        read_edge_list(p)
    p.write_text("wrongmagic 2 2 0\n")
    with pytest.raises(EdgeListError):
        read_edge_list(p)


def test_read_non_integer_header_field(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 x 1\n0 0\n")
    with pytest.raises(EdgeListError, match="non-integer header field"):
        read_edge_list(p)


def test_read_missing_header(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# only comments\n")
    with pytest.raises(EdgeListError, match="header"):
        read_edge_list(p)


def test_read_count_mismatch(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("bipartite 2 2 5\n0 0\n")
    with pytest.raises(EdgeListError, match="m=5"):
        read_edge_list(p)


def test_graph_round_trip_bytes(tmp_path):
    g = BipartiteGraph(4, 3, [0, 3, 1, 0], [2, 0, 1, 0])
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_edge_list(g, p1)
    write_edge_list(read_edge_list(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_subgraph_round_trip(tmp_path):
    sub = RecSubgraph(4, 3, [0, 3, 1], [2, 0, 1])
    p = tmp_path / "s.txt"
    write_subgraph(sub, p)
    back = read_subgraph(p)
    assert back.edge_list() == sub.edge_list()
    assert (back.l, back.r) == (4, 3)


def test_writers_emit_canonical_bytes(tmp_path):
    g = gen_erdos_renyi(ErdosRenyiSpec(l=1500, r=1200, p=0.004, seed=17))
    picks = sorted(zip(g.edge_u.tolist(), g.edge_v.tolist()))[::3]
    sub = RecSubgraph(g.l, g.r, *map(list, zip(*picks)))
    for path, write, obj, head, pairs in [
        (tmp_path / "g.txt", write_edge_list, g, f"bipartite 1500 1200 {g.m}", g.edge_list()),
        (tmp_path / "s.txt", write_subgraph, sub, f"recsubgraph 1500 1200 {len(picks)}", picks),
    ]:
        assert max(max(pair) for pair in pairs) >= 1000
        write(obj, path)
        want = "\n".join([head] + [f"{u} {v}" for u, v in sorted(pairs)]) + "\n"
        assert path.read_bytes() == want.encode()
    none = RecSubgraph(3, 4, [], [])
    write_subgraph(none, tmp_path / "none.txt")
    assert (tmp_path / "none.txt").read_bytes() == b"recsubgraph 3 4 0\n"
    # A numpy deprecation of text-mode fromstring must fail here, not in the field.
    with warnings.catch_warnings(), mock.patch.object(np, "fromstring", wraps=np.fromstring) as spy:
        warnings.simplefilter("error")
        assert read_edge_list(tmp_path / "g.txt").edge_list() == g.edge_list()
        assert read_subgraph(tmp_path / "s.txt").edge_list() == picks
    assert spy.call_count == 2


# Both ends of every width from 1 to 10 digits, up to the largest endpoint.
_EDGE_VALUES = [0] + [x for k in range(1, 10) for x in (10**k - 1, 10**k)] + [2**31 - 1]


@pytest.mark.parametrize(
    "pairs",
    [
        [(u, v) for u in _EDGE_VALUES for v in _EDGE_VALUES],
        [(v, u) for u, v in zip(_EDGE_VALUES, _EDGE_VALUES[::-1])] * 3,
        [(2**31 - 1, 0)],
        [(0, 2**31 - 1)],
        [],
    ],
    ids=["all-widths", "widths-change-per-line", "one-line-wide-u", "one-line-wide-v", "no-line"],
)
def test_formatter_matches_percent_d(pairs):
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    want = (("%d %d\n" * len(pairs)) % tuple(x for pair in pairs for x in pair)).encode()
    got = rio._format(us, vs)
    assert got.dtype == np.uint8
    assert got.tobytes() == want


def test_writer_blocks_join_seamlessly(tmp_path):
    g = gen_erdos_renyi(ErdosRenyiSpec(l=1500, r=1200, p=0.004, seed=17))
    whole, blocked = tmp_path / "whole.txt", tmp_path / "blocked.txt"
    write_edge_list(g, whole)
    # Blocks of 7 lines: most boundaries fall mid-source, one may change widths.
    with mock.patch.object(rio, "_WRITE_BLOCK", 7):
        write_edge_list(g, blocked)
    assert blocked.read_bytes() == whole.read_bytes()


def test_utf8_error_names_the_stored_byte_offset(tmp_path):
    # The offset counts the file's own bytes, "\r\n" as two.
    p = tmp_path / "g.txt"
    p.write_bytes(b"bipartite 2 2 1\r\n0 \xff\r\n")
    with pytest.raises(EdgeListError, match=r"not valid UTF-8 text \(invalid start byte at byte 19\)$"):
        read_edge_list(p)


def test_subgraph_rejects_duplicates(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("recsubgraph 2 2 2\n0 0\n0 0\n")
    with pytest.raises(EdgeListError, match="duplicate"):
        read_subgraph(p)


@pytest.mark.parametrize(
    ("read", "magic"), [(read_edge_list, "bipartite"), (read_subgraph, "recsubgraph")]
)
@pytest.mark.parametrize(
    "sides", [(10**11, 5), (5, 10**11), (2**31, 1), (1, 2**31), (2, 2**64), (2**64, 2)]
)
def test_huge_header_sides_are_malformed(tmp_path, read, magic, sides):
    # The side cap is checked before anything of size l or r is allocated,
    # and before the keys u*r + v are encoded: numpy cannot hold a side of 2**64.
    # It is checked before any line, too: under a side of 2**64, an endpoint
    # of 2**63 is in range, but int64 cannot hold it.
    p = tmp_path / "huge.txt"
    for line in ("0 0", f"{2**63} 0", f"0 {2**63}"):
        p.write_text(f"{magic} {sides[0]} {sides[1]} 1\n{line}\n")
        with pytest.raises(EdgeListError, match=r"huge\.txt: side sizes must be < 2\*\*31"):
            read(p)


@pytest.mark.parametrize(
    ("read", "magic"), [(read_edge_list, "bipartite"), (read_subgraph, "recsubgraph")]
)
def test_empty_bodies_read_without_warning(tmp_path, read, magic):
    p = tmp_path / "empty.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in (f"{magic} 3 4 0\n", f"{magic} 3 4 0", f"{magic} 3 4 0\n\n \t\n"):
            p.write_text(text)
            got = read(p)
            assert (got.l, got.r) == (3, 4)
        # A header announcing edges over a blank body is a count mismatch.
        p.write_text(f"{magic} 3 4 2\n\n")
        with pytest.raises(EdgeListError, match="m=2 but file has 0"):
            read(p)


# Lines and tokens that a body must never pass on to np.fromstring, plus
# writer-style ones that the one-call parse must read as the line loop does.
_ODD_LINES = [
    "# note", "", " \t ", "7", "0 1 2", "0 0 # c", "0\t0", "  1   0  ", "00 0",
]
_ODD_TOKENS = [
    "+1", "-1", "1_0", "\u0661", "99999999999999999999", "1.0", "x", "00", "",
    "0000000000", "00000000000",
]
# m lines of ``digits SPACE digits``, 1-10 digits a token, the last newline optional.
_WRITER_BODY = re.compile(r"(?:[0-9]{1,10} [0-9]{1,10}\n)*[0-9]{1,10} [0-9]{1,10}\n?")


@st.composite
def edge_file_text(draw):
    """A writer-style edge file, or one mutated the ways hand-edited files are."""
    magic = draw(st.sampled_from(["bipartite", "recsubgraph"]))
    l, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, l - 1), st.integers(0, r - 1))
    edges = draw(st.lists(pair, min_size=1, max_size=12))
    lines = [f"{u} {v}" for u, v in edges]
    m = len(lines)
    kinds = ["clean", "clean", "token", "token", "token", "line", "count", "range", "mixed", "empty"]
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        edges, lines, m = [], [], draw(st.sampled_from([0, 1]))
    for _ in range(draw(st.integers(2, 4)) if kind == "mixed" else 1):
        how = draw(st.sampled_from(kinds[2:-2])) if kind == "mixed" else kind
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if how == "line" or (how in ("token", "range") and not lines):
            lines.insert(at, draw(st.sampled_from(_ODD_LINES)))
        elif how == "token":
            tokens = lines[at].split() or ["0"]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            lines[at] = " ".join(tokens)
        elif how == "range":
            u, v = edges[at] if at < len(edges) else (0, 0)
            lines[at] = draw(st.sampled_from([f"{l} {v}", f"{u} {r}"]))
        elif how == "count":
            m += draw(st.sampled_from([-1, 1]))
    head = [f"{magic} {l} {r} {m}"]
    if draw(st.integers(0, 9)) == 5:
        head.insert(0, "# made by hand")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return magic, newline.join(head + lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse):
    try:
        l, r, us, vs = parse()
    except EdgeListError as exc:
        return str(exc)
    assert us.dtype == vs.dtype == np.int64
    return l, r, us.tolist(), vs.tolist()


@given(edge_file_text())
# Separator counts that fit m but lines that do not: one token, then three.
@example(("bipartite", "bipartite 3 3 1\n0\n1\n"))
@example(("recsubgraph", "recsubgraph 3 3 2\n0 1 2 0\n"))
@settings(max_examples=400)
def test_one_pass_parse_matches_line_loop(tmp_path_factory, case):
    magic, text = case
    path = tmp_path_factory.getbasetemp() / "differential.txt"
    path.write_bytes(text.encode("utf-8"))
    fromstring = np.fromstring
    bodies = []

    def writer_style_only_fromstring(data, *args, **kwargs):
        bodies.append(data.decode("utf-8"))
        assert _WRITER_BODY.fullmatch(bodies[-1]), f"fromstring saw {bodies[-1]!r}"
        return fromstring(data, *args, **kwargs)

    with mock.patch.object(np, "fromstring", writer_style_only_fromstring):
        fast = _outcome(lambda: rio._parse(path, magic))
    with open(path, encoding="utf-8") as fh:
        loop = _outcome(lambda: rio._parse_lines(path, fh.read(), magic))
    assert fast == loop
    first, _, body = text.replace("\r\n", "\n").replace("\r", "\n").partition("\n")
    if first.startswith(magic) and _WRITER_BODY.fullmatch(body) and not isinstance(loop, str):
        # Writer-style files with edges take the one-call path.
        assert bodies == [body if body.endswith("\n") else body + "\n"]
