"""Output checks that share no code with the package.

Selections are checked directly with numpy: targets in range, at most ``c``
picks per source, no duplicate pick, every pick a candidate edge, coverage
recomputed from the picks, and coverage within the upper bound, which is
recomputed here too.  The package's own ``validate`` is not used because it
does not range-check targets.
"""
from __future__ import annotations

import numpy as np


class Tally:
    """Operations attempted and failed over a run, with the first problems."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def candidate_keys(edge_u, edge_v, r: int) -> np.ndarray:
    """Distinct candidate edges as sorted ``u * r + v`` keys."""
    eu = np.asarray(edge_u, dtype=np.int64)
    ev = np.asarray(edge_v, dtype=np.int64)
    return np.unique(eu * r + ev)


def upper_bound(l: int, r: int, keys: np.ndarray, c: int, a: int) -> int:
    """``min(floor(l*c/a), #targets with at least a distinct candidate sources)``."""
    in_deg = np.bincount(keys % r, minlength=r) if keys.size else np.zeros(r, np.int64)
    return int(min(l * c // a, np.count_nonzero(in_deg >= a)))


def selection_problems(
    l: int,
    r: int,
    keys: np.ndarray,
    sel_u,
    sel_v,
    c: int,
    a: int,
    covered: int,
    bound: int,
) -> list[str]:
    """Everything wrong with picks ``(sel_u[i], sel_v[i])`` claiming ``covered``."""
    su = np.asarray(sel_u, dtype=np.int64)
    sv = np.asarray(sel_v, dtype=np.int64)
    out: list[str] = []
    bad = (su < 0) | (su >= l) | (sv < 0) | (sv >= r)
    if bad.any():
        return [f"{int(bad.sum())} picks out of range"]
    if su.size and int(np.bincount(su, minlength=l).max()) > c:
        out.append(f"a source picks more than c={c} targets")
    pick = su * r + sv
    ordered = np.sort(pick)
    if np.any(ordered[1:] == ordered[:-1]):
        out.append("duplicate pick")
    pos = np.minimum(np.searchsorted(keys, pick), max(keys.size - 1, 0))
    if pick.size and (keys.size == 0 or np.any(keys[pos] != pick)):
        out.append("pick is not a candidate edge")
    got = int(np.count_nonzero(np.bincount(sv, minlength=r) >= a)) if sv.size else 0
    if got != covered:
        out.append(f"reported covered={covered}, picks cover {got}")
    if covered > bound:
        out.append(f"covered={covered} exceeds upper bound {bound}")
    return out


def subgraph_pairs(sub) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` arrays of a selection, read from its raw offset arrays."""
    indptr = np.asarray(sub.indptr, dtype=np.int64)
    return np.repeat(np.arange(sub.l, dtype=np.int64), np.diff(indptr)), np.asarray(
        sub.targets, dtype=np.int64
    )


def matching_problems(match_l, match_r, size: int, r: int, keys: np.ndarray) -> list[str]:
    """A matching must use candidate edges and have mutually inverse partners."""
    ml = np.asarray(match_l, dtype=np.int64)
    mr = np.asarray(match_r, dtype=np.int64)
    out: list[str] = []
    u = np.flatnonzero(ml >= 0)
    v = ml[u]
    if u.size != size or np.count_nonzero(mr >= 0) != size:
        out.append(f"size {size} disagrees with partner arrays")
    if np.any(v >= mr.size) or np.any(mr[v] != u):
        return out + ["partner arrays are not inverse"]
    if u.size:
        pos = np.minimum(np.searchsorted(keys, u * r + v), max(keys.size - 1, 0))
        if keys.size == 0 or np.any(keys[pos] != u * r + v):
            out.append("matched pair is not a candidate edge")
    return out


def max_matching_size(l: int, r: int, keys: np.ndarray) -> int:
    """Maximum matching by simple augmenting paths (Kuhn); small graphs only."""
    adj: list[list[int]] = [[] for _ in range(l)]
    for key in keys.tolist():
        adj[key // r].append(key % r)
    partner = [-1] * r

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if partner[v] < 0 or augment(partner[v], seen):
                    partner[v] = u
                    return True
        return False

    return sum(augment(u, [False] * r) for u in range(l))


def parse_edge_file(text: str, magic: str) -> tuple[int, int, np.ndarray, np.ndarray]:
    """``(l, r, u, v)`` of an edge-list file; raises ValueError when malformed."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != magic:
        raise ValueError(f"bad header {lines[0]!r}")
    l, r, m = (int(x) for x in head[1:])
    flat = np.array(" ".join(lines[1:]).split(), dtype=np.int64)
    if flat.size != 2 * m:
        raise ValueError(f"header announces {m} edges, file has {flat.size / 2}")
    return l, r, flat[0::2], flat[1::2]
