"""Seeded random candidate-graph generators.

Two input models:

* fixed out-degree — every source draws ``d`` targets uniformly *with
  replacement*, so parallel edges are possible and deliberately kept (the
  selection analysis charges for such wasted duplicates);
* bipartite Erdős–Rényi ``G(l, r, p)`` — every (u, v) pair is an edge
  independently with probability ``p``; always simple.

All randomness comes from counter-based Philox streams keyed with
``(seed, role)``; the role word keeps generator and solver streams sharing one
user seed decorrelated.  Same spec (including seed) means byte-identical
output, regardless of platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteGraph

__all__ = [
    "FixedDegreeSpec",
    "ErdosRenyiSpec",
    "gen_fixed_degree",
    "gen_erdos_renyi",
    "generate_instance",
]

# Role words for Philox stream separation (second 64-bit key word).
STREAM_GENERATE = 1
STREAM_SAMPLING = 2
STREAM_GREEDY = 3
STREAM_PARTITION = 4


def philox_stream(seed: int, role: int) -> np.random.Generator:
    """A Philox generator keyed by ``(seed, role)``; ``seed`` must fit in 64 bits."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, role], dtype=np.uint64))
    )


@dataclass(frozen=True)
class FixedDegreeSpec:
    """Fixed out-degree model: ``l`` sources, ``r`` targets, ``d`` draws each."""

    l: int
    r: int
    d: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class ErdosRenyiSpec:
    """Bipartite Erdős–Rényi model: each of the ``l * r`` pairs kept w.p. ``p``."""

    l: int
    r: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l < 0 or self.r < 0:
            raise ValueError(f"side sizes must be >= 0, got l={self.l}, r={self.r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


def gen_fixed_degree(spec: FixedDegreeSpec) -> BipartiteGraph:
    """Sample the fixed out-degree model; exactly ``l * d`` edges, duplicates kept."""
    rng = philox_stream(spec.seed, STREAM_GENERATE)
    ev = rng.integers(0, spec.r, size=spec.l * spec.d, dtype=np.int64)
    eu = np.repeat(np.arange(spec.l, dtype=np.int64), spec.d)
    return BipartiteGraph(spec.l, spec.r, eu, ev)


def gen_erdos_renyi(spec: ErdosRenyiSpec) -> BipartiteGraph:
    """Sample bipartite Erdős–Rényi in O(m) via geometric gap skipping.

    Walking the ``l * r`` pair slots in row-major order with Geometric(p) gaps
    includes each slot independently with probability ``p``, so only realized
    edges cost work.
    """
    total = spec.l * spec.r
    empty = np.empty(0, dtype=np.int64)
    if total == 0 or spec.p <= 0.0:
        return BipartiteGraph(spec.l, spec.r, empty, empty)
    if spec.p >= 1.0:
        idx = np.arange(total, dtype=np.int64)
        return BipartiteGraph(spec.l, spec.r, idx // spec.r, idx % spec.r)
    rng = philox_stream(spec.seed, STREAM_GENERATE)
    chunks: list[np.ndarray] = []
    pos = -1
    while True:
        expect = (total - pos) * spec.p
        batch = int(expect + 6.0 * math.sqrt(expect + 1.0)) + 16
        # numpy saturates huge gaps at 2**63-1, which would overflow the
        # cumsum; any gap past total + 1 ends the walk just the same.
        gaps = np.minimum(rng.geometric(spec.p, size=batch), total + 1)
        here = pos + np.cumsum(gaps)
        if here[-1] >= total:
            chunks.append(here[here < total])
            break
        chunks.append(here)
        pos = int(here[-1])
    idx = np.concatenate(chunks)
    return BipartiteGraph(spec.l, spec.r, idx // spec.r, idx % spec.r)


# Parameters each generated model needs, besides the seed.
MODEL_PARAMS = {"fixed-degree": ("l", "r", "d"), "erdos-renyi": ("l", "r", "p")}


def _check_model_params(model: str, **params) -> None:
    """Raise ``ValueError`` unless ``params`` names everything ``model`` needs."""
    if model not in MODEL_PARAMS:
        raise ValueError(f"unknown model {model!r}; expected one of {tuple(MODEL_PARAMS)}")
    if any(params.get(name) is None for name in MODEL_PARAMS[model]):
        raise ValueError(f"{model} model needs {', '.join(MODEL_PARAMS[model])}")


def generate_instance(
    model: str,
    seed: int,
    *,
    l: int | None = None,
    r: int | None = None,
    d: int | None = None,
    p: float | None = None,
) -> BipartiteGraph:
    """Sample one instance of ``model`` ("fixed-degree" or "erdos-renyi")."""
    _check_model_params(model, l=l, r=r, d=d, p=p)
    if model == "fixed-degree":
        return gen_fixed_degree(FixedDegreeSpec(l, r, d, seed))
    return gen_erdos_renyi(ErdosRenyiSpec(l, r, p, seed))
