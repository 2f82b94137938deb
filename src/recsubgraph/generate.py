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

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .graph import BipartiteGraph, _check_int, _check_real, _check_side_limit

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
STREAM_PARTITION = 4


@functools.cache
def _key_words() -> type:
    """The seed sequence type ``KeyWords(seed, role)``, whose two ``uint64``
    words are ``[seed, role]``.

    Made on first use, so importing this module does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeyWords(ISeedSequence):
        def __init__(self, seed: int, role: int) -> None:
            self.words = (seed, role)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.array(self.words, dtype=dtype)

    return KeyWords


def philox_stream(seed: int, role: int) -> np.random.Generator:
    """A Philox generator keyed by ``(seed, role)``; ``seed`` must fit in 64 bits
    (the specs and ``SolverConfig`` check it).

    Philox takes its key from two ``uint64`` words of its seed sequence, so
    the state equals ``Philox(key=[seed, role])``'s.  Passing ``key=`` would
    also draw OS entropy for a seed sequence that the key then replaces.
    """
    return np.random.Generator(np.random.Philox(_key_words()(seed, role)))


@dataclass(frozen=True)
class FixedDegreeSpec:
    """Fixed out-degree model: ``l`` sources, ``r`` targets, ``d`` draws each."""

    l: int
    r: int
    d: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("r", self.r, 1, None, ValueError)
        _check_int("d", self.d, 1, None, ValueError)
        _check_int("seed", self.seed, 0, 1 << 64, ValueError)
        _check_side_limit(self.l, self.r, ValueError)  # before anything is drawn


@dataclass(frozen=True)
class ErdosRenyiSpec:
    """Bipartite Erdős–Rényi model: each of the ``l * r`` pairs kept w.p. ``p``."""

    l: int
    r: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        _check_side_limit(self.l, self.r, ValueError)  # before anything is drawn
        _check_real("p", self.p, ValueError)
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must be a real number in [0, 1], got {self.p!r}")
        _check_int("seed", self.seed, 0, 1 << 64, ValueError)


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
    else:
        idx = _gap_walk(total, spec.p, philox_stream(spec.seed, STREAM_GENERATE))
    return BipartiteGraph(spec.l, spec.r, idx // spec.r, idx % spec.r)


def _gap_walk(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending slots of ``[0, total)``, each kept with probability ``p``.

    The walk starts before slot 0 and moves by Geometric(p) gaps, drawn in
    batches.  ``total`` is ``l * r < 2**62`` and ``0 < p < 1``.
    """
    chunks: list[np.ndarray] = []
    pos = -1
    while True:
        expect = (total - pos) * p
        batch = int(expect + 6.0 * math.sqrt(expect + 1.0)) + 16
        # numpy saturates huge gaps at 2**63-1; any gap past total + 1 ends
        # the walk just the same.
        gaps = np.minimum(rng.geometric(p, size=batch), total + 1)
        here = pos + np.cumsum(gaps)
        # Each sum up to the first that reaches total is below 2*total + 1,
        # so exact.  Later ones can pass 2**63 and wrap around to negative
        # values, so they are never read.
        done = np.flatnonzero(here >= total)
        if done.size:
            chunks.append(here[: done[0]])
            break
        chunks.append(here)
        pos = int(here[-1])
    return np.concatenate(chunks)


# Each generated model's spec type and sampler.
_MODELS = {
    "fixed-degree": (FixedDegreeSpec, gen_fixed_degree),
    "erdos-renyi": (ErdosRenyiSpec, gen_erdos_renyi),
}
# Parameters each generated model needs: its spec's fields before the last, seed.
MODEL_PARAMS = {m: tuple(f.name for f in fields(spec)[:-1]) for m, (spec, _) in _MODELS.items()}


def _model_spec(model: str, seed: int, **params) -> FixedDegreeSpec | ErdosRenyiSpec:
    """``model``'s spec from the ``params`` it takes; raises ``ValueError`` for
    an unknown model, a missing parameter and any field the spec refuses."""
    if model not in tuple(_MODELS):
        raise ValueError(f"unknown model {model!r}; expected one of {tuple(_MODELS)}")
    names = MODEL_PARAMS[model]
    if any(params.get(name) is None for name in names):
        raise ValueError(f"{model} model needs {', '.join(names)}")
    return _MODELS[model][0](*(params[name] for name in names), seed)


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
    spec = _model_spec(model, seed, l=l, r=r, d=d, p=p)
    return _MODELS[model][1](spec)
