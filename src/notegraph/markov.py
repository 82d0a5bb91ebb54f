"""Markov-chain view of a transition graph: damped stochastic matrix,
stationary distribution by GTH elimination, and entropy rate.

Damping mixes the row-normalized transition matrix with the uniform
matrix, which makes the chain irreducible and aperiodic so the
stationary distribution exists and is unique. Rows of nodes with no
out-edges are set uniform before damping. The solve runs over a stack
of songs at once (``network_entropy`` takes a sequence of graphs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import BadSetting, EmptyGraph, NonConvergence
from .graph import TransitionGraph

DEFAULT_DAMPING = 0.05
_MAX_RESIDUAL = 1e-11  # L1 residual above which the solve is refused


def check_damping(damping: float) -> None:
    if not 0 < damping < 1:
        raise BadSetting(f"damping must lie in (0, 1), got {damping}")


def stochastic_matrix(g: TransitionGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """The damped transition matrix: row-normalized weights, dangling
    rows uniform, mixed with the uniform matrix."""
    check_damping(damping)
    n = g.node_count
    if n == 0:
        raise EmptyGraph("no nodes")
    raw = g.weights.copy()
    strengths = raw.sum(axis=1)
    dangling = strengths == 0
    raw[dangling] = 1.0 / n
    raw[~dangling] /= strengths[~dangling, None]
    return (1 - damping) * raw + damping / n


def _padded(ms: Sequence[np.ndarray]) -> np.ndarray:
    """The damped matrices ``ms`` as one (B, N, N) float stack, N the
    largest order. Past a matrix's own n states, state n links to state
    0 and each further state k to k - 1, and the real rows hold 0 in the
    padded columns. Each padded state then has a lower neighbour to
    censor onto, and no real state reaches one."""
    size = max(map(len, ms))
    p = np.zeros((len(ms), size, size))
    for stack, m in zip(p, ms):
        n = len(m)
        stack[:n, :n] = m
        if n < size:
            stack[n, 0] = 1.0
            stack[np.arange(n + 1, size), np.arange(n, size - 1)] = 1.0
    return p


def _gth(p: np.ndarray) -> np.ndarray:
    """The unnormalised stationary vectors of a (B, N, N) stack by GTH
    elimination (Grassmann, Taksar & Heyman 1985), which overwrites
    ``p``. States are censored out from the last to the second, then the
    vectors are back-substituted from the first.

    On a ``_padded`` stack, censoring a padded state divides 0 by its one
    link, so every update to the real block adds exactly 0: each real
    block runs the steps it would run alone, and the padded states get
    0."""
    size = p.shape[-1]
    for k in range(size - 1, 0, -1):
        # views updated in place: no slice is written back onto itself
        col = p[:, :k, k]
        col /= np.add.reduce(p[:, k, :k], axis=-1)[:, None]
        block = p[:, :k, :k]
        block += col[:, :, None] * p[:, k, None, :k]
    pi = np.zeros(p.shape[:2])
    pi[:, 0] = 1.0
    for k in range(1, size):
        pi[:, k] = np.add.reduce(pi[:, :k] * p[:, :k, k], axis=-1)
    return pi


def stationary_distributions(
        ms: Sequence[np.ndarray]) -> list[tuple[np.ndarray, float] | NonConvergence]:
    """(pi, residual) of each damped matrix: its stationary vector, from
    one GTH solve over the stack of them all, and the vector's L1
    residual ``|pi m - pi|``. No step subtracts, so the solve is stable on
    any irreducible chain; damping makes every entry of an ``m``
    positive, so no pivot is 0.

    The normalisation and the residual are taken per matrix, over its
    own states. Every product is an elementwise multiply and a numpy
    sum, never a BLAS call, so the bytes do not depend on the BLAS kernel
    the CPU selects. A matrix whose residual is not below
    ``_MAX_RESIDUAL`` (or is not finite) gets its ``NonConvergence`` in
    its place, and the others keep their vectors.
    """
    if not ms:
        return []
    pi = _gth(_padded(ms))
    solved = []
    for x, m in zip(pi, ms):
        x = x[:len(m)]
        x /= np.add.reduce(x)
        residual = float(np.add.reduce(np.abs(np.add.reduce(x[:, None] * m, axis=0) - x)))
        solved.append((x, residual) if residual <= _MAX_RESIDUAL else NonConvergence(residual))
    return solved


def stationary_distribution(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(pi, residual) of one damped matrix, as ``stationary_distributions``
    solves it; raises its ``NonConvergence``."""
    (solved,) = stationary_distributions([m])
    if isinstance(solved, NonConvergence):
        raise solved
    return solved


def node_entropies(m: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy, natural log. Zero entries contribute 0."""
    logs = np.log(m, out=np.zeros_like(m), where=m > 0)
    return -(m * logs).sum(axis=1)


def network_entropy(graphs: Sequence[TransitionGraph],
                    damping: float = DEFAULT_DAMPING) -> list[tuple[float, float] | NonConvergence]:
    """(entropy, residual) of each graph: the stationary-weighted mean of
    its damped matrix's node entropies, and the stationary solve's L1
    residual. One GTH solve covers them all. A graph whose solve fails
    its residual bound gets its ``NonConvergence`` in its place; a
    setting or graph that ``stochastic_matrix`` refuses raises before
    any solve."""
    ms = [stochastic_matrix(g, damping=damping) for g in graphs]
    return [
        solved if isinstance(solved, NonConvergence)
        else (0.0 if len(m) == 1 else float((solved[0] * node_entropies(m)).sum()), solved[1])
        for m, solved in zip(ms, stationary_distributions(ms))
    ]
