"""Markov-chain view of a transition graph: damped stochastic matrix,
stationary distribution by GTH elimination, and entropy rate.

Damping mixes the row-normalized transition matrix with the uniform
matrix, which makes the chain irreducible and aperiodic so the
stationary distribution exists and is unique. Rows of nodes with no
out-edges are set uniform before damping.
"""

from __future__ import annotations

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


def stationary_distribution(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(pi, residual): the stationary vector of the damped matrix ``m`` by
    GTH elimination (Grassmann, Taksar & Heyman 1985), and its L1
    residual. States are censored out from the last to the second, then
    the vector is back-substituted from the first. No step subtracts, so
    the solve is stable on any irreducible chain; damping makes every
    entry of ``m`` positive, so no pivot is 0.

    Every product is an elementwise multiply and a numpy sum, never a
    BLAS call, so the bytes do not depend on the BLAS kernel the CPU
    selects. ``NonConvergence`` is raised when the L1 residual
    ``|pi m - pi|`` is not below ``_MAX_RESIDUAL`` (or is not finite).
    """
    n = len(m)
    p = m.copy()
    for k in range(n - 1, 0, -1):
        # views updated in place: no slice is written back onto itself
        col = p[:k, k]
        col /= np.add.reduce(p[k, :k])
        block = p[:k, :k]
        block += col[:, None] * p[k, :k]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = np.add.reduce(pi[:k] * p[:k, k])
    pi /= np.add.reduce(pi)
    residual = float(np.add.reduce(np.abs(np.add.reduce(pi[:, None] * m, axis=0) - pi)))
    if not residual <= _MAX_RESIDUAL:
        raise NonConvergence(residual)
    return pi, residual


def node_entropies(m: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy, natural log. Zero entries contribute 0."""
    logs = np.log(m, out=np.zeros_like(m), where=m > 0)
    return -(m * logs).sum(axis=1)


def network_entropy(g: TransitionGraph, damping: float = DEFAULT_DAMPING) -> tuple[float, float]:
    """(entropy, residual): the stationary-weighted mean of the damped
    matrix's node entropies, and the stationary solve's L1 residual."""
    m = stochastic_matrix(g, damping=damping)
    pi, residual = stationary_distribution(m)
    return 0.0 if len(m) == 1 else float((pi * node_entropies(m)).sum()), residual
