"""Markov-chain view of a transition graph: damped stochastic matrix,
stationary distribution by power iteration, and entropy rate.

Damping mixes the row-normalized transition matrix with the uniform
matrix, which makes the chain irreducible and aperiodic so the
stationary distribution exists and is unique. Rows of nodes with no
out-edges are set uniform before damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSetting, EmptyGraph, NonConvergence
from .graph import TransitionGraph

DEFAULT_DAMPING = 0.05
_TOL = 1e-12  # power iteration stops at an L1 step below this
_MAX_ITER = 100_000


@dataclass
class StochasticMatrix:
    raw: np.ndarray  # row-normalized transitions, dangling rows uniform
    damped: np.ndarray


@dataclass
class StationaryDistribution:
    probabilities: np.ndarray
    residual: float  # L1 norm of pi @ P_damped - pi


@dataclass
class NetworkEntropy:
    node_entropies: np.ndarray  # rows of the damped matrix
    total: float
    total_undamped_rows: float  # sensitivity variant: rows of the raw matrix
    stationary: StationaryDistribution


def check_damping(damping: float) -> None:
    if not 0 < damping < 1:
        raise BadSetting(f"damping must lie in (0, 1), got {damping}")


def stochastic_matrix(g: TransitionGraph, damping: float = DEFAULT_DAMPING) -> StochasticMatrix:
    check_damping(damping)
    n = g.node_count
    if n == 0:
        raise EmptyGraph("no nodes")
    raw = g.weights.copy()
    strengths = raw.sum(axis=1)
    dangling = strengths == 0
    raw[dangling] = 1.0 / n
    raw[~dangling] /= strengths[~dangling, None]
    damped = (1 - damping) * raw + damping / n
    return StochasticMatrix(raw=raw, damped=damped)


def stationary_distribution(m: StochasticMatrix) -> StationaryDistribution:
    """Power iteration from the uniform start until the L1 step < _TOL."""
    n = len(m.damped)
    pi = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITER):
        nxt = pi @ m.damped
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < _TOL:
            pi = nxt
            break
        pi = nxt
    residual = float(np.abs(pi @ m.damped - pi).sum())
    if residual > _TOL * 10:
        raise NonConvergence(residual, _MAX_ITER)
    return StationaryDistribution(probabilities=pi, residual=residual)


def node_entropies(m: StochasticMatrix, damped_rows: bool = True) -> np.ndarray:
    """Row-wise Shannon entropy, natural log. Zero entries contribute 0."""
    rows = m.damped if damped_rows else m.raw
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log(rows), 0.0)
    return -terms.sum(axis=1)


def network_entropy(g: TransitionGraph, damping: float = DEFAULT_DAMPING) -> NetworkEntropy:
    """Stationary-weighted mean of node entropies.

    ``total`` scores the rows of the damped matrix; ``total_undamped_rows``
    scores the rows of the undamped matrix instead (a sensitivity
    variant). The stationary weights always come from the damped chain.
    """
    m = stochastic_matrix(g, damping=damping)
    pi = stationary_distribution(m)
    h = node_entropies(m, damped_rows=True)
    if len(m.damped) == 1:
        total = total_raw = 0.0
    else:
        total = float(pi.probabilities @ h)
        total_raw = float(pi.probabilities @ node_entropies(m, damped_rows=False))
    return NetworkEntropy(
        node_entropies=h, total=total, total_undamped_rows=total_raw, stationary=pi
    )
