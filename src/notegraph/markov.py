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
class StationaryDistribution:
    probabilities: np.ndarray
    residual: float  # L1 norm of pi @ P_damped - pi


@dataclass
class NetworkEntropy:
    total: float
    stationary: StationaryDistribution


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


def stationary_distribution(m: np.ndarray) -> StationaryDistribution:
    """Power iteration on the damped matrix ``m`` from the uniform start
    until the L1 step < _TOL."""
    n = len(m)
    pi = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITER):
        nxt = pi @ m
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < _TOL:
            pi = nxt
            break
        pi = nxt
    residual = float(np.abs(pi @ m - pi).sum())
    if residual > _TOL * 10:
        raise NonConvergence(residual, _MAX_ITER)
    return StationaryDistribution(probabilities=pi, residual=residual)


def node_entropies(m: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy, natural log. Zero entries contribute 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0, m * np.log(m), 0.0)
    return -terms.sum(axis=1)


def network_entropy(g: TransitionGraph, damping: float = DEFAULT_DAMPING) -> NetworkEntropy:
    """Stationary-weighted mean of the damped matrix's node entropies."""
    m = stochastic_matrix(g, damping=damping)
    pi = stationary_distribution(m)
    total = 0.0 if len(m) == 1 else float(pi.probabilities @ node_entropies(m))
    return NetworkEntropy(total=total, stationary=pi)
