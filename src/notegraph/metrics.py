"""Per-song scalar network measures.

Conventions used throughout:
  * natural logarithm (normalizations cancel the base anyway);
  * unreachable node pairs contribute 0 to efficiency;
  * nodes with out-degree <= 1 contribute 0 entropy but still count in
    the mean's denominator.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGraph, EmptyCollection, EmptyGraph, OutOfRange
from .graph import TransitionGraph
from .markov import node_entropies


def density(g: TransitionGraph) -> float:
    n = g.node_count
    if n < 2:
        raise DegenerateGraph(f"density undefined for {n} node(s)")
    return g.edge_count / (n * (n - 1))


def reciprocity_binary(g: TransitionGraph) -> tuple[float, bool]:
    """Reciprocated-edge excess over the density baseline.

    Returns (value, full_density_flag); a graph at density 1 has every
    edge reciprocated and the excess is reported as 1 with the flag set.
    """
    if g.edge_count == 0:
        raise EmptyGraph("reciprocity undefined without edges")
    a = density(g)
    if a >= 1.0:
        return 1.0, True
    linked = g.weights > 0
    r = int(np.count_nonzero(linked & linked.T)) / g.edge_count
    return (r - a) / (1 - a), False


def weighted_reciprocity_raw(g: TransitionGraph) -> float:
    """Reciprocated weight fraction: sum of pairwise minima over total."""
    total = g.total_weight
    if total == 0:
        raise EmptyGraph("no weight in graph")
    return float(np.minimum(g.weights, g.weights.T).sum()) / total


def mean_node_entropy(g: TransitionGraph) -> float:
    """Mean normalized Shannon entropy of per-node out-weight splits."""
    if g.node_count == 0:
        raise EmptyGraph("no nodes")
    degree = np.count_nonzero(g.weights, axis=1)
    split = degree > 1
    rows = g.weights[split]
    h = node_entropies(rows / rows.sum(axis=1, keepdims=True))
    return float((h / np.log(degree[split])).sum()) / g.node_count


# int32 distance of an unreachable pair: the sum of two still fits
_NO_PATH = 2**30 - 1


def global_efficiency(g: TransitionGraph) -> tuple[float, float]:
    """(hop, weighted): the mean inverse shortest-path distance over
    ordered node pairs, with 1 per edge and with the total edge weight as
    path cost. Unreachable pairs contribute 0. With all weights >= 1 the
    weighted value never exceeds the hop value.

    Both come from one Floyd-Warshall over a (2, n, n) int32 stack of
    path costs (n <= 128 pitches), and each slice is scored alone.
    Weights are integer counts, so the sums are exact while the total
    weight, which bounds every shortest path, stays below ``_NO_PATH``;
    at or above it ``OutOfRange`` is raised.
    """
    n = g.node_count
    if n < 2:
        raise DegenerateGraph(f"efficiency undefined for {n} node(s)")
    if g.total_weight >= _NO_PATH:
        raise OutOfRange(f"total weight {g.total_weight} not below {_NO_PATH}")
    d = np.full((2, n, n), _NO_PATH, dtype=np.int32)
    linked = g.weights > 0
    d[0][linked] = 1
    d[1][linked] = g.weights[linked]
    via = np.empty_like(d)
    for k in range(n):
        np.add(d[:, :, k, None], d[:, None, k, :], out=via)
        np.minimum(d, via, out=d)
    scores = []
    for paths in d:
        inverse = np.where(paths < _NO_PATH, paths, np.inf)
        np.fill_diagonal(inverse, np.inf)  # a node's distance to itself is not a pair
        np.divide(1.0, inverse, out=inverse)
        scores.append(float(inverse.sum()) / (n * (n - 1)))
    hop, weighted = scores
    return hop, weighted


def weight_histogram(g: TransitionGraph) -> dict[int, int]:
    """Edge count per edge weight."""
    weights, counts = np.unique(g.weights[g.weights > 0], return_counts=True)
    return {int(w): c for w, c in zip(weights.tolist(), counts.tolist())}


def weight_ccdf(weights: Sequence[int] | np.ndarray,
                counts: Sequence[int] | np.ndarray) -> list[tuple[int, float]]:
    """P(W >= w) over every edge weight of a collection, given as the
    (weight, count) entries of its songs' weight histograms; a weight may
    repeat across songs. A count below 1 raises ValueError.
    """
    weights = np.asarray(weights, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    low = np.flatnonzero(counts < 1)
    if len(low):
        raise ValueError(f"weight {weights[low[0]]}: count {counts[low[0]]} is below 1")
    if not len(counts):
        raise EmptyCollection("no edges in collection")
    distinct, at = np.unique(weights, return_inverse=True)
    # float sums of int counts are exact while the total is below 2**53
    at_least = np.cumsum(np.bincount(at, weights=counts)[::-1])[::-1]
    return list(zip(distinct.tolist(), (at_least / at_least[0]).tolist()))


def compute_report(g: TransitionGraph, shuffled: Iterable[TransitionGraph]) -> dict[str, float]:
    """Score one song graph against its out-weight shuffles, which
    normalize the weighted reciprocity. ``shuffled`` is any iterable, and
    each replica is scored as it arrives. Returns the song's measures and
    flags by name, and the shuffled replicas' mean weighted reciprocity,
    which is the baseline that normalized it."""
    rho, full = reciprocity_binary(g)
    r = weighted_reciprocity_raw(g)
    r_shuffled = [weighted_reciprocity_raw(x) for x in shuffled]
    r_nm = sum(r_shuffled) / len(r_shuffled)
    degenerate = r_nm >= 1.0
    hop, weighted = global_efficiency(g)
    return {
        "vertex_count": g.node_count,
        "edge_count": g.edge_count,
        "density": density(g),
        "reciprocity_binary": rho,
        "weighted_reciprocity_raw": r,
        "weighted_reciprocity_norm": math.nan if degenerate else (r - r_nm) / (1 - r_nm),
        "mean_node_entropy": mean_node_entropy(g),
        "efficiency": hop,
        "weighted_efficiency": weighted,
        "full_density": full,  # binary reciprocity undefined at density 1
        "degenerate_baseline": degenerate,  # r_NM = 1, normalized value undefined
        "null_shuffled_reciprocity_mean": r_nm,
    }
