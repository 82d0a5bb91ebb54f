"""Per-song scalar network measures.

Conventions used throughout:
  * natural logarithm (normalizations cancel the base anyway);
  * unreachable node pairs contribute 0 to efficiency;
  * nodes with out-degree <= 1 contribute 0 entropy but still count in
    the mean's denominator.
"""

from __future__ import annotations

import math
from typing import Sequence

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


def check_efficiency(g: TransitionGraph) -> None:
    """Raise what ``global_efficiency`` raises for ``g``: ``DegenerateGraph``
    below 2 nodes, and ``OutOfRange`` when the total weight is not below
    ``_NO_PATH``."""
    n = g.node_count
    if n < 2:
        raise DegenerateGraph(f"efficiency undefined for {n} node(s)")
    if g.total_weight >= _NO_PATH:
        raise OutOfRange(f"total weight {g.total_weight} not below {_NO_PATH}")


def global_efficiency(graphs: Sequence[TransitionGraph]) -> list[tuple[float, float]]:
    """(hop, weighted) of each graph: the mean inverse shortest-path
    distance over ordered node pairs, with 1 per edge and with the total
    edge weight as path cost. Unreachable pairs contribute 0. With all
    weights >= 1 the weighted value never exceeds the hop value.

    All come from one Floyd-Warshall over a (B, 2, N, N) int32 stack of
    path costs, N the largest node count (at most 128 pitches); a
    smaller graph is padded with ``_NO_PATH``, which no path through
    it can undercut, so its own block ends as it would alone. Each
    graph's two (n, n) slices are then scored alone. Weights are integer
    counts, so the sums are exact while the total weight, which bounds
    every shortest path, stays below ``_NO_PATH``. Before any work, a
    graph ``check_efficiency`` refuses raises its error.
    """
    for g in graphs:
        check_efficiency(g)
    if not graphs:
        return []
    size = max(g.node_count for g in graphs)
    d = np.full((len(graphs), 2, size, size), _NO_PATH, dtype=np.int32)
    for costs, g in zip(d, graphs):
        n = g.node_count
        linked = g.weights > 0
        costs[0, :n, :n][linked] = 1
        costs[1, :n, :n][linked] = g.weights[linked]
    via = np.empty_like(d)
    for k in range(size):
        np.add(d[..., k, None], d[..., None, k, :], out=via)
        np.minimum(d, via, out=d)
    scores = []
    for costs, g in zip(d, graphs):
        n = g.node_count
        pair = []
        for paths in costs[:, :n, :n]:
            inverse = np.where(paths < _NO_PATH, paths, np.inf)
            np.fill_diagonal(inverse, np.inf)  # a node's distance to itself is not a pair
            np.divide(1.0, inverse, out=inverse)
            pair.append(float(inverse.sum()) / (n * (n - 1)))
        scores.append(tuple(pair))
    return scores


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


def compute_report(g: TransitionGraph, shuffled: np.ndarray,
                   efficiency: tuple[float, float]) -> dict[str, float]:
    """Score one song graph against its out-weight shuffles, which
    normalize the weighted reciprocity. ``shuffled`` is the (R, E) array
    of replica weights in edge order that ``shuffle_out_weights`` draws
    for ``g``, and ``efficiency`` is g's (hop, weighted) pair from
    ``global_efficiency``. Returns the song's measures and flags by
    name, and the shuffled replicas' mean weighted reciprocity, which is
    the baseline that normalized it."""
    rho, full = reciprocity_binary(g)
    r = weighted_reciprocity_raw(g)
    # a replica's reciprocated weight sums min(w(a, b), w(b, a)) over the
    # edges (a, b) whose reverse (b, a) is an edge too; the weights are
    # whole counts, so each sum is the exact one weighted_reciprocity_raw
    # takes over the replica's matrix
    src, tgt, _ = g.edge_rows
    index = np.full(g.weights.shape, -1)
    index[src, tgt] = np.arange(len(src))
    reverse = index[tgt, src]
    paired = reverse >= 0
    reciprocated = np.minimum(shuffled[:, paired], shuffled[:, reverse[paired]]).sum(axis=1)
    total = g.total_weight
    r_shuffled = [x / total for x in reciprocated.tolist()]
    r_nm = sum(r_shuffled) / len(r_shuffled)
    degenerate = r_nm >= 1.0
    hop, weighted = efficiency
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
