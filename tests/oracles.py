"""Brute-force reference implementations the fast code is checked against.

Everything here is written for clarity over speed and stays independent
of the implementations in src/.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, groupby, permutations

import numpy as np

from notegraph.graph import TransitionGraph
from notegraph.nullmodels import RandomizerConfig
from notegraph.stats import EXACT_LIMIT, TestResult


def random_graph(
    rng: random.Random, max_nodes: int = 8, max_weight: int = 9, edge_prob: float = 0.4
) -> TransitionGraph:
    """A random simple directed weighted graph with at least one edge."""
    while True:
        n = rng.randint(2, max_nodes)
        nodes = rng.sample(range(0, 128), n)
        edges = {}
        for s in nodes:
            for t in nodes:
                if s != t and rng.random() < edge_prob:
                    edges[(s, t)] = rng.randint(1, max_weight)
        if edges:
            return TransitionGraph(song_id="random", edges=edges)


def out_weights(g: TransitionGraph, node: int) -> dict[int, int]:
    return {t: w for (s, t), w in g.edges.items() if s == node}


def rewire_reference(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Maslov-Sneppen double-edge swaps, one randrange pair per attempt."""
    rng = random.Random(cfg.seed)
    edges = [[s, t, w] for (s, t), w in sorted(g.edges.items())]
    edge_set = {(s, t) for s, t, _ in edges}
    n_edges = len(edges)
    for _ in range(cfg.swap_multiplier * n_edges):
        i = rng.randrange(n_edges)
        j = rng.randrange(n_edges)
        if i == j:
            continue
        a, b, _ = edges[i]
        c, d, _ = edges[j]
        if a == d or c == b:
            continue  # would create a loop
        if (a, d) in edge_set or (c, b) in edge_set:
            continue  # would create a duplicate edge
        edge_set.discard((a, b))
        edge_set.discard((c, d))
        edge_set.add((a, d))
        edge_set.add((c, b))
        edges[i][1] = d
        edges[j][1] = b
    return TransitionGraph(
        song_id=g.song_id,
        edges={(s, t): w for s, t, w in edges},
        isolated=g.nodes,
    )


def shuffle_reference(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Per-node out-weight shuffle over the sorted edge list, one
    ``rng.shuffle`` per source node."""
    rng = random.Random(cfg.seed)
    new_edges: dict[tuple[int, int], int] = {}
    for _, group in groupby(sorted(g.edges.items()), key=lambda item: item[0][0]):
        out = list(group)
        weights = [w for _, w in out]
        rng.shuffle(weights)
        new_edges.update((edge, w) for (edge, _), w in zip(out, weights))
    return TransitionGraph(song_id=g.song_id, edges=new_edges, isolated=g.nodes)


def density(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    possible = sum(1 for a in nodes for b in nodes if a != b)
    return len(g.edges) / possible


def reciprocity_binary(g: TransitionGraph) -> float:
    a = density(g)
    reciprocated = sum(1 for (s, t) in g.edges if (t, s) in g.edges)
    r = reciprocated / len(g.edges)
    return (r - a) / (1 - a)


def weighted_reciprocity_raw(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    w_recip = 0
    for a in nodes:
        for b in nodes:
            if a != b:
                w_recip += min(g.edges.get((a, b), 0), g.edges.get((b, a), 0))
    return w_recip / sum(g.edges.values())


def floyd_warshall(g: TransitionGraph, weighted: bool) -> dict[tuple[int, int], float]:
    nodes = sorted(g.nodes)
    dist = {(a, b): (0.0 if a == b else math.inf) for a in nodes for b in nodes}
    for (s, t), w in g.edges.items():
        dist[(s, t)] = float(w) if weighted else 1.0
    for k in nodes:
        for i in nodes:
            for j in nodes:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


def global_efficiency(g: TransitionGraph, weighted: bool) -> float:
    nodes = sorted(g.nodes)
    dist = floyd_warshall(g, weighted)
    total = sum(
        1.0 / dist[(a, b)]
        for a in nodes for b in nodes
        if a != b and math.isfinite(dist[(a, b)])
    )
    return total / (len(nodes) * (len(nodes) - 1))


def mean_node_entropy(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    acc = 0.0
    for node in nodes:
        out = [(t, w) for (s, t), w in g.edges.items() if s == node]
        if len(out) <= 1:
            continue
        strength = sum(w for _, w in out)
        h = 0.0
        for _, w in out:
            p = w / strength
            h -= p * math.log(p)
        acc += h / math.log(len(out))
    return acc / len(nodes)


def network_entropy(g: TransitionGraph, damping: float) -> float:
    """Dense eigen-solve of the damped chain plus direct entropy sums."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    p = np.zeros((n, n))
    for (s, t), w in g.edges.items():
        p[idx[s], idx[t]] = w
    for i in range(n):
        row_sum = p[i].sum()
        p[i] = p[i] / row_sum if row_sum > 0 else 1.0 / n
    damped = (1 - damping) * p + damping / n
    eigvals, eigvecs = np.linalg.eig(damped.T)
    k = int(np.argmin(np.abs(eigvals - 1)))
    pi = np.real(eigvecs[:, k])
    pi = pi / pi.sum()
    h = np.array([
        -sum(x * math.log(x) for x in row if x > 0) for row in damped
    ])
    return float(pi @ h)


def chords_from_stream(stream: list[tuple[int, int]]) -> list[set[int]]:
    chords: list[set[int]] = []
    last_tick = None
    for tick, pitch in stream:
        if last_tick is not None and tick == last_tick:
            chords[-1].add(pitch)
        else:
            chords.append({pitch})
            last_tick = tick
    return chords


def total_transition_weight(onsets_by_channel: dict[int, list[tuple[int, int]]]) -> int:
    total = 0
    for stream in onsets_by_channel.values():
        chords = chords_from_stream(sorted(stream))
        for a, b in zip(chords, chords[1:]):
            total += sum(1 for x in a for y in b if x != y)
    return total


def exact_two_state_stationary(damped: np.ndarray) -> np.ndarray:
    """Closed form for a 2-state chain: pi = (q, p) / (p + q)."""
    p = damped[0, 1]
    q = damped[1, 0]
    return np.array([q, p]) / (p + q)


def u_statistic_pairwise(x, y) -> float:
    """U for the first sample: wins over y, ties counted half."""
    u = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                u += 1.0
            elif xi == yj:
                u += 0.5
    return u


def mann_whitney_reference(x, y, mode: str = "auto") -> TestResult:
    """Mann-Whitney U by comparing every pair, and an exact null that
    recounts U for every labeling of the pooled sample."""
    n, m = len(x), len(y)
    u_obs = u_statistic_pairwise(x, y)
    if mode == "auto":
        mode = "exact" if n + m <= EXACT_LIMIT else "approx"
    pooled = list(x) + list(y)
    if mode == "exact":
        center = n * m / 2
        dev = abs(u_obs - center)
        hits = 0
        total = 0
        indices = range(len(pooled))
        for combo in combinations(indices, n):
            chosen = set(combo)
            xs = [pooled[i] for i in combo]
            ys = [pooled[i] for i in indices if i not in chosen]
            if abs(u_statistic_pairwise(xs, ys) - center) >= dev - 1e-12:
                hits += 1
            total += 1
        return TestResult(statistic=u_obs, p_value=hits / total, method="exact")

    mu = n * m / 2
    big_n = n + m
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in counts.values() if t > 1)
    var = (n * m / 12) * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        return TestResult(statistic=u_obs, p_value=1.0, method="normal-approximation",
                          all_tied=True)
    diff = u_obs - mu
    correction = 0.5 * (1 if diff > 0 else -1 if diff < 0 else 0)
    z = (diff - correction) / math.sqrt(var)
    p = min(1.0, 2 * (0.5 * math.erfc(abs(z) / math.sqrt(2))))
    return TestResult(statistic=u_obs, p_value=p, method="normal-approximation")
