"""Randomized graph baselines: degree-preserving rewiring and local
out-weight shuffling.

Both models are deterministic given (graph, seed). Replica seeds are
derived as master_seed XOR replica_index so replicas can be generated
independently and in parallel.

The shuffle replays the draws that ``random.Random.shuffle`` makes on
each row from a plan derived once per graph (``_shuffle_plan``), so
its replicas are those of ``rng.shuffle`` without the cost of calling
it; the oracle tests compare the two on every row length a graph of
128 nodes can hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BadSetting, EmptyGraph, TooFewEdges
from .graph import TransitionGraph

@dataclass(frozen=True)
class RandomizerConfig:
    seed: int = 0
    swap_multiplier: int = 10  # attempted swaps = multiplier * |E|
    null_samples: int = 10

    def __post_init__(self):
        if self.swap_multiplier < 1:
            raise BadSetting(f"swap_multiplier must be >= 1, got {self.swap_multiplier}")
        if self.null_samples < 1:
            raise BadSetting(f"null_samples must be >= 1, got {self.null_samples}")


def replica_seed(master_seed: int, index: int) -> int:
    return master_seed ^ index


def rewire_edges(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Directed double-edge swaps; in/out degree sequences kept exactly.

    Each attempt draws two edges i, j with ``rng.randrange(|E|)``; edges
    are numbered in (source, target) order, the row-major order of the
    nonzero entries of ``weights``. The swap (a->b, c->d) => (a->d, c->b)
    is rejected when a == c (that covers i == j) or when it would create
    a loop or duplicate an existing edge. Each edge keeps its weight
    through the move, so the weight multiset is conserved too.

    Sources never move, so the loop keeps only each edge's target (a
    ``node_list`` index) and an n*n adjacency bitmap whose diagonal is
    set: a swap that would make a loop then fails the same test as one
    that would duplicate an edge.
    """
    if g.edge_count < 2:
        raise TooFewEdges(f"need >= 2 edges to rewire, got {g.edge_count}")
    rng = random.Random(cfg.seed)
    w = g.weights
    n = g.node_count
    src, tgt, weight = g.edge_rows
    n_edges = len(src)
    row = (src * n).tolist()
    tgt = tgt.tolist()
    adj = bytearray(((w > 0) | np.eye(n, dtype=bool)).tobytes())
    for _ in range(cfg.swap_multiplier * n_edges):
        i = rng.randrange(n_edges)
        j = rng.randrange(n_edges)
        ri = row[i]
        rj = row[j]
        b = tgt[i]
        d = tgt[j]
        if ri == rj or adj[ri + d] or adj[rj + b]:
            continue
        adj[ri + b] = adj[rj + d] = 0
        adj[ri + d] = adj[rj + b] = 1
        tgt[i] = d
        tgt[j] = b
    out = np.zeros((n, n))
    out[src, tgt] = weight
    return g.with_weights(out)


def _shuffle_plan(g: TransitionGraph) -> list[tuple[int, int, int, int]]:
    """The draws of ``rng.shuffle`` on each row's stretch of
    ``g.edge_rows``, one ``(i, start, n, k)`` per draw: row by row in
    node order, ``i`` runs from the row's last edge down to
    ``start + 1``, ``n = i - start + 1`` and ``k = n.bit_length()``. A
    row with fewer than 2 edges draws nothing and adds none."""
    size = np.bincount(g.edge_rows[0], minlength=g.node_count)
    ends = np.cumsum(size)
    plan = []
    for start, end in zip((ends - size).tolist(), ends.tolist()):
        for i in range(end - 1, start, -1):
            n = i - start + 1
            plan.append((i, start, n, n.bit_length()))
    return plan


def shuffle_out_weights(g: TransitionGraph, cfg: RandomizerConfig, *,
                        plan: list[tuple[int, int, int, int]] | None = None) -> TransitionGraph:
    """Permute each node's out-edge weights among its own out-edges.

    Topology and per-node out-strength are unchanged by construction.
    The result equals, row by row in node order, one ``rng.shuffle``
    call on the row's nonzero entries of ``weights``, but the draws are
    replayed from ``plan`` without calling it: for each ``(i, start,
    n, k)``, ``r = getrandbits(k)`` is drawn again while ``r >= n``,
    and ``values[i]`` is swapped with ``values[start + r]``. Those are
    the calls, rejection rule and swaps of ``Random.shuffle`` and
    ``Random._randbelow_with_getrandbits``. ``plan`` is
    ``_shuffle_plan(g)``, which ``shuffled_replicas`` derives once for
    all of a graph's replicas.
    """
    if g.edge_count == 0:
        raise EmptyGraph("cannot shuffle weights of an empty graph")
    getrandbits = random.Random(cfg.seed).getrandbits
    src, tgt, values = g.edge_rows
    values = list(values)
    for i, start, n, k in _shuffle_plan(g) if plan is None else plan:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        j = start + r
        values[i], values[j] = values[j], values[i]
    w = np.zeros_like(g.weights)
    w[src, tgt] = values
    return g.with_weights(w)


def rewired_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    for i in range(cfg.null_samples):
        yield rewire_edges(g, RandomizerConfig(replica_seed(cfg.seed, i), cfg.swap_multiplier, 1))


def shuffled_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    plan = _shuffle_plan(g)
    for i in range(cfg.null_samples):
        yield shuffle_out_weights(
            g, RandomizerConfig(replica_seed(cfg.seed, i), cfg.swap_multiplier, 1), plan=plan)
