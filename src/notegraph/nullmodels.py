"""Randomized graph baselines: degree-preserving rewiring and local
out-weight shuffling.

Both models are deterministic given (graph, seed). Replica seeds are
derived as master_seed XOR replica_index so replicas can be generated
independently and in parallel.

The shuffle draws one random key per edge from ``random.Random`` and
orders the weights of every replica of a graph by one numpy sort, so a
song's replicas cost a few numpy calls rather than a Python step per
edge; ``numpy.random`` is never imported (it adds about 1.8 MB to a
worker's peak memory).
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


def shuffle_out_weights(g: TransitionGraph, cfg: RandomizerConfig) -> np.ndarray:
    """Permute each node's out-edge weights among its own out-edges, once
    per replica: an (``cfg.null_samples``, E) array whose row i holds
    replica i's weights in edge order, the (source, target) order of
    ``g.edge_rows``.

    Topology and per-node out-strength are unchanged by construction.
    Each edge of replica i draws one 64-bit key: ``random.Random(
    replica_seed(cfg.seed, i)).getrandbits(64 * E)`` read as E
    little-endian words, one per edge. A key is shifted down one byte and
    the edge's source row (below 128) fills the top byte, and one stable
    argsort along the rows orders every replica's keys at once. Each row
    of the graph thus takes its own weights in the order of its edges'
    random 56 bits: a uniform permutation of the row, as ``rng.shuffle``
    of it would give.
    """
    if g.edge_count == 0:
        raise EmptyGraph("cannot shuffle weights of an empty graph")
    src, _, values = g.edge_rows
    size = 8 * len(src)  # bytes of one replica's keys
    bits = b"".join(
        random.Random(replica_seed(cfg.seed, i)).getrandbits(8 * size).to_bytes(size, "little")
        for i in range(cfg.null_samples))
    keys = np.frombuffer(bits, "<u8").reshape(cfg.null_samples, len(src))
    keys = keys >> np.uint64(8) | src.astype(np.uint64) << np.uint64(56)
    return values[np.argsort(keys, axis=-1, kind="stable")]


def rewired_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    for i in range(cfg.null_samples):
        yield rewire_edges(g, RandomizerConfig(replica_seed(cfg.seed, i), cfg.swap_multiplier, 1))


def shuffled_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    """The rows of ``shuffle_out_weights`` as graphs, in replica order."""
    src, tgt, _ = g.edge_rows
    for row in shuffle_out_weights(g, cfg):
        w = np.zeros_like(g.weights)
        w[src, tgt] = row
        yield g.with_weights(w)
