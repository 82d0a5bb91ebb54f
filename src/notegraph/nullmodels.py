"""Randomized graph baselines: degree-preserving rewiring and local
out-weight shuffling.

Both models are deterministic given (graph, seed). Replica seeds are
derived as master_seed XOR replica_index so replicas can be generated
independently and in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .errors import EmptyGraph, TooFewEdges
from .graph import TransitionGraph


@dataclass(frozen=True)
class RandomizerConfig:
    seed: int = 0
    swap_multiplier: int = 10  # attempted swaps = multiplier * |E|
    null_samples: int = 10

    def __post_init__(self):
        if self.swap_multiplier < 1:
            raise ValueError("swap_multiplier must be >= 1")
        if self.null_samples < 1:
            raise ValueError("null_samples must be >= 1")


def replica_seed(master_seed: int, index: int) -> int:
    return master_seed ^ index


def rewire_edges(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Directed double-edge swaps; in/out degree sequences kept exactly.

    A swap (i->j, k->l) => (i->l, k->j) is rejected when it would create
    a loop or duplicate an existing edge. Each edge keeps its weight
    through the move, so the weight multiset is conserved too.
    """
    if g.edge_count < 2:
        raise TooFewEdges(f"need >= 2 edges to rewire, got {g.edge_count}")
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
        isolated=g.isolated,
    )


def shuffle_out_weights(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Permute each node's out-edge weights among its own out-edges.

    Topology and per-node out-strength are unchanged by construction.
    """
    if g.edge_count == 0:
        raise EmptyGraph("cannot shuffle weights of an empty graph")
    rng = random.Random(cfg.seed)
    new_edges: dict[tuple[int, int], int] = {}
    for _, group in groupby(sorted(g.edges.items()), key=lambda item: item[0][0]):
        out = list(group)
        weights = [w for _, w in out]
        rng.shuffle(weights)
        new_edges.update((edge, w) for (edge, _), w in zip(out, weights))
    return TransitionGraph(song_id=g.song_id, edges=new_edges, isolated=g.isolated)


def rewired_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    for i in range(cfg.null_samples):
        yield rewire_edges(g, RandomizerConfig(replica_seed(cfg.seed, i), cfg.swap_multiplier, 1))


def shuffled_replicas(g: TransitionGraph, cfg: RandomizerConfig) -> Iterator[TransitionGraph]:
    for i in range(cfg.null_samples):
        yield shuffle_out_weights(g, RandomizerConfig(replica_seed(cfg.seed, i), cfg.swap_multiplier, 1))
