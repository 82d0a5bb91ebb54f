import random
from collections import Counter

import pytest

import fixture_midi
import oracles
from notegraph.errors import EmptyGraph, TooFewEdges
from notegraph.graph import TransitionGraph, graph_from_onsets
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import (
    _BLOCK_WORDS,
    RandomizerConfig,
    _draw_pairs,
    replica_seed,
    rewire_edges,
    rewired_replicas,
    shuffle_out_weights,
    shuffled_replicas,
)


def degrees(g):
    out = Counter()
    indeg = Counter()
    for s, t in g.edges:
        out[s] += 1
        indeg[t] += 1
    return out, indeg


def out_strengths(g):
    acc = Counter()
    for (s, _), w in g.edges.items():
        acc[s] += w
    return acc


CFG = RandomizerConfig(seed=42, swap_multiplier=10, null_samples=10)

REFERENCE_SEEDS = (0, 1, 2**64 - 1)


def reference_graphs():
    """Random graphs, two fixture songs and a graph with labels outside
    0..127 and isolated nodes: the null models are compared with the
    references in tests/oracles.py on these."""
    rng = random.Random(6)
    graphs = [oracles.random_graph(rng, max_nodes=12) for _ in range(40)]
    graphs += [
        graph_from_onsets(onset_stream(parse_midi(data)))
        for data in (fixture_midi.melodic_midi(seed=3), fixture_midi.loop_midi())
    ]
    graphs.append(TransitionGraph(
        edges={(-5, 1000): 2, (1000, 3): 1, (3, -5): 4, (200, 3): 1, (-5, 200): 7, (3, 1000): 5},
        isolated=frozenset({-9, 500}),
    ))
    return graphs


class TestRewireEdges:
    def test_too_few_edges(self):
        with pytest.raises(TooFewEdges):
            rewire_edges(TransitionGraph(edges={(0, 1): 1}), CFG)

    def test_disjoint_pair_preserves_degrees(self):
        g = TransitionGraph(edges={(0, 1): 3, (2, 3): 5})
        rewired = rewire_edges(g, CFG)
        assert degrees(rewired) == degrees(g)
        assert sorted(rewired.edges.values()) == [3, 5]

    def test_complete_digraph_unchanged(self):
        g = TransitionGraph(
            edges={(i, j): i + j + 1 for i in range(4) for j in range(4) if i != j}
        )
        assert rewire_edges(g, CFG).edges == g.edges

    def test_conservation_on_random_graphs(self):
        rng = random.Random(1)
        for i in range(100):
            g = oracles.random_graph(rng)
            if g.edge_count < 2:
                continue
            rewired = rewire_edges(g, RandomizerConfig(seed=i))
            assert degrees(rewired) == degrees(g)
            assert sorted(rewired.edges.values()) == sorted(g.edges.values())
            assert all(s != t for s, t in rewired.edges)
            assert len(rewired.edges) == len(g.edges)

    def test_deterministic(self):
        rng = random.Random(2)
        g = oracles.random_graph(rng)
        assert rewire_edges(g, CFG).edges == rewire_edges(g, CFG).edges

    def test_matches_per_draw_reference(self):
        for g in reference_graphs():
            if g.edge_count < 2:
                continue
            for seed in REFERENCE_SEEDS:
                for multiplier in (1, 10):
                    cfg = RandomizerConfig(seed=seed, swap_multiplier=multiplier)
                    rewired = rewire_edges(g, cfg)
                    reference = oracles.rewire_reference(g, cfg)
                    assert rewired.edges == reference.edges
                    assert rewired.node_list == reference.node_list


@pytest.mark.parametrize("n", [2, 3, 4, 5, 127, 128, 129, 1760])
def test_draw_pairs_follow_randrange(n):
    # the bulk draws rely on how CPython's randrange uses getrandbits;
    # several blocks, so pairs straddle block boundaries
    pairs = 3 * _BLOCK_WORDS
    blocks = list(_draw_pairs(random.Random(n), n, pairs))
    assert len(blocks) > 2
    drawn = [v for first, second in blocks for pair in zip(first.tolist(), second.tolist()) for v in pair]
    rng = random.Random(n)
    assert drawn == [rng.randrange(n) for _ in range(2 * pairs)]


class TestShuffleOutWeights:
    def test_two_out_edges_both_orders_appear(self):
        g = TransitionGraph(edges={(0, 1): 5, (0, 2): 1})
        seen = set()
        for seed in range(20):
            shuffled = shuffle_out_weights(g, RandomizerConfig(seed=seed))
            seen.add((shuffled.edges[(0, 1)], shuffled.edges[(0, 2)]))
        assert seen == {(5, 1), (1, 5)}

    def test_single_out_edges_identity(self):
        g = TransitionGraph(edges={(0, 1): 4, (1, 2): 9, (2, 0): 2})
        for seed in range(5):
            assert shuffle_out_weights(g, RandomizerConfig(seed=seed)).edges == g.edges

    def test_topology_and_strength_preserved(self):
        rng = random.Random(3)
        for i in range(100):
            g = oracles.random_graph(rng)
            shuffled = shuffle_out_weights(g, RandomizerConfig(seed=i))
            assert set(shuffled.edges) == set(g.edges)
            assert out_strengths(shuffled) == out_strengths(g)
            # per-node out-weight multisets identical
            for node in g.nodes:
                assert sorted(oracles.out_weights(g, node).values()) == sorted(
                    oracles.out_weights(shuffled, node).values()
                )

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            shuffle_out_weights(TransitionGraph(edges={}), CFG)

    def test_matches_reference(self):
        for g in reference_graphs():
            for seed in REFERENCE_SEEDS:
                cfg = RandomizerConfig(seed=seed)
                shuffled = shuffle_out_weights(g, cfg)
                reference = oracles.shuffle_reference(g, cfg)
                assert shuffled.edges == reference.edges
                assert shuffled.node_list == reference.node_list


def test_replica_seed_is_xor():
    assert replica_seed(0b1100, 0b1010) == 0b0110


def test_replicas_are_deterministic_and_distinct_by_index():
    rng = random.Random(4)
    g = oracles.random_graph(rng, max_nodes=8)
    while g.edge_count < 2:
        g = oracles.random_graph(rng, max_nodes=8)
    first = [rep.edges for rep in rewired_replicas(g, CFG)]
    second = [rep.edges for rep in rewired_replicas(g, CFG)]
    assert first == second
    shuffled_a = [rep.edges for rep in shuffled_replicas(g, CFG)]
    shuffled_b = [rep.edges for rep in shuffled_replicas(g, CFG)]
    assert shuffled_a == shuffled_b
