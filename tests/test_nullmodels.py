import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

import fixture_midi
import oracles
from notegraph.cli import main
from notegraph.errors import EmptyGraph, TooFewEdges
from notegraph.graph import TransitionGraph, graph_from_onsets
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import (
    RandomizerConfig,
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


def one_shuffle(g, cfg):
    """The first replica that ``shuffle_out_weights`` draws, as a graph;
    its seed is ``replica_seed(cfg.seed, 0)``, which is ``cfg.seed``."""
    (replica,) = shuffled_replicas(g, replace(cfg, null_samples=1))
    return replica


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


class TestShuffleOutWeights:
    def test_two_out_edges_both_orders_appear(self):
        g = TransitionGraph(edges={(0, 1): 5, (0, 2): 1})
        seen = set()
        for seed in range(20):
            shuffled = one_shuffle(g, RandomizerConfig(seed=seed))
            seen.add((shuffled.edges[(0, 1)], shuffled.edges[(0, 2)]))
        assert seen == {(5, 1), (1, 5)}

    def test_single_out_edges_identity(self):
        g = TransitionGraph(edges={(0, 1): 4, (1, 2): 9, (2, 0): 2})
        for seed in range(5):
            assert one_shuffle(g, RandomizerConfig(seed=seed)).edges == g.edges

    def test_topology_and_strength_preserved(self):
        rng = random.Random(3)
        for i in range(100):
            g = oracles.random_graph(rng)
            shuffled = one_shuffle(g, RandomizerConfig(seed=i))
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
                shuffled = one_shuffle(g, cfg)
                reference = oracles.shuffle_reference(g, cfg)
                assert shuffled.edges == reference.edges
                assert shuffled.node_list == reference.node_list

    def test_row_split_is_read_once_and_matches_reference(self):
        # one-edge rows (no draw), isolated nodes (no row), a dense row
        # and rows of two: the same replicas whether the graph's row
        # split is computed by this call or cached by an earlier one
        dense = {(0, t): t for t in range(1, 9)}
        edges = {**dense, (1, 2): 3, (2, 0): 1, (3, 4): 2, (3, 5): 7, (5, 3): 4, (8, 1): 6}
        for seed in REFERENCE_SEEDS + (17,):
            cfg = RandomizerConfig(seed=seed)
            reference = oracles.shuffle_reference(
                TransitionGraph(edges=edges, isolated={40, 41}), cfg)
            fresh = TransitionGraph(edges=edges, isolated={40, 41})
            assert "edge_rows" not in vars(fresh)
            assert one_shuffle(fresh, cfg).edges == reference.edges
            assert "edge_rows" in vars(fresh)
            # the cached split is shared by every reader, so none may edit it
            assert not any(part.flags.writeable for part in fresh.edge_rows)
            assert one_shuffle(fresh, cfg).edges == reference.edges
            assert [r.edges for r in shuffled_replicas(fresh, CFG)] == [
                oracles.shuffle_reference(fresh, RandomizerConfig(replica_seed(CFG.seed, i))).edges
                for i in range(CFG.null_samples)]
        # the split holds each row's edges as one stretch, in row-major order;
        # row 1 has one edge and row 3 (pitch 7) none
        g = TransitionGraph(edges={(0, 1): 2, (0, 2): 5, (1, 0): 1, (2, 0): 3, (2, 1): 4},
                            isolated={7})
        assert [part.tolist() for part in g.edge_rows] == [
            [0, 0, 1, 2, 2], [1, 2, 0, 0, 1], [2.0, 5.0, 1.0, 3.0, 4.0]]

    @pytest.mark.parametrize("complete", [False, True], ids=["rows-of-2-to-127", "complete-128"])
    def test_matches_reference_at_every_row_length(self, complete):
        # every row length a 128-node graph holds; row 127 puts the
        # largest source index in the key's top byte
        if complete:
            edges = {(s, t): 1 + s * 128 + t for s in range(128) for t in range(128) if s != t}
        else:
            edges = {(s, (s + d) % 128): 1 + s * 128 + d for s in range(2, 128) for d in range(1, s + 1)}
        g = TransitionGraph(edges=edges)
        for seed in REFERENCE_SEEDS + (2**40 + 5,):
            cfg = RandomizerConfig(seed=seed)
            assert one_shuffle(g, cfg).edges == oracles.shuffle_reference(g, cfg).edges

    def test_each_order_of_a_row_of_three_is_equally_likely(self):
        # 6,000 seeds over the 6 orders of one row's weights; 20.52 is
        # the chi-square quantile at 99.9% with 5 degrees of freedom
        g = TransitionGraph(edges={(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 0): 4})
        seeds = 6000
        seen = Counter(
            tuple(shuffle_out_weights(g, RandomizerConfig(seed=seed, null_samples=1))[0, :3].tolist())
            for seed in range(seeds))
        assert len(seen) == 6
        expected = seeds / 6
        assert sum((c - expected) ** 2 / expected for c in seen.values()) < 20.52


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


# SHA-256 of each file `nullmodel --samples 3` writes, in file-name order
# (rewired_000..002, then shuffled_000..002), per input and
# --swap-multiplier; the edge lists hold integers only. Every swap on the
# loop's 4-edge graph makes a loop or a repeated edge, so its rewired
# replicas are the graph itself
GOLDEN_REPLICAS = {
    ("melodic_1", 1): (
        "548b49f1ae0778fc95bc4700742ab5b62e111649a79b50855ed2c78d799ee711",  # rewired_000.edges
        "42169cb449d16bc6a2d9d0c1610b5c6555d57348cd699cd422137e947151e726",  # rewired_001.edges
        "a53c0e0fc9d883893a886a6fdbfa5c517dccf3f330d27df3c83b1e7df54fbbfb",  # rewired_002.edges
        "d8955624011d70672e3579e66b2648de87e5f063d7171450d47a58198a2eb796",  # shuffled_000.edges
        "9843e766064a3e06ba74320316cda4a1bb5845ab8df6c7afeab98afc450a3d47",  # shuffled_001.edges
        "ab908faad444e84ef6820b9f3b6bbf30389bbb6366bab0701afd4f012f96e644",  # shuffled_002.edges
    ),
    ("melodic_1", 10): (
        "1a8a9db683262255be6e79506a423c7b56158b7d45e8c5dcfe4a2db9570224ca",  # rewired_000.edges
        "247656ea483a54a88e19f7f84f7fc421898f6ea73c66db400df1d79161210020",  # rewired_001.edges
        "234c9c1c87fe663ca6b76270adcb8b68c40f0f3a157f783a377e7507e0d362c9",  # rewired_002.edges
        "d8955624011d70672e3579e66b2648de87e5f063d7171450d47a58198a2eb796",  # shuffled_000.edges
        "9843e766064a3e06ba74320316cda4a1bb5845ab8df6c7afeab98afc450a3d47",  # shuffled_001.edges
        "ab908faad444e84ef6820b9f3b6bbf30389bbb6366bab0701afd4f012f96e644",  # shuffled_002.edges
    ),
    ("melodic_2", 1): (
        "cbf4ddd5f4ceadb6023be72f1bf4a955587e6c4c262118506be3c673c91cccfc",  # rewired_000.edges
        "32409f447475211241482ab1bb3c4e29b893cb2a768cc471b4a6a873a5963fdf",  # rewired_001.edges
        "8a7bffcc76bd966cc184427af6fcd45d484759b52d3a01e2560974d2cdba88b6",  # rewired_002.edges
        "96be34f2495c0b2fbf317f515f88b240d517f07de8157d5238b54c50260150b5",  # shuffled_000.edges
        "d689ea3cf7d9d8b82e761849cdda36be8eff4c63bbc3d7dbc57fe93356346fbf",  # shuffled_001.edges
        "d834da757e5d138884a35804a349bc4c664d28f8400cfaa8e097671eed7b10e6",  # shuffled_002.edges
    ),
    ("melodic_2", 10): (
        "7853cdd52aa6d9209e2becaed45164d0ec287358db18bbd50911352d2fd6ad39",  # rewired_000.edges
        "165a59f7af89f28fefb76db21562d6f0562d7283dfa65b35a65e42a5c2c3319b",  # rewired_001.edges
        "d32af596763f6996c600a5519fddc6d066f52193222657794fb31e6d2566f3d4",  # rewired_002.edges
        "96be34f2495c0b2fbf317f515f88b240d517f07de8157d5238b54c50260150b5",  # shuffled_000.edges
        "d689ea3cf7d9d8b82e761849cdda36be8eff4c63bbc3d7dbc57fe93356346fbf",  # shuffled_001.edges
        "d834da757e5d138884a35804a349bc4c664d28f8400cfaa8e097671eed7b10e6",  # shuffled_002.edges
    ),
    ("loop", 1): (
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_000.edges
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_001.edges
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_002.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_000.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_001.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_002.edges
    ),
    ("loop", 10): (
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_000.edges
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_001.edges
        "a49aacc78fabddb292d8254272e3b8b88c107fc69bb0f2513c2d75d4435d09ba",  # rewired_002.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_000.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_001.edges
        "4182833817159dc528b0abbb20734146a33deae7d8e02d2065e07d15e7e21e98",  # shuffled_002.edges
    ),
}
REPLICA_FILES = [f"{kind}_{i:03d}.edges" for kind in ("rewired", "shuffled") for i in range(3)]


@pytest.mark.parametrize("name, multiplier", sorted(GOLDEN_REPLICAS))
def test_nullmodel_replicas_keep_their_digest(name, multiplier, tmp_path):
    data = fixture_midi.loop_midi() if name == "loop" else fixture_midi.melodic_midi(
        seed=int(name.removeprefix("melodic_")))
    song = tmp_path / f"{name}.mid"
    song.write_bytes(data)
    out = tmp_path / "out"
    assert main(["nullmodel", str(song), "--samples", "3",
                 "--swap-multiplier", str(multiplier), "--output", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == REPLICA_FILES
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in REPLICA_FILES)
    assert digests == GOLDEN_REPLICAS[(name, multiplier)]
