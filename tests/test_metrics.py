import math
import random

import numpy as np
import pytest

import fixture_midi
import oracles
from notegraph.errors import DegenerateGraph, EmptyCollection, EmptyGraph, OutOfRange
from notegraph.graph import TransitionGraph, graph_from_onsets
from notegraph.metrics import (
    compute_report,
    density,
    global_efficiency,
    mean_node_entropy,
    reciprocity_binary,
    weight_ccdf,
    weight_histogram,
    weighted_reciprocity_raw,
)
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import (
    RandomizerConfig, rewired_replicas, shuffle_out_weights, shuffled_replicas,
)


def graph(edges, song_id="t"):
    return TransitionGraph(song_id=song_id, edges=edges)


def complete_digraph(n, weight=1):
    return graph({(i, j): weight for i in range(n) for j in range(n) if i != j})


def cycle(n, weight=1):
    return graph({(i, (i + 1) % n): weight for i in range(n)})


def shuffles(g, null_samples, seed):
    return shuffle_out_weights(g, RandomizerConfig(seed=seed, null_samples=null_samples))


def report(g, shuffled):
    return compute_report(g, shuffled, global_efficiency([g])[0])


def ccdf(graphs):
    entries = [(w, c) for g in graphs for w, c in weight_histogram(g).items()]
    return weight_ccdf([w for w, _ in entries], [c for _, c in entries])


def oracle_graphs(seed):
    """Small random graphs, then graphs of up to 40 nodes, copies of some
    of both with isolated pitches added, and sparse graphs with
    unreachable pairs."""
    rng = random.Random(seed)
    graphs = [oracles.random_graph(rng) for _ in range(100)]
    graphs += [oracles.random_graph(rng, max_nodes=40) for _ in range(4)]
    for g in graphs[:4] + graphs[-2:]:
        free = sorted(set(range(128)) - g.nodes)
        isolated = frozenset(rng.sample(free, rng.randint(1, 5)))
        graphs.append(TransitionGraph(song_id=g.song_id, edges=g.edges, isolated=isolated))
    graphs += [oracles.random_graph(rng, max_nodes=40, edge_prob=0.05) for _ in range(4)]
    return graphs


class TestDensity:
    def test_complete(self):
        assert density(complete_digraph(3)) == 1.0

    def test_cycle(self):
        assert density(cycle(3)) == 0.5

    def test_two_nodes_one_edge(self):
        assert density(graph({(0, 1): 1})) == 0.5

    def test_degenerate(self):
        with pytest.raises(DegenerateGraph):
            density(TransitionGraph(edges={}, isolated=frozenset({5})))


class TestReciprocityBinary:
    def test_cycle_forced_to_minus_one(self):
        rho, flag = reciprocity_binary(cycle(3))
        assert rho == pytest.approx(-1.0)
        assert not flag

    def test_fully_reciprocated_half_density(self):
        g = graph({(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
        # a = 4/12, r = 1
        rho, _ = reciprocity_binary(g)
        assert rho == pytest.approx(1.0)

    def test_full_density_flagged(self):
        rho, flag = reciprocity_binary(complete_digraph(3))
        assert rho == 1.0 and flag

    def test_symmetric_graph_is_one(self):
        g = graph({(0, 1): 2, (1, 0): 5, (1, 2): 1, (2, 1): 1})
        assert reciprocity_binary(g)[0] == pytest.approx(1.0)

    def test_asymmetric_graph_formula(self):
        g = cycle(4)
        a = density(g)
        assert reciprocity_binary(g)[0] == pytest.approx(-a / (1 - a))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(100):
            g = oracles.random_graph(rng)
            if density(g) == 1.0:
                continue
            assert reciprocity_binary(g)[0] == pytest.approx(
                oracles.reciprocity_binary(g), abs=1e-12
            )


class TestWeightedReciprocityRaw:
    def test_fully_reciprocated(self):
        assert weighted_reciprocity_raw(graph({(0, 1): 3, (1, 0): 3})) == 1.0

    def test_one_way(self):
        assert weighted_reciprocity_raw(graph({(0, 1): 3})) == 0.0

    def test_min_rule(self):
        assert weighted_reciprocity_raw(graph({(0, 1): 3, (1, 0): 1})) == 0.5

    def test_scale_invariant(self):
        rng = random.Random(5)
        for _ in range(30):
            g = oracles.random_graph(rng)
            scaled = graph({e: w * 7 for e, w in g.edges.items()})
            assert weighted_reciprocity_raw(g) == pytest.approx(
                weighted_reciprocity_raw(scaled)
            )


def reciprocity_norm(g, shuffled):
    """The report's normalized weighted reciprocity and its degenerate flag."""
    rep = report(g, shuffled)
    return rep["weighted_reciprocity_norm"], rep["degenerate_baseline"]


class TestWeightedReciprocityNorm:
    def test_single_out_edges_give_zero(self):
        g = cycle(4, weight=3)
        # one out-edge per node: the shuffle is the identity, but r < 1
        assert weighted_reciprocity_raw(g) == 0.0
        rho_w, flag = reciprocity_norm(g, shuffles(g, 5, 1))
        assert rho_w == pytest.approx(0.0)
        assert not flag

    def test_fully_reciprocated_uniform_is_degenerate(self):
        g = graph({(0, 1): 2, (1, 0): 2})
        rho_w, flag = reciprocity_norm(g, shuffles(g, 5, 1))
        assert flag and math.isnan(rho_w)

    def test_equal_out_weights_give_exact_zero(self):
        # every node's out-weights are identical, so shuffling is a no-op,
        # and r < 1 keeps the baseline non-degenerate
        g = graph({(0, 1): 2, (0, 2): 2, (1, 0): 2, (2, 1): 2})
        assert 0 < weighted_reciprocity_raw(g) < 1
        rho_w, flag = reciprocity_norm(g, shuffles(g, 20, 2))
        assert rho_w == pytest.approx(0.0, abs=1e-12)
        assert not flag

    def test_random_placements_average_to_zero(self):
        # graphs whose weight placement is itself a uniform shuffle sit at
        # the baseline on average, so the mean normalized value is ~0
        base = graph({
            (0, 1): 5, (0, 2): 1, (1, 0): 2, (1, 3): 7,
            (2, 3): 1, (3, 0): 4, (3, 2): 3, (2, 0): 2,
        })
        values = []
        for seed in range(400):
            (start,) = shuffled_replicas(base, RandomizerConfig(seed=seed, null_samples=1))
            rho_w, flag = reciprocity_norm(start, shuffles(start, 25, seed + 10_000))
            assert not flag
            values.append(rho_w)
        assert abs(sum(values) / len(values)) < 0.05


class TestMeanNodeEntropy:
    def test_uniform_out_weights_max_entropy_node(self):
        g = graph({(0, i): 2 for i in range(1, 5)})
        # only node 0 has out-degree >= 2; N = 5
        assert mean_node_entropy(g) == pytest.approx(1.0 / 5)

    def test_hand_computed_skewed_node(self):
        g = graph({(0, 1): 9, (0, 2): 1, (0, 3): 1, (0, 4): 1})
        ps = [9 / 12, 1 / 12, 1 / 12, 1 / 12]
        expected = -sum(p * math.log(p) for p in ps) / math.log(4) / 5
        assert mean_node_entropy(g) == pytest.approx(expected)

    def test_chain_graph_is_zero(self):
        assert mean_node_entropy(graph({(0, 1): 4, (1, 2): 1})) == 0.0

    def test_matches_oracle(self):
        for g in oracle_graphs(8):
            assert mean_node_entropy(g) == pytest.approx(
                oracles.mean_node_entropy(g), abs=1e-12
            )


class TestGlobalEfficiency:
    def test_complete_graph_is_one(self):
        assert global_efficiency([complete_digraph(4)]) == [pytest.approx((1.0, 1.0))]

    def test_two_nodes_single_edge(self):
        assert global_efficiency([graph({(0, 1): 1})]) == [pytest.approx((0.5, 0.5))]

    def test_matches_floyd_warshall_oracle(self):
        for g in oracle_graphs(21):
            assert global_efficiency([g])[0] == pytest.approx(
                (oracles.global_efficiency(g, False), oracles.global_efficiency(g, True)),
                abs=1e-12,
            )

    def test_weighted_never_exceeds_unweighted(self):
        rng = random.Random(34)
        for _ in range(200):
            (hop, weighted), = global_efficiency([oracles.random_graph(rng)])
            assert weighted <= hop + 1e-12


class TestEfficiencies:
    def graphs(self):
        """Sparse graphs with loop-only isolated pitches and their null
        replicas, and 2-node and complete graphs."""
        rng = random.Random(13)
        graphs = []
        for _ in range(3):
            g = oracles.random_graph(rng, max_nodes=30, edge_prob=0.08)
            free = sorted(set(range(128)) - g.nodes)
            g = TransitionGraph(song_id="s", edges=g.edges, isolated=rng.sample(free, 3))
            cfg = RandomizerConfig(seed=rng.randrange(2**32), null_samples=4)
            graphs += [g, *rewired_replicas(g, cfg), *shuffled_replicas(g, cfg)]
        graphs += [graph({(0, 1): 1}), graph({(0, 1): 3, (1, 0): 2}), graph({(1, 0): 7})]
        graphs.append(complete_digraph(5, weight=3))
        return graphs

    def test_matches_oracle_on_null_replicas(self):
        for g in self.graphs():
            assert global_efficiency([g])[0] == pytest.approx(
                (oracles.global_efficiency(g, False), oracles.global_efficiency(g, True)),
                abs=1e-12,
            )

    @staticmethod
    def one_pass(g, weighted):
        """One Floyd-Warshall over a single (n, n) matrix of path costs,
        scored as one contiguous matrix: the hop or the weighted value."""
        n, no_path = g.node_count, 2**30 - 1
        d = np.full((n, n), no_path, dtype=np.int32)
        linked = g.weights > 0
        d[linked] = g.weights[linked] if weighted else 1
        via = np.empty_like(d)
        for k in range(n):
            np.add(d[:, k, None], d[None, k, :], out=via)
            np.minimum(d, via, out=d)
        inverse = np.where(d < no_path, d, np.inf)
        np.fill_diagonal(inverse, np.inf)
        np.divide(1.0, inverse, out=inverse)
        return float(inverse.sum()) / (n * (n - 1))

    def test_both_values_are_the_bits_of_one_pass_each(self):
        # sparse graphs of up to 128 pitches, each with 1-3 isolated
        # pitches (so with unreachable pairs), then the fixture songs
        rng = random.Random(35)
        graphs = self.graphs()
        for _ in range(60):
            g = oracles.random_graph(rng, max_nodes=rng.choice((8, 40, 125)), max_weight=200,
                                     edge_prob=rng.choice((0.01, 0.05, 0.3)))
            isolated = rng.sample(sorted(set(range(128)) - g.nodes), rng.randint(1, 3))
            graphs.append(TransitionGraph(song_id="s", edges=g.edges, isolated=isolated))
        songs = [fixture_midi.melodic_midi(seed) for seed in range(6)]
        songs += [fixture_midi.loop_midi(length) for length in (300, 333)]
        graphs += [graph_from_onsets(onset_stream(parse_midi(data))) for data in songs]
        for g in graphs:
            (hop, weighted), = global_efficiency([g])
            assert (hop.hex(), weighted.hex()) == (
                self.one_pass(g, False).hex(), self.one_pass(g, True).hex())

    def test_degenerate_graph(self):
        with pytest.raises(DegenerateGraph):
            global_efficiency([TransitionGraph(edges={}, isolated=frozenset({5}))])

    def test_total_weight_limit(self):
        for weight in (2**30 - 1, 2**30):
            with pytest.raises(OutOfRange, match=f"total weight {weight} not below 1073741823"):
                global_efficiency([graph({(0, 1): weight})])
        below = graph({(0, 1): 2**30 - 2})
        assert global_efficiency([below]) == [(0.5, 0.5 / (2**30 - 2))]


class TestWeightCcdf:
    def test_small_example(self):
        g = graph({(0, 1): 1, (1, 2): 1, (2, 0): 2})
        assert ccdf([g]) == [(1, 1.0), (2, pytest.approx(1 / 3))]

    def test_all_equal_single_step(self):
        assert ccdf([cycle(3, weight=4)]) == [(4, 1.0)]

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            ccdf([])

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one(self, count):
        # checked per entry: merged, the first song's 10 would hide it
        with pytest.raises(ValueError, match=f"count {count} is below 1"):
            weight_ccdf([1, 1, 2], [10, count, 1])

    def test_a_weight_given_twice_is_merged(self):
        assert weight_ccdf([2, 1, 2], [1, 1, 2]) == [(1, 1.0), (2, 0.75)]

    def test_matches_sort_and_count(self):
        rng = random.Random(2)
        graphs = [oracles.random_graph(rng) for _ in range(10)]
        weights = [w for g in graphs for w in g.edges.values()]
        for w, frac in ccdf(graphs):
            assert frac == pytest.approx(
                sum(1 for x in weights if x >= w) / len(weights)
            )
        fracs = [f for _, f in ccdf(graphs)]
        assert fracs == sorted(fracs, reverse=True)


class TestComputeReport:
    def test_song_and_replicas_score_as_single_graphs(self):
        rng = random.Random(91)
        draws = [oracles.random_graph(rng) for _ in range(60)]
        draws += [oracles.random_graph(rng, max_nodes=30, edge_prob=0.1) for _ in range(4)]
        for g in draws:
            rep = report(g, shuffles(g, 4, 3))
            assert (rep["efficiency"], rep["weighted_efficiency"]) == global_efficiency([g])[0]
            assert rep["weighted_reciprocity_raw"] == weighted_reciprocity_raw(g)
            shuffled = shuffled_replicas(g, RandomizerConfig(seed=3, null_samples=4))
            r_song, *r_shuffled = [oracles.weighted_reciprocity_raw(x) for x in (g, *shuffled)]
            r_nm = sum(r_shuffled) / len(r_shuffled)
            # the stored baseline is the one that normalized the song
            assert rep["null_shuffled_reciprocity_mean"] == r_nm
            assert rep["degenerate_baseline"] == (r_nm >= 1.0)
            if rep["degenerate_baseline"]:
                assert math.isnan(rep["weighted_reciprocity_norm"])
            else:
                assert rep["weighted_reciprocity_norm"] == (r_song - r_nm) / (1 - r_nm)

    def test_replicas_scored_as_drawn_give_the_report_of_their_list(self):
        def hexed(rep):
            return {k: v.hex() if isinstance(v, float) else v for k, v in rep.items()}

        rng = random.Random(92)
        for _ in range(30):
            g = oracles.random_graph(rng)
            cfg = RandomizerConfig(seed=rng.getrandbits(64))
            src, tgt, _ = g.edge_rows
            drawn = np.array([r.weights[src, tgt] for r in shuffled_replicas(g, cfg)])
            assert hexed(report(g, drawn)) == hexed(report(g, shuffle_out_weights(g, cfg)))


class TestRanges:
    def test_all_metrics_in_bounds(self):
        rng = random.Random(77)
        for _ in range(200):
            g = oracles.random_graph(rng)
            rep = report(g, shuffles(g, 3, 1))
            assert 0 <= rep["density"] <= 1
            assert -1 <= rep["reciprocity_binary"] <= 1
            assert 0 <= rep["weighted_reciprocity_raw"] <= 1
            assert 0 <= rep["null_shuffled_reciprocity_mean"] <= 1
            assert 0 <= rep["mean_node_entropy"] <= 1
            assert 0 <= rep["efficiency"] <= 1
            assert 0 <= rep["weighted_efficiency"] <= rep["efficiency"] + 1e-12


def test_empty_graph_errors():
    empty = TransitionGraph(edges={}, isolated=frozenset({1, 2}))
    with pytest.raises(EmptyGraph):
        weighted_reciprocity_raw(empty)
    with pytest.raises(EmptyGraph):
        reciprocity_binary(empty)
