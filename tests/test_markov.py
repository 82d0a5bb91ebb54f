import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import notegraph
import oracles
from notegraph.errors import NonConvergence
from notegraph.graph import TransitionGraph
from notegraph.markov import (
    network_entropy,
    node_entropies,
    stationary_distribution,
    stochastic_matrix,
)


def graph(edges, isolated=frozenset()):
    return TransitionGraph(song_id="t", edges=edges, isolated=frozenset(isolated))


class TestStochasticMatrix:
    def test_damped_row_by_hand(self):
        g = graph({(0, 1): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1})
        m = stochastic_matrix(g, damping=0.05)
        # node 0 splits evenly over two targets; damping mixes in 1/3
        expected = 0.95 * 0.5 + 0.05 / 3
        assert m[0, 1] == pytest.approx(expected)
        assert m[0, 2] == pytest.approx(expected)
        assert m[0, 0] == pytest.approx(0.05 / 3)

    def test_rows_sum_to_one(self):
        rng = random.Random(1)
        for _ in range(50):
            g = oracles.random_graph(rng)
            m = stochastic_matrix(g)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_dangling_row_is_uniform_after_damping(self):
        g = graph({(0, 1): 1, (0, 2): 1})  # nodes 1, 2 have no out-edges
        m = stochastic_matrix(g, damping=0.05)
        np.testing.assert_allclose(m[1], 1 / 3, atol=1e-15)
        np.testing.assert_allclose(m[2], 1 / 3, atol=1e-15)

    def test_single_node(self):
        m = stochastic_matrix(graph({}, isolated={60}))
        np.testing.assert_allclose(m, [[1.0]])

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            stochastic_matrix(graph({(0, 1): 1, (1, 0): 1}), damping=0.0)


class TestStationaryDistribution:
    def test_doubly_stochastic_gives_uniform(self):
        g = graph({(i, (i + 1) % 4): 1 for i in range(4)})
        m = stochastic_matrix(g)
        pi, _ = stationary_distribution(m)
        np.testing.assert_allclose(pi, 0.25, atol=1e-10)

    def test_two_state_closed_form(self):
        g = graph({(0, 1): 3, (1, 0): 1})
        m = stochastic_matrix(g, damping=0.05)
        pi, _ = stationary_distribution(m)
        expected = oracles.exact_two_state_stationary(m)
        np.testing.assert_allclose(pi, expected, atol=1e-12)

    def test_fixed_point_and_normalization(self):
        rng = random.Random(5)
        for _ in range(50):
            g = oracles.random_graph(rng)
            m = stochastic_matrix(g)
            pi, residual = stationary_distribution(m)
            assert residual < 1e-10
            assert abs(pi.sum() - 1) < 1e-12
            assert (pi >= 0).all()


class TestNetworkEntropy:
    def test_uniform_rows_give_log_n(self):
        # all-dangling nodes produce uniform raw rows; damping keeps them
        # uniform, so the entropy rate is exactly log n
        for n in (3, 5, 8):
            g = graph({}, isolated=set(range(n)))
            ent, _ = network_entropy([g], damping=0.05)[0]
            assert ent == pytest.approx(math.log(n), abs=1e-10)

    def test_uniform_complete_graph_near_log_n(self):
        # loop-free rows are uniform over n-1 targets: damping mixes in
        # the uniform row, so the rate lies near log(n-1), never above log n
        for n in (3, 5, 8):
            g = graph({(i, j): 2 for i in range(n) for j in range(n) if i != j})
            ent, _ = network_entropy([g], damping=0.05)[0]
            assert math.log(n - 1) - 0.1 < ent <= math.log(n) + 1e-12

    def test_cycle_matches_dense_oracle(self):
        g = graph({(i, (i + 1) % 5): 1 for i in range(5)})
        ent, _ = network_entropy([g], damping=0.05)[0]
        assert ent == pytest.approx(oracles.network_entropy(g, 0.05), abs=1e-10)

    def test_single_node_is_zero(self):
        assert network_entropy([graph({}, isolated={60})])[0][0] == 0.0

    def test_bounds(self):
        rng = random.Random(9)
        for _ in range(50):
            g = oracles.random_graph(rng)
            ent, _ = network_entropy([g])[0]
            assert -1e-12 <= ent <= math.log(g.node_count) + 1e-12

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(10)
        for _ in range(50):
            g = oracles.random_graph(rng, max_nodes=6)
            ent, _ = network_entropy([g], damping=0.05)[0]
            assert ent == pytest.approx(oracles.network_entropy(g, 0.05), abs=1e-9)

    def test_entropy_rises_with_damping(self):
        g = graph({(i, (i + 1) % 6): 1 for i in range(6)})
        values = [network_entropy([g], damping=a)[0][0] for a in (0.05, 0.5, 0.95)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(math.log(6), rel=0.05)

    def test_node_entropies_nonnegative(self):
        g = graph({(0, 1): 1, (1, 0): 2, (1, 2): 5, (2, 1): 1})
        m = stochastic_matrix(g)
        assert (node_entropies(m) >= 0).all()


class TestGTH:
    def test_residual_is_the_fixed_order_l1_norm(self):
        rng = random.Random(11)
        for _ in range(20):
            g = oracles.random_graph(rng, max_nodes=30)
            _, residual = network_entropy([g])[0]
            m = stochastic_matrix(g)
            pi, _ = stationary_distribution(m)
            assert residual == float(np.abs(
                (pi[:, None] * m).sum(axis=0) - pi).sum())
            assert residual < 1e-14

    def test_non_finite_solve_is_refused(self):
        m = np.full((3, 3), 1 / 3)
        m[1, 2] = np.nan
        with pytest.raises(NonConvergence, match="residual nan"):
            stationary_distribution(m)


# Prints the bytes of the entropies, residuals and stationary vectors of fixed
# graphs: fixture songs and random graphs of 2-60 nodes.
_KERNEL_PROBE = """
import random
import fixture_midi, oracles
from notegraph.graph import graph_from_onsets
from notegraph.markov import network_entropy, stationary_distribution, stochastic_matrix
from notegraph.midi import onset_stream, parse_midi
graphs = [graph_from_onsets(onset_stream(parse_midi(fixture_midi.melodic_midi(seed))))
          for seed in range(6)]
rng = random.Random(3)
graphs += [oracles.random_graph(rng, max_nodes=n, edge_prob=0.2) for n in (2, 8, 24, 40, 60) * 4]
for g in graphs:
    ent, residual = network_entropy([g])[0]
    pi, _ = stationary_distribution(stochastic_matrix(g))
    print(ent.hex(), residual.hex(), pi.tobytes().hex())
"""


def test_entropy_bytes_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks the kernel of numpy's OpenBLAS in the child
    # only; Prescott runs on every x86-64 CPU
    src = Path(notegraph.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join((str(src), str(tests)))
    outputs = [
        subprocess.run([sys.executable, "-c", _KERNEL_PROBE], env=kernel_env,
                       capture_output=True, text=True, check=True).stdout
        for kernel_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})
    ]
    assert len(outputs[0].splitlines()) == 26
    assert outputs[0] == outputs[1]
