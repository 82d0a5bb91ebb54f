"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in captured output on failure).
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import fixture_midi
import oracles
from notegraph.catalog import (
    ERA_BUCKETS,
    MACRO_GENRE_KEYWORDS,
    MAX_RELEASE_YEAR,
    MIN_YEAR_JAZZ,
    MIN_YEAR_MODERN,
)
from notegraph.embeddings import INTERVAL_NAMES, gs_score, interval_vector
from notegraph.graph import TransitionGraph, graph_from_onsets
from notegraph.markov import DEFAULT_DAMPING, network_entropy, stationary_distribution, stochastic_matrix
from notegraph.metrics import (
    density,
    global_efficiency,
    mean_node_entropy,
    reciprocity_binary,
    weighted_reciprocity_raw,
)
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import RandomizerConfig, rewire_edges, rewired_replicas, shuffled_replicas
from notegraph.pipeline import PipelineConfig, run_pipeline
from notegraph.stats import holm_correction, mann_kendall, mann_whitney_u

# fraction of songs whose rewired replicas must beat the original
EFFICIENCY_GAIN_THRESHOLD = 0.8


def check(num: int, desc: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def song_graph(data: bytes, song_id: str = "") -> TransitionGraph:
    return graph_from_onsets(onset_stream(parse_midi(data)), song_id=song_id)


def test_criterion_1_constants():
    ok = (
        DEFAULT_DAMPING == 0.05
        and PipelineConfig(inputs=["x"]).min_duration == 60.0
        and PipelineConfig(inputs=["x"]).damping == 0.05
        and len(ERA_BUCKETS) == 5
        and ERA_BUCKETS == ("pre-1900", "1900-1949", "1950-1979", "1980-1999", "2000-plus")
        and len(MACRO_GENRE_KEYWORDS) == 7
        and set(MACRO_GENRE_KEYWORDS) == {
            "rock", "pop", "electronic", "classical", "jazz", "hiphop", "hip hop",
        }
        and MIN_YEAR_MODERN == 1950
        and MIN_YEAR_JAZZ == 1900
        and MAX_RELEASE_YEAR == 2021
    )
    check(1, "defaults: damping 0.05, 60 s filter, 5 eras, 7 genre keywords, "
             "year thresholds 1950/1900/2021", ok)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)


def test_criterion_2_metric_oracles():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        g = oracles.random_graph(rng, max_nodes=8)
        ok &= close(density(g), oracles.density(g))
        if density(g) < 1.0:
            ok &= close(reciprocity_binary(g)[0], oracles.reciprocity_binary(g))
        ok &= close(weighted_reciprocity_raw(g), oracles.weighted_reciprocity_raw(g))
        for value, weighted in zip(global_efficiency([g])[0], (False, True)):
            ok &= close(value, oracles.global_efficiency(g, weighted))
        ok &= close(mean_node_entropy(g), oracles.mean_node_entropy(g))
        ok &= close(network_entropy([g])[0][0], oracles.network_entropy(g, 0.05))
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    check(2, f"500 random graphs match brute-force metric oracles to 1e-10 "
             f"({elapsed:.1f} s)", ok)


def test_criterion_3_null_model_conservation():
    rng = random.Random(7)
    violations = 0
    replicas = 0
    while replicas < 200:
        g = oracles.random_graph(rng)
        if g.edge_count < 2:
            continue
        cfg = RandomizerConfig(seed=replicas, null_samples=1)
        rewired = rewire_edges(g, cfg)
        replicas += 1
        out = lambda h: sorted(s for s, _ in h.edges)
        into = lambda h: sorted(t for _, t in h.edges)
        if (out(rewired) != out(g) or into(rewired) != into(g)
                or sum(rewired.edges.values()) != sum(g.edges.values())):
            violations += 1
        (shuffled,) = shuffled_replicas(g, cfg)
        replicas += 1
        strengths = lambda h: {
            n: sum(oracles.out_weights(h, n).values()) for n in h.nodes
        }
        if set(shuffled.edges) != set(g.edges) or strengths(shuffled) != strengths(g):
            violations += 1
    check(3, f"degree/weight conservation over {replicas} null replicas "
             f"({violations} violations)", violations == 0)


def shift_node(g: TransitionGraph, node: int, delta: int) -> TransitionGraph:
    relabel = {n: (n + delta if n == node else n) for n in g.nodes}
    return TransitionGraph(
        edges={(relabel[s], relabel[t]): w for (s, t), w in g.edges.items()}
    )


def test_criterion_4_interval_table_and_invariance():
    expected = (
        "Perfect Unison", "Minor Second", "Major Second", "Minor Third",
        "Major Third", "Perfect Fourth", "Tritone", "Perfect Fifth",
        "Minor Sixth", "Major Sixth", "Minor Seventh", "Major Seventh",
    )
    ok = tuple(n.lower() for n in expected) == INTERVAL_NAMES
    rng = random.Random(12)
    for k in range(1000):
        g = oracles.random_graph(rng)
        base = interval_vector(g)
        transposed = TransitionGraph(
            edges={(s + k % 30, t + k % 30): w for (s, t), w in g.edges.items()}
        )
        ok &= bool(np.allclose(base, interval_vector(transposed), atol=1e-12))
        # octave moves away from the pitch range cannot flip interval signs
        up = shift_node(g, max(g.nodes), 12)
        down = shift_node(g, min(g.nodes), -12)
        ok &= bool(np.allclose(base, interval_vector(up), atol=1e-12))
        ok &= bool(np.allclose(base, interval_vector(down), atol=1e-12))
    check(4, "interval index-name table and transposition/octave invariance "
             "on 1000 graphs", ok)


def test_criterion_5_statistics_oracles():
    exact = mann_whitney_u([1, 2, 3], [4, 5, 6], mode="exact")
    ok = math.isclose(exact.p_value, 0.1, abs_tol=1e-12)
    rng = random.Random(55)
    for _ in range(100):
        x = [rng.random() for _ in range(6)]
        y = [rng.random() for _ in range(6)]
        pe = mann_whitney_u(x, y, mode="exact").p_value
        pa = mann_whitney_u(x, y, mode="approx").p_value
        ok &= abs(pe - pa) <= 0.02
    adjusted = holm_correction([0.01, 0.04, 0.03])
    ok &= all(
        math.isclose(a, b, abs_tol=1e-12)
        for a, b in zip(adjusted, [0.03, 0.06, 0.06])
    )
    ok &= mann_kendall([1, 2, 3, 5, 8]).statistic == pytest.approx(1.0)
    ok &= mann_kendall([9, 6, 4, 2, 0]).statistic == pytest.approx(-1.0)
    check(5, "rank-test oracles: exact p=0.1, exact~approx within 0.02, "
             "Holm ladder, tau = +/-1", ok)


def test_criterion_6_stationary_distribution():
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        g = oracles.random_graph(rng)
        m = stochastic_matrix(g)
        pi, _ = stationary_distribution(m)
        residual = np.abs(pi @ m - pi).sum()
        ok &= residual < 1e-10
        ok &= abs(pi.sum() - 1) < 1e-12
    two = stochastic_matrix(
        TransitionGraph(edges={(0, 1): 3, (1, 0): 1}), damping=0.05
    )
    expected = oracles.exact_two_state_stationary(two)
    got, _ = stationary_distribution(two)
    ok &= bool(np.allclose(got, expected, atol=1e-12))
    check(6, "stationary fixed point to 1e-10 on 200 graphs; two-state "
             "closed form to 1e-12", ok)


def test_criterion_7_rewiring_raises_efficiency():
    wins = 0
    n_songs = 50
    for i in range(n_songs):
        g = song_graph(fixture_midi.melodic_midi(seed=i), song_id=f"m{i}")
        (original, _), = global_efficiency([g])
        cfg = RandomizerConfig(seed=i, null_samples=5)
        replica_eff = [
            hop for hop, _ in global_efficiency(list(rewired_replicas(g, cfg)))
        ]
        if sum(replica_eff) / len(replica_eff) > original:
            wins += 1
    fraction = wins / n_songs
    check(7, f"rewired replicas beat original unweighted efficiency on "
             f"{wins}/{n_songs} melodic songs (need >= {EFFICIENCY_GAIN_THRESHOLD:.0%})",
          fraction >= EFFICIENCY_GAIN_THRESHOLD)


def test_criterion_8_complexity_separation():
    start = time.monotonic()
    melodic, loops = [], []
    for i in range(30):
        g = song_graph(fixture_midi.melodic_midi(seed=100 + i), song_id=f"m{i}")
        melodic.append(
            (global_efficiency([g])[0][1], mean_node_entropy(g))
        )
        h = song_graph(fixture_midi.loop_midi(length=300 + i), song_id=f"l{i}")
        loops.append(
            (global_efficiency([h])[0][1], mean_node_entropy(h))
        )
    mean = lambda rows, idx: sum(r[idx] for r in rows) / len(rows)
    elapsed = time.monotonic() - start
    ok = (
        mean(melodic, 0) > mean(loops, 0)
        and mean(melodic, 1) > mean(loops, 1)
        and elapsed < 30
    )
    check(8, f"melodic corpus beats loop corpus on weighted efficiency "
             f"({mean(melodic, 0):.3f} > {mean(loops, 0):.3f}) and node entropy "
             f"({mean(melodic, 1):.3f} > {mean(loops, 1):.3f}) in {elapsed:.1f} s", ok)


def test_criterion_9_pipeline_determinism(tmp_path):
    midi_dir = tmp_path / "midis"
    midi_dir.mkdir()
    for i in range(6):
        midi_dir.joinpath(f"s{i}.mid").write_bytes(
            fixture_midi.melodic_midi(seed=i, length=260 + i)
        )
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text(
        "song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity\n"
        + "".join(
            f"s{i}\tT{i}\tA{i % 2}\t{'jazz' if i % 2 else 'rock'}\t"
            f"{1955 + 10 * i}\t{1955 + 10 * i}\t{i}\n"
            for i in range(6)
        )
    )
    results = []
    for workers, label in ((1, "one"), (3, "many")):
        out = tmp_path / label
        run_pipeline(PipelineConfig(
            inputs=[str(midi_dir)],
            catalog_path=str(catalog),
            output_dir=str(out),
            null_samples=2,
            seed=17,
            workers=workers,
        ))
        results.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = results[0] == results[1]
    check(9, "same-seed runs with 1 and 3 workers produce byte-identical "
             "reports", ok)


def test_criterion_10_gs_score_geometry():
    v = np.array([2.0, 0.0, 0.0])
    identical = gs_score([v, v.copy(), v.copy()])
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    orthogonal = gs_score([e0, e1])
    ok = identical == 1.0 and abs(orthogonal - 1 / math.sqrt(2)) < 1e-9
    check(10, f"GS-score: identical vectors -> {identical}, orthogonal pair "
              f"-> {orthogonal:.10f}", ok)
