import math
import random

import numpy as np
import pytest

import fixture_midi
import oracles
from notegraph import embeddings
from notegraph.embeddings import (
    INTERVAL_NAMES,
    component_correlations,
    group_embedding,
    gs_score,
    interval_class,
    interval_fractions,
    interval_vector,
    pca_project,
)
from notegraph.errors import EmptyGraph, EmptyGroup, EmptySet, NotegraphError, ZeroVector
from notegraph.graph import TransitionGraph, graph_from_onsets
from notegraph.midi import onset_stream, parse_midi
from notegraph.pipeline import PipelineConfig, analyze_song
from notegraph.stats import holm_correction, pearson


def graph(edges):
    return TransitionGraph(song_id="t", edges=edges)


def fractions(graphs):
    return interval_fractions([interval_vector(g) for g in graphs])


class TestIntervalVector:
    def test_perfect_fifth(self):
        v = interval_vector(graph({(60, 67): 3}))
        expected = np.zeros(12)
        expected[7] = 3.0
        np.testing.assert_allclose(v, expected)
        assert INTERVAL_NAMES[7] == "perfect fifth"

    def test_octave_collapses_to_unison(self):
        v = interval_vector(graph({(60, 72): 1}))
        assert v[0] == 1.0 and v.sum() == 1.0

    def test_direction_insensitive(self):
        v = interval_vector(graph({(60, 62): 1, (62, 60): 1}))
        assert v[2] == 2.0 and v.sum() == 2.0

    def test_unit_norm(self):
        # interval_vector returns counts; the song record stores them and,
        # for GS scores and PCA, the same vector scaled to unit norm
        cfg = PipelineConfig(inputs=["x"], null_samples=1)
        for seed in range(3):
            data = fixture_midi.melodic_midi(seed=seed)
            counts = interval_vector(graph_from_onsets(onset_stream(parse_midi(data))))
            rec = analyze_song(f"s{seed}", data, cfg)
            np.testing.assert_array_equal(rec["interval_counts"], counts)
            assert np.linalg.norm(rec["interval_vector"]) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(rec["interval_vector"], counts / np.linalg.norm(counts))

    def test_transposition_invariant(self):
        rng = random.Random(2)
        for _ in range(200):
            g = oracles.random_graph(rng, max_nodes=6)
            shift = rng.randint(-12, 12)
            moved = graph({(s + shift, t + shift): w for (s, t), w in g.edges.items()})
            np.testing.assert_allclose(interval_vector(g), interval_vector(moved))

    def test_octave_shift_of_single_note_invariant(self):
        # moving a note to a free octave (top note up, bottom note down)
        # never crosses another pitch, so no unsigned difference flips sign
        rng = random.Random(3)
        for _ in range(200):
            g = oracles.random_graph(rng, max_nodes=6)
            for node, shift in ((max(g.nodes), 12), (min(g.nodes), -12)):
                moved = graph({
                    (s + shift * (s == node), t + shift * (t == node)): w
                    for (s, t), w in g.edges.items()
                })
                np.testing.assert_allclose(interval_vector(g), interval_vector(moved))

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            interval_vector(TransitionGraph(edges={}))


class TestIntervalFractions:
    def test_indicator(self):
        f = fractions([graph({(60, 64): 2})])
        assert f[4] == 1.0

    def test_two_disjoint_songs_split_evenly(self):
        f = fractions([graph({(60, 63): 2}), graph({(60, 65): 2})])
        assert f[3] == pytest.approx(0.5) and f[5] == pytest.approx(0.5)

    def test_matches_flat_recount(self):
        rng = random.Random(4)
        graphs = [oracles.random_graph(rng) for _ in range(20)]
        counts = np.zeros(12)
        total = 0
        for g in graphs:
            for (s, t), w in g.edges.items():
                counts[interval_class(s, t)] += w
                total += w
        np.testing.assert_allclose(fractions(graphs), counts / total)
        assert fractions(graphs).sum() == pytest.approx(1.0)

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            fractions([])


class TestGsScore:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 0.0])
        assert gs_score([v, v, v]) == pytest.approx(1.0)

    def test_two_orthogonal_unit_vectors(self):
        a = np.zeros(12); a[0] = 1.0
        b = np.zeros(12); b[5] = 1.0
        assert gs_score([a, b]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_singleton(self):
        assert gs_score([np.ones(12)]) == pytest.approx(1.0)

    def test_bounds_and_monotone_dilution(self):
        rng = np.random.default_rng(5)
        vectors = [np.abs(rng.normal(size=12)) for _ in range(10)]
        assert 0 <= gs_score(vectors) <= 1
        base = [np.eye(12)[0]] * 5
        diluted = base + [np.eye(12)[3]]
        assert gs_score(diluted) < gs_score(base)

    def test_errors(self):
        with pytest.raises(EmptySet):
            gs_score([])
        with pytest.raises(ZeroVector):
            gs_score([np.zeros(12), np.ones(12)])

    def test_matches_the_mean_and_norm_formula_bit_for_bit(self):
        # the formula with numpy's reductions in place of BLAS products
        def formula(vectors):
            matrix = np.asarray(vectors, dtype=float)
            norms = np.linalg.norm(matrix, axis=1)
            if np.any(norms == 0):
                raise ZeroVector("GS-score undefined with a zero vector")
            centroid = matrix.mean(axis=0)
            c_norm = np.sqrt((centroid * centroid).sum())
            if c_norm == 0:
                raise ZeroVector("centroid is the zero vector")
            return float(np.mean((matrix * centroid).sum(axis=1) / (norms * c_norm)))

        def outcome(score, vectors):
            try:
                return score(vectors).hex()
            except ZeroVector as exc:
                return str(exc)

        rng = random.Random(30)
        errors = []
        for _ in range(500):
            k = rng.randrange(1, 40)
            if rng.random() < 0.5:  # interval counts scaled to unit length, as songs hold them
                counts = [[float(rng.randrange(0, 60)) for _ in range(12)] for _ in range(k)]
                group = [[c / math.sqrt(sum(x * x for x in row)) if any(row) else 0.0
                          for c in row] for row in counts]
            else:
                group = [[rng.uniform(-1, 1) for _ in range(12)] for _ in range(k)]
            if rng.random() < 0.1:
                group[rng.randrange(k)] = [0.0] * 12
            elif rng.random() < 0.1:
                # each row beside its negation: the centroid sums to zero exactly
                group = [r for row in group for r in (row, [-x for x in row])]
            vectors = np.array(group) if rng.random() < 0.5 else [np.array(v) for v in group]
            got, want = outcome(gs_score, vectors), outcome(formula, vectors)
            assert got == want
            if not want.startswith("0x"):
                errors.append(want)
        # both zero-vector errors are compared too
        assert errors.count("GS-score undefined with a zero vector") >= 20
        assert errors.count("centroid is the zero vector") >= 20


class TestGroupEmbedding:
    def test_below_threshold_has_no_score(self):
        vectors = [np.ones(12)] * 4
        assert group_embedding("small", vectors, min_group_size=5) is None

    def test_at_threshold(self):
        score = group_embedding("ok", [np.ones(12)] * 5, min_group_size=5)
        assert score == pytest.approx(1.0)


class TestPcaProject:
    def test_line_carries_all_variance(self):
        base = np.arange(12, dtype=float)
        rows = np.array([t * base for t in np.linspace(0, 1, 10)])
        _, explained = pca_project(rows)
        assert explained[0] == pytest.approx(1.0)
        assert explained[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_point_analytic(self):
        rows = np.array([[0.0] * 12, [2.0] + [0.0] * 11])
        coords, _ = pca_project(rows)
        # centered points sit at distance 1 along component 1
        assert sorted(np.round(coords[:, 0], 9)) == [-1.0, 1.0]

    def test_duplicate_rows_all_zero(self):
        rows = np.ones((5, 12))
        coords, explained = pca_project(rows)
        np.testing.assert_allclose(coords, 0.0)
        np.testing.assert_allclose(explained, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(40, 12))
        a, _ = pca_project(rows)
        b, _ = pca_project(rows.copy())
        assert np.array_equal(a, b)

    def test_sign_convention(self):
        # the loadings of axis i are centered.T @ coords[:, i] scaled by a
        # positive factor, so their largest-magnitude entry is positive
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(30, 12))
        coords, _ = pca_project(rows)
        centered = rows - rows.mean(axis=0)
        for axis in coords.T:
            load = centered.T @ axis
            assert load[np.argmax(np.abs(load))] >= 0


def svd_projection(rows):
    """The projection by LAPACK's SVD: a component is kept when its
    variance s_i**2 exceeds 1e-12 of the first's, and flipped so its
    largest-magnitude loading is positive."""
    u, s, vt = np.linalg.svd(rows - rows.mean(axis=0), full_matrices=False)
    kept = int(np.sum(s**2 > s[0] ** 2 * 1e-12)) if s[0] > 0 else 0
    coords, explained = np.zeros((len(rows), 2)), np.zeros(2)
    for i in range(min(2, kept)):
        sign = 1.0 if vt[i][np.argmax(np.abs(vt[i]))] >= 0 else -1.0
        coords[:, i] = sign * u[:, i] * s[i]
        explained[i] = s[i] ** 2 / np.sum(s**2)
    return coords, explained, kept


def low_rank_rows(rng, n_rows, rank):
    """Rows of the given rank once centered: a shared offset plus ``rank``
    random directions. The offset's entries are multiples of 1/8, so
    equal rows center to exact zeros."""
    directions = rng.normal(size=(rank, 12))
    return rng.integers(-8, 8, size=12) / 8 + rng.normal(size=(n_rows, rank)) @ directions


class TestPcaAgainstSvd:
    @pytest.mark.parametrize("n_rows", [2, 3, 5, 9, 12, 13, 20, 40, 2500])
    def test_random_rows(self, n_rows):
        rng = np.random.default_rng(n_rows)
        for trial in range(1 if n_rows == 2500 else 10):
            rows = rng.normal(size=(n_rows, 12)) if trial % 2 else np.abs(rng.normal(size=(n_rows, 12)))
            coords, explained = pca_project(rows)
            want_coords, want_explained, _ = svd_projection(rows)
            np.testing.assert_allclose(coords, want_coords, rtol=0, atol=1e-9)
            np.testing.assert_allclose(explained, want_explained, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_low_rank_rows_are_zero_padded(self, rank):
        rng = np.random.default_rng(40 + rank)
        for n_rows in (2, 3, 7, 40):
            if n_rows <= rank:
                continue
            rows = low_rank_rows(rng, n_rows, rank)
            coords, explained = pca_project(rows)
            want_coords, want_explained, kept = svd_projection(rows)
            assert kept == rank
            np.testing.assert_allclose(coords, want_coords, rtol=0, atol=1e-9)
            np.testing.assert_allclose(explained, want_explained, rtol=1e-12, atol=0)
            assert not coords[:, rank:].any() and not explained[rank:].any()

    def test_a_solve_past_the_iteration_cap_is_refused(self, monkeypatch):
        rows = np.random.default_rng(50).normal(size=(20, 12))
        monkeypatch.setattr(embeddings, "_MAX_QL_ITERATIONS", 0)
        with pytest.raises(NotegraphError, match="no convergence"):
            pca_project(rows)


def symmetric_matrices():
    rng = np.random.default_rng(60)
    square = rng.normal(size=(12, 12))
    data = rng.normal(size=(30, 12))
    thin = rng.normal(size=(3, 12))
    return {
        "zero": np.zeros((12, 12)),
        "identity": np.eye(12),
        "diagonal": np.diag(rng.normal(size=12)),
        "all-ones": np.ones((12, 12)),
        "random": square + square.T,
        "gram": data.T @ data,
        "gram-rank-3": thin.T @ thin,
    }


class TestSymmetricEigen:
    @pytest.mark.parametrize("name", list(symmetric_matrices()))
    def test_residual_and_orthogonality(self, name):
        a = symmetric_matrices()[name]
        values, vectors = embeddings._symmetric_eigen(a.tolist(), 12)
        v = np.array(vectors).T
        scale = max(np.abs(a).max(), 1e-300)
        assert values == sorted(values, reverse=True)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-13 * scale)
        assert np.abs(a @ v - v * np.array(values)).max() <= 1e-13 * scale
        assert np.abs(v.T @ v - np.eye(12)).max() <= 1e-13

    def test_the_largest_pairs_are_those_of_the_whole_solve(self):
        a = symmetric_matrices()["gram"].tolist()
        values, vectors = embeddings._symmetric_eigen(a, 12)
        assert embeddings._symmetric_eigen(a, 2) == (values[:2], vectors[:2])


class TestComponentCorrelations:
    def test_exact_match_gives_r_one(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(50, 2))
        entries = component_correlations(coords, {"copy": coords[:, 0]})
        first = [e for e in entries if e.component == 0 and e.feature == "copy"][0]
        assert first.r == pytest.approx(1.0)
        assert first.p_value == pytest.approx(0.0, abs=1e-12)

    def test_independent_noise_is_weak(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(1000, 2))
        entries = component_correlations(coords, {"noise": rng.normal(size=1000)})
        for e in entries:
            assert abs(e.r) < 0.1
            assert e.p_adjusted >= e.p_value

    def test_constant_column_flagged(self):
        coords = np.random.default_rng(10).normal(size=(20, 2))
        entries = component_correlations(coords, {"const": [3.0] * 20})
        assert all(e.undefined for e in entries)

    def test_non_finite_rows_left_out(self):
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(20, 2))
        col = rng.normal(size=20)
        gappy = col.copy()
        gappy[[2, 5, 9]] = [math.nan, math.inf, -math.inf]
        keep = np.isfinite(gappy)
        sparse = np.full(20, math.nan)
        sparse[[0, 1]] = [1.0, 2.0]
        entries = component_correlations(
            coords, {"full": col, "gappy": gappy, "sparse": sparse}
        )
        by_key = {(e.component, e.feature): e for e in entries}
        for comp in range(2):
            want = pearson(coords[keep, comp], col[keep])
            got = by_key[comp, "gappy"]
            assert (got.r, got.p_value) == (want.statistic, want.p_value)
            assert not got.undefined
            # 2 finite rows: undefined and out of the Holm family
            assert by_key[comp, "sparse"].undefined
        defined = [e for e in entries if not e.undefined]
        assert [e.p_adjusted for e in defined] == holm_correction([e.p_value for e in defined])
