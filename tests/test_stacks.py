"""Songs scored in stacks: a worker takes a chunk of jobs, and the GTH
solve and the Floyd-Warshall run once per stack of the chunk's songs.
Each song must get the bytes it gets alone, and its own error."""

import hashlib
import json
import random

import numpy as np
import pytest

import oracles
from notegraph import markov, metrics, pipeline
from notegraph.catalog import join_catalog
from notegraph.errors import DegenerateGraph, NonConvergence, NotegraphError
from notegraph.graph import TransitionGraph
from notegraph.markov import network_entropy, stationary_distribution, stochastic_matrix
from notegraph.metrics import global_efficiency
from notegraph.pipeline import PipelineConfig, analyze_song, run_pipeline
from test_golden import golden_corpus


def mixed_graphs(rng, count):
    """Random graphs of 2 to 128 nodes, some with isolated pitches (so
    with unreachable pairs and dangling rows)."""
    graphs = []
    while len(graphs) < count:
        g = oracles.random_graph(rng, max_nodes=rng.choice((3, 12, 40, 90, 128)),
                                 edge_prob=rng.choice((0.03, 0.1, 0.4)), max_weight=50)
        free = sorted(set(range(128)) - g.nodes)
        isolated = rng.sample(free, min(len(free), rng.choice((0, 0, 2))))
        graphs.append(TransitionGraph(song_id=str(len(graphs)), edges=g.edges, isolated=isolated))
    return graphs


def one_solve(m):
    """GTH over one (n, n) matrix alone, by the steps the stacked solve
    runs on each of its blocks: the stationary vector."""
    n = len(m)
    p = m.copy()
    for k in range(n - 1, 0, -1):
        col = p[:k, k]
        col /= np.add.reduce(p[k, :k])
        block = p[:k, :k]
        block += col[:, None] * p[k, :k]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = np.add.reduce(pi[:k] * p[:k, k])
    return pi / np.add.reduce(pi)


def hexed(values):
    return [tuple(v.hex() for v in pair) for pair in values]


class TestKernels:
    def test_a_graph_gets_its_own_bits_in_any_stack(self):
        rng = random.Random(36)
        graphs = mixed_graphs(rng, 40)
        alone_efficiency = [hexed(global_efficiency([g]))[0] for g in graphs]
        alone_entropy = [hexed(network_entropy([g]))[0] for g in graphs]
        # stacks of 1-12 graphs in random order, so with mixed node counts
        for _ in range(25):
            stack = rng.sample(graphs, rng.randint(1, 12))
            order = [int(g.song_id) for g in stack]
            assert hexed(global_efficiency(stack)) == [alone_efficiency[i] for i in order]
            assert hexed(network_entropy(stack)) == [alone_entropy[i] for i in order]

    def test_the_stacked_solve_gives_the_bits_of_a_solve_alone(self):
        rng = random.Random(37)
        graphs = mixed_graphs(rng, 30) + [TransitionGraph(edges={}, isolated={60})]
        ms = [stochastic_matrix(g) for g in graphs]
        for m, (pi, residual) in zip(ms, markov.stationary_distributions(ms)):
            want = one_solve(m)
            assert pi.tobytes() == want.tobytes()
            moved = np.add.reduce(want[:, None] * m, axis=0)
            assert residual == float(np.add.reduce(np.abs(moved - want)))
            assert (pi.tobytes(), residual) == tuple(
                x.tobytes() if isinstance(x, np.ndarray) else x for x in stationary_distribution(m))

    def test_padded_states_get_no_mass(self):
        # no real state links to a padded one, so the padded states hold
        # pi = 0, and the real states the unnormalised vector of the block alone
        rng = random.Random(38)
        ms = [stochastic_matrix(g) for g in mixed_graphs(rng, 8)]
        size = max(map(len, ms))
        pi = markov._gth(markov._padded(ms))
        for x, m in zip(pi, ms):
            n = len(m)
            assert not x[n:].any()
            assert x[:n].tobytes() == markov._gth(markov._padded([m]))[0].tobytes()
        assert pi.shape == (len(ms), size)

    def test_one_failed_solve_leaves_the_others(self, monkeypatch):
        rng = random.Random(39)
        graphs = mixed_graphs(rng, 10)
        alone = [solved for g in graphs for solved in network_entropy([g])]
        residuals = sorted(residual for _, residual in alone)
        assert residuals[-1] > residuals[-2]
        monkeypatch.setattr(markov, "_MAX_RESIDUAL", residuals[-2])
        stacked = network_entropy(graphs)
        for solved, (entropy, residual) in zip(stacked, alone):
            if residual == residuals[-1]:
                assert isinstance(solved, NonConvergence)
                assert solved.residual == residual
            else:
                assert solved == (entropy, residual)

    def test_a_refused_graph_raises_before_any_work(self):
        good = oracles.random_graph(random.Random(40))
        with pytest.raises(DegenerateGraph):
            global_efficiency([good, TransitionGraph(edges={}, isolated={5})])
        assert global_efficiency([]) == [] and network_entropy([]) == []


def records_by_song(out_dir):
    return {json.loads(line)["song_id"]: line
            for line in (out_dir / "songs.jsonl").read_text().splitlines()}


def alone(path, cfg, catalog=None):
    """The record of one file scored alone, as JSON text (joined with
    ``catalog`` if one is given), or its exclusion reason."""
    try:
        record = analyze_song(path.stem, path.read_bytes(), cfg)
    except NotegraphError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(record if catalog is None else join_catalog(record, catalog), sort_keys=True)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return golden_corpus(tmp_path_factory.mktemp("stacks") / "in")


CFG = PipelineConfig(seed=7, null_samples=3, cache_dir=None)


def jobs_of(corpus, cfg):
    return [(p.stem, str(p), hashlib.sha256(p.read_bytes()).hexdigest(), cfg)
            for p in sorted(corpus.iterdir()) if p.stem != "zz_copy"]


def outcome_text(outcome):
    _, _, entry, _ = outcome
    return entry["reason"] if "reason" in entry else json.dumps(entry, sort_keys=True)


class TestChunks:
    def test_a_song_gets_its_own_record_and_reason_in_any_chunk(self, corpus):
        want = {p.stem: alone(p, CFG) for p in corpus.iterdir()}
        jobs = jobs_of(corpus, CFG)
        rng = random.Random(41)
        for _ in range(6):
            chunk = rng.sample(jobs, rng.randint(1, 16))
            outcomes = pipeline._worker(chunk)
            assert [o[0] for o in outcomes] == [job[0] for job in chunk]
            assert [outcome_text(o) for o in outcomes] == [want[job[0]] for job in chunk]

    def test_a_run_writes_each_song_as_it_is_alone(self, corpus, tmp_path):
        run_pipeline(PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / "out"),
                                    seed=7, null_samples=3, cache_dir=None))
        records = records_by_song(tmp_path / "out")
        assert len(records) == 40
        for song_id, line in records.items():
            assert line == alone(corpus / f"{song_id}.mid", CFG, catalog={})

    def test_each_failure_in_a_chunk_excludes_its_song_alone(self, corpus, monkeypatch):
        jobs = jobs_of(corpus, CFG)
        before = {job[0]: outcome_text(o) for job, o in zip(jobs, pipeline._worker(jobs[:16]))}
        # the heaviest song past the efficiency's weight bound, the song
        # with the largest residual past the solve's
        weights = {}
        residuals = {}
        for song_id, line in before.items():
            if line.startswith("{"):
                record = json.loads(line)
                weights[song_id] = sum(int(w) * c for w, c in record["weight_histogram"].items())
                residuals[song_id] = record["stationary_residual"]
        heavy = max(weights, key=weights.get)
        monkeypatch.setattr(metrics, "_NO_PATH", weights[heavy])
        assert sorted(weights.values())[-2] < weights[heavy]
        rest = sorted(v for k, v in residuals.items() if k != heavy)
        unsteady = max((k for k in residuals if k != heavy), key=residuals.get)
        assert rest[-2] < rest[-1]
        monkeypatch.setattr(markov, "_MAX_RESIDUAL", rest[-2])
        chunk = jobs[:16] + [job for job in jobs if job[0] in ("short", "truncated")]
        after = {job[0]: outcome_text(o) for job, o in zip(chunk, pipeline._worker(chunk))}
        assert after.pop("short") == "EmptySong: duration 1.00s not longer than 60s"
        assert after.pop("truncated").startswith("TruncatedChunk: ")
        assert after.pop(heavy) == (
            f"OutOfRange: total weight {weights[heavy]} not below {weights[heavy]}")
        assert after.pop(unsteady) == (
            f"NonConvergence: stationary vector residual {residuals[unsteady]:.3e}")
        assert after == {k: v for k, v in before.items() if k not in (heavy, unsteady)}

    def test_one_and_two_workers_write_the_same_bytes_over_many_chunks(self, corpus, tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_pipeline(PipelineConfig(inputs=[str(corpus)], output_dir=str(out), seed=7,
                                        null_samples=3, workers=workers, cache_dir=None))
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_a_chunk_is_scored_in_stacks_of_sorted_node_counts(
            self, corpus, tmp_path, monkeypatch):
        chunks, stacks, entropy_stacks = [], [], []
        real_worker = pipeline._worker
        real_efficiency = pipeline.global_efficiency
        real_entropy = pipeline.network_entropy

        def worker(chunk):
            chunks.append([job[0] for job in chunk])
            return real_worker(chunk)

        def efficiency(graphs):
            stacks.append([g.node_count for g in graphs])
            return real_efficiency(graphs)

        def entropy(graphs, damping):
            entropy_stacks.append([g.node_count for g in graphs])
            return real_entropy(graphs, damping)

        monkeypatch.setattr(pipeline, "_worker", worker)
        monkeypatch.setattr(pipeline, "global_efficiency", efficiency)
        monkeypatch.setattr(pipeline, "network_entropy", entropy)
        run_pipeline(PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / "out"),
                                    seed=7, null_samples=2, cache_dir=None))
        nodes = {json.loads(line)["song_id"]: json.loads(line)["vertex_count"]
                 for line in records_by_song(tmp_path / "out").values()}
        # 42 jobs (the copy is no job) at one worker: chunks of 16
        assert [len(c) for c in chunks] == [16, 16, 10]
        want = []
        for chunk in chunks:
            stack = []
            for n in sorted(nodes[s] for s in chunk if s in nodes):
                if stack and (len(stack) + 1) * n * n > 2**15:
                    want.append(stack)
                    stack = []
                stack.append(n)
            want.append(stack)
        assert stacks == entropy_stacks == want
        assert len(want) > len(chunks)  # the wide songs need stacks of their own
