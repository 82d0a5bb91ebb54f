"""The benchmark's tracer (perfbench/spans.py) replaces program functions
by name and reads some of their arguments by position. These tests load
the tracer as it is and keep the program to that contract."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import fixture_midi
import notegraph.cli  # noqa: F401  (loads every module the tracer patches)
from notegraph.graph import TransitionGraph
from notegraph.nullmodels import RandomizerConfig, rewire_edges
from notegraph.pipeline import PipelineConfig, run_pipeline

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_every_wrapped_name_is_a_loaded_callable():
    for module, attr in spans.WRAPPED:
        assert f"notegraph.{module}" in sys.modules, module
        assert callable(getattr(sys.modules[f"notegraph.{module}"], attr, None)), (module, attr)


# what Tracer._observe reads: rewire args[0], args[1]; mwu args[0], args[1];
# analyze args[1]
@pytest.mark.parametrize("module, attr, leading", [
    ("nullmodels", "rewire_edges", ["g", "cfg"]),
    ("stats", "mann_whitney_u", ["x", "y"]),
    ("pipeline", "analyze_song", ["song_id", "data", "cfg"]),
])
def test_observed_arguments_keep_their_positions(module, attr, leading):
    fn = getattr(sys.modules[f"notegraph.{module}"], attr)
    params = list(inspect.signature(fn).parameters.values())
    assert [p.name for p in params[:len(leading)]] == leading
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:len(leading)])


def test_traced_run_counts_at_the_observed_boundaries(tmp_path):
    # the program must call the observed functions positionally, or the
    # tracer reads the wrong arguments (or none)
    midi_dir = tmp_path / "in"
    midi_dir.mkdir()
    rows = ["song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity"]
    for i, genre in enumerate(("jazz", "jazz", "rock", "rock")):
        (midi_dir / f"s{i}.mid").write_bytes(fixture_midi.melodic_midi(seed=i))
        rows.append(f"s{i}\tT\tA\t{genre}\t1990\t1990\t50")
    catalog = tmp_path / "catalog.tsv"
    catalog.write_text("\n".join(rows) + "\n")

    tracer = spans.Tracer()
    tracer.install()
    try:
        summary = run_pipeline(PipelineConfig(
            inputs=[str(midi_dir)], catalog_path=str(catalog),
            output_dir=str(tmp_path / "out"), null_samples=2, workers=1,
        ))
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert summary["songs_analyzed"] == 4
    # the per-song stages run once per song, and one shuffle call draws
    # all of a song's replicas
    for name in ("midi.parse", "graph.build", "metrics.report", "nullmodels.shuffle"):
        assert counts[f"{name}_calls"] == 4, name
    # the four songs are one chunk and one stack: one call scores both
    # efficiencies of them all, and one their network entropies
    assert counts["metrics.efficiency_calls"] == 1
    assert counts["markov.entropy_calls"] == 1
    # the run scores chunks, not songs one by one
    assert "pipeline.analyze_calls" not in counts
    assert "pipeline.duplicate_analyses" not in counts
    assert "nullmodels.rewire_calls" not in counts  # analyze draws shuffles only
    n_measures = len(notegraph.pipeline.TESTED_MEASURES)
    assert counts["stats.mwu_calls"] == n_measures
    assert counts["stats.mwu_pairs"] == n_measures * 2 * 2

    # the rewiring is observed where it is still drawn: nullmodel
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert notegraph.cli.main(["nullmodel", str(midi_dir / "s0.mid"), "--samples", "2",
                                   "--output", str(tmp_path / "null")]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["nullmodels.rewire_calls"] == 2
    assert counts["nullmodels.rewire_attempts"] == 10 * 2 * counts["graph.edges"]
    assert 0 < counts["nullmodels.rewire_moved"] <= counts["nullmodels.rewire_attempts"]


def test_graph_keeps_the_attributes_the_bench_reads():
    # perfbench/checks.py builds reference graphs by keyword, with pitches
    # whose only transitions were loops; the tracer reads node and edge
    # counts and the edge dict of rewired replicas
    edges = {(60, 62): 2, (62, 64): 1, (64, 60): 3, (60, 64): 1}
    g = TransitionGraph(edges=dict(edges), isolated=frozenset({70}))
    assert g.edges == edges
    assert g.nodes == {60, 62, 64, 70}
    assert (g.node_count, g.edge_count) == (4, 4)
    rewired = rewire_edges(g, RandomizerConfig(seed=1))
    assert rewired.nodes == g.nodes
    assert (rewired.node_count, rewired.edge_count) == (4, 4)
    assert sorted(rewired.edges.values()) == sorted(edges.values())
    assert sum(1 for e in rewired.edges if e not in g.edges) <= g.edge_count
