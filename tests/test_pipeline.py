import csv
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import fixture_midi
import notegraph
import oracles
from notegraph import metrics, nullmodels, pipeline
from notegraph.cli import _build_config, build_parser, main
from notegraph.errors import (
    BadSetting, BadSongsFile, InsufficientGroups, NoInputs, NonConvergence,
)
from notegraph.graph import graph_from_onsets
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import RandomizerConfig, replica_seed
from notegraph.stats import holm_correction
from notegraph.pipeline import (
    TESTED_MEASURES,
    CorpusColumns,
    PipelineConfig,
    pairwise_genre_tests,
    read_settings,
    run_pipeline,
    song_seed,
    trend_report,
)

GENRES = ["classical", "jazz", "rock", "pop"]

# every table report writes when it skips none, in file-name order
AGGREGATE_FILES = ["ccdf.csv", "component_correlations.csv", "coordinates.csv", "genre_tests.csv",
                   "gs_scores.csv", "interval_fractions.csv", "trend_decades.csv", "trend_tests.csv"]

# CSV columns that hold labels or flags; every other cell is a number
TEXT_COLUMNS = {
    "song_id", "path", "reason", "genre", "genre_a", "genre_b", "measure",
    "method", "name", "group_type", "label", "feature",
    "full_density", "degenerate_baseline", "all_tied", "undefined",
}


def minimal_record(song_id: str) -> dict:
    """A song record with only the fields the aggregate tables read."""
    counts = [1.0] + [0.0] * 11
    return {"song_id": song_id, "weight_histogram": {"1": 1}, "interval_vector": counts,
            "interval_counts": counts, **{m: 0.5 for m in TESTED_MEASURES}}


def build_corpus(root: Path, n_songs: int = 12) -> Path:
    midi_dir = root / "midis"
    midi_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n_songs):
        if i % 4 == 3:
            data = fixture_midi.loop_midi(length=250 + i)
        else:
            data = fixture_midi.melodic_midi(seed=i, length=250 + i)
        (midi_dir / f"song{i:02d}.mid").write_bytes(data)
    return midi_dir


def build_catalog(root: Path, n_songs: int = 12) -> Path:
    rows = ["song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity"]
    for i in range(n_songs):
        genre = GENRES[i % len(GENRES)]
        year = 1920 + i * 8
        rows.append(
            f"song{i:02d}\tTitle {i}\tArtist {i % 3}\t{genre}\t{year}\t{year}\t{50 + i}"
        )
    path = root / "catalog.tsv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    midi_dir = build_corpus(root)
    catalog = build_catalog(root)
    # one too-short file and one malformed file must be excluded, not fatal
    (midi_dir / "short.mid").write_bytes(
        fixture_midi.write_midi([(0, 0, 60, 480), (480, 0, 62, 480)],
                                tempos=[(0, 500_000)])
    )
    (midi_dir / "broken.mid").write_bytes(b"MThd" + b"\x00" * 30)
    return midi_dir, catalog


def read_output(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestRunPipeline:
    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(NoInputs):
            run_pipeline(PipelineConfig(inputs=[str(tmp_path / "empty")]))

    def test_full_run(self, corpus, tmp_path):
        midi_dir, catalog = corpus
        cfg = PipelineConfig(
            inputs=[str(midi_dir)],
            catalog_path=str(catalog),
            output_dir=str(tmp_path / "out"),
            null_samples=3,
            seed=7,
        )
        summary = run_pipeline(cfg)
        assert summary["songs_analyzed"] == 12
        assert summary["songs_excluded"] == 2
        out = tmp_path / "out"
        for name in (
            "songs.jsonl", "metrics.csv", "embeddings.csv", "exclusions.csv",
            "ccdf.csv", "interval_fractions.csv", "genre_tests.csv",
            "trend_decades.csv", "trend_tests.csv", "gs_scores.csv",
            "coordinates.csv", "component_correlations.csv", "summary.json",
        ):
            assert (out / name).is_file(), name
        records = [json.loads(l) for l in (out / "songs.jsonl").read_text().splitlines()]
        assert [r["song_id"] for r in records] == sorted(r["song_id"] for r in records)
        for r in records:
            assert r["duration"] > 60
            assert 0 <= r["density"] <= 1
            assert math.isfinite(r["network_entropy"])
            counts = np.asarray(r["interval_counts"])
            assert np.linalg.norm(r["interval_vector"]) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(r["interval_vector"], counts / np.linalg.norm(counts))
        reasons = (out / "exclusions.csv").read_text()
        assert "MalformedHeader" in reasons
        assert "not longer than" in reasons
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, cell in row.items():
                        if column not in TEXT_COLUMNS and cell != "":
                            float(cell)  # e.g. 'np.float64(0.5)' raises

    def test_worker_count_does_not_change_bytes(self, corpus, tmp_path):
        midi_dir, catalog = corpus
        outputs = []
        for workers, label in ((1, "serial"), (3, "parallel")):
            cfg = PipelineConfig(
                inputs=[str(midi_dir)],
                catalog_path=str(catalog),
                output_dir=str(tmp_path / label),
                null_samples=2,
                seed=11,
                workers=workers,
            )
            run_pipeline(cfg)
            outputs.append(read_output(tmp_path / label))
        assert outputs[0] == outputs[1]

    def test_named_files_write_the_bytes_of_their_directory_at_any_worker_count(
            self, corpus, tmp_path):
        midi_dir, catalog = corpus
        named = sorted(str(p) for p in midi_dir.iterdir())
        outputs = []
        for inputs, workers, label in (([str(midi_dir)], 1, "directory"), (named, 1, "serial"),
                                       (named, 2, "parallel")):
            run_pipeline(PipelineConfig(
                inputs=inputs, catalog_path=str(catalog), output_dir=str(tmp_path / label),
                null_samples=2, seed=11, workers=workers,
            ))
            outputs.append(read_output(tmp_path / label))
        directory, serial, parallel = outputs
        assert serial == parallel
        # only summary.json, which echoes the inputs, tells the named files apart
        assert directory.keys() == serial.keys()
        assert [name for name in directory if directory[name] != serial[name]] == ["summary.json"]

    def test_a_job_carries_the_settings_and_not_the_input_list(self, corpus, tmp_path, monkeypatch):
        midi_dir, catalog = corpus
        named = sorted(str(p) for p in midi_dir.iterdir())
        cfg = PipelineConfig(inputs=named, catalog_path=str(catalog),
                             output_dir=str(tmp_path / "out"), null_samples=2, seed=5,
                             cache_dir=str(tmp_path / "cache"))
        jobs = []
        real = pipeline._worker

        def worker(chunk):
            jobs.extend(chunk)
            return real(chunk)

        monkeypatch.setattr(pipeline, "_worker", worker)
        run_pipeline(cfg)
        assert len(jobs) == len(named)
        for job in jobs:
            assert job[3].inputs == []
            assert job[3].analysis_signature() == cfg.analysis_signature()
            assert replace(job[3], inputs=named) == cfg

    def test_analyze_peak_memory_does_not_grow_with_the_song_count(self, tmp_path):
        # each record is written as it arrives and the tables are built from
        # the file, so no record is held until the end
        midi = tmp_path / "midi"
        for i in range(300):
            notes = fixture_midi.melodic_notes(random.Random(i), length=40)
            path = midi / ("few" if i < 30 else "more") / f"s{i:03d}.mid"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(fixture_midi.write_midi(notes))
        def peak(inputs, out):
            tracemalloc.reset_peak()
            run_pipeline(PipelineConfig(inputs=inputs, output_dir=str(tmp_path / out),
                                        min_duration=0, null_samples=1, cache_dir=None))
            return tracemalloc.get_traced_memory()[1]
        tracemalloc.start()
        try:
            peak([str(midi / "few")], "warm-up")
            few = peak([str(midi / "few")], "few")
            many = peak([str(midi)], "many")
        finally:
            tracemalloc.stop()
        assert (tmp_path / "many" / "songs.jsonl").read_text().count("\n") == 300
        assert many - few < 2**19, (few, many)

    def test_a_run_that_raises_leaves_the_last_songs_files_whole(
            self, corpus, tmp_path, monkeypatch):
        midi_dir, catalog = corpus
        cfg = PipelineConfig(inputs=[str(midi_dir)], catalog_path=str(catalog),
                             output_dir=str(tmp_path / "out"), null_samples=2, cache_dir=None)
        run_pipeline(cfg)
        before = read_output(tmp_path / "out")
        real, calls = pipeline.parse_midi, []
        def parse_midi(data):
            calls.append(data)
            if len(calls) == 3:
                raise RuntimeError("stopped on the third song")
            return real(data)
        monkeypatch.setattr(pipeline, "parse_midi", parse_midi)
        with pytest.raises(RuntimeError):
            run_pipeline(replace(cfg, null_samples=3))
        assert read_output(tmp_path / "out") == before
        assert {"songs.jsonl", "metrics.csv", "embeddings.csv"} <= before.keys()

    def test_cache_skips_recomputation(self, corpus, tmp_path, monkeypatch):
        midi_dir, catalog = corpus
        def cfg(out):
            return PipelineConfig(
                inputs=[str(midi_dir)],
                catalog_path=str(catalog),
                output_dir=str(tmp_path / out),
                cache_dir=str(tmp_path / "cache"),
                null_samples=2,
                seed=3,
            )
        first = run_pipeline(cfg("a"))
        assert first["computed"] == 12 and first["cached"] == 0
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read_bytes(p))
        parses = []
        parse_midi = pipeline.parse_midi
        monkeypatch.setattr(pipeline, "parse_midi", lambda data: parses.append(1) or parse_midi(data))
        second = run_pipeline(cfg("b"))
        assert second["computed"] == 0 and second["cached"] == 12
        # each of the 14 inputs is read once, for the hash that keys the
        # cache; the excluded short.mid and broken.mid are cached too
        assert len(reads) == 14
        assert parses == []
        assert read_output(tmp_path / "a") == read_output(tmp_path / "b")

    def test_cached_exclusion_takes_the_current_name(self, tmp_path, monkeypatch):
        # one pitch for 100 s: every transition is a loop
        loop_only = fixture_midi.write_midi([(i * 240, 0, 60, 240) for i in range(400)])
        reasons = {}
        for name in ("first", "renamed"):
            midi_dir = tmp_path / name
            midi_dir.mkdir()
            (midi_dir / f"{name}.mid").write_bytes(loop_only)
            (midi_dir / "melody.mid").write_bytes(fixture_midi.melodic_midi(seed=1))
            run_pipeline(PipelineConfig(
                inputs=[str(midi_dir)], output_dir=str(tmp_path / f"{name}-out"),
                cache_dir=str(tmp_path / "cache"), null_samples=2,
            ))
            with open(tmp_path / f"{name}-out" / "exclusions.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            assert row["song_id"] == name
            assert row["path"] == str(midi_dir / f"{name}.mid")
            reasons[name] = row["reason"]
            monkeypatch.setattr(pipeline, "parse_midi", None)  # the second run parses nothing
        assert reasons["first"] == reasons["renamed"] == "EmptySong: no non-loop transitions"

    def test_results_version_invalidates_cache(self, corpus, tmp_path, monkeypatch):
        midi_dir, catalog = corpus
        def run(out):
            return run_pipeline(PipelineConfig(
                inputs=[str(midi_dir)], catalog_path=str(catalog),
                output_dir=str(tmp_path / out), cache_dir=str(tmp_path / "cache"),
                null_samples=2, seed=3,
            ))
        run("old")
        monkeypatch.setattr(pipeline, "RESULTS_VERSION", pipeline.RESULTS_VERSION + 1)
        summary = run("new")
        assert summary["computed"] == 12 and summary["cached"] == 0

    @pytest.mark.parametrize("corrupt", [
        lambda raw, record: raw[:50].decode(),
        lambda raw, record: json.dumps({k: v for k, v in record.items() if k != "efficiency"}),
        lambda raw, record: json.dumps({"content_hash": record["content_hash"], "reason": None}),
        lambda raw, record: json.dumps([record]),
        lambda raw, record: json.dumps({**record, "efficiency": "x"}),
        lambda raw, record: json.dumps({**record, "interval_vector": record["interval_vector"][:11]}),
        lambda raw, record: json.dumps({**record, "weight_histogram": [1, 2]}),
        lambda raw, record: json.dumps({k: v for k, v in record.items() if k != "duration"}),
        lambda raw, record: json.dumps(
            {k: v for k, v in record.items() if k != "null_shuffled_reciprocity_mean"}),
        lambda raw, record: json.dumps({**record, "genres": ["jazz"]}),
        lambda raw, record: json.dumps(
            {**record, "weight_histogram": {**record["weight_histogram"], "\u00b2": 1}}),
        lambda raw, record: json.dumps(
            {**record, "interval_vector": [math.inf, *record["interval_vector"][1:]]}),
        lambda raw, record: json.dumps(
            {**record, "weight_histogram": {**record["weight_histogram"], "1": -5}}),
        lambda raw, record: json.dumps({**record, "interval_vector": [0.0] * 12}),
        lambda raw, record: json.dumps(
            {**record, "interval_counts": [-1.0, *record["interval_counts"][1:]]}),
        lambda raw, record: json.dumps({**record, "weight_histogram": {"0": 2}}),
    ], ids=["truncated", "record-without-efficiency", "null-reason", "json-list",
            "text-efficiency", "short-interval-vector", "list-weight-histogram",
            "record-without-duration", "record-without-null-mean", "record-with-an-extra-field",
            "superscript-weight", "infinite-interval-vector", "negative-weight-count",
            "zero-interval-vector", "negative-interval-count", "zero-weight"])
    def test_corrupt_cache_entry_is_a_miss(self, corrupt, corpus, tmp_path):
        midi_dir, catalog = corpus
        cache = tmp_path / "cache"
        def run(out):
            return run_pipeline(PipelineConfig(
                inputs=[str(midi_dir)], catalog_path=str(catalog),
                output_dir=str(tmp_path / out), cache_dir=str(cache),
                null_samples=2, seed=3,
            ))
        run("cold")
        run("warm")
        # the first entry that is a song's record, not an exclusion
        entry, raw = next((e, e.read_bytes()) for e in sorted(cache.glob("*.json"))
                          if "reason" not in json.loads(e.read_bytes()))
        entry.write_text(corrupt(raw, json.loads(raw)))
        summary = run("repaired")
        assert summary["computed"] == 1 and summary["cached"] == 11
        assert entry.read_bytes() == raw  # recomputed and overwritten
        assert not list(cache.glob("*.tmp"))
        assert read_output(tmp_path / "warm") == read_output(tmp_path / "repaired")

    def test_numerical_failure_excludes_one_song(self, corpus, tmp_path, monkeypatch):
        midi_dir, _ = corpus
        real = pipeline.network_entropy
        def entropy(graphs, damping):
            return [NonConvergence(1.0) if g.song_id == "song03" else solved
                    for g, solved in zip(graphs, real(graphs, damping))]
        monkeypatch.setattr(pipeline, "network_entropy", entropy)
        summary = run_pipeline(PipelineConfig(
            inputs=[str(midi_dir)], output_dir=str(tmp_path / "out"),
            null_samples=2, workers=1,
        ))
        assert summary["songs_analyzed"] == 11
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            reasons = {r["song_id"]: r["reason"] for r in csv.DictReader(fh)}
        assert reasons["song03"].startswith("NonConvergence")

    def test_stem_collision_excludes_later_path(self, tmp_path):
        root = tmp_path / "in"
        for sub_dir, seed in (("a", 1), ("b", 2)):
            (root / sub_dir).mkdir(parents=True)
            (root / sub_dir / "m0.mid").write_bytes(fixture_midi.melodic_midi(seed=seed))
        summary = run_pipeline(PipelineConfig(
            inputs=[str(root)], output_dir=str(tmp_path / "out"), null_samples=2,
        ))
        assert summary["songs_analyzed"] == 1 and summary["computed"] == 1
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["song_id"] == "m0"
        assert row["path"] == str(root / "b" / "m0.mid")
        assert str(root / "a" / "m0.mid") in row["reason"]

    def test_duplicate_content_excluded(self, tmp_path, monkeypatch):
        midi_dir = tmp_path / "dup"
        midi_dir.mkdir()
        data = fixture_midi.melodic_midi(seed=1)
        (midi_dir / "a.mid").write_bytes(data)
        (midi_dir / "b.mid").write_bytes(data)
        analyzed = []
        real = pipeline.graph_from_onsets
        def build(onsets, song_id):
            analyzed.append(song_id)
            return real(onsets, song_id=song_id)
        monkeypatch.setattr(pipeline, "graph_from_onsets", build)
        summary = run_pipeline(PipelineConfig(
            inputs=[str(midi_dir)], output_dir=str(tmp_path / "out"),
            null_samples=2, workers=1,
        ))
        assert summary["songs_analyzed"] == 1
        assert summary["songs_excluded"] == 1
        assert analyzed == ["a"]
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["song_id"] == "b"
        assert row["path"] == str(midi_dir / "b.mid")
        assert row["reason"] == f"Duplicate: same content as {midi_dir / 'a.mid'}"

    def test_unreadable_input_excludes_one_file(self, tmp_path):
        root = tmp_path / "in"
        (root / "z").mkdir(parents=True)
        for name, seed in (("a.mid", 1), ("b.mid", 2), ("z/gone.mid", 3)):
            (root / name).write_bytes(fixture_midi.melodic_midi(seed=seed))
        (root / "sub.mid").mkdir()
        (root / "gone.mid").symlink_to(root / "missing.mid")
        summary = run_pipeline(PipelineConfig(
            inputs=[str(root)], output_dir=str(tmp_path / "out"), null_samples=2, workers=1,
        ))
        # the dangling link claims no stem, so z/gone.mid is analysed
        assert summary["files_scanned"] == 4 and summary["songs_analyzed"] == 3
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row == {
            "song_id": "gone",
            "path": str(root / "gone.mid"),
            "reason": "FileNotFoundError: No such file or directory",
        }


    def test_missing_named_input_excludes_one_file(self, tmp_path):
        good = tmp_path / "s100.mid"
        good.write_bytes(fixture_midi.melodic_midi(seed=1))
        missing = tmp_path / "nosuch.mid"
        summary = run_pipeline(PipelineConfig(
            inputs=[str(good), str(missing)], output_dir=str(tmp_path / "out"),
            null_samples=2, workers=1,
        ))
        assert summary["files_scanned"] == 2 and summary["songs_analyzed"] == 1
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row == {
            "song_id": "nosuch",
            "path": str(missing),
            "reason": "FileNotFoundError: No such file or directory",
        }

    def test_no_named_input_exists_raises(self, tmp_path):
        with pytest.raises(NoInputs):
            run_pipeline(PipelineConfig(
                inputs=[str(tmp_path / "nosuch.mid"), str(tmp_path / "nodir")],
                output_dir=str(tmp_path / "out"),
            ))

    def test_file_gone_before_its_worker_is_excluded_and_not_cached(self, tmp_path, monkeypatch):
        root = tmp_path / "in"
        root.mkdir()
        for name, seed in (("a.mid", 1), ("b.mid", 2)):
            (root / name).write_bytes(fixture_midi.melodic_midi(seed=seed))
        gone = root / "b.mid"
        data = gone.read_bytes()
        real = pipeline._worker
        def worker(chunk):
            if "b" in [job[0] for job in chunk]:
                gone.unlink()  # after run_pipeline hashed it
            return real(chunk)
        monkeypatch.setattr(pipeline, "_worker", worker)
        def run(out):
            return run_pipeline(PipelineConfig(
                inputs=[str(root)], output_dir=str(tmp_path / out),
                cache_dir=str(tmp_path / "cache"), null_samples=2, workers=1,
            ))
        summary = run("cold")
        assert summary["songs_analyzed"] == 1 and summary["computed"] == 1
        with open(tmp_path / "cold" / "exclusions.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row == {
            "song_id": "b",
            "path": str(gone),
            "reason": "FileNotFoundError: No such file or directory",
        }
        # restored, the file is analysed: its exclusion was not cached
        monkeypatch.setattr(pipeline, "_worker", real)
        gone.write_bytes(data)
        summary = run("warm")
        assert summary["songs_analyzed"] == 2
        assert summary["cached"] == 1 and summary["computed"] == 1


class TestAnalyzeSong:
    def test_null_means_match_per_replica_oracles(self):
        data = fixture_midi.melodic_midi(seed=8)
        cfg = PipelineConfig(min_duration=0)
        record = pipeline.analyze_song("s", data, cfg)
        g = graph_from_onsets(onset_stream(parse_midi(data)), song_id="s")
        seed = song_seed(cfg.seed, hashlib.sha256(data).hexdigest())
        shuffled = [oracles.shuffle_reference(g, RandomizerConfig(replica_seed(seed, i)))
                    for i in range(cfg.null_samples)]
        want = [oracles.weighted_reciprocity_raw(r) for r in shuffled]
        mean = record["null_shuffled_reciprocity_mean"]
        assert mean == pytest.approx(sum(want) / len(want), abs=1e-12)
        # summed in replica order, and the very value the song was normalized by
        assert mean == sum(metrics.weighted_reciprocity_raw(r) for r in shuffled) / len(shuffled)
        raw = record["weighted_reciprocity_raw"]
        assert record["weighted_reciprocity_norm"] == (raw - mean) / (1 - mean)

    def test_record_has_exactly_the_expected_fields(self):
        # a field no output reads must not come back unnoticed; duration
        # and network_entropy are read by the benchmark's record check, and
        # stationary_residual is the entropy's one numerical diagnostic
        record = pipeline.analyze_song(
            "s", fixture_midi.melodic_midi(seed=4), PipelineConfig(null_samples=2, min_duration=0))
        assert set(record) == pipeline.CACHED_FIELDS == {
            "song_id", "content_hash", "duration", "weight_histogram",
            "interval_vector", "interval_counts",
            "vertex_count", "edge_count", "density", "reciprocity_binary",
            "weighted_reciprocity_raw", "weighted_reciprocity_norm", "mean_node_entropy",
            "efficiency", "weighted_efficiency", "network_entropy",
            "full_density", "degenerate_baseline", "null_shuffled_reciprocity_mean",
            "stationary_residual",
        }

    def test_scores_the_song_alone_and_rewires_nothing(self, monkeypatch):
        calls = []
        real = pipeline.global_efficiency

        def counted(graphs):
            calls.append(graphs)
            return real(graphs)

        def rewire(g, cfg):
            raise AssertionError("analyze_song drew a rewired replica")

        monkeypatch.setattr(pipeline, "global_efficiency", counted)
        monkeypatch.setattr(nullmodels, "rewire_edges", rewire)
        data = fixture_midi.melodic_midi(seed=4)
        record = pipeline.analyze_song("s", data, PipelineConfig(null_samples=3, min_duration=0))
        # one call scores both efficiencies, on the song's own graph
        [[g]] = calls
        assert g.song_id == "s"
        assert g.edges == graph_from_onsets(onset_stream(parse_midi(data))).edges
        assert [(record["efficiency"], record["weighted_efficiency"])] == real([g])


class TestSongSeed:
    def test_depends_on_master_and_content(self):
        assert song_seed(1, "aa") != song_seed(2, "aa")
        assert song_seed(1, "aa") != song_seed(1, "ab")
        assert song_seed(1, "aa") == song_seed(1, "aa")


def synthetic_records():
    records = []
    for i in range(40):
        genre = "classical" if i % 2 == 0 else "rock"
        # classical efficiency declines over decades, rock stays flat
        year = 1900 + (i // 2) * 10
        eff = (0.9 - 0.02 * (i // 2)) if genre == "classical" else 0.5
        records.append({
            "song_id": f"s{i}",
            "genres": [genre],
            "release_year": year,
            "efficiency": eff,
            "weighted_efficiency": eff / 2,
            "vertex_count": 10 + i,
            "density": 0.3,
            "weighted_reciprocity_raw": 0.5,
            "mean_node_entropy": 0.4,
        })
    return records


class TestTrendReport:
    def test_decreasing_series_gives_tau_minus_one(self):
        decades, tests, skipped = trend_report(CorpusColumns(synthetic_records()))
        assert not skipped
        classical = {t["measure"]: t for t in tests if t["genre"] == "classical"}
        assert classical["efficiency"]["tau"] == pytest.approx(-1.0)
        rock = {t["measure"]: t for t in tests if t["genre"] == "rock"}
        assert rock["efficiency"]["all_tied"]
        for t in tests:
            if not t["all_tied"]:
                assert t["p_adjusted"] >= t["p_value"]

    def test_each_test_takes_the_finite_decades_only(self):
        records = synthetic_records()
        for r in records:
            if r["genres"] == ["classical"] and r["release_year"] == 1910:
                r["efficiency"] = math.nan
        decades, tests, skipped = trend_report(CorpusColumns(records))
        assert not skipped
        classical = {t["measure"]: t for t in tests if t["genre"] == "classical"}
        assert classical["efficiency"]["tau"] == pytest.approx(-1.0)
        # three decades, one without a finite value: too few for that test
        early = [r for r in records if r["release_year"] < 1930]
        decades, tests, skipped = trend_report(CorpusColumns(early))
        assert skipped == ["classical/efficiency"]
        assert sorted((t["genre"], t["measure"]) for t in tests) == [
            ("classical", "weighted_efficiency"),
            ("rock", "efficiency"), ("rock", "weighted_efficiency"),
        ]
        row = next(d for d in decades if (d["genre"], d["decade"]) == ("classical", 1910))
        assert math.isnan(row["efficiency"])

    def test_insufficient_decades_skipped(self):
        records = [r for r in synthetic_records() if r["release_year"] < 1920]
        _, tests, skipped = trend_report(CorpusColumns(records))
        assert skipped == ["classical", "rock"]
        assert tests == []


class TestPairwiseGenreTests:
    def test_pair_count_and_separation(self):
        records = synthetic_records()
        rows = [r for r in pairwise_genre_tests(CorpusColumns(records))
                if r["measure"] == "efficiency"]
        assert len(rows) == 1  # 2 genres -> 1 pair
        assert rows[0]["p_adjusted"] < 0.001  # clearly separated fixtures

    def test_identical_distributions_give_p_one(self):
        records = synthetic_records()
        rows = [r for r in pairwise_genre_tests(CorpusColumns(records))
                if r["measure"] == "density"]
        assert rows[0]["p_adjusted"] == pytest.approx(1.0)

    def test_k_genres_make_k_choose_2_pairs(self):
        records = synthetic_records()
        for i, r in enumerate(records):
            r["genres"] = [GENRES[i % 4]]
        rows = [r for r in pairwise_genre_tests(CorpusColumns(records))
                if r["measure"] in ("efficiency", "density")]
        assert len(rows) == 2 * (4 * 3 // 2)

    def test_single_group_raises(self):
        records = synthetic_records()
        for r in records:
            r["genres"] = ["rock"]
        with pytest.raises(InsufficientGroups):
            pairwise_genre_tests(CorpusColumns(records))

    def test_matches_pairwise_reference_table(self):
        rng = random.Random(11)
        values = [0.1, 0.2, 0.2, 0.3, 0.5, 1, math.nan, math.inf, -math.inf]
        sizes = {"blues": 5, "folk": 4, "jazz": 30, "rock": 25, "solo": 1}
        # blues and folk stay small enough for the exact test
        partner = {"blues": "folk", "folk": "blues", "jazz": "rock", "rock": "jazz"}
        records = []
        for genre, size in sizes.items():
            for i in range(size):
                rec = {"song_id": f"{genre}{i}", "genres": [genre]}
                if i % 3 == 1 and genre != "solo":
                    rec["genres"].append(partner[genre])
                for measure in TESTED_MEASURES:
                    # the first member keeps every sample non-empty
                    rec[measure] = 0.4 if i == 0 else rng.choice(values)
                records.append(rec)
        records.append({"song_id": "untagged", "genres": [],
                        **{m: rng.choice(values) for m in TESTED_MEASURES}})
        got = pairwise_genre_tests(CorpusColumns(records))

        groups = {}
        for rec in records:
            for genre in rec["genres"] or ["all"]:
                groups.setdefault(genre, []).append(rec)
        names = sorted(g for g, members in groups.items() if len(members) >= 2)
        assert "solo" not in names and "all" not in names
        want = []
        for measure in TESTED_MEASURES:
            batch = []
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    xs = [r[measure] for r in groups[a] if math.isfinite(r[measure])]
                    ys = [r[measure] for r in groups[b] if math.isfinite(r[measure])]
                    res = oracles.mann_whitney_reference(xs, ys)
                    batch.append({
                        "measure": measure, "genre_a": a, "genre_b": b,
                        "statistic": res.statistic, "p_value": res.p_value,
                        "method": res.method,
                    })
            for row, p_adj in zip(batch, holm_correction([r["p_value"] for r in batch])):
                row["p_adjusted"] = p_adj
            want.extend(batch)
        assert {r["method"] for r in want} == {"exact", "normal-approximation"}
        assert [{k: repr(v) for k, v in r.items()} for r in got] == [
            {k: repr(v) for k, v in r.items()} for r in want
        ]


def report_records(genres=("jazz", "pop", "rock"), per_genre=3):
    """Records as ``analyze`` writes them, with the catalog fields joined."""
    rng = random.Random(5)
    records = []
    for g, genre in enumerate(genres):
        for i in range(per_genre):
            counts = [float(rng.randint(1, 9)) for _ in range(12)]
            norm = math.sqrt(sum(c * c for c in counts))
            records.append({
                "song_id": f"{genre}{i}", "genres": [genre], "artist": f"a{i}",
                "era": "1950-1979", "release_year": 1950 + 10 * i + g,
                "interval_counts": counts, "interval_vector": [c / norm for c in counts],
                "weight_histogram": {"1": rng.randint(1, 9), "2": rng.randint(1, 9)},
                **{m: rng.random() for m in TESTED_MEASURES},
            })
    return records


class TestGenreWithoutFiniteValues:
    def test_report_leaves_the_genre_out_of_that_measure(self, tmp_path):
        clean = report_records()
        gappy = json.loads(json.dumps(clean))
        for rec in gappy:
            if rec["genres"] == ["rock"]:
                rec["efficiency"] = math.nan
        rows = {}
        for label, records in (("clean", clean), ("gappy", gappy)):
            songs = tmp_path / f"{label}.jsonl"
            songs.write_text("".join(json.dumps(r) + "\n" for r in records))
            assert main(["report", str(songs), "--output", str(tmp_path / label)]) == 0
            with open(tmp_path / label / "genre_tests.csv", newline="") as fh:
                rows[label] = list(csv.DictReader(fh))
        assert sorted(p.name for p in (tmp_path / "gappy").iterdir()) == [
            "ccdf.csv", "component_correlations.csv", "coordinates.csv", "genre_tests.csv",
            "gs_scores.csv", "interval_fractions.csv", "trend_decades.csv", "trend_tests.csv",
        ]
        efficiency = [r for r in rows["gappy"] if r["measure"] == "efficiency"]
        assert [(r["genre_a"], r["genre_b"]) for r in efficiency] == [("jazz", "pop")]
        # a one-pair Holm family is not adjusted
        assert efficiency[0]["p_adjusted"] == efficiency[0]["p_value"]
        def others(label):
            return [r for r in rows[label] if r["measure"] != "efficiency"]
        assert others("gappy") == others("clean")
        assert len(others("clean")) == 3 * (len(TESTED_MEASURES) - 1)


def fuzz_records(rng: random.Random, n: int) -> list[dict]:
    """Records as ``analyze`` writes them with the catalog fields joined,
    with NaN and +-inf measures, songs without genres or a release year
    (the key missing or empty), a genre of one song, and weight
    histograms keyed by int and by str."""
    specials = [math.nan, math.inf, -math.inf]
    # a pool with repeats, so samples tie; in some corpora one measure
    # is the same float for every song
    pool = [0.1, 0.2, 0.2, 0.3, 0.5, 0.7, 1, 2]
    constant = rng.choice([None, "mean_node_entropy", "density"])
    records = []
    for i in range(n):
        counts = [float(rng.randint(0, 9)) for _ in range(12)]
        counts[rng.randrange(12)] += 1.0
        norm = math.sqrt(sum(c * c for c in counts))
        rec = {
            "song_id": f"s{i:03d}",
            "interval_counts": counts,
            "interval_vector": [c / norm for c in counts],
            "weight_histogram": {
                (w if rng.random() < 0.5 else str(w)): rng.randint(1, 9)
                for w in rng.sample(range(1, 12), rng.randint(1, 4))
            },
        }
        for measure in TESTED_MEASURES:
            draw = rng.random()
            rec[measure] = (rng.choice(specials) if draw < 0.15
                            else 0.7 if measure == constant
                            else rng.choice(pool) if draw < 0.5 else rng.random())
        genres = rng.choice([[], ["blues"], ["folk"], ["jazz"], ["jazz", "rock"], ["rock"]])
        if i == 0:
            genres = ["solo"]
        if rng.random() < 0.1:
            genres = None
        year = rng.choice([None, *range(1900, 2020, 7)])
        for key, value in (("genres", genres), ("release_year", year),
                           ("era", year and f"era{year // 40}"),
                           ("artist", rng.choice([None, "a0", "a1", "a2"]))):
            if value is not None or rng.random() < 0.5:
                rec[key] = value
        records.append(rec)
    return records


def write_songs(path: Path, records: list[dict]) -> Path:
    """A songs.jsonl file of the records; a histogram keyed by int is
    written with text keys."""
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def assert_tables_match(got: dict, want: dict) -> None:
    """Labels and counts equal; floats within rel 1e-12, or 1e-9 in the
    Pearson correlations (a different summation order); NaN matches NaN."""
    assert sorted(got) == sorted(want)
    for name, (want_header, want_rows) in want.items():
        header, rows = got[name]
        assert header == want_header, name
        assert len(rows) == len(want_rows), name
        tol = 1e-9 if name == "component_correlations.csv" else 1e-12
        for row, want_row in zip(rows, want_rows):
            assert len(row) == len(want_row), (name, row, want_row)
            for cell, want_cell in zip(row, want_row):
                if isinstance(want_cell, float):
                    assert isinstance(cell, float), (name, row, want_row)
                    assert (math.isnan(cell) and math.isnan(want_cell)
                            or math.isclose(cell, want_cell, rel_tol=tol)), (name, row, want_row)
                else:
                    assert cell == want_cell and not isinstance(cell, float), (name, row, want_row)


def near_line_records(rng: random.Random) -> list[dict]:
    """Six fuzzed records whose interval vectors lie within 1e-9 of a
    line, u + t*a: the centred matrix's second singular value is about
    1e-9 of the first, so its square is below 1e-12 of the first's, the
    projection's cut, while the singular value itself is above 1e-12 of
    the first."""
    records = fuzz_records(rng, 6)
    u, a = ([rng.random() for _ in range(12)] for _ in range(2))
    for record in records:
        t = rng.random()
        record["interval_vector"] = [ui + t * ai + 1e-9 * rng.random() for ui, ai in zip(u, a)]
    return records


class TestAggregateTables:
    @pytest.mark.parametrize("records", [
        *(pytest.param(fuzz_records(random.Random(seed), 60), id=str(seed)) for seed in (1, 2, 3)),
        pytest.param(near_line_records(random.Random(4)), id="pca-cut"),
    ])
    def test_builders_match_record_by_record_reference(self, records):
        pytest.importorskip("scipy.stats")  # the reference's correlations
        cfg = PipelineConfig(gs_min_group_size=3)
        cols = pipeline.CorpusColumns(records)
        got, notes = {}, {}
        for build in pipeline.AGGREGATE_TABLES:
            got.update(build(cols, cfg, notes))
        want, want_notes = oracles.aggregate_tables_reference(records, min_group_size=3)
        assert_tables_match(got, want)
        assert notes.keys() == want_notes.keys()
        for key, value in want_notes.items():
            if key == "explained_variance":
                np.testing.assert_allclose(notes[key], value, rtol=1e-12, atol=1e-15)
            else:
                assert notes[key] == value

    def test_fuzzed_records_write_every_table_twice_alike(self, tmp_path):
        always = ["ccdf.csv", "gs_scores.csv", "interval_fractions.csv",
                  "trend_decades.csv", "trend_tests.csv"]
        for seed in range(20):
            rng = random.Random(seed)
            records = fuzz_records(rng, rng.choice([0, 1, 2, 3, rng.randint(4, 40)]))
            cfg = PipelineConfig(gs_min_group_size=rng.randint(1, 4))
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"{seed}{run}"
                out.mkdir()
                notes = pipeline.write_aggregates(records, out, cfg)
                outputs.append((notes, read_output(out)))
            assert outputs[0] == outputs[1], seed
            notes, files = outputs[0]
            # every cell is a plain number or text, never a numpy repr
            assert not [name for name, data in files.items() if b"np." in data], seed
            want = list(always)
            if "genre_tests_skipped" not in notes:
                want.append("genre_tests.csv")
            if len(records) >= 2:
                want.append("coordinates.csv")
            if len(records) >= 3:
                want.append("component_correlations.csv")
            assert sorted(files) == sorted(want), (seed, notes)

    def test_weight_keys_of_one_int_give_one_ccdf_row(self, tmp_path):
        hists = [{"3": 1, "1": 2}, {"03": 2}, {3: 4}]
        records = [{**minimal_record(f"s{i}"), "genres": ["jazz"], "weight_histogram": hist}
                   for i, hist in enumerate(hists)]
        pipeline.write_aggregates(records, tmp_path, PipelineConfig())
        assert (tmp_path / "ccdf.csv").read_text() == (
            f"genre,weight,ccdf\njazz,1,1.0\njazz,3,{7 / 9!r}\n")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streamed_file_writes_the_bytes_of_its_list(self, seed, tmp_path):
        # more records than one packed block, so blocks are joined
        records = fuzz_records(random.Random(seed), 2 * pipeline._BLOCK + 5)
        songs = write_songs(tmp_path / "songs.jsonl", records)
        cfg = PipelineConfig(gs_min_group_size=3)
        outputs = []
        for label, view in (("streamed", pipeline.SongsFile(songs)),
                            ("listed", list(pipeline.SongsFile(songs)))):
            notes = pipeline.write_aggregates(view, tmp_path / label, cfg)
            outputs.append((notes, read_output(tmp_path / label)))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 8

    def test_a_bad_value_in_the_file_is_named_in_one_read(self, tmp_path, monkeypatch):
        records = fuzz_records(random.Random(1), 300)
        records[270]["interval_counts"] = ["2"] + [0.0] * 11
        songs = write_songs(tmp_path / "songs.jsonl", records)
        passes = []
        read = pipeline.SongsFile.__iter__
        monkeypatch.setattr(pipeline.SongsFile, "__iter__",
                            lambda view: passes.append(1) or read(view))
        messages = []
        for view in (pipeline.SongsFile(songs), list(pipeline.SongsFile(songs)),
                     (r for r in records)):  # a one-shot generator
            with pytest.raises(BadSongsFile) as exc:
                pipeline.write_aggregates(view, tmp_path / "out", PipelineConfig())
            messages.append(str(exc.value))
        assert messages == ["song 's270': interval_counts has the wrong type or shape"] * 3
        assert len(passes) == 2  # the view is read once, the list's source once
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text(
            "# comment\n"
            "min_duration = 30\n"
            "damping = 0.1\n"
            "seed = 99\n"
            "inputs = a b\n"
            "output_dir = out\n"
        )
        cfg = PipelineConfig(**read_settings(path))
        assert cfg.min_duration == 30.0
        assert cfg.damping == 0.1
        assert cfg.seed == 99
        assert cfg.inputs == ["a", "b"]
        assert cfg.output_dir == "out"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            PipelineConfig(**read_settings(path))


class TestCli:
    def test_analyze_and_downstream_commands(self, corpus, tmp_path, capsys):
        midi_dir, catalog = corpus
        out = tmp_path / "cli-out"
        code = main([
            "analyze", str(midi_dir),
            "--catalog", str(catalog),
            "--output", str(out),
            "--null-samples", "2",
            "--seed", "5",
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["computed"] == 12 and printed["cached"] == 0
        assert "computed" not in json.loads((out / "summary.json").read_text())
        songs = out / "songs.jsonl"
        assert songs.is_file()

        assert main([
            "report", str(songs), "--catalog", str(catalog),
            "--output", str(tmp_path / "rep"),
        ]) == 0
        assert (tmp_path / "rep" / "interval_fractions.csv").is_file()

    def test_nullmodel_command(self, corpus, tmp_path):
        midi_dir, _ = corpus
        target = sorted(midi_dir.glob("song*.mid"))[0]
        out = tmp_path / "nm"
        assert main([
            "nullmodel", str(target), "--samples", "3", "--output", str(out),
        ]) == 0
        assert len(list(out.glob("rewired_*.edges"))) == 3
        assert len(list(out.glob("shuffled_*.edges"))) == 3
        # the replicas of the default --seed 0 and --swap-multiplier 10,
        # written as the per-draw references write them
        g = graph_from_onsets(onset_stream(parse_midi(target.read_bytes())), song_id=target.stem)
        for i in range(3):
            cfg = RandomizerConfig(seed=replica_seed(0, i), swap_multiplier=10)
            for kind, reference in (("rewired", oracles.rewire_reference),
                                    ("shuffled", oracles.shuffle_reference)):
                written = (out / f"{kind}_{i:03d}.edges").read_text()
                assert written == reference(g, cfg).dump_edge_list(), (kind, i)

    def test_nullmodel_reads_its_own_replicas_and_rejects_a_bad_edge_list(
            self, corpus, tmp_path, capsys):
        midi_dir, _ = corpus
        target = sorted(midi_dir.glob("song*.mid"))[0]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["nullmodel", str(target), "--samples", "1", "--output", str(first)]) == 0
        replica = first / "rewired_000.edges"
        assert main(["nullmodel", str(replica), "--samples", "1", "--output", str(second)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.edges"
        bad.write_text("60 62 1\n60 62 x\n")
        assert main(["nullmodel", str(bad), "--output", str(tmp_path / "none")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "BadEdgeList",
                         "message": f"{bad}, line 2: not three integers: '60 62 x'"}

    def test_an_edge_list_that_is_not_utf8_is_a_bad_edge_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"60 62 1\n61 6\xff 1\n")
        out = tmp_path / "none"
        assert main(["nullmodel", str(bad), "--output", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "BadEdgeList",
                         "message": f"{bad}, line 2: byte 5 is not UTF-8 (invalid start byte)"}
        assert not out.exists()

    def test_import_leaves_out_scipy_stats_and_sparse(self):
        # each costs start-up time or memory on every CLI run (setup_s, peak RSS);
        # the pool is imported only when workers > 1
        src = str(Path(notegraph.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys, notegraph.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m == 'concurrent.futures.process'))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        ).stdout
        assert out == "[]\n"

    def test_analysis_leaves_out_numpy_random(self, tmp_path):
        # importing numpy.random adds about 1.8 MB to a worker's peak RSS;
        # the shuffled null draws its keys from the stdlib's random instead
        song = tmp_path / "midi" / "song.mid"
        song.parent.mkdir()
        song.write_bytes(fixture_midi.melodic_midi(seed=3))
        src = str(Path(notegraph.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from notegraph.pipeline import PipelineConfig, run_pipeline\n"
            f"summary = run_pipeline(PipelineConfig(inputs=[{str(song.parent)!r}],"
            f" output_dir={str(tmp_path / 'out')!r}, workers=1))\n"
            "print(summary['computed'], 'numpy.random' in sys.modules)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "NOTEGRAPH_CACHE"}
        out = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out == "1 False\n"

    def test_every_output_byte_is_the_same_under_another_blas_kernel(self, tmp_path):
        # OPENBLAS_CORETYPE picks the kernel of numpy's OpenBLAS in the child
        # only; Prescott runs on every x86-64 CPU. The report's genre and era
        # groups have 5 or more songs, so their GS scores are computed, and
        # both runs have the 3 songs the correlations need.
        songs = write_songs(tmp_path / "songs.jsonl",
                            report_records(genres=tuple(GENRES), per_genre=12))
        midi_dir = build_corpus(tmp_path, n_songs=6)
        catalog = build_catalog(tmp_path, n_songs=6)
        script = (
            "import sys\n"
            "from notegraph.cli import main\n"
            "songs, catalog, midi, out = sys.argv[1:]\n"
            "sys.exit(main(['report', songs, '--output', out + '/report'])\n"
            "         or main(['analyze', midi, '--catalog', catalog, '--output', out + '/analyze',\n"
            "                  '--null-samples', '2']))\n"
        )
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NOTEGRAPH_CACHE")}
        env["PYTHONPATH"] = str(Path(notegraph.__file__).resolve().parents[1])
        outputs = []
        for kernel, kernel_env in (("default", env), ("prescott", {**env, "OPENBLAS_CORETYPE": "Prescott"})):
            out = tmp_path / kernel
            subprocess.run([sys.executable, "-c", script, str(songs), str(catalog), str(midi_dir),
                            str(out)], env=kernel_env, capture_output=True, check=True)
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        default, prescott = outputs
        for run in ("report", "analyze"):
            assert f"{run}/component_correlations.csv" in default
        gs_rows = list(csv.DictReader(default["report/gs_scores.csv"].decode().splitlines()))
        assert sum(row["gs_score"] != "" for row in gs_rows) == len(GENRES) + 1
        assert sorted(prescott) == sorted(default)
        assert [name for name, data in default.items() if prescott[name] != data] == []

    def test_report_rebuilds_analyze_tables_byte_for_byte(self, corpus, tmp_path):
        midi_dir, catalog = corpus
        settings = ["--catalog", str(catalog), "--null-samples", "2", "--seed", "5"]
        analyzed, reported = tmp_path / "analyze", tmp_path / "report"
        assert main(["analyze", str(midi_dir), "--output", str(analyzed), *settings]) == 0
        assert main(["report", str(analyzed / "songs.jsonl"),
                     "--output", str(reported), *settings]) == 0
        tables = sorted(p.name for p in analyzed.iterdir())
        for name in ("songs.jsonl", "metrics.csv", "embeddings.csv", "exclusions.csv",
                     "summary.json"):
            tables.remove(name)
        assert sorted(p.name for p in reported.iterdir()) == tables == AGGREGATE_FILES
        for name in tables:
            assert (reported / name).read_bytes() == (analyzed / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["analyze", "report", "nullmodel"])
    def test_unwritable_output_exits_1(self, command, corpus, tmp_path, capsys):
        midi_dir, _ = corpus
        songs = tmp_path / "songs.jsonl"
        songs.write_text("")
        target = {"analyze": midi_dir, "report": songs,
                  "nullmodel": sorted(midi_dir.glob("song*.mid"))[0]}[command]
        (tmp_path / "blocker").write_text("a file, not a directory")
        out = tmp_path / "blocker" / "out"
        # analyze makes its output directory before it reads a song
        assert main([command, str(target), "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "UnwritableOutput"

    @pytest.mark.parametrize("bad_line, message", [
        (b"{bad", "line 3: Expecting property name enclosed in double quotes"),
        (b"[1, 2]", "line 3: not a JSON object"),
        (b'{"song_id": "\xff"}', "line 3: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "not-an-object", "not-utf-8"])
    def test_bad_songs_line_names_file_and_line(self, bad_line, message, tmp_path, capsys):
        songs = tmp_path / "songs.jsonl"
        songs.write_bytes(json.dumps(minimal_record("a")).encode() + b"\n\n" + bad_line + b"\n")
        assert main(["report", str(songs), "--output", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadSongsFile"
        assert err["message"].startswith(f"{songs}, {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("song_ids, message", [
        (["a", "b", "a"], "line 3: song_id 'a' is already on line 1"),
        (["a", ["b"]], "line 2: song_id is not a string"),  # a list cannot key the check
    ], ids=["repeated-song-id", "list-song-id"])
    def test_song_id_must_be_a_new_string(self, song_ids, message, tmp_path, capsys):
        songs = tmp_path / "songs.jsonl"
        songs.write_text("".join(json.dumps({**minimal_record("x"), "song_id": song_id}) + "\n"
                                 for song_id in song_ids))
        assert main(["report", str(songs), "--output", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadSongsFile", "message": f"{songs}, {message}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("drop", [
        ["weight_histogram"], ["efficiency"], ["song_id"],
        ["density", "efficiency", "interval_counts", "interval_vector", "mean_node_entropy",
         "vertex_count", "weight_histogram", "weighted_efficiency", "weighted_reciprocity_raw"],
    ], ids=["no-weight-histogram", "no-measure", "no-song-id", "song-id-only"])
    def test_record_without_a_field_the_tables_read(self, drop, tmp_path, capsys):
        record = {k: v for k, v in minimal_record("b").items() if k not in drop}
        songs = tmp_path / "songs.jsonl"
        songs.write_text(json.dumps(minimal_record("a")) + "\n" + json.dumps(record) + "\n")
        assert main(["report", str(songs), "--output", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        missing = ", ".join(drop)
        assert err == {"error": "BadSongsFile", "message": f"{songs}, line 2: missing {missing}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("efficiency", "x"),
        ("interval_vector", [1.0] + [0.0] * 10),
        ("weight_histogram", [1, 2]),
        ("efficiency", "0.25"),
        ("efficiency", True),
        ("weight_histogram", {"\u00b2": 1}),  # "²".isdigit(), but int("²") fails
        ("interval_vector", [math.inf] + [0.0] * 11),
        ("interval_vector", [math.nan] + [0.0] * 11),
        ("interval_counts", [math.inf] + [0.0] * 11),
        ("interval_counts", [1.0, -math.inf] + [0.0] * 10),
        ("weight_histogram", {"1": -5}),
        # -1 beside the other songs' counts of 1 merges to 1: each count is checked alone
        ("weight_histogram", {"1": -1}),
        ("interval_vector", ["1.0"] + [0.0] * 11),
        ("interval_vector", [True] + [0.0] * 11),
        ("interval_counts", ["2"] + [0.0] * 11),
        ("interval_counts", [10**400] + [0.0] * 11),  # past float range
        ("weight_histogram", {"1": 2.0}),
        ("weight_histogram", {"1": True}),
        ("weight_histogram", {" 1": 1}),  # int(" 1") reads it, but it is not ASCII digits
        ("weight_histogram", {"1": 2**63}),
        ("efficiency", 10**400),  # past float range
        ("interval_vector", [10**400] + [0.0] * 11),
        ("genres", "jazz"),  # a string is not a list of genres
        ("genres", 5),
        ("genres", [5]),
        ("release_year", "1990"),
        ("release_year", 1990.5),
        ("release_year", True),
        ("era", ["a"]),
        ("artist", 3),
        ("interval_vector", [0.0] * 12),  # no unit vector: its GS-score is undefined
        ("interval_vector", [-0.6, 0.8] + [0.0] * 10),  # a unit vector, but no count is negative
        ("weight_histogram", {"1" * 20: 1}),  # a weight past 64 bits
        ("weight_histogram", {"1" * 5000: 1}),  # past int()'s digit limit too
        ("weight_histogram", {}),  # a song has an edge
        ("weight_histogram", {"0": 2}),  # an edge has a weight of at least 1
    ], ids=["text-efficiency", "short-interval-vector", "list-weight-histogram",
            "numeric-text-efficiency", "bool-efficiency", "superscript-weight",
            "infinite-interval-vector", "nan-interval-vector", "infinite-interval-counts",
            "negative-infinite-interval-counts", "negative-weight-count", "minus-one-count",
            "numeric-text-interval-vector", "bool-interval-vector", "numeric-text-interval-counts",
            "huge-interval-counts", "float-weight-count", "bool-weight-count", "spaced-weight",
            "count-past-64-bits",
            "huge-efficiency", "huge-interval-vector", "text-genres", "int-genres",
            "int-genre", "text-release-year", "float-release-year", "bool-release-year",
            "list-era", "int-artist", "zero-interval-vector", "negative-interval-vector",
            "weight-past-64-bits", "weight-past-the-digit-limit", "empty-weight-histogram",
            "zero-weight"])
    def test_record_with_a_value_of_the_wrong_kind(self, field, value, tmp_path, capsys):
        records = [minimal_record("a"), {**minimal_record("b"), field: value}, minimal_record("c")]
        records[0]["efficiency"] = None  # read as NaN, not a fault
        songs = tmp_path / "songs.jsonl"
        songs.write_text("".join(json.dumps(r) + "\n" for r in records))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", str(songs), "--output", str(tmp_path / "out")]) == 1
        # the bad value is refused before any table computes with it:
        # no numpy warning reaches stderr ahead of the JSON line
        assert [str(w.message) for w in caught] == []
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadSongsFile",
                       "message": f"song 'b': {field} has the wrong type or shape"}
        assert not (tmp_path / "out").exists()

    # report skips the projection below 2 songs, the battery without 2
    # genres of 2 songs each and the correlations below 3 songs, and no
    # record here has a catalog label, so none is in a GS group or a
    # trend: one song reads no interval vector, and two read no measure.
    @pytest.mark.parametrize("field, value, songs", [
        ("interval_vector", ["1.0"] + [0.0] * 11, 1),
        ("vertex_count", 10**400, 2),  # past float range
        ("interval_vector", [10**400] + [0.0] * 11, 1),
        ("interval_vector", [0.0] * 12, 1),
    ], ids=["text-interval-vector", "huge-vertex-count", "huge-interval-vector",
            "zero-interval-vector"])
    def test_a_bad_value_that_no_written_table_reads_is_no_fault(
            self, field, value, songs, tmp_path, capsys):
        records = [{**minimal_record("b"), field: value}, minimal_record("c")][:songs]
        path = write_songs(tmp_path / "songs.jsonl", records)
        assert main(["report", str(path), "--output", str(tmp_path / "out")]) == 0
        skipped = {"genre_tests.csv", "component_correlations.csv"}
        if songs < 2:
            skipped.add("coordinates.csv")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            name for name in AGGREGATE_FILES if name not in skipped]

    def test_the_message_names_a_field_that_a_written_table_reads(self, tmp_path, capsys):
        # the battery is built before the GS scores and the projection, so
        # song c's efficiency is named before song b's interval vector
        records = [{**minimal_record(song_id), "genres": [genre]}
                   for song_id, genre in zip("abcd", ["jazz", "jazz", "rock", "rock"])]
        records[1]["interval_vector"] = ["x"] + [0.0] * 11
        records[2]["efficiency"] = "y"
        songs = write_songs(tmp_path / "songs.jsonl", records)
        assert main(["report", str(songs), "--output", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadSongsFile",
                       "message": "song 'c': efficiency has the wrong type or shape"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["embed", "stats", "trend"])
    def test_a_removed_table_command_is_unknown(self, command, tmp_path, capsys):
        # report writes every table; there is no command for a subset of them
        songs = write_songs(tmp_path / "songs.jsonl", [minimal_record("a"), minimal_record("b")])
        with pytest.raises(SystemExit) as exc:
            main([command, str(songs), "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_songs_file_round_trips_and_skips_blank_lines(self, tmp_path):
        records = [{**minimal_record("a"), "efficiency": math.nan},
                   {**minimal_record("b"), "genres": []}]
        path = write_songs(tmp_path / "songs.jsonl", records)
        path.write_text("\n" + path.read_text() + "  \n")
        view = pipeline.SongsFile(path)
        for _ in range(2):  # each iteration reads the file again
            first, second = view
            assert [first["song_id"], second["song_id"]] == ["a", "b"]
            assert math.isnan(first["efficiency"]) and second["genres"] == []

    def test_report_keeps_no_record(self, tmp_path, capsys):
        records = fuzz_records(random.Random(4), 400)
        plain = write_songs(tmp_path / "plain.jsonl", records)
        # a field that no table reads, 20 KB in each record
        padded = write_songs(tmp_path / "padded.jsonl",
                             [{**r, "unused": "x" * 20_000} for r in records])
        def peak(songs, out):
            tracemalloc.reset_peak()
            assert main(["report", str(songs), "--output", str(tmp_path / out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        tracemalloc.start()
        try:
            peak(plain, "warm-up")
            peaks = {"plain": peak(plain, "plain"), "padded": peak(padded, "padded")}
        finally:
            tracemalloc.stop()
        assert peaks["padded"] - peaks["plain"] < 2**20, peaks
        assert read_output(tmp_path / "padded") == read_output(tmp_path / "plain")

    def test_a_bad_catalog_is_reported_before_a_bad_songs_file(self, tmp_path, capsys):
        songs = tmp_path / "songs.jsonl"
        songs.write_text(json.dumps(minimal_record("a")) + "\n{bad\n")
        catalog = build_catalog(tmp_path)
        catalog.write_text(catalog.read_text() + "s9\tShort\n")
        out = tmp_path / "out"
        assert main(["report", str(songs), "--catalog", str(catalog), "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadCatalog"
        assert err["message"].startswith(f"{catalog}, line 14: ")
        assert main(["report", str(songs), "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "BadSongsFile"
        assert not out.exists()

    def test_error_exit_code_and_json(self, tmp_path, capsys):
        (tmp_path / "none").mkdir()
        code = main(["analyze", str(tmp_path / "none")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoInputs"


# flag -> (setting, the text given, the value it parses to)
CONFIG_FLAGS = {
    "--catalog": ("catalog_path", "c.tsv", "c.tsv"),
    "--output": ("output_dir", "o", "o"),
    "--min-duration": ("min_duration", "30", 30.0),
    "--damping": ("damping", "0.1", 0.1),
    "--null-samples": ("null_samples", "3", 3),
    "--seed": ("seed", "5", 5),
    "--workers": ("workers", "2", 2),
    "--gs-min-group": ("gs_min_group_size", "6", 6),
    "--cache-dir": ("cache_dir", "cache", "cache"),
}


def two_songs(root: Path) -> Path:
    root.mkdir()
    for name, seed in (("a.mid", 1), ("b.mid", 2)):
        (root / name).write_bytes(fixture_midi.melodic_midi(seed=seed))
    return root


class TestSettings:
    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_flag_list_and_types(self, command, capsys, monkeypatch):
        monkeypatch.delenv(pipeline.CACHE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        flags = [f for f in dict.fromkeys(re.findall(r"--[a-z-]+", capsys.readouterr().out))
                 if f != "--help"]
        assert flags == ["--config", *CONFIG_FLAGS]
        positional = [] if command == "analyze" else ["songs.jsonl"]
        for flag, (name, text, value) in CONFIG_FLAGS.items():
            cfg = _build_config(build_parser().parse_args([command, *positional, flag, text]))
            assert getattr(cfg, name) == value and type(getattr(cfg, name)) is type(value)
            assert replace(cfg, **{name: getattr(PipelineConfig(), name)}) == PipelineConfig()

    def test_config_file_with_every_field_equals_flags(self, tmp_path):
        assert [f.name for f in fields(PipelineConfig)] == [
            "inputs", *(name for name, _, _ in CONFIG_FLAGS.values())]
        path = tmp_path / "all.conf"
        path.write_text("inputs = x y\n" + "".join(
            f"{name} = {text}\n" for name, text, _ in CONFIG_FLAGS.values()))
        flags = [arg for flag, (_, text, _) in CONFIG_FLAGS.items() for arg in (flag, text)]
        from_flags = _build_config(build_parser().parse_args(["analyze", "x", "y", *flags]))
        assert PipelineConfig(**read_settings(path)) == from_flags
        assert from_flags.inputs == ["x", "y"] and from_flags.seed == 5

    def test_flags_override_the_config_file(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("inputs = x\nseed = 3\ndamping = 1\n")  # damping 1 is out of range
        args = build_parser().parse_args(["analyze", "--config", str(path), "--damping", "0.2"])
        assert _build_config(args) == PipelineConfig(inputs=["x"], seed=3, damping=0.2)

    def test_cache_env_var_is_the_default_and_the_flag_wins(self, tmp_path, monkeypatch, capsys):
        songs = two_songs(tmp_path / "in")
        env_cache, flag_cache = tmp_path / "env-cache", tmp_path / "flag-cache"
        monkeypatch.setenv(pipeline.CACHE_ENV_VAR, str(env_cache))
        def run(out, *extra):
            assert main(["analyze", str(songs), "--output", str(tmp_path / out),
                         "--null-samples", "2", *extra]) == 0
            printed = json.loads(capsys.readouterr().out)
            return printed["computed"], printed["cached"]
        assert run("cold") == (2, 0)
        assert run("warm") == (0, 2)
        assert read_output(tmp_path / "cold") == read_output(tmp_path / "warm")
        entries = sorted(env_cache.iterdir())
        assert len(entries) == 2
        assert run("flag", "--cache-dir", str(flag_cache)) == (2, 0)
        assert len(list(flag_cache.iterdir())) == 2
        assert sorted(env_cache.iterdir()) == entries

    @pytest.mark.parametrize("command, flags, conf", [
        ("analyze", ["--null-samples", "0"], None),
        ("analyze", [], "swap_multiplier = 10\n"),
        ("analyze", ["--damping", "1"], None),
        ("analyze", [], "bogus = 1\n"),
        ("analyze", [], "seed = x\n"),
        ("nullmodel", ["--samples", "0"], None),
        ("analyze", ["--min-duration", "nan"], None),
        ("analyze", ["--workers", "0"], None),
        ("analyze", ["--gs-min-group", "0"], None),
        ("nullmodel", ["--swap-multiplier", "0"], None),
    ], ids=["null-samples", "swap-multiplier", "damping", "unknown-key", "seed-text", "nullmodel",
            "min-duration", "workers", "gs-min-group", "nullmodel-swap-multiplier"])
    def test_bad_setting_stops_before_any_input_is_read(
        self, command, flags, conf, tmp_path, monkeypatch, capsys
    ):
        songs = two_songs(tmp_path / "in")
        out = tmp_path / "out"
        if conf is not None:
            (tmp_path / "bad.conf").write_text(conf)
            flags = ["--config", str(tmp_path / "bad.conf")]
        target = songs / "a.mid" if command == "nullmodel" else songs
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p))
        assert main([command, str(target), *flags, "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "BadSetting"
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("bad_row", ["s9\tShort\n", "s9\tT\tA\trock\t19x5\t\t\n"],
                             ids=["short-row", "non-integer-year"])
    def test_bad_catalog_stops_before_any_input_is_read(
        self, bad_row, tmp_path, monkeypatch, capsys
    ):
        songs = two_songs(tmp_path / "in")
        catalog = build_catalog(tmp_path)
        catalog.write_text(catalog.read_text() + bad_row)
        out = tmp_path / "out"
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p))
        assert main(["analyze", str(songs), "--catalog", str(catalog),
                     "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadCatalog"
        assert err["message"].startswith(f"{catalog}, line 14: ")
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("command, newline", [
        ("analyze", b"\n"), ("report", b"\n"), ("report", b"\r\n"), ("report", b"\r"),
    ], ids=["analyze", "report", "report-crlf", "report-cr"])
    def test_a_catalog_that_is_not_utf8_is_a_bad_catalog(
        self, command, newline, tmp_path, monkeypatch, capsys
    ):
        songs = two_songs(tmp_path / "in")
        target = songs if command == "analyze" else tmp_path / "songs.jsonl"
        (tmp_path / "songs.jsonl").write_text(json.dumps(minimal_record("a")) + "\n")
        catalog = build_catalog(tmp_path, n_songs=600)
        lines = catalog.read_bytes().splitlines()
        # past the first 8 KB the text reader decodes at once, on line 501
        lines[500] = lines[500].replace(b"Title", b"Titl\xe9")
        catalog.write_bytes(newline.join(lines) + newline)
        out = tmp_path / "out"
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p))
        assert main([command, str(target), "--catalog", str(catalog),
                     "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadCatalog",
                       "message": f"{catalog}, line 501: byte 13 is not UTF-8 (invalid continuation byte)"}
        assert reads == [] and not out.exists()

    def test_a_config_that_is_not_utf8_is_a_bad_setting(self, tmp_path, monkeypatch, capsys):
        songs = two_songs(tmp_path / "in")
        conf = tmp_path / "latin1.conf"
        conf.write_bytes("seed = 3\n# caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "out"
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p))
        assert main(["analyze", str(songs), "--config", str(conf), "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BadSetting",
                       "message": f"{conf}, line 2: byte 6 is not UTF-8 (invalid continuation byte)"}
        assert reads == [] and not out.exists()

    def test_unparsable_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "in", "--seed", "abc"])
        assert exc.value.code == 2

    def test_bad_setting_is_a_value_error(self):
        for bad in ({"null_samples": 0}, {"damping": 0.0},
                    {"min_duration": -1.0}, {"min_duration": math.inf}):
            with pytest.raises(BadSetting):
                PipelineConfig(**bad)
        assert issubclass(BadSetting, ValueError)
