"""Planted effects through the whole chain: MIDI bytes, graphs, null
models, the Mann-Whitney battery with Holm, and Mann-Kendall.

Each song is a seeded random walk over a pitch range of a given width;
a narrower range gives fewer vertices and a higher efficiency. A
catalog assigns each song its genre and release year, and
``run_pipeline`` must recover the planted order, and find nothing where
none is planted.
"""

import csv
import random

import fixture_midi
import oracles
from notegraph.pipeline import PipelineConfig, run_pipeline

WALK_NOTES = 400
EIGHTH = 240  # ticks at the writer's 480 per quarter
LOW_PITCH = 48
MAX_STEP = 5


def walk_midi(rng: random.Random, width: int) -> bytes:
    """Eighth notes stepping 1 to 5 semitones up or down, over ``width``
    pitches from ``LOW_PITCH``."""
    high = LOW_PITCH + width - 1
    pitch = rng.randint(LOW_PITCH, high)
    notes = []
    for i in range(WALK_NOTES):
        notes.append((i * EIGHTH, 0, pitch, EIGHTH))
        pitch = rng.choice([
            q for q in range(pitch - MAX_STEP, pitch + MAX_STEP + 1)
            if q != pitch and LOW_PITCH <= q <= high
        ])
    return fixture_midi.write_midi(notes)


def run_corpus(root, songs: list[tuple[str, int, int]], seed: int, table: str) -> list[dict]:
    """Analyse one walk per (genre, year, width); returns the rows of the
    output table ``table``."""
    rng = random.Random(seed)
    midi_dir = root / "midi"
    midi_dir.mkdir()
    rows = ["song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity"]
    for i, (genre, year, width) in enumerate(songs):
        (midi_dir / f"w{i:03d}.mid").write_bytes(walk_midi(rng, width))
        rows.append(f"w{i:03d}\tWalk {i}\tArtist {i}\t{genre}\t{year}\t\t")
    catalog = root / "catalog.tsv"
    catalog.write_text("\n".join(rows) + "\n")
    out = root / "out"
    summary = run_pipeline(PipelineConfig(
        inputs=[str(midi_dir)], catalog_path=str(catalog), output_dir=str(out),
        null_samples=2, min_duration=0, seed=seed,
    ))
    assert summary["songs_analyzed"] == len(songs)
    with open(out / table, newline="") as fh:
        return list(csv.DictReader(fh))


GENRE_WIDTHS = {"classical": 24, "jazz": 12, "rock": 6}
SONGS_PER_GENRE = 12


def test_genre_widths_separate_every_pair(tmp_path):
    songs = [(genre, 1990, width) for genre, width in GENRE_WIDTHS.items()
             for _ in range(SONGS_PER_GENRE)]
    rows = run_corpus(tmp_path, songs, 1, "genre_tests.csv")
    center = SONGS_PER_GENRE * SONGS_PER_GENRE / 2
    # a wider walk visits more pitches and is less efficient
    for measure, sign in (("vertex_count", 1), ("efficiency", -1)):
        pairs = [r for r in rows if r["measure"] == measure]
        assert len(pairs) == 3
        for r in pairs:
            wider = GENRE_WIDTHS[r["genre_a"]] > GENRE_WIDTHS[r["genre_b"]]
            assert (float(r["statistic"]) - center) * sign * (1 if wider else -1) > 0, r
            assert float(r["p_adjusted"]) < 0.05, r
    for measure in {r["measure"] for r in rows}:
        family = [r for r in rows if r["measure"] == measure]
        assert [float(r["p_adjusted"]) for r in family] == oracles.holm_reference(
            [float(r["p_value"]) for r in family])


def test_narrowing_walks_trend_up_in_efficiency(tmp_path):
    widths = [24, 20, 17, 13, 10, 6]
    songs = [("rock", 1960 + 10 * d, width) for d, width in enumerate(widths) for _ in range(4)]
    rows = run_corpus(tmp_path, songs, 1, "trend_tests.csv")
    (row,) = [r for r in rows if r["genre"] == "rock" and r["measure"] == "efficiency"]
    assert float(row["tau"]) > 0
    assert float(row["p_value"]) < 0.05


def test_equal_widths_give_no_strong_genre_effect(tmp_path):
    songs = [(genre, 1990, 12) for genre in GENRE_WIDTHS for _ in range(SONGS_PER_GENRE)]
    rows = run_corpus(tmp_path, songs, 1, "genre_tests.csv")
    assert rows
    assert min(float(r["p_adjusted"]) for r in rows) >= 1e-3
