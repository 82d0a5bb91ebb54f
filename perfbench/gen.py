"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed
and returns the bytes the program will read together with what the
generator itself knows about them (note lists, tempo map, intended
outcome), so the checks never have to ask the program what it was fed.
The MIDI bytes come from ``tests/fixture_midi.write_midi`` (format 1:
tempo track, then one track per channel), so that writer is part of the
benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from fixture_midi import write_midi

TPQ = 480
DEFAULT_TEMPO_US = 500_000

# (tag written to the catalog, macro-genre it must map to)
GENRE_TAGS = (
    ("album rock", "rock"),
    ("dance pop", "pop"),
    ("electronic", "electronic"),
    ("classical", "classical"),
    ("cool jazz", "jazz"),
    ("hip hop", "hip hop"),
)
FIRST_YEAR = {"classical": 1700, "jazz": 1910}  # every other genre: 1950
LAST_YEAR = 2021


def seconds_at(tick: int, tempos: list[tuple[int, int]]) -> float:
    """Integrate a sorted, tick-unique tempo map up to ``tick``."""
    seconds = 0.0
    cur_tick, cur_us = 0, DEFAULT_TEMPO_US
    for t, us in tempos:
        if t >= tick:
            break
        seconds += (t - cur_tick) * cur_us / (TPQ * 1e6)
        cur_tick, cur_us = t, us
    return seconds + (tick - cur_tick) * cur_us / (TPQ * 1e6)


@dataclass
class Song:
    """One generated file and what the generator knows about it."""

    relpath: str
    data: bytes
    notes: list[tuple[int, int, int, int]] = field(default_factory=list)
    tempos: list[tuple[int, int]] = field(default_factory=list)
    kind: str = "song"  # song | short | truncated | copy

    @property
    def duration(self) -> float:
        return seconds_at(max(t + d for t, _, _, d in self.notes), self.tempos)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


def _walk(rng: random.Random, channel: int, low: int, high: int, chords: int,
          max_chord: int, steps: tuple[int, ...], rhythm: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """A bounded random walk of chords on one channel."""
    notes = []
    tick = 0
    pitch = (low + high) // 2
    for _ in range(chords):
        dur = rng.choice(rhythm)
        size = rng.randint(1, max_chord)
        chord = {pitch}
        while len(chord) < size:
            chord.add(min(high, max(low, pitch + rng.choice((-7, -5, -4, -3, 3, 4, 5, 7)))))
        for p in sorted(chord):
            notes.append((tick, channel, p, dur))
        tick += dur
        pitch = min(high, max(low, pitch + rng.choice(steps)))
    return notes


def dense_song(rng: random.Random, name: str, n_channels: int) -> Song:
    """Channels of chords over wide registers, 800 tempo changes.

    Shape parameters are fixed so that songs of different seeds cost
    about the same to analyse; only the walks differ.
    """
    notes = []
    for ch in range(n_channels):
        spacing = 64 // n_channels
        center = 60 + (2 * ch - n_channels + 1) * spacing // 2
        notes += _walk(rng, ch, center - 18, center + 18, 1800 // n_channels, 3,
                       (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5), (120, 240, 240, 480))
    last = max(t + d for t, _, _, d in notes)
    ticks = sorted(rng.sample(range(1, last), DENSE_TEMPOS - 1))
    tempos = [(0, rng.randint(380_000, 620_000))]
    tempos += [(t, rng.randint(380_000, 620_000)) for t in ticks]
    return Song(f"{name}.mid", write_midi(notes, TPQ, tempos, fmt=1), notes, tempos)


def sparse_song(rng: random.Random, relpath: str, n_notes: int, width: int) -> Song:
    """One channel of single eighth notes over ``width`` + 1 pitches, one tempo.

    400 notes last 80-120 s at the drawn tempo, 120 notes 24-36 s.
    """
    tempo = rng.randint(400_000, 600_000)
    low = rng.randint(45, 60)
    notes = _walk(rng, 0, low, low + width, n_notes, 1,
                  (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5), (TPQ // 2,))
    return Song(relpath, write_midi(notes, TPQ, [(0, tempo)], fmt=1), notes, [(0, tempo)])


# --- workload input sets ---

DENSE_CHANNELS = (4, 3, 4)  # one song per entry
DENSE_TEMPOS = 800

SPARSE_BATCHES = 4
SPARSE_BATCH = {"song": 8, "short": 1, "truncated": 1, "copy": 1}
SPARSE_NOTES = 400
SHORT_NOTES = 120
COLLIDING = ("a/m0.mid", "b/m0.mid")  # same stem, different content


def dense_set(seed: int) -> list[list[Song]]:
    """One batch (one run_pipeline call) per dense song."""
    rng = random.Random(f"dense:{seed}")
    return [[dense_song(rng, f"d{i}", ch)] for i, ch in enumerate(DENSE_CHANNELS)]


def sparse_set(seed: int) -> list[list[Song]]:
    """Batches of short songs with exclusions, copies and one stem collision."""
    rng = random.Random(f"sparse:{seed}")
    batches = []
    for b in range(SPARSE_BATCHES):
        # fixed widths, so only the walks differ between seeds
        songs = [sparse_song(rng, f"s{b}{i:02d}.mid", SPARSE_NOTES, 22 + 2 * i)
                 for i in range(SPARSE_BATCH["song"])]
        for i in range(SPARSE_BATCH["short"]):
            short = sparse_song(rng, f"short{b}{i}.mid", SHORT_NOTES, 30)
            short.kind = "short"
            songs.append(short)
        for i in range(SPARSE_BATCH["truncated"]):
            full = sparse_song(rng, f"trunc{b}{i}.mid", SPARSE_NOTES, 30)
            cut = rng.randint(len(full.data) // 3, 2 * len(full.data) // 3)
            songs.append(Song(full.relpath, full.data[:cut], kind="truncated"))
        for i in range(SPARSE_BATCH["copy"]):
            orig = songs[rng.randrange(SPARSE_BATCH["song"])]
            songs.append(Song(f"copy{b}{i}.mid", orig.data, orig.notes, orig.tempos, "copy"))
        if b == 0:
            songs += [sparse_song(rng, p, SPARSE_NOTES, 30) for p in COLLIDING]
        batches.append(songs)
    return batches


def write_batch(songs: list[Song], directory: Path) -> None:
    for song in songs:
        path = directory / song.relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(song.data)


# --- corpus_report: synthetic songs.jsonl and catalog ---

CORPUS_RECORDS = 2500
CORPUS_ARTISTS = 250
INVALID_YEAR_SHARE = 0.02
TWO_GENRE_SHARE = 0.1


def era_of(year: int) -> str:
    for bound, label in ((1900, "pre-1900"), (1950, "1900-1949"), (1980, "1950-1979"),
                         (2000, "1980-1999")):
        if year < bound:
            return label
    return "2000-plus"


@dataclass
class CorpusRow:
    """A record, its catalog row, and what the report must join to it."""

    record: dict
    tags: str  # the catalog's genres field
    year_a: int
    artist: str
    genres: list[str]  # expected macro-genres
    release_year: int | None  # expected after reconciliation


def corpus_set(seed: int, records: int = CORPUS_RECORDS) -> list[CorpusRow]:
    rng = random.Random(f"corpus:{seed}")
    tag_of = {g: t for t, g in GENRE_TAGS}
    profiles = {g: [rng.uniform(0.2, 3.0) for _ in range(12)] for _, g in GENRE_TAGS}
    level = {g: rng.uniform(-1.0, 0.5) for _, g in GENRE_TAGS}
    rows = []
    for i in range(records):
        genres = {rng.choice(GENRE_TAGS)[1]}
        if rng.random() < TWO_GENRE_SHARE:
            genres.add(rng.choice(GENRE_TAGS)[1])
        genres = sorted(genres)
        year = rng.randint(max(FIRST_YEAR.get(g, 1950) for g in genres), LAST_YEAR)
        if rng.random() < INVALID_YEAR_SHARE:
            year = rng.randint(LAST_YEAR + 1, LAST_YEAR + 30)
        main = genres[0]
        counts = [float(round(p * rng.uniform(5, 60))) for p in profiles[main]]
        norm = sum(c * c for c in counts) ** 0.5
        nodes = rng.randint(12, 90)
        edges = rng.randint(nodes, nodes * 6)
        # logistic, so no value is clamped and decade means never tie
        z = rng.gauss(level[main] - (min(year, LAST_YEAR) - 1950) / 150, 0.4)
        eff = 1 / (1 + math.exp(-z))
        record = {
            "song_id": f"r{i:05d}",
            "content_hash": hashlib.sha256(f"{seed}:{i}".encode()).hexdigest(),
            "duration": rng.uniform(61, 600),
            "vertex_count": nodes,
            "edge_count": edges,
            "density": edges / (nodes * (nodes - 1)),
            "reciprocity_binary": rng.uniform(-0.1, 0.9),
            "weighted_reciprocity_raw": rng.uniform(0.05, 0.9),
            "weighted_reciprocity_norm": rng.uniform(-0.2, 0.8),
            "mean_node_entropy": rng.uniform(0.3, 0.99),
            "efficiency": eff,
            "weighted_efficiency": eff * rng.uniform(0.1, 0.5),
            "network_entropy": rng.uniform(0.5, 4.0),
            "network_entropy_undamped_rows": rng.uniform(0.5, 4.0),
            "full_density": False,
            "degenerate_baseline": False,
            "interval_counts": counts,
            "interval_vector": [c / norm for c in counts],
            "weight_histogram": {str(w): rng.randint(1, 400 // w)
                                 for w in range(1, rng.randint(4, 30))},
        }
        for key in ("rewired_efficiency", "rewired_weighted_efficiency",
                    "shuffled_weighted_efficiency", "shuffled_reciprocity"):
            record[f"null_{key}_mean"] = rng.uniform(0.1, 0.9)
            record[f"null_{key}_std"] = rng.uniform(0.0, 0.05)
        rows.append(CorpusRow(
            record=record,
            tags="|".join(tag_of[g] for g in genres),
            year_a=year,
            artist=f"artist {rng.randrange(CORPUS_ARTISTS)}",
            genres=genres,
            release_year=year if year <= LAST_YEAR else None,
        ))
    return rows


def write_corpus(rows: list[CorpusRow], directory: Path) -> tuple[Path, Path]:
    """songs.jsonl without catalog fields (the report joins them) and catalog.tsv."""
    directory.mkdir(parents=True, exist_ok=True)
    songs = directory / "songs.jsonl"
    catalog = directory / "catalog.tsv"
    with open(songs, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row.record, sort_keys=True) + "\n")
    with open(catalog, "w", encoding="utf-8") as fh:
        fh.write("song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity\n")
        for row in rows:
            sid = row.record["song_id"]
            fh.write(f"{sid}\ttitle {sid}\t{row.artist}\t{row.tags}\t{row.year_a}\t\t"
                     f"{int(row.record['duration']) % 100}\n")
    return songs, catalog
