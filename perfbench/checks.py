"""Checks of the program's outputs against computations made apart from it.

Per-song values come from ``tests/oracles.py`` on graphs built here
from the generator's own note lists; aggregate tables come from numpy
and ``scipy.stats``. Nothing is compared with a stored copy of earlier
output, except that every round of a run must reproduce round 0 byte
for byte (same inputs, same pipeline seed).

Each check returns one ``Outcome`` per operation: an input file for the
song workloads, an output table for ``corpus_report``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as sps

import oracles
from notegraph.graph import TransitionGraph

from gen import COLLIDING, CorpusRow, Song, era_of

DAMPING = 0.05  # the pipeline's default
GS_MIN_GROUP = 5  # the pipeline's default
TESTED_MEASURES = (
    "vertex_count", "density", "weighted_reciprocity_raw",
    "mean_node_entropy", "efficiency", "weighted_efficiency",
)
TREND_MEASURES = ("efficiency", "weighted_efficiency")
ID_COLLISION = "song_id already used by an earlier file"
NUMPY_REPR = "r written as a numpy repr such as 'np.float64(0.1)', not as a number"
KNOWN_FAULTS = {ID_COLLISION, NUMPY_REPR}


@dataclass
class Outcome:
    name: str
    errors: list[str]
    known_fault: bool = False  # fails only because of a fault listed in KNOWN_FAULTS

    @property
    def ok(self) -> bool:
        return not self.errors


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-10) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _holm(pvals: list[float]) -> list[float]:
    m = len(pvals)
    out = [0.0] * m
    running = 0.0
    for rank, i in enumerate(sorted(range(m), key=lambda k: pvals[k])):
        running = max(running, min(1.0, (m - rank) * pvals[i]))
        out[i] = running
    return out


# --- song workloads ---

def reference_graph(song: Song) -> tuple[TransitionGraph, dict[int, list[tuple[int, int]]]]:
    """Transition graph from the generator's notes, drums (channel 10) left out."""
    by_channel: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for tick, channel, pitch, _ in song.notes:
        if channel != 9:
            by_channel[channel].append((tick, pitch))
    edges: dict[tuple[int, int], int] = defaultdict(int)
    loops: set[int] = set()
    for stream in by_channel.values():
        chords = oracles.chords_from_stream(sorted(stream))
        for a, b in zip(chords, chords[1:]):
            for x in a:
                for y in b:
                    if x == y:
                        loops.add(x)
                    else:
                        edges[(x, y)] += 1
    endpoints = {p for e in edges for p in e}
    return TransitionGraph(edges=dict(edges), isolated=frozenset(loops - endpoints)), by_channel


def check_record(rec: dict, song: Song) -> list[str]:
    g, by_channel = reference_graph(song)
    errors = []
    expected = {
        "vertex_count": len(g.nodes),
        "edge_count": len(g.edges),
        "duration": song.duration,
        "density": oracles.density(g),
        "reciprocity_binary": oracles.reciprocity_binary(g),
        "weighted_reciprocity_raw": oracles.weighted_reciprocity_raw(g),
        "mean_node_entropy": oracles.mean_node_entropy(g),
        "efficiency": oracles.global_efficiency(g, weighted=False),
        "weighted_efficiency": oracles.global_efficiency(g, weighted=True),
        "network_entropy": oracles.network_entropy(g, DAMPING),
    }
    for key, want in expected.items():
        got = rec.get(key)
        if not isinstance(got, (int, float)) or not close(got, want):
            errors.append(f"{key} {got!r} != {want!r}")
    hist = rec.get("weight_histogram", {})
    weight = sum(int(w) * c for w, c in hist.items())
    if weight != oracles.total_transition_weight(by_channel):
        errors.append(f"total weight {weight} != {oracles.total_transition_weight(by_channel)}")
    if sum(hist.values()) != len(g.edges):
        errors.append("weight histogram does not cover every edge")
    counts = np.zeros(12)
    for (s, t), w in g.edges.items():
        counts[abs(s - t) % 12] += w
    iv = np.asarray(rec.get("interval_vector", []), dtype=float)
    if iv.shape != (12,) or not close(float(np.linalg.norm(iv)), 1.0):
        errors.append("interval vector is not a unit 12-vector")
    elif not np.allclose(iv, counts / np.linalg.norm(counts), rtol=1e-9, atol=1e-12):
        errors.append("interval vector differs from the edge interval classes")
    if not np.array_equal(np.asarray(rec.get("interval_counts", [])), counts):
        errors.append("interval counts differ from the edge interval classes")
    if rec.get("content_hash") != song.sha256:
        errors.append("content hash differs")
    return errors


def _names(song: Song) -> set[str]:
    """Song ids that identify this file: its stem or its path without suffix."""
    rel = Path(song.relpath)
    return {rel.stem, rel.with_suffix("").as_posix(), rel.as_posix()}


def check_song_batch(songs: list[Song], in_dir: Path, out_dir: Path) -> list[Outcome]:
    """One outcome per input file, claimed in the program's scan order."""
    records = [json.loads(line) for line in
               (out_dir / "songs.jsonl").read_text(encoding="utf-8").splitlines() if line]
    exclusions = _read_csv(out_dir / "exclusions.csv")
    rows = [("record", r) for r in records] + [("exclusion", e) for e in exclusions]
    claimed: set[int] = set()
    ids: set[str] = set()
    by_hash: dict[str, list[Song]] = defaultdict(list)
    for song in songs:
        by_hash[song.sha256].append(song)
    path_of = {(in_dir / s.relpath).resolve(): s for s in songs}

    outcomes = []
    colliding_excluded: list[Outcome] = []  # one of the pair may be excluded, not both
    for song in sorted(songs, key=lambda s: Path(s.relpath)):
        names = _names(song)
        mine = []
        for i, (kind, row) in enumerate(rows):
            if i in claimed:
                continue
            if kind == "record":
                if row.get("content_hash") == song.sha256 and row.get("song_id") in names:
                    mine.append(i)
            elif row["path"]:
                if path_of.get(Path(row["path"]).resolve()) is song:
                    mine.append(i)
            elif row["song_id"] in names:
                mine.append(i)
        out = Outcome(song.relpath, [])
        outcomes.append(out)
        if len(mine) != 1:
            out.errors.append(f"accounted for {len(mine)} times")
            continue
        kind, row = rows[mine[0]]
        claimed.add(mine[0])
        if kind == "record":  # an exclusion may share an id: it is not joined to the catalog
            if row["song_id"] in ids:
                out.errors.append(ID_COLLISION)
                out.known_fault = song.relpath == COLLIDING[1]
                continue
            ids.add(row["song_id"])

        group = by_hash[song.sha256]
        if len(group) > 1:  # byte-identical copies: one analysed, the rest duplicates
            if kind == "exclusion" and not row["reason"].startswith("Duplicate"):
                out.errors.append(f"copy excluded for {row['reason']!r}")
        elif song.kind == "short":
            if kind != "exclusion" or not row["reason"].startswith("EmptySong"):
                out.errors.append("song under 60 s not excluded as EmptySong")
        elif song.kind == "truncated":
            if kind != "exclusion" or not row["reason"].startswith("TruncatedChunk"):
                out.errors.append("truncated file not excluded as TruncatedChunk")
        elif song.relpath in COLLIDING and kind == "exclusion":
            colliding_excluded.append(out)
            if not row["reason"].strip():
                out.errors.append("colliding file excluded without a reason")
        elif kind != "record":
            out.errors.append(f"excluded: {row['reason']!r}")
        if kind == "record" and not out.errors:
            out.errors += check_record(row, song)

    if len(colliding_excluded) == len(COLLIDING):
        for out in colliding_excluded:
            out.errors.append("both files of the stem collision excluded")
    for sha, group in by_hash.items():
        analysed = [r for r in records if r.get("content_hash") == sha]
        if len(group) > 1 and len(analysed) != 1:
            for out in outcomes:
                if out.name in {s.relpath for s in group}:
                    out.errors.append(f"{len(analysed)} records for {len(group)} identical files")
    leftover = len(rows) - len(claimed)
    if leftover:
        outcomes.append(Outcome("unclaimed rows", [f"{leftover} output rows match no input"]))
    return outcomes


# --- corpus_report ---

def _groups(rows: list[CorpusRow]) -> dict[str, list[CorpusRow]]:
    groups: dict[str, list[CorpusRow]] = defaultdict(list)
    for row in rows:
        for genre in row.genres:
            groups[genre].append(row)
    return dict(sorted(groups.items()))


def _ccdf(rows, out_dir) -> list[str]:
    want = []
    for genre, members in _groups(rows).items():
        hist: dict[int, int] = defaultdict(int)
        for row in members:
            for w, c in row.record["weight_histogram"].items():
                hist[int(w)] += c
        weights = np.array(sorted(hist))
        counts = np.array([hist[w] for w in weights])
        tail = counts[::-1].cumsum()[::-1] / counts.sum()
        want += [(genre, int(w), float(p)) for w, p in zip(weights, tail)]
    got = [(r["genre"], int(r["weight"]), float(r["ccdf"])) for r in _read_csv(out_dir / "ccdf.csv")]
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    return [f"row {a} != {b}" for a, b in zip(got, want)
            if a[:2] != b[:2] or not close(a[2], b[2], 1e-12)][:3]


def _fractions(rows, out_dir) -> list[str]:
    got = _read_csv(out_dir / "interval_fractions.csv")
    want = []
    for genre, members in _groups(rows).items():
        total = np.sum([r.record["interval_counts"] for r in members], axis=0)
        want += [(genre, i, f) for i, f in enumerate(total / total.sum())]
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    return [f"row {g} != {w}" for g, w in zip(got, want)
            if (g["genre"], int(g["interval"])) != w[:2]
            or not close(float(g["fraction"]), w[2], 1e-12)][:3]


def _genre_tests(rows, out_dir) -> list[str]:
    groups = _groups(rows)
    got = {(r["measure"], r["genre_a"], r["genre_b"]): r for r in _read_csv(out_dir / "genre_tests.csv")}
    errors = []
    expected_keys = set()
    for measure in TESTED_MEASURES:
        keys, pvals = [], []
        names = list(groups)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                x = [r.record[measure] for r in groups[a]]
                y = [r.record[measure] for r in groups[b]]
                res = sps.mannwhitneyu(x, y, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
                keys.append((measure, a, b))
                pvals.append(float(res.pvalue))
                row = got.get((measure, a, b))
                if row is None:
                    errors.append(f"missing test {measure} {a}/{b}")
                    continue
                if not close(float(row["statistic"]), float(res.statistic), 1e-12):
                    errors.append(f"U {measure} {a}/{b}: {row['statistic']} != {res.statistic}")
                if not close(float(row["p_value"]), float(res.pvalue), 1e-7, 1e-300):
                    errors.append(f"p {measure} {a}/{b}: {row['p_value']} != {res.pvalue}")
        for key, p_adj in zip(keys, _holm(pvals)):
            if key in got and not close(float(got[key]["p_adjusted"]), p_adj, 1e-7, 1e-300):
                errors.append(f"Holm {key}: {got[key]['p_adjusted']} != {p_adj}")
        expected_keys.update(keys)
    if set(got) != expected_keys:
        errors.append(f"{len(set(got) - expected_keys)} unexpected test rows")
    return errors[:3]


def _decade_series(rows) -> dict[str, dict[int, list[CorpusRow]]]:
    out = {}
    for genre, members in _groups([r for r in rows if r.release_year is not None]).items():
        by_decade: dict[int, list[CorpusRow]] = defaultdict(list)
        for row in members:
            by_decade[row.release_year // 10 * 10].append(row)
        out[genre] = dict(sorted(by_decade.items()))
    return out


def _trend_decades(rows, out_dir) -> list[str]:
    want = []
    for genre, decades in _decade_series(rows).items():
        if len(decades) < 3:
            continue
        for decade, members in decades.items():
            means = [float(np.mean([r.record[m] for r in members])) for m in TREND_MEASURES]
            want.append((genre, decade, len(members), *means))
    got = _read_csv(out_dir / "trend_decades.csv")
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    errors = []
    for g, w in zip(got, want):
        if (g["genre"], int(g["decade"]), int(g["count"])) != w[:3] or not all(
                close(float(g[m]), v, 1e-12) for m, v in zip(TREND_MEASURES, w[3:])):
            errors.append(f"row {g} != {w}")
    return errors[:3]


def _mann_kendall_p(series: list[float]) -> float:
    n = len(series)
    s = sum((series[j] > series[i]) - (series[j] < series[i])
            for i in range(n) for j in range(i + 1, n))
    sd = math.sqrt(n * (n - 1) * (2 * n + 5) / 18)
    z = 0.0 if s == 0 else (abs(s) - 1) / sd
    return min(1.0, math.erfc(z / math.sqrt(2)))


def _trend_tests(rows, out_dir) -> list[str]:
    want = {}
    for genre, decades in _decade_series(rows).items():
        if len(decades) < 3:
            continue
        for measure in TREND_MEASURES:
            series = [float(np.mean([r.record[measure] for r in members]))
                      for members in decades.values()]
            if len(set(series)) != len(series):
                return ["tied decade means: the generator should avoid them"]
            tau = sps.kendalltau(range(len(series)), series).statistic
            want[(genre, measure)] = (float(tau), _mann_kendall_p(series))
    adjusted = dict(zip(want, _holm([p for _, p in want.values()])))
    got = {(r["genre"], r["measure"]): r for r in _read_csv(out_dir / "trend_tests.csv")}
    if set(got) != set(want):
        return [f"tests for {sorted(got)} != {sorted(want)}"]
    errors = []
    for key, (tau, p) in want.items():
        row = got[key]
        if not (close(float(row["tau"]), tau, 1e-12) and close(float(row["p_value"]), p, 1e-9)
                and close(float(row["p_adjusted"]), adjusted[key], 1e-9)
                and row["all_tied"] == "False"):
            errors.append(f"{key}: {row} != tau {tau}, p {p}, Holm {adjusted[key]}")
    return errors[:3]


def _gs_scores(rows, out_dir) -> list[str]:
    groups: dict[tuple[str, str], list[list[float]]] = defaultdict(list)
    for row in rows:
        vec = row.record["interval_vector"]
        for genre in row.genres:
            groups[("genre", genre)].append(vec)
        if row.release_year is not None:
            groups[("era", era_of(row.release_year))].append(vec)
        groups[("artist", row.artist)].append(vec)
    order = {"genre": 0, "era": 1, "artist": 2}
    want = []
    for (kind, label), vectors in sorted(groups.items(), key=lambda kv: (order[kv[0][0]], kv[0][1])):
        m = np.asarray(vectors)
        centroid = m.mean(axis=0)
        score = None
        if len(m) >= GS_MIN_GROUP:
            cos = (m @ centroid) / (np.linalg.norm(m, axis=1) * np.linalg.norm(centroid))
            score = float(cos.mean())
        want.append((kind, label, len(m), score))
    got = _read_csv(out_dir / "gs_scores.csv")
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    errors = []
    for g, w in zip(got, want):
        score_ok = g["gs_score"] == "" if w[3] is None else close(float(g["gs_score"]), w[3], 1e-12)
        if (g["group_type"], g["label"], int(g["member_count"])) != w[:3] or not score_ok:
            errors.append(f"row {g} != {w}")
    return errors[:3]


def reference_projection(rows) -> tuple[np.ndarray, np.ndarray]:
    """(coordinates, explained variance) from an eigen-solve of the covariance."""
    x = np.asarray([r.record["interval_vector"] for r in rows])
    centered = x - x.mean(axis=0)
    values, vectors = np.linalg.eigh(centered.T @ centered)
    top = np.argsort(values)[::-1][:2]
    explained = values[top] / values.sum()
    loads = vectors[:, top]
    for k in range(2):
        if loads[np.argmax(np.abs(loads[:, k])), k] < 0:
            loads[:, k] = -loads[:, k]
    return centered @ loads, explained


def _coordinates(rows, out_dir) -> list[str]:
    coords, explained = reference_projection(rows)
    errors = []
    notes = json.loads((out_dir / "report_stdout.json").read_text())
    if not np.allclose(notes.get("explained_variance", []), explained, rtol=1e-9, atol=0):
        errors.append(f"explained variance {notes.get('explained_variance')} != {explained}")
    got = _read_csv(out_dir / "coordinates.csv")
    if [g["song_id"] for g in got] != [r.record["song_id"] for r in rows]:
        return errors + ["coordinate rows are not the songs in input order"]
    xy = np.asarray([[float(g["pc1"]), float(g["pc2"])] for g in got])
    if not np.allclose(xy, coords, rtol=0, atol=1e-9):
        errors.append(f"coordinates differ by {np.abs(xy - coords).max():.3g}")
    return errors


def _correlations(rows, out_dir) -> list[str]:
    coords, _ = reference_projection(rows)
    want = []
    for comp in range(2):
        for feature in TESTED_MEASURES:
            res = sps.pearsonr(coords[:, comp], [r.record[feature] for r in rows])
            want.append((comp, feature, float(res.statistic), float(res.pvalue)))
    adjusted = _holm([w[3] for w in want])
    got = _read_csv(out_dir / "component_correlations.csv")
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    errors = []
    for g, w, p_adj in zip(got, want, adjusted):
        numpy_repr = re.fullmatch(r"np\.float64\((.*)\)", g["r"])
        if numpy_repr:
            g["r"] = numpy_repr.group(1)
            if NUMPY_REPR not in errors:
                errors.append(NUMPY_REPR)
        if ((int(g["component"]), g["feature"]) != w[:2] or g["undefined"] != "False"
                or not close(float(g["r"]), w[2], 1e-7)
                or not close(float(g["p_value"]), w[3], 1e-6, 1e-300)
                or not close(float(g["p_adjusted"]), p_adj, 1e-6, 1e-300)):
            errors.append(f"row {g} != {w}, Holm {p_adj}")
    return errors[:3]


TABLE_CHECKS = {
    "ccdf.csv": _ccdf,
    "interval_fractions.csv": _fractions,
    "genre_tests.csv": _genre_tests,
    "trend_decades.csv": _trend_decades,
    "trend_tests.csv": _trend_tests,
    "gs_scores.csv": _gs_scores,
    "coordinates.csv": _coordinates,
    "component_correlations.csv": _correlations,
}


def check_report(rows: list[CorpusRow], out_dir: Path) -> list[Outcome]:
    exit_code = (out_dir / "exit_code").read_text().strip()
    outcomes = []
    for table, check in TABLE_CHECKS.items():
        out = Outcome(table, [])
        if exit_code != "0":
            out.errors.append(f"report exited with {exit_code}")
        elif not (out_dir / table).is_file():
            out.errors.append("missing")
        else:
            try:
                out.errors += check(rows, out_dir)
            except (KeyError, ValueError) as exc:
                out.errors.append(f"unreadable: {type(exc).__name__}: {exc}")
        out.known_fault = bool(out.errors) and set(out.errors) <= KNOWN_FAULTS
        outcomes.append(out)
    return outcomes


# --- determinism across rounds ---

def same_bytes(first: Path, other: Path) -> list[str]:
    """Output files of ``other`` that differ from ``first`` (same inputs, same seed)."""
    names = {p.relative_to(first) for p in first.rglob("*") if p.is_file()}
    names |= {p.relative_to(other) for p in other.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not (first / n).is_file() or not (other / n).is_file()
                  or (first / n).read_bytes() != (other / n).read_bytes())
