"""Brute-force reference implementations the fast code is checked against.

Everything here is written for clarity over speed and stays independent
of the implementations in src/.
"""

from __future__ import annotations

import csv
import math
import random
from collections import defaultdict
from itertools import combinations, groupby, permutations
from pathlib import Path
from typing import Any, Optional

import numpy as np

from notegraph.catalog import build_record
from notegraph.embeddings import INTERVAL_NAMES
from notegraph.errors import (
    BadCatalog,
    BadVariableLengthQuantity,
    EmptySong,
    MalformedHeader,
    TruncatedChunk,
    UnsupportedFormat,
)
from notegraph.graph import TransitionGraph
from notegraph.nullmodels import RandomizerConfig
from notegraph.pipeline import TESTED_MEASURES, TREND_MEASURES
from notegraph.stats import EXACT_LIMIT, TestResult


def random_graph(
    rng: random.Random, max_nodes: int = 8, max_weight: int = 9, edge_prob: float = 0.4
) -> TransitionGraph:
    """A random simple directed weighted graph with at least one edge."""
    while True:
        n = rng.randint(2, max_nodes)
        nodes = rng.sample(range(0, 128), n)
        edges = {}
        for s in nodes:
            for t in nodes:
                if s != t and rng.random() < edge_prob:
                    edges[(s, t)] = rng.randint(1, max_weight)
        if edges:
            return TransitionGraph(song_id="random", edges=edges)


def out_weights(g: TransitionGraph, node: int) -> dict[int, int]:
    return {t: w for (s, t), w in g.edges.items() if s == node}


def rewire_reference(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Maslov-Sneppen double-edge swaps, one randrange pair per attempt."""
    rng = random.Random(cfg.seed)
    edges = [[s, t, w] for (s, t), w in sorted(g.edges.items())]
    edge_set = {(s, t) for s, t, _ in edges}
    n_edges = len(edges)
    for _ in range(cfg.swap_multiplier * n_edges):
        i = rng.randrange(n_edges)
        j = rng.randrange(n_edges)
        if i == j:
            continue
        a, b, _ = edges[i]
        c, d, _ = edges[j]
        if a == d or c == b:
            continue  # would create a loop
        if (a, d) in edge_set or (c, b) in edge_set:
            continue  # would create a duplicate edge
        edge_set.discard((a, b))
        edge_set.discard((c, d))
        edge_set.add((a, d))
        edge_set.add((c, b))
        edges[i][1] = d
        edges[j][1] = b
    return TransitionGraph(
        song_id=g.song_id,
        edges={(s, t): w for s, t, w in edges},
        isolated=g.nodes,
    )


def shuffle_reference(g: TransitionGraph, cfg: RandomizerConfig) -> TransitionGraph:
    """Per-node out-weight shuffle over the sorted edge list. Edge i's
    key is the i-th 64-bit word of one ``getrandbits(64 * E)`` draw,
    counted from the low end, less its low byte; each source node's
    edges, in sorted order, take the node's weights in the order of
    their keys, a tie kept in edge order."""
    edges = sorted(g.edges.items())
    raw = random.Random(cfg.seed).getrandbits(64 * len(edges)).to_bytes(8 * len(edges), "little")
    keys = [int.from_bytes(raw[8 * i:8 * i + 8], "little") // 2**8 for i in range(len(edges))]
    new_edges: dict[tuple[int, int], int] = {}
    for _, row in groupby(range(len(edges)), key=lambda i: edges[i][0][0]):
        row = list(row)
        for i, j in zip(row, sorted(row, key=lambda j: (keys[j], j))):
            new_edges[edges[i][0]] = edges[j][1]
    return TransitionGraph(song_id=g.song_id, edges=new_edges, isolated=g.nodes)


def density(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    possible = sum(1 for a in nodes for b in nodes if a != b)
    return len(g.edges) / possible


def reciprocity_binary(g: TransitionGraph) -> float:
    a = density(g)
    reciprocated = sum(1 for (s, t) in g.edges if (t, s) in g.edges)
    r = reciprocated / len(g.edges)
    return (r - a) / (1 - a)


def weighted_reciprocity_raw(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    w_recip = 0
    for a in nodes:
        for b in nodes:
            if a != b:
                w_recip += min(g.edges.get((a, b), 0), g.edges.get((b, a), 0))
    return w_recip / sum(g.edges.values())


def floyd_warshall(g: TransitionGraph, weighted: bool) -> dict[tuple[int, int], float]:
    nodes = sorted(g.nodes)
    dist = {(a, b): (0.0 if a == b else math.inf) for a in nodes for b in nodes}
    for (s, t), w in g.edges.items():
        dist[(s, t)] = float(w) if weighted else 1.0
    for k in nodes:
        for i in nodes:
            for j in nodes:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


def global_efficiency(g: TransitionGraph, weighted: bool) -> float:
    nodes = sorted(g.nodes)
    dist = floyd_warshall(g, weighted)
    total = sum(
        1.0 / dist[(a, b)]
        for a in nodes for b in nodes
        if a != b and math.isfinite(dist[(a, b)])
    )
    return total / (len(nodes) * (len(nodes) - 1))


def mean_node_entropy(g: TransitionGraph) -> float:
    nodes = sorted(g.nodes)
    acc = 0.0
    for node in nodes:
        out = [(t, w) for (s, t), w in g.edges.items() if s == node]
        if len(out) <= 1:
            continue
        strength = sum(w for _, w in out)
        h = 0.0
        for _, w in out:
            p = w / strength
            h -= p * math.log(p)
        acc += h / math.log(len(out))
    return acc / len(nodes)


def network_entropy(g: TransitionGraph, damping: float) -> float:
    """Dense eigen-solve of the damped chain plus direct entropy sums."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    p = np.zeros((n, n))
    for (s, t), w in g.edges.items():
        p[idx[s], idx[t]] = w
    for i in range(n):
        row_sum = p[i].sum()
        p[i] = p[i] / row_sum if row_sum > 0 else 1.0 / n
    damped = (1 - damping) * p + damping / n
    eigvals, eigvecs = np.linalg.eig(damped.T)
    k = int(np.argmin(np.abs(eigvals - 1)))
    pi = np.real(eigvecs[:, k])
    pi = pi / pi.sum()
    h = np.array([
        -sum(x * math.log(x) for x in row if x > 0) for row in damped
    ])
    return float(pi @ h)


def chords_from_stream(stream: list[tuple[int, int]]) -> list[set[int]]:
    chords: list[set[int]] = []
    last_tick = None
    for tick, pitch in stream:
        if last_tick is not None and tick == last_tick:
            chords[-1].add(pitch)
        else:
            chords.append({pitch})
            last_tick = tick
    return chords


def total_transition_weight(onsets_by_channel: dict[int, list[tuple[int, int]]]) -> int:
    total = 0
    for stream in onsets_by_channel.values():
        chords = chords_from_stream(sorted(stream))
        for a, b in zip(chords, chords[1:]):
            total += sum(1 for x in a for y in b if x != y)
    return total


def graph_reference(onsets, song_id: str = "") -> TransitionGraph:
    """The dict builder: split a mixed-channel stream of (channel, tick,
    pitch) rows by channel, merge same-tick runs into chord sets and sum
    every chord pair's transitions, one dict entry at a time."""
    by_channel: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for channel, tick, pitch in onsets:
        by_channel[channel].append((tick, pitch))
    sequences = [
        [frozenset(p for _, p in group) for _, group in groupby(by_channel[ch], key=lambda o: o[0])]
        for ch in sorted(by_channel)
    ]
    counts: dict[tuple[int, int], int] = defaultdict(int)
    loop_pitches: set[int] = set()
    for chords in sequences:
        for a, b in zip(chords, chords[1:]):
            for x in a:
                for y in b:
                    if x == y:
                        loop_pitches.add(x)
                    else:
                        counts[(x, y)] += 1
    if not counts:
        raise EmptySong("no non-loop transitions")
    return TransitionGraph(song_id=song_id, edges=counts, isolated=loop_pitches)


REFERENCE_TEMPO_US = 500_000


def _reference_vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    value = 0
    for i in range(4):
        if pos >= end:
            raise TruncatedChunk("variable-length quantity runs past chunk end")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise BadVariableLengthQuantity("variable-length quantity longer than 4 bytes")


def _reference_track(
    data: bytes, start: int, end: int, onsets: list, tempos: list[tuple[int, int]]
) -> int:
    last_note_tick = 0
    tick = 0
    running_status: int | None = None
    pos = start
    while pos < end:
        delta, pos = _reference_vlq(data, pos, end)
        tick += delta
        if pos >= end:
            raise TruncatedChunk("event status missing at chunk end")
        byte = data[pos]
        if byte >= 0x80:
            status = byte
            pos += 1
        else:
            if running_status is None:
                raise TruncatedChunk("data byte with no running status")
            status = running_status

        if status == 0xFF:  # meta event
            running_status = None
            if pos >= end:
                raise TruncatedChunk("meta event type missing")
            meta_type = data[pos]
            pos += 1
            length, pos = _reference_vlq(data, pos, end)
            if pos + length > end:
                raise TruncatedChunk("meta event data runs past chunk end")
            if meta_type == 0x51 and length == 3:
                tempos.append((tick, int.from_bytes(data[pos:pos + 3], "big")))
            pos += length
            if meta_type == 0x2F:  # end of track
                break
        elif status in (0xF0, 0xF7):  # sysex
            running_status = None
            length, pos = _reference_vlq(data, pos, end)
            if pos + length > end:
                raise TruncatedChunk("sysex data runs past chunk end")
            pos += length
        elif status >= 0xF0:  # stray system common / realtime
            running_status = None
            # MTC quarter frame and song select carry 1 data byte, song position 2
            skip = {0xF1: 1, 0xF2: 2, 0xF3: 1}.get(status, 0)
            if pos + skip > end:
                raise TruncatedChunk("system message data runs past chunk end")
            pos += skip
        else:  # channel voice message
            running_status = status
            kind = status & 0xF0
            channel = status & 0x0F
            n_data = 1 if kind in (0xC0, 0xD0) else 2
            if pos + n_data > end:
                raise TruncatedChunk("channel message data runs past chunk end")
            d1 = data[pos] & 0x7F
            d2 = data[pos + 1] & 0x7F if n_data == 2 else 0
            pos += n_data
            if kind == 0x90 or kind == 0x80:
                last_note_tick = tick
                if kind == 0x90 and d2:  # velocity 0 is the note-off shorthand
                    onsets.append((channel, tick, d1))
    return last_note_tick


def parse_reference(data: bytes) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]], float]:
    """The per-event parser: (onsets as (channel, tick, pitch) tuples in
    file order, drums included; tempo map; duration in seconds)."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd chunk")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MalformedHeader(f"header length {header_len} < 6")
    fmt = int.from_bytes(data[8:10], "big")
    n_tracks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"SMF format {fmt} not supported")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time division not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per quarter note")

    pos = 8 + header_len
    onsets: list[tuple[int, int, int]] = []
    tempos: list[tuple[int, int]] = []
    last_tick = 0
    parsed = 0
    while parsed < n_tracks and pos < len(data):
        if pos + 8 > len(data):
            raise TruncatedChunk("chunk header runs past end of file")
        chunk_id = data[pos:pos + 4]
        chunk_len = int.from_bytes(data[pos + 4:pos + 8], "big")
        body_start = pos + 8
        body_end = body_start + chunk_len
        if body_end > len(data):
            raise TruncatedChunk(f"{chunk_id!r} chunk body runs past end of file")
        if chunk_id == b"MTrk":
            last_tick = max(last_tick, _reference_track(data, body_start, body_end, onsets, tempos))
            parsed += 1
        pos = body_end
    if parsed < n_tracks:
        raise TruncatedChunk(f"header declares {n_tracks} tracks, found {parsed}")

    by_tick: dict[int, int] = {}
    for tick, tempo in sorted(tempos, key=lambda t: t[0]):
        by_tick[tick] = tempo
    tempo_map = sorted(by_tick.items())
    seconds = 0.0
    cur_tick = 0
    cur_tempo = REFERENCE_TEMPO_US
    for change_tick, tempo in tempo_map:
        if change_tick >= last_tick:
            break
        if change_tick > cur_tick:
            seconds += (change_tick - cur_tick) * cur_tempo / (division * 1e6)
            cur_tick = change_tick
        cur_tempo = tempo
    seconds += (last_tick - cur_tick) * cur_tempo / (division * 1e6)
    return onsets, tempo_map, seconds


def exact_two_state_stationary(damped: np.ndarray) -> np.ndarray:
    """Closed form for a 2-state chain: pi = (q, p) / (p + q)."""
    p = damped[0, 1]
    q = damped[1, 0]
    return np.array([q, p]) / (p + q)


def u_statistic_pairwise(x, y) -> float:
    """U for the first sample: wins over y, ties counted half."""
    u = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                u += 1.0
            elif xi == yj:
                u += 0.5
    return u


def mann_whitney_reference(x, y, mode: str = "auto") -> TestResult:
    """Mann-Whitney U by comparing every pair, and an exact null that
    recounts U for every labeling of the pooled sample."""
    n, m = len(x), len(y)
    u_obs = u_statistic_pairwise(x, y)
    if mode == "auto":
        mode = "exact" if n + m <= EXACT_LIMIT else "approx"
    pooled = list(x) + list(y)
    if mode == "exact":
        center = n * m / 2
        dev = abs(u_obs - center)
        hits = 0
        total = 0
        indices = range(len(pooled))
        for combo in combinations(indices, n):
            chosen = set(combo)
            xs = [pooled[i] for i in combo]
            ys = [pooled[i] for i in indices if i not in chosen]
            if abs(u_statistic_pairwise(xs, ys) - center) >= dev - 1e-12:
                hits += 1
            total += 1
        return TestResult(statistic=u_obs, p_value=hits / total, method="exact")

    mu = n * m / 2
    big_n = n + m
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(t**3 - t for t in counts.values() if t > 1)
    var = (n * m / 12) * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        return TestResult(statistic=u_obs, p_value=1.0, method="normal-approximation",
                          all_tied=True)
    diff = u_obs - mu
    correction = 0.5 * (1 if diff > 0 else -1 if diff < 0 else 0)
    z = (diff - correction) / math.sqrt(var)
    p = min(1.0, 2 * (0.5 * math.erfc(abs(z) / math.sqrt(2))))
    return TestResult(statistic=u_obs, p_value=p, method="normal-approximation")


# --- aggregate tables, record by record ---

def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _grouped(records: list[dict], labels_of) -> dict:
    """Label -> member records, in record order; labels sorted."""
    groups: dict = {}
    for rec in records:
        for label in labels_of(rec):
            groups.setdefault(label, []).append(rec)
    return dict(sorted(groups.items()))


def _genres(rec: dict) -> list:
    return rec.get("genres") or ["all"]


def holm_reference(pvals: list[float]) -> list[float]:
    """Holm step-down: the k-th smallest p is raised to the largest
    (m - j) * p_(j) over j <= k, capped at 1."""
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    for k, idx in enumerate(order):
        adjusted[idx] = min(1.0, max((m - j) * pvals[order[j]] for j in range(k + 1)))
    return adjusted


def mann_kendall_reference(series: list[float]) -> TestResult:
    """S over every ordered pair, ties counted from a dict of values."""
    n = len(series)
    s = sum((b > a) - (b < a) for a, b in combinations(series, 2))
    counts: dict[float, int] = {}
    for v in series:
        counts[v] = counts.get(v, 0) + 1
    ties = [t for t in counts.values() if t > 1]
    n0 = n * (n - 1) / 2
    denom = math.sqrt(n0 * (n0 - sum(t * (t - 1) / 2 for t in ties)))
    if denom == 0:
        return TestResult(statistic=math.nan, p_value=1.0, method="normal-approximation",
                          all_tied=True)
    var = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18
    z = (s - (s > 0) + (s < 0)) / math.sqrt(var)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
    return TestResult(statistic=s / denom, p_value=p, method="normal-approximation")


def aggregate_tables_reference(records: list[dict], min_group_size: int) -> tuple[dict, dict]:
    """Every aggregate table built by walking the records: (file name ->
    (header, rows), notes). Correlations come from ``scipy.stats``."""
    from scipy.stats import pearsonr

    tables: dict = {}
    notes: dict = {}
    genres = _grouped(records, _genres)

    rows = []
    for genre, members in genres.items():
        hist: dict[int, int] = {}
        for rec in members:
            for w, c in rec["weight_histogram"].items():
                hist[int(w)] = hist.get(int(w), 0) + c
        total = remaining = sum(hist.values())
        for w in sorted(hist):
            rows.append([genre, w, remaining / total])
            remaining -= hist[w]
    tables["ccdf.csv"] = (["genre", "weight", "ccdf"], rows)

    rows = []
    for genre, members in genres.items():
        sums = [sum(rec["interval_counts"][i] for rec in members) for i in range(12)]
        rows += [[genre, i, INTERVAL_NAMES[i], sums[i] / sum(sums)] for i in range(12)]
    tables["interval_fractions.csv"] = (["genre", "interval", "name", "fraction"], rows)

    tested = {g: members for g, members in genres.items() if len(members) >= 2}
    if len(tested) < 2:
        notes["genre_tests_skipped"] = f"need >= 2 genres with >= 2 songs, got {len(tested)}"
    else:
        names = list(tested)
        rows = []
        for measure in TESTED_MEASURES:
            batch = []
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    xs = [r[measure] for r in tested[a] if _finite(r[measure])]
                    ys = [r[measure] for r in tested[b] if _finite(r[measure])]
                    if xs and ys:
                        res = mann_whitney_reference(xs, ys)
                        batch.append([measure, a, b, res.statistic, res.p_value, res.method])
            adjusted = holm_reference([row[4] for row in batch])
            rows += [row[:5] + [p_adj, row[5]] for row, p_adj in zip(batch, adjusted)]
        tables["genre_tests.csv"] = (
            ["measure", "genre_a", "genre_b", "statistic", "p_value", "p_adjusted", "method"],
            rows,
        )

    decade_rows, test_rows, skipped = [], [], []
    dated = [r for r in records if r.get("release_year") is not None]
    for genre, members in _grouped(dated, _genres).items():
        by_decade = _grouped(members, lambda r: [r["release_year"] // 10 * 10])
        if len(by_decade) < 3:
            skipped.append(genre)
            continue
        series = {m: [] for m in TREND_MEASURES}
        for decade, in_decade in by_decade.items():
            row = [genre, decade, len(in_decade)]
            for measure in TREND_MEASURES:
                vals = [r[measure] for r in in_decade if _finite(r[measure])]
                row.append(sum(vals) / len(vals) if vals else math.nan)
                series[measure].append(row[-1])
            decade_rows.append(row)
        for measure in TREND_MEASURES:
            finite = [v for v in series[measure] if math.isfinite(v)]
            if len(finite) < 3:
                skipped.append(f"{genre}/{measure}")
                continue
            res = mann_kendall_reference(finite)
            test_rows.append([genre, measure, res.statistic, res.p_value, res.all_tied])
    adjusted = holm_reference([row[3] for row in test_rows])
    if skipped:
        notes["trend_skipped_genres"] = skipped
    tables["trend_decades.csv"] = (["genre", "decade", "count", *TREND_MEASURES], decade_rows)
    tables["trend_tests.csv"] = (
        ["genre", "measure", "tau", "p_value", "p_adjusted", "all_tied"],
        [row[:4] + [p_adj, row[4]] for row, p_adj in zip(test_rows, adjusted)],
    )

    rows = []
    for group_type, labels_of in (
        ("genre", lambda r: r.get("genres") or []),
        ("era", lambda r: [r["era"]] if r.get("era") else []),
        ("artist", lambda r: [r["artist"]] if r.get("artist") else []),
    ):
        for label, members in _grouped(records, labels_of).items():
            score = ""
            if len(members) >= min_group_size:
                vectors = [r["interval_vector"] for r in members]
                centroid = [sum(col) / len(vectors) for col in zip(*vectors)]
                c_norm = math.sqrt(sum(c * c for c in centroid))
                score = sum(
                    sum(a * c for a, c in zip(v, centroid)) / (math.sqrt(sum(a * a for a in v)) * c_norm)
                    for v in vectors
                ) / len(vectors)
            rows.append([group_type, label, len(members), score])
    tables["gs_scores.csv"] = (["group_type", "label", "member_count", "gs_score"], rows)

    if len(records) >= 2:
        # the projection itself: center, SVD, flip each axis so its
        # largest-magnitude loading is positive
        x = np.asarray([r["interval_vector"] for r in records], dtype=float)
        u, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        # an axis is kept when its variance, s**2, exceeds 1e-12 of the first's
        kept = int(np.sum(s * s > s[0] * s[0] * 1e-12)) if s[0] > 0 else 0
        coords = np.zeros((len(records), 2))
        for i in range(min(2, kept)):
            sign = 1.0 if vt[i][np.argmax(np.abs(vt[i]))] >= 0 else -1.0
            coords[:, i] = sign * u[:, i] * s[i]
        explained = [float(s[i] ** 2 / np.sum(s**2)) if i < kept else 0.0 for i in range(2)]
        notes["explained_variance"] = explained
        tables["coordinates.csv"] = (
            ["song_id", "pc1", "pc2"],
            [[r["song_id"], float(c[0]), float(c[1])] for r, c in zip(records, coords)],
        )
    if len(records) >= 3:
        rows, pvals = [], []
        for comp in range(2):
            for measure in TESTED_MEASURES:
                pairs = [(c, r[measure]) for c, r in zip(coords[:, comp].tolist(), records)
                         if _finite(r[measure])]
                xs = [p[0] for p in pairs]
                ys = [float(p[1]) for p in pairs]
                if len(pairs) < 3 or min(xs) == max(xs) or min(ys) == max(ys):
                    rows.append([comp, measure, math.nan, math.nan, math.nan, True])
                    continue
                res = pearsonr(xs, ys)
                rows.append([comp, measure, float(res.statistic), float(res.pvalue), None, False])
                pvals.append(rows[-1][3])
        adjusted = iter(holm_reference(pvals))
        for row in rows:
            if not row[5]:
                row[4] = next(adjusted)
        tables["component_correlations.csv"] = (
            ["component", "feature", "r", "p_value", "p_adjusted", "undefined"], rows,
        )
    return tables, notes


# The catalog loader as it was before it read rows with csv.reader and
# cleaned each distinct value once, kept verbatim: csv.DictReader, a
# record built per row.
def _parse_int(row: dict, name: str) -> Optional[int]:
    value = (row.get(name) or "").strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        raise BadCatalog(f"{name} {value!r} is not an integer") from None


def catalog_reference(path: str | Path) -> dict[str, dict[str, Any]]:
    """Read the catalog file into song_id -> the fields of ``build_record``.

    A file without a song_id column, a row with more or fewer fields than
    the header, a song_id given twice, and a year that is not an integer
    raise ``BadCatalog``, which names the file and the 1-based line.
    """
    records: dict[str, dict[str, Any]] = {}
    lines: dict[str, int] = {}  # song_id -> the line that gives it
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        if "song_id" not in (reader.fieldnames or ()):
            raise BadCatalog(f"{path}, line 1: no song_id column")
        last = reader.fieldnames[-1]
        for row in reader:
            try:
                # DictReader files a long row's extra fields under None, and
                # fills a short row's tail with None
                extra = row.pop(None, ())
                if extra or row[last] is None:
                    fields = sum(v is not None for v in row.values()) + len(extra)
                    raise BadCatalog(f"{fields} fields, the header has {len(reader.fieldnames)}")
                song_id = row["song_id"].strip()
                rec = build_record(
                    artists=row.get("artists", ""),
                    genres=[g for g in row.get("genres", "").split("|") if g],
                    year_a=_parse_int(row, "year_a"),
                    year_b=_parse_int(row, "year_b"),
                )
                if song_id in lines:
                    raise BadCatalog(f"song_id {song_id!r} is already on line {lines[song_id]}")
            except BadCatalog as exc:
                raise BadCatalog(f"{path}, line {reader.line_num}: {exc}") from None
            records[song_id] = rec
            lines[song_id] = reader.line_num
    return records
