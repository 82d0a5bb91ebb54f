"""Batch corpus pipeline: scan MIDI files, filter, analyze in parallel,
aggregate per-genre tables and statistical test batteries.

Determinism contract: identical (inputs, config, seed) produce byte
identical outputs regardless of worker count. Per-song seeds derive
from the master seed and the file's content hash, so scheduling order
never matters; all output rows are sorted by song_id.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO, get_args, get_type_hints

import numpy as np

from . import catalog as catalog_mod
from . import stats as stats_mod
from .embeddings import (
    INTERVAL_NAMES,
    N_INTERVALS,
    check_min_group_size,
    component_correlations,
    group_embedding,
    interval_fractions,
    interval_vector,
    pca_project,
)
from .errors import (
    BadSetting,
    BadSongsFile,
    EmptySong,
    InsufficientGroups,
    NoInputs,
    NotegraphError,
    UnwritableOutput,
    not_utf8,
)
from .graph import TransitionGraph, graph_from_onsets
from .markov import DEFAULT_DAMPING, check_damping, network_entropy
from .metrics import (
    check_efficiency, compute_report, global_efficiency, weight_ccdf, weight_histogram,
)
from .midi import onset_stream, parse_midi
from .nullmodels import RandomizerConfig, shuffle_out_weights

CACHE_ENV_VAR = "NOTEGRAPH_CACHE"

# Part of every cache key. Bump it whenever per-song results change for
# the same inputs and config (an algorithm, its float summation order or
# the record's fields), so entries written by older code are misses.
RESULTS_VERSION = 7

# the columns of metrics.csv after song_id, in order
METRIC_COLUMNS = (
    "vertex_count",
    "edge_count",
    "density",
    "reciprocity_binary",
    "weighted_reciprocity_raw",
    "weighted_reciprocity_norm",
    "mean_node_entropy",
    "efficiency",
    "weighted_efficiency",
    "network_entropy",
    "full_density",
    "degenerate_baseline",
)

TESTED_MEASURES = (
    "vertex_count",
    "density",
    "weighted_reciprocity_raw",
    "mean_node_entropy",
    "efficiency",
    "weighted_efficiency",
)

TREND_MEASURES = ("efficiency", "weighted_efficiency")

TREND_MIN_DECADES = 3  # the fewest decades a trend is tested on

# what the aggregate tables read of a song record; catalog fields are optional
REQUIRED_FIELDS = {"song_id", "weight_histogram", "interval_vector", "interval_counts",
                   *TESTED_MEASURES}

# every field of a song's record as analyze_song returns it: a cache
# entry that holds any other set is a miss
CACHED_FIELDS = REQUIRED_FIELDS | set(METRIC_COLUMNS) | {
    "content_hash", "duration", "null_shuffled_reciprocity_mean", "stationary_residual"}


@dataclass
class PipelineConfig:
    """Every setting of a run. A config-file key is the field's name, and
    its command-line flag the name with dashes (cli.FLAG_NAMES has the
    three older spellings)."""

    inputs: list[str] = field(default_factory=list)
    catalog_path: Optional[str] = None
    output_dir: str = "notegraph-out"
    min_duration: float = 60.0
    damping: float = DEFAULT_DAMPING
    null_samples: int = RandomizerConfig.null_samples
    seed: int = RandomizerConfig.seed
    workers: int = 1
    gs_min_group_size: int = 5
    cache_dir: Optional[str] = field(default_factory=lambda: os.environ.get(CACHE_ENV_VAR))

    def __post_init__(self):
        """Raise ``BadSetting`` on an out-of-range setting, before the run
        reads any input."""
        check_damping(self.damping)
        RandomizerConfig(self.seed, null_samples=self.null_samples)
        if not (math.isfinite(self.min_duration) and self.min_duration >= 0):
            raise BadSetting(f"min_duration must be finite and >= 0, got {self.min_duration}")
        if self.workers < 1:
            raise BadSetting(f"workers must be >= 1, got {self.workers}")
        check_min_group_size(self.gs_min_group_size)

    def analysis_signature(self) -> str:
        """Hash of every parameter that affects per-song results, and of
        the results version."""
        key = (
            f"{RESULTS_VERSION}|{self.min_duration}|{self.damping}|{self.null_samples}"
            f"|{self.seed}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    def result_config(self) -> dict:
        """Config echo for reports: only parameters that shape results."""
        skip = ("workers", "cache_dir", "output_dir")
        return {k: v for k, v in asdict(self).items() if k not in skip}


# setting name -> the type its text is read as (a list's items, an
# Optional's value), in field order
SETTING_TYPES = {
    name: next((t for t in get_args(hint) if t is not type(None)), hint)
    for name, hint in get_type_hints(PipelineConfig).items()
}


def read_settings(path: str | Path) -> dict[str, Any]:
    """The settings of a ``key = value`` config file; '#' starts a
    comment. ``inputs`` is a whitespace-separated list."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(BadSetting, path) from None
    settings: dict[str, Any] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SETTING_TYPES:
            raise BadSetting(f"unknown config key {key!r}")
        try:
            settings[key] = value.split() if key == "inputs" else SETTING_TYPES[key](value)
        except ValueError:
            kind = SETTING_TYPES[key].__name__
            raise BadSetting(f"config key {key!r}: cannot read {value!r} as {kind}") from None
    return settings


def song_seed(master_seed: int, content_hash: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{content_hash}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# the most jobs one worker call takes
_CHUNK = 16

# the most cells a kernel stack holds: songs x N x N, N its largest node
# count; a song alone (N <= 128) always fits
_STACK_CELLS = 2**15

# a song past its per-song stages: (content_hash, duration, graph,
# shuffled replica weights)
Front = tuple[str, float, TransitionGraph, np.ndarray]


def _front(song_id: str, data: bytes, content_hash: str, cfg: PipelineConfig) -> Front:
    """A song's stages before the kernels: parse, the duration filter,
    the graph, the shuffled replicas, and every check the kernels would
    make. Raises the song's first error."""
    m = parse_midi(data)
    if m.duration <= cfg.min_duration:
        raise EmptySong(
            f"duration {m.duration:.2f}s not longer than {cfg.min_duration:g}s"
        )
    g = graph_from_onsets(onset_stream(m), song_id=song_id)
    null_cfg = RandomizerConfig(song_seed(cfg.seed, content_hash), null_samples=cfg.null_samples)
    shuffled = shuffle_out_weights(g, null_cfg)
    check_efficiency(g)
    return content_hash, m.duration, g, shuffled


def _stacks(graphs: list[TransitionGraph]) -> Iterator[list[int]]:
    """The graphs' indices in node-count order, cut where one more graph
    would take a stack past ``_STACK_CELLS``."""
    stack: list[int] = []
    for i in sorted(range(len(graphs)), key=lambda i: graphs[i].node_count):
        n = graphs[i].node_count
        if stack and (len(stack) + 1) * n * n > _STACK_CELLS:
            yield stack
            stack = []
        stack.append(i)
    if stack:
        yield stack


def _score(fronts: list[Front], cfg: PipelineConfig) -> list[dict[str, Any] | NotegraphError]:
    """The record of each song past ``_front``, or its error, in the
    songs' order. Both efficiencies and the network entropy come from
    one kernel call per stack of songs; each song keeps the values it
    would get alone."""
    graphs = [g for _, _, g, _ in fronts]
    efficiency: list[Any] = [None] * len(graphs)
    entropy: list[Any] = [None] * len(graphs)
    for stack in _stacks(graphs):
        stacked = [graphs[i] for i in stack]
        for i, pair, solved in zip(stack, global_efficiency(stacked),
                                   network_entropy(stacked, cfg.damping)):
            efficiency[i] = pair
            entropy[i] = solved
    records: list[dict[str, Any] | NotegraphError] = []
    for (content_hash, duration, g, shuffled), pair, solved in zip(fronts, efficiency, entropy):
        # a song's stages in their order: the report, the entropy, the intervals
        report = compute_report(g, shuffled, pair)
        if isinstance(solved, NotegraphError):
            records.append(solved)
            continue
        counts = interval_vector(g)
        records.append({
            "song_id": g.song_id,
            "content_hash": content_hash,
            "duration": duration,
            "network_entropy": solved[0],
            "stationary_residual": solved[1],
            "interval_vector": (counts / np.sqrt(np.add.reduce(counts * counts))).tolist(),
            "interval_counts": counts.tolist(),
            "weight_histogram": {str(k): v for k, v in weight_histogram(g).items()},
            **report,
        })
    return records


def analyze_song(song_id: str, data: bytes, cfg: PipelineConfig) -> dict[str, Any]:
    """Full analysis of one song, scored as a chunk of one; returns a
    JSON-serializable record.

    Raises the underlying NotegraphError (parse, build or numerical); the
    pipeline excludes the song with that error as its reason.
    """
    (record,) = _score([_front(song_id, data, hashlib.sha256(data).hexdigest(), cfg)], cfg)
    if isinstance(record, NotegraphError):
        raise record
    return record


def _worker(chunk: list[tuple[str, str, str, PipelineConfig]]) -> list[tuple[str, str, dict, bool]]:
    """Analyse a chunk of files, each job (song_id, path, content_hash,
    cfg); ``content_hash`` is the SHA-256 of the file's bytes, taken by
    ``run_pipeline``, and keys the cache entry. Returns (song_id, path,
    entry, cached) per job, in job order: the entry is the song's record
    or, for an excluded song, its reason; ``song_id`` and ``path``
    always come from the job. The songs that pass ``_front`` are scored
    together."""
    outcomes: list[Any] = []
    pending = []  # (index in outcomes, cache file, front) of each song to score
    for song_id, path, content_hash, cfg in chunk:
        cache_file = None
        if cfg.cache_dir:
            cache_file = Path(cfg.cache_dir) / f"{content_hash}-{cfg.analysis_signature()}.json"
            entry = _read_cache(cache_file, content_hash)
            if entry is not None:
                outcomes.append((song_id, path, entry, True))
                continue
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            # gone since run_pipeline hashed it: a fact about the path, not
            # the content, so it is not cached
            reason = f"{type(exc).__name__}: {exc.strerror}"
            outcomes.append((song_id, path, {"reason": reason}, False))
            continue
        try:
            front = _front(song_id, data, content_hash, cfg)
        except NotegraphError as exc:
            outcomes.append(_computed(song_id, path, cache_file, content_hash, exc))
            continue
        pending.append((len(outcomes), cache_file, front))
        outcomes.append(None)
    if pending:
        # every job of a run carries the same settings
        records = _score([front for _, _, front in pending], chunk[0][3])
        for (at, cache_file, front), record in zip(pending, records):
            song_id, path = chunk[at][:2]
            outcomes[at] = _computed(song_id, path, cache_file, front[0], record)
    return outcomes


def _computed(song_id: str, path: str, cache_file: Optional[Path], content_hash: str,
              result: dict | NotegraphError) -> tuple[str, str, dict, bool]:
    """The outcome of a song analysed here, its entry cached if a cache
    file is given: the record, or the error as the song's reason."""
    if isinstance(result, NotegraphError):
        result = {"content_hash": content_hash, "reason": f"{type(result).__name__}: {result}"}
    if cache_file is not None:
        _write_cache(cache_file, result)
    return song_id, path, result, False


def _read_cache(path: Path, content_hash: str) -> Optional[dict]:
    """The cached entry of this content: an exclusion with a string
    reason, or a record with exactly the ``CACHED_FIELDS``, each of its
    kind (by the checks of ``FIELD_KINDS``). Anything else, missing or
    unreadable, is None (a miss: the song is recomputed and its entry
    overwritten)."""
    try:
        cached = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(cached, dict) or cached.get("content_hash") != content_hash:
        return None
    if "reason" in cached:
        return cached if isinstance(cached["reason"], str) else None
    if cached.keys() != CACHED_FIELDS or any(
            FIELD_KINDS.get(name, _measure_block)([cached[name]]) is None
            for name in CACHED_FIELDS - {"song_id", "content_hash"}):
        return None
    return cached


@contextmanager
def _written_whole(path: Path) -> Iterator[TextIO]:
    """A text file to write ``path`` through. It has a temporary name in
    the same directory and is renamed to ``path`` when the block ends, or
    removed if the block raises, so a reader never sees a partial file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_cache(path: Path, entry: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with _written_whole(path) as fh:
        fh.write(json.dumps(entry, sort_keys=True))


def scan_inputs(inputs: list[str]) -> list[Path]:
    """MIDI files under the named directories, and the named files. A
    named path that does not exist is kept, so reading it excludes it
    with a reason."""
    files: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            files.extend(
                q for q in p.rglob("*")
                if q.suffix.lower() in (".mid", ".midi") and not q.is_dir()
            )
        elif p.is_file() or not p.exists():
            files.append(p)
    return sorted(set(files))


def make_output_dir(path: str | Path) -> Path:
    """The output directory, made if need be; ``UnwritableOutput`` when it
    cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(str(exc)) from exc
    return Path(path)


def run_pipeline(cfg: PipelineConfig) -> dict[str, Any]:
    """Map phase over songs, then single-threaded aggregation and export."""
    files = scan_inputs(cfg.inputs)
    if not files or not any(Path(item).exists() for item in cfg.inputs):
        raise NoInputs(f"no MIDI files under {cfg.inputs!r}")
    # a bad catalog stops the run before any song is analysed
    catalog = catalog_mod.load_catalog(cfg.catalog_path) if cfg.catalog_path else {}
    out_dir = make_output_dir(cfg.output_dir)

    # the stem is the song_id and each content is analysed once: the first
    # file in path order owns its stem and its content
    stem_owners: dict[str, Path] = {}
    content_owners: dict[str, Path] = {}
    # no worker reads the input list, and each job is pickled to a worker
    job_cfg = replace(cfg, inputs=[])
    jobs = []
    exclusions = []
    for p in files:
        try:
            data = p.read_bytes()
        except OSError as exc:  # say, a dangling link; it claims no stem and no content
            reason = f"{type(exc).__name__}: {exc.strerror}"
            exclusions.append({"song_id": p.stem, "path": str(p), "reason": reason})
            continue
        digest = hashlib.sha256(data).hexdigest()
        if p.stem in stem_owners:
            reason = f"Collision: song_id {p.stem!r} already taken by {stem_owners[p.stem]}"
        elif digest in content_owners:
            reason = f"Duplicate: same content as {content_owners[digest]}"
        else:
            stem_owners[p.stem] = content_owners[digest] = p
            jobs.append((p.stem, str(p), digest, job_cfg))
            continue
        exclusions.append({"song_id": p.stem, "path": str(p), "reason": reason})
    # stems are unique among the jobs, so this is song_id order
    jobs.sort(key=lambda job: job[0])
    # consecutive chunks, none over _CHUNK jobs, so every worker gets one
    size = max(1, min(_CHUNK, math.ceil(len(jobs) / cfg.workers)))
    chunks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
    if cfg.workers > 1:
        # imported here: the pool's modules (multiprocessing, socket) cost
        # every one-worker run and every CLI start a few ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = chain.from_iterable(pool.map(_worker, chunks))
            counts = _write_song_files(out_dir, outcomes, catalog, exclusions)
    else:
        outcomes = chain.from_iterable(map(_worker, chunks))
        counts = _write_song_files(out_dir, outcomes, catalog, exclusions)
    exclusions.sort(key=lambda e: e["song_id"])
    _write_csv(
        out_dir / "exclusions.csv",
        ["song_id", "path", "reason"],
        [[e["song_id"], e["path"], e["reason"]] for e in exclusions],
    )
    # the tables are built as report builds them, from the file just written
    aggregates = write_aggregates(SongsFile(out_dir / "songs.jsonl"), out_dir, cfg)

    summary = {
        "files_scanned": len(files),
        "songs_analyzed": counts["computed"] + counts["cached"],
        "songs_excluded": len(exclusions),
        "config": cfg.result_config(),
        **aggregates,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    # cache counters differ between cold and warm runs, so they stay out of out/
    return {**summary, **counts}


def _write_song_files(out_dir: Path, outcomes: Iterable[tuple[str, str, dict, bool]],
                      catalog: dict[str, dict], exclusions: list[dict]) -> dict[str, int]:
    """Write each song's songs.jsonl, metrics.csv and embeddings.csv lines,
    catalog fields joined, as its worker outcome arrives; the files
    replace the old ones once all are in. Excluded songs go to
    ``exclusions``. Returns the counts of records computed and read from
    the cache."""
    counts = {"computed": 0, "cached": 0}
    with _written_whole(out_dir / "songs.jsonl") as songs, \
            _written_whole(out_dir / "metrics.csv") as metrics_file, \
            _written_whole(out_dir / "embeddings.csv") as embeddings_file:
        metrics = csv.writer(metrics_file, lineterminator="\n")
        embeddings = csv.writer(embeddings_file, lineterminator="\n")
        metrics.writerow(["song_id", *METRIC_COLUMNS])
        embeddings.writerow(["song_id", *[f"iv_{i}" for i in range(N_INTERVALS)]])
        for song_id, path, entry, cached in outcomes:
            if "reason" in entry:
                exclusions.append({"song_id": song_id, "path": path, "reason": entry["reason"]})
                continue
            counts["cached" if cached else "computed"] += 1
            entry["song_id"] = song_id
            record = catalog_mod.join_catalog(entry, catalog)
            songs.write(json.dumps(record, sort_keys=True) + "\n")
            metrics.writerow([song_id, *[record[c] for c in METRIC_COLUMNS]])
            embeddings.writerow([song_id, *record["interval_vector"]])
    return counts


# --- aggregation ---

# the decade of a record without a release year: decades are multiples
# of 10, so it is none of them
_UNDATED = -1


def _rows_by_label(labels: Iterable[Iterable[str]]) -> dict[str, np.ndarray]:
    """Label -> the indices of the records it tags, in record order, for
    each record's labels in turn; labels in sorted order."""
    rows: dict[str, list[int]] = {}
    for i, tags in enumerate(labels):
        for label in tags:
            rows.setdefault(label, []).append(i)
    return {label: np.array(rows[label], dtype=np.intp) for label in sorted(rows)}


# the catalog fields the tables group by; a record may lack any of them
LABEL_FIELDS = ("genres", "release_year", "era", "artist")

# records whose column values are checked and packed together: a pass
# holds at most this many records' values, never a record itself
_BLOCK = 256


def _array(values: list, dtype: type) -> Optional[np.ndarray]:
    """The values as an array of ``dtype``; None when an int is past its
    range, so that the column fails when a table reads it, not before."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return None


def _measure_block(values: list) -> Optional[np.ndarray]:
    """The values as floats, NaN for None; None if any is not an int
    within float range, a float or None."""
    if not set(map(type, values)) <= {int, float, type(None)}:
        return None
    return _array(values, float)


def _matrix_block(rows: list) -> Optional[np.ndarray]:
    """The rows as an (n, 12) float matrix; None unless each is a list of
    12 finite ints or floats of at least 0."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {N_INTERVALS}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        return None
    block = _array(rows, float)
    if block is None:
        return None
    block = block.reshape(len(rows), N_INTERVALS)
    return block if ((block >= 0) & (block < math.inf)).all() else None


def _vector_block(rows: list) -> Optional[np.ndarray]:
    """``_matrix_block``, and None if a row is all zeros: an interval
    vector is a unit vector."""
    block = _matrix_block(rows)
    return block if block is None or block.any(axis=1).all() else None


def _histogram_block(hists: list) -> Optional[tuple[np.ndarray, ...]]:
    """(weight, count) of each entry and each histogram's entry count, as
    int64 arrays; None unless each is a non-empty object of 64-bit int
    counts of at least 1, each key an int or ASCII-digit text within 64
    bits and of at least 1: a song has an edge, and an edge a weight."""
    if not (set(map(type, hists)) <= {dict} and all(hists)):
        return None
    counts = list(chain.from_iterable(map(dict.values, hists)))
    if not set(map(type, counts)) <= {int}:
        return None
    keys = list(chain.from_iterable(hists))
    weight_of = {}  # each distinct key, read as an int once
    for w in dict.fromkeys(keys):
        if type(w) is not int and not (type(w) is str and w.isascii() and w.isdigit()):
            return None
        try:
            weight_of[w] = int(w)
        except ValueError:  # past int()'s digit limit
            return None
    weights = _array(list(map(weight_of.__getitem__, keys)), np.int64)
    counts = _array(counts, np.int64)
    if weights is None or counts is None or not ((weights >= 1).all() and (counts >= 1).all()):
        return None
    return weights, counts, np.fromiter(map(len, hists), dtype=np.int64, count=len(hists))


def _typed(*kinds: type) -> Callable[[list], Optional[list]]:
    """The check that returns a block of values as it is, or None unless
    each value is of one of ``kinds``."""
    return lambda values: values if set(map(type, values)) <= set(kinds) else None


def _genres_block(values: list) -> Optional[list]:
    """The values; None unless each is a list of text or None."""
    ok = (set(map(type, values)) <= {list, type(None)}
          and set(map(type, chain.from_iterable(filter(None, values)))) <= {str})
    return values if ok else None


def _decades_block(years: list) -> Optional[np.ndarray]:
    """The release decade of each year, ``_UNDATED`` for None; None
    unless each is None or an int, not a bool, within 64-bit range."""
    if not set(map(type, years)) <= {int, type(None)}:
        return None
    return _array([_UNDATED if y is None else y // 10 * 10 for y in years], np.int64)


# The one check of each field's kind, where it is not a measure's
# (``_measure_block``). A check takes a block of the field's values and
# returns them packed for the tables, or None if any value is not of
# the kind; every check is value by value, so one value fails alone.
FIELD_KINDS = {
    "interval_vector": _vector_block, "interval_counts": _matrix_block,
    "weight_histogram": _histogram_block,
    "full_density": _typed(bool), "degenerate_baseline": _typed(bool),
    "genres": _genres_block, "release_year": _decades_block,
    "era": _typed(str, type(None)), "artist": _typed(str, type(None)),
}


class CorpusColumns:
    """The per-record quantities of a corpus that the aggregate tables
    read, built in one pass over any iterable of records. No record is
    kept: the pass packs the values of each block of records into
    arrays and drops them.

    Kept are the song ids and one column per field, read by ``column``:
    a float array per tested measure (NaN where a record holds None),
    the interval vectors and counts as (n, 12) float matrices, the
    weight histograms as (weights, counts, sizes) int64 arrays (every
    entry in record order, and each record's entry count), the release
    decades (``_UNDATED`` without a year) and the other catalog labels.
    Each column is checked by its kind's check (``FIELD_KINDS``) as it
    is packed, a block at a time. A column that fails names its first
    bad record in ``BadSongsFile`` when a table first reads it, and only
    then, so a bad value in a column that no table reads is no fault.
    """

    def __init__(self, records: Iterable[dict]):
        self.song_ids: list[str] = []
        packers = {name: FIELD_KINDS.get(name, _measure_block) for name in (
            *TESTED_MEASURES, "interval_vector", "interval_counts", "weight_histogram",
            *LABEL_FIELDS)}
        blocks: dict[str, list] = {name: [] for name in packers}  # column -> its packed blocks
        pending: dict[str, list] = {name: [] for name in packers}
        self._bad: dict[str, str] = {}  # column -> the song_id of its first bad record

        def pack() -> None:
            for name, values in pending.items():
                if name not in self._bad:
                    block = packers[name](values)
                    if block is not None:
                        blocks[name].append(block)
                    else:
                        first = next(i for i, v in enumerate(values) if packers[name]([v]) is None)
                        self._bad[name] = self.song_ids[len(self.song_ids) - len(values) + first]
                        del blocks[name]
                pending[name] = []  # a new list: a label block is the list itself

        for record in records:
            self.song_ids.append(record["song_id"])
            for name, values in pending.items():
                values.append(record.get(name))
            if len(self.song_ids) % _BLOCK == 0:
                pack()
        pack()  # the last block, empty if need be
        # joined one column at a time, dropping its blocks, so that only one
        # column is ever held twice
        self._columns = {}
        for name in list(blocks):
            self._columns[name] = self._join(blocks.pop(name))

    @staticmethod
    def _join(blocks: list):
        if isinstance(blocks[0], list):
            return list(chain.from_iterable(blocks))
        if isinstance(blocks[0], tuple):
            return tuple(map(np.concatenate, zip(*blocks)))
        return np.concatenate(blocks)

    def column(self, name: str):
        """The packed column of a field; ``BadSongsFile`` if a value in it
        is not of its kind."""
        if name in self._bad:
            raise BadSongsFile(f"song {self._bad[name]!r}: {name} has the wrong type or shape")
        return self._columns[name]

    @cached_property
    def genre_rows(self) -> dict[str, np.ndarray]:
        """Genre -> rows; a record without a genre counts under "all"."""
        return _rows_by_label(genres or ["all"] for genres in self.column("genres"))

    def label_rows(self, key: str) -> dict[str, np.ndarray]:
        """Label -> rows for a catalog field: each genre in "genres", or the
        value of "era" or "artist"; a record without one is in no group."""
        if key == "genres":
            return _rows_by_label(genres or () for genres in self.column(key))
        return _rows_by_label((label,) if label else () for label in self.column(key))


def pairwise_genre_tests(cols: CorpusColumns) -> list[dict]:
    """Mann-Whitney U for every genre pair, Holm-corrected per measure,
    for each of ``TESTED_MEASURES``.

    A genre with no finite value of a measure is left out of that
    measure's pairs and its Holm family."""
    groups = {g: rows for g, rows in cols.genre_rows.items() if len(rows) >= 2}
    if len(groups) < 2:
        raise InsufficientGroups(f"need >= 2 genres with >= 2 songs, got {len(groups)}")
    names = list(groups)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    rows: list[dict] = []
    for measure in TESTED_MEASURES:
        column = cols.column(measure)
        samples = {}
        for g, members in groups.items():
            values = column[members]
            samples[g] = values[np.isfinite(values)]
        batch = []
        for a, b in pairs:
            if not (len(samples[a]) and len(samples[b])):
                continue
            res = stats_mod.mann_whitney_u(samples[a], samples[b])
            batch.append({
                "measure": measure, "genre_a": a, "genre_b": b,
                "statistic": res.statistic, "p_value": res.p_value,
                "method": res.method,
            })
        adjusted = stats_mod.holm_correction([row["p_value"] for row in batch])
        for row, p_adj in zip(batch, adjusted):
            row["p_adjusted"] = p_adj
        rows.extend(batch)
    return rows


def trend_report(cols: CorpusColumns) -> tuple[list[dict], list[dict], list[str]]:
    """Decade-mean series per genre of each of ``TREND_MEASURES``, plus a
    Mann-Kendall test table.

    Returns (decade_rows, test_rows, skipped). A decade mean is taken
    over the finite values, in record order, and is NaN when there are
    none; each test runs on the finite means only. ``skipped`` names
    each genre with fewer than ``TREND_MIN_DECADES`` populated decades,
    and ``genre/measure`` for a test with fewer than that many finite
    means: neither is tested, and neither is fatal. Records without a
    release year are left out.
    """
    decade_rows: list[dict] = []
    test_rows: list[dict] = []
    skipped: list[str] = []
    for genre, rows in cols.genre_rows.items():
        rows = rows[cols.column("release_year")[rows] != _UNDATED]
        if not len(rows):
            continue
        decade_of = cols.column("release_year")[rows]
        decades = np.unique(decade_of).tolist()
        if len(decades) < TREND_MIN_DECADES:
            skipped.append(genre)
            continue
        series: dict[str, list[float]] = {m: [] for m in TREND_MEASURES}
        for decade in decades:
            members = rows[decade_of == decade]
            row = {"genre": genre, "decade": decade, "count": len(members)}
            for measure in TREND_MEASURES:
                values = cols.column(measure)[members]
                finite = values[np.isfinite(values)].tolist()
                # summed in order, as a Python float, so the bytes do not
                # hang on numpy's pairwise summation
                mean = sum(finite) / len(finite) if finite else math.nan
                row[measure] = mean
                series[measure].append(mean)
            decade_rows.append(row)
        for measure in TREND_MEASURES:
            finite = [v for v in series[measure] if math.isfinite(v)]
            if len(finite) < TREND_MIN_DECADES:
                skipped.append(f"{genre}/{measure}")
                continue
            res = stats_mod.mann_kendall(finite)
            test_rows.append({
                "genre": genre, "measure": measure,
                "tau": res.statistic, "p_value": res.p_value,
                "all_tied": res.all_tied,
            })
    if test_rows:
        adjusted = stats_mod.holm_correction([r["p_value"] for r in test_rows])
        for row, p_adj in zip(test_rows, adjusted):
            row["p_adjusted"] = p_adj
    return decade_rows, test_rows, skipped


Table = tuple[list[str], list[list[Any]]]  # (header, rows) of one CSV


def _ccdf_table(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    weights, counts, sizes = cols.column("weight_histogram")
    rows = []
    for genre, members in cols.genre_rows.items():
        chosen = np.zeros(len(sizes), dtype=bool)
        chosen[members] = True
        entries = np.repeat(chosen, sizes)
        rows += [[genre, w, p] for w, p in weight_ccdf(weights[entries], counts[entries])]
    return {"ccdf.csv": (["genre", "weight", "ccdf"], rows)}


def _fractions_table(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    rows = [
        [genre, i, INTERVAL_NAMES[i], frac]
        for genre, members in cols.genre_rows.items()
        for i, frac in enumerate(
            interval_fractions(cols.column("interval_counts")[members]).tolist())
    ]
    return {"interval_fractions.csv": (["genre", "interval", "name", "fraction"], rows)}


def _genre_tests_table(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    try:
        rows = pairwise_genre_tests(cols)
    except InsufficientGroups as exc:
        notes["genre_tests_skipped"] = str(exc)
        return {}
    header = ["measure", "genre_a", "genre_b", "statistic", "p_value", "p_adjusted", "method"]
    return {"genre_tests.csv": (header, [[r[c] for c in header] for r in rows])}


def _trend_tables(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    decade_rows, mk_rows, skipped = trend_report(cols)
    if skipped:
        notes["trend_skipped_genres"] = skipped
    decade_header = ["genre", "decade", "count", *TREND_MEASURES]
    test_header = ["genre", "measure", "tau", "p_value", "p_adjusted", "all_tied"]
    return {
        "trend_decades.csv": (decade_header, [[r[c] for c in decade_header] for r in decade_rows]),
        "trend_tests.csv": (test_header, [[r.get(c, "") for c in test_header] for r in mk_rows]),
    }


def _gs_table(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    rows = []
    for group_type, key in (("genre", "genres"), ("era", "era"), ("artist", "artist")):
        for label, members in cols.label_rows(key).items():
            score = group_embedding(
                label, cols.column("interval_vector")[members], cfg.gs_min_group_size)
            rows.append([group_type, label, len(members), "" if score is None else score])
    return {"gs_scores.csv": (["group_type", "label", "member_count", "gs_score"], rows)}


def _projection_tables(cols: CorpusColumns, cfg: PipelineConfig, notes: dict) -> dict[str, Table]:
    song_ids = cols.song_ids
    if len(song_ids) < 2:
        return {}
    coordinates, explained_variance = pca_project(cols.column("interval_vector"))
    notes["explained_variance"] = explained_variance.tolist()
    tables = {"coordinates.csv": (
        ["song_id", "pc1", "pc2"],
        [[song_id, *row] for song_id, row in zip(song_ids, coordinates.tolist())],
    )}
    if len(song_ids) >= 3:
        features = {m: cols.column(m) for m in TESTED_MEASURES}
        tables["component_correlations.csv"] = (
            ["component", "feature", "r", "p_value", "p_adjusted", "undefined"],
            [[e.component, e.feature, e.r, e.p_value, e.p_adjusted, e.undefined]
             for e in component_correlations(coordinates, features)],
        )
    return tables


# the table builders, in output order
AGGREGATE_TABLES = (
    _ccdf_table, _fractions_table, _genre_tests_table, _trend_tables, _gs_table,
    _projection_tables,
)


def write_aggregates(records: Iterable[dict], out_dir: str | Path,
                     cfg: PipelineConfig) -> dict[str, Any]:
    """Write the corpus-level CSV tables; returns the notes of the run
    (skipped tests, PCA explained variance).

    ``records`` is any iterable, read once: the builders share one
    ``CorpusColumns`` made in one pass over it. Every table is built
    before the output directory is made, so a value of the wrong kind in
    a column that a table reads raises ``BadSongsFile``, naming the
    column's first bad song and the field, and writes nothing.
    """
    cols = CorpusColumns(records)
    notes: dict[str, Any] = {}
    built: dict[str, Table] = {}
    for build in AGGREGATE_TABLES:
        built.update(build(cols, cfg, notes))
    out = make_output_dir(out_dir)
    for name, (header, rows) in built.items():
        _write_csv(out / name, header, rows)
    return notes


# --- serialization helpers ---

def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class SongsFile:
    """The records of a songs.jsonl file, read one line at a time on
    each iteration, so a pass holds one record at a time.

    Each line is one UTF-8 JSON object with every one of
    ``REQUIRED_FIELDS`` and a ``song_id`` string that no earlier line
    gives; blank lines are skipped. Any other line raises
    ``BadSongsFile``, which names the file and the 1-based line, when an
    iteration reaches it."""

    def __init__(self, path: str | Path):
        self.path = path

    def __iter__(self) -> Iterator[dict]:
        path = self.path
        lines: dict[str, int] = {}  # song_id -> the line that gives it
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise BadSongsFile(f"{path}, line {number}: {exc}") from None
                if not isinstance(record, dict):
                    raise BadSongsFile(f"{path}, line {number}: not a JSON object")
                if not record.keys() >= REQUIRED_FIELDS:
                    missing = ", ".join(sorted(REQUIRED_FIELDS - record.keys()))
                    raise BadSongsFile(f"{path}, line {number}: missing {missing}")
                song_id = record["song_id"]
                if type(song_id) is not str:
                    raise BadSongsFile(f"{path}, line {number}: song_id is not a string")
                if song_id in lines:
                    raise BadSongsFile(
                        f"{path}, line {number}: song_id {song_id!r} is already on line {lines[song_id]}")
                lines[song_id] = number
                yield record
