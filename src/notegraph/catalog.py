"""Offline song metadata: name cleaning, macro-genre keyword tagging,
release-year reconciliation and era bucketing.

The catalog is a tab-separated text file with a header row. Its columns
song_id, artists, genres, year_a and year_b are read, and any other
(title, popularity) is ignored; year_a is the streaming-catalog date,
year_b the secondary (estimated) date, and genre tags within a field
are separated by "|".
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Any, Iterable, Optional

from .errors import BadCatalog

MACRO_GENRE_KEYWORDS = {
    "rock": "rock",
    "pop": "pop",
    "electronic": "electronic",
    "classical": "classical",
    "jazz": "jazz",
    "hiphop": "hip hop",
    "hip hop": "hip hop",
}

ERA_BUCKETS = ("pre-1900", "1900-1949", "1950-1979", "1980-1999", "2000-plus")

ARTIST_DELIMITERS = re.compile(r"[;,&]")

# year_b is trusted below this cutoff, year_a at or above it
SECONDARY_SOURCE_CUTOFF = 1980
MAX_RELEASE_YEAR = 2021
MIN_YEAR_MODERN = 1950  # rock / pop / electronic / hip hop
MIN_YEAR_JAZZ = 1900

_FEAT_TOKEN = re.compile(r"\b(?:feat\.|ft\.)", re.IGNORECASE)
_PARENS = re.compile(r"\([^)]*\)")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def clean_name(s: str) -> str:
    """Truncate at feat./ft., drop parenthesized spans and punctuation."""
    s = _FEAT_TOKEN.split(s, maxsplit=1)[0]
    s = _PARENS.sub(" ", s)
    s = _NON_ALNUM.sub(" ", s)
    return " ".join(s.split()).casefold()


def first_artist(artists: str) -> str:
    """First listed artist; composers come first in classical listings."""
    return ARTIST_DELIMITERS.split(artists, maxsplit=1)[0].strip()


def macro_genres(tags: Iterable[str]) -> frozenset[str]:
    """Case-insensitive keyword containment over raw genre tags."""
    found = set()
    for tag in tags:
        folded = tag.casefold()
        for keyword, canonical in MACRO_GENRE_KEYWORDS.items():
            if keyword in folded:
                found.add(canonical)
    return frozenset(found)


def reconcile_release_year(
    year_a: Optional[int],
    year_b: Optional[int],
    genres: frozenset[str] | set[str] = frozenset(),
) -> Optional[int]:
    """Pick a release year from the two sources, then sanity-filter it.

    The secondary estimate wins for pre-1980 years (it is more reliable
    for old songs); otherwise the catalog date is used when present.
    Years failing the per-genre plausibility thresholds are dropped.
    """
    if year_a is None and year_b is None:
        return None
    if year_b is not None and year_b < SECONDARY_SOURCE_CUTOFF:
        year = year_b
    elif year_a is not None:
        year = year_a
    else:
        year = year_b
    if year is None or year > MAX_RELEASE_YEAR:
        return None
    modern = {"rock", "pop", "electronic", "hip hop"}
    if genres & modern and year < MIN_YEAR_MODERN:
        return None
    if "jazz" in genres and year < MIN_YEAR_JAZZ:
        return None
    return year


def era_bucket(year: int) -> str:
    if year < 1900:
        return "pre-1900"
    if year < 1950:
        return "1900-1949"
    if year < 1980:
        return "1950-1979"
    if year < 2000:
        return "1980-1999"
    return "2000-plus"


def _parse_int(row: dict, name: str) -> Optional[int]:
    value = (row.get(name) or "").strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        raise BadCatalog(f"{name} {value!r} is not an integer") from None


def build_record(
    artists: str = "",
    genres: Iterable[str] = (),
    year_a: Optional[int] = None,
    year_b: Optional[int] = None,
) -> dict[str, Any]:
    """The cleaned and reconciled fields of one raw row, as a song record
    is joined with them."""
    macro = macro_genres(genres)
    year = reconcile_release_year(year_a, year_b, macro)
    return {
        "genres": sorted(macro),
        "release_year": year,
        "era": era_bucket(year) if year is not None else None,
        "artist": clean_name(first_artist(artists)),
    }


def load_catalog(path: str | Path) -> dict[str, dict[str, Any]]:
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


def join_catalog(songs: Iterable[dict], catalog: dict[str, dict[str, Any]]) -> None:
    """Set each song record's catalog fields in place; unmatched songs get
    no genres and None for the rest."""
    for song in songs:
        song.update(catalog.get(song["song_id"])
                    or {"genres": [], "release_year": None, "era": None, "artist": None})
