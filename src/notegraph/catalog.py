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
from bisect import bisect_right
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Optional

from .errors import BadCatalog, not_utf8

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
_ERA_STARTS = (1900, 1950, 1980, 2000)  # the first year of each bucket after the first

ARTIST_DELIMITERS = re.compile(r"[;,&]")

# year_b is trusted below this cutoff, year_a at or above it
SECONDARY_SOURCE_CUTOFF = 1980
MAX_RELEASE_YEAR = 2021
MIN_YEAR_MODERN = 1950  # rock / pop / electronic / hip hop
MIN_YEAR_JAZZ = 1900
_MODERN = frozenset({"rock", "pop", "electronic", "hip hop"})

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
    if genres & _MODERN and year < MIN_YEAR_MODERN:
        return None
    if "jazz" in genres and year < MIN_YEAR_JAZZ:
        return None
    return year


def era_bucket(year: int) -> str:
    return ERA_BUCKETS[bisect_right(_ERA_STARTS, year)]


# the columns read, in the order load_catalog takes them from a row
READ_COLUMNS = ("song_id", "artists", "genres", "year_a", "year_b")


def _parse_year(value: str, name: str) -> Optional[int]:
    value = value.strip()
    if not value:
        return None
    # ASCII digits with an optional sign; int() alone also reads "1_990"
    # and other scripts' digits
    digits = value[1:] if value[0] in "+-" else value
    if digits.isascii() and digits.isdigit():
        try:
            return int(value)
        except ValueError:  # past int()'s digit limit
            pass
    raise BadCatalog(f"{name} {value!r} is not an integer")


def _record(artist: str, macro: frozenset[str], genres: list[str],
            year_a: Optional[int], year_b: Optional[int]) -> dict[str, Any]:
    year = reconcile_release_year(year_a, year_b, macro)
    return {
        "genres": genres,
        "release_year": year,
        "era": era_bucket(year) if year is not None else None,
        "artist": artist,
    }


def build_record(
    artists: str = "",
    genres: Iterable[str] = (),
    year_a: Optional[int] = None,
    year_b: Optional[int] = None,
) -> dict[str, Any]:
    """The cleaned and reconciled fields of one raw row, as a song record
    is joined with them."""
    macro = macro_genres(genres)
    return _record(clean_name(first_artist(artists)), macro, sorted(macro), year_a, year_b)


def load_catalog(path: str | Path) -> dict[str, dict[str, Any]]:
    """Read the catalog file into song_id -> the fields of ``build_record``.

    A file without a song_id column, a header that names a read column
    twice, a row with more or fewer fields than the header, a song_id
    given twice, and a year that is not plain digits with an optional
    sign raise ``BadCatalog``, which names the file and the 1-based line;
    so does a byte that is not UTF-8.
    A UTF-8 byte order mark before the header is skipped, and so is a row
    whose fields are all blank after stripping, as an empty line is. Each
    distinct artists text and genres field is cleaned once.
    """
    records: dict[str, dict[str, Any]] = {}
    lines: dict[str, int] = {}  # song_id -> the line that gives it
    artists_of: dict[str, str] = {}  # raw artists -> the cleaned first artist
    genres_of: dict[str, tuple[frozenset[str], list[str]]] = {}  # raw genres -> macro, sorted
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh, delimiter="\t")
            header = next(rows, [])
            if "song_id" not in header:
                raise BadCatalog(f"{path}, line 1: no song_id column")
            column: dict[str, int] = {}
            for i, name in enumerate(header):
                if name in READ_COLUMNS:
                    if name in column:
                        raise BadCatalog(f"{path}, line 1: column {name!r} is named twice")
                    column[name] = i
            width = len(header)
            # an absent column reads as the empty text appended past each row's end
            fields = itemgetter(*(column.get(name, width) for name in READ_COLUMNS))
            for row in rows:
                if not "".join(row).strip():  # a blank or whitespace-only line
                    continue
                try:
                    if len(row) != width:
                        raise BadCatalog(f"{len(row)} fields, the header has {width}")
                    row.append("")
                    song_id, artists, tags, year_a, year_b = fields(row)
                    song_id = song_id.strip()
                    year_a = _parse_year(year_a, "year_a")
                    year_b = _parse_year(year_b, "year_b")
                    if song_id in lines:
                        raise BadCatalog(
                            f"song_id {song_id!r} is already on line {lines[song_id]}")
                except BadCatalog as exc:
                    raise BadCatalog(f"{path}, line {rows.line_num}: {exc}") from None
                artist = artists_of.get(artists)
                if artist is None:
                    artist = artists_of[artists] = clean_name(first_artist(artists))
                if tags not in genres_of:
                    macro = macro_genres(t for t in tags.split("|") if t)
                    genres_of[tags] = macro, sorted(macro)
                macro, genres = genres_of[tags]
                # each row gets a genres list of its own
                records[song_id] = _record(artist, macro, genres.copy(), year_a, year_b)
                lines[song_id] = rows.line_num
    except UnicodeDecodeError:
        raise not_utf8(BadCatalog, path) from None
    return records


def join_catalog(song: dict, catalog: dict[str, dict[str, Any]]) -> dict:
    """The song record, its catalog fields set in place; an unmatched song
    gets no genres and None for the rest."""
    song.update(catalog.get(song["song_id"])
                or {"genres": [], "release_year": None, "era": None, "artist": None})
    return song
