import csv
import io
import random

import pytest

from notegraph.errors import BadCatalog
from notegraph.catalog import (
    ERA_BUCKETS,
    build_record,
    clean_name,
    era_bucket,
    first_artist,
    load_catalog,
    macro_genres,
    reconcile_release_year,
)
from oracles import catalog_reference


class TestCleanName:
    def test_full_pipeline(self):
        assert clean_name("Song (Live) feat. X") == "song"

    def test_noop(self):
        assert clean_name("abc123") == "abc123"

    def test_only_parens(self):
        assert clean_name("(only parens)") == ""

    def test_ft_token(self):
        assert clean_name("Tune ft. Somebody Else") == "tune"

    def test_idempotent(self):
        rng = random.Random(1)
        alphabet = "abc (x) feat. ft. & ; , 123 !?"
        for _ in range(200):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            once = clean_name(s)
            assert clean_name(once) == once


class TestFirstArtist:
    def test_semicolon(self):
        assert first_artist("Bach; Gould") == "Bach"

    def test_single(self):
        assert first_artist("Miles Davis") == "Miles Davis"

    def test_delimiters_only(self):
        assert first_artist(";,&") == ""

    def test_ampersand_and_comma(self):
        assert first_artist("Simon & Garfunkel") == "Simon"
        assert first_artist("Lennon, McCartney") == "Lennon"


class TestMacroGenres:
    def test_substring_keyword(self):
        assert macro_genres(["indie rock"]) == {"rock"}

    def test_electro_pop_is_only_pop(self):
        assert macro_genres(["electro-pop"]) == {"pop"}

    def test_multi_tag(self):
        assert macro_genres(["classical", "jazz fusion"]) == {"classical", "jazz"}

    def test_hiphop_spellings(self):
        assert macro_genres(["hiphop"]) == {"hip hop"}
        assert macro_genres(["Hip Hop beats"]) == {"hip hop"}

    def test_no_keyword(self):
        assert macro_genres(["folk", "ambient"]) == frozenset()


class TestReconcileReleaseYear:
    def test_pre_1980_secondary_wins(self):
        assert reconcile_release_year(2005, 1965, frozenset()) == 1965

    def test_post_1980_catalog_wins(self):
        assert reconcile_release_year(1993, 1995, frozenset()) == 1993

    def test_secondary_fallback(self):
        assert reconcile_release_year(None, 1985, frozenset()) == 1985

    def test_rock_before_1950_dropped(self):
        assert reconcile_release_year(None, 1940, frozenset({"rock"})) is None

    def test_jazz_thresholds(self):
        assert reconcile_release_year(None, 1895, frozenset({"jazz"})) is None
        assert reconcile_release_year(None, 1920, frozenset({"jazz"})) == 1920

    def test_classical_unconstrained_below(self):
        assert reconcile_release_year(None, 1750, frozenset({"classical"})) == 1750

    def test_after_2021_dropped(self):
        assert reconcile_release_year(2023, None, frozenset()) is None

    def test_both_missing(self):
        assert reconcile_release_year(None, None, frozenset()) is None


class TestEraBucket:
    def test_examples(self):
        assert era_bucket(1975) == "1950-1979"
        assert era_bucket(1899) == "pre-1900"
        assert era_bucket(2000) == "2000-plus"

    def test_total_partition(self):
        buckets = {era_bucket(y) for y in range(1600, 2022)}
        assert buckets == {
            "pre-1900", "1900-1949", "1950-1979", "1980-1999", "2000-plus"
        }
        for y in range(1600, 2022):
            assert isinstance(era_bucket(y), str)  # exactly one bucket per year

    def test_each_bucket_from_its_first_year_to_its_last(self):
        bounds = [(-10**6, 1899), (1900, 1949), (1950, 1979), (1980, 1999), (2000, 10**6)]
        for name, (first, last) in zip(ERA_BUCKETS, bounds, strict=True):
            assert era_bucket(first) == era_bucket(last) == name


def test_build_record_and_load_catalog(tmp_path):
    rec = build_record(
        artists="Dave Brubeck; Paul Desmond",
        genres=["cool jazz"],
        year_a=1997,
        year_b=1959,
    )
    assert rec["artist"] == "dave brubeck"
    assert rec["genres"] == ["jazz"]
    assert rec["release_year"] == 1959
    assert rec["era"] == "1950-1979"

    path = tmp_path / "catalog.tsv"
    path.write_text(
        "song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity\n"
        "s1\tTake Five\tDave Brubeck\tcool jazz|bebop\t1997\t1959\t70\n"
        "s2\tNo Dates\tSomeone\trock\t\t\t\n"
    )
    cat = load_catalog(path)
    assert cat["s1"]["release_year"] == 1959
    assert cat["s1"]["genres"] == ["jazz"]
    assert cat["s2"]["genres"] == ["rock"]
    assert cat["s2"]["release_year"] is None
    assert cat["s2"]["era"] is None


HEADER = "song_id\ttitle\tartists\tgenres\tyear_a\tyear_b\tpopularity\n"
GOOD_ROW = "s1\tTake Five\tDave Brubeck\tjazz\t1997\t1959\t70\n"


@pytest.mark.parametrize("bad_row, message", [
    ("s2\tShort\tSomeone\n", "line 3: 3 fields, the header has 7"),
    ("s2\tX\tSomeone\trock\t19x5\t\t\n", "line 3: year_a '19x5' is not an integer"),
    ("s2\tX\tSomeone\trock\t\t1975.0\t\n", "line 3: year_b '1975.0' is not an integer"),
    ("s2\tLong\tSomeone\trock\t\t\t\textra\n", "line 3: 8 fields, the header has 7"),
    (GOOD_ROW.replace("Take Five", "Again"), "line 3: song_id 's1' is already on line 2"),
    # int() reads both as 1990, but neither is plain digits
    ("s2\tX\tSomeone\trock\t1_990\t\t\n", "line 3: year_a '1_990' is not an integer"),
    ("s2\tX\tSomeone\trock\t\uff11\uff19\uff19\uff10\t\t\n",
     "line 3: year_a '\uff11\uff19\uff19\uff10' is not an integer"),
], ids=["short-row", "year_a", "year_b", "long-row", "duplicate-song-id", "underscored-year",
        "full-width-year"])
def test_malformed_row_names_file_and_line(tmp_path, bad_row, message):
    path = tmp_path / "catalog.tsv"
    path.write_text(HEADER + GOOD_ROW + bad_row + GOOD_ROW.replace("s1", "s3"), encoding="utf-8")
    with pytest.raises(BadCatalog) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}, {message}"


# csv.DictReader's fieldnames getter, read after the blank rows are
# skipped, resets its line_num, so the old loader named a row's own line too
@pytest.mark.parametrize("load", [load_catalog, catalog_reference], ids=["loader", "reference"])
@pytest.mark.parametrize("text, message", [
    (HEADER + "\n" + "s2\tLong\tSomeone\trock\t\t\t\textra\n", "line 3: 8 fields, the header has 7"),
    (HEADER + "\r\n" + GOOD_ROW + "\n\n" + GOOD_ROW, "line 6: song_id 's1' is already on line 3"),
], ids=["long-row", "duplicate-song-id"])
def test_a_line_number_counts_the_blank_lines_before_it(tmp_path, load, text, message):
    path = tmp_path / "catalog.tsv"
    path.write_text(text)
    with pytest.raises(BadCatalog) as exc:
        load(path)
    assert str(exc.value) == f"{path}, {message}"


def test_a_row_of_blank_fields_is_skipped_as_an_empty_line_is(tmp_path):
    path = tmp_path / "catalog.tsv"
    # one space (a row of one field), and a row of 7 empty fields
    path.write_text(HEADER + " \n" + "\t" * 6 + "\n" + GOOD_ROW + "\t \t\r\n" + GOOD_ROW)
    with pytest.raises(BadCatalog) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}, line 6: song_id 's1' is already on line 4"
    path.write_text(HEADER + " \n" + "\t" * 6 + "\n" + GOOD_ROW)
    assert list(load_catalog(path)) == ["s1"]


def test_popularity_column_is_not_read(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text(HEADER + GOOD_ROW + "s2\tX\tSomeone\trock\t\t\thigh\n")
    cat = load_catalog(path)
    assert cat["s2"] == {"genres": ["rock"], "release_year": None, "era": None, "artist": "someone"}


def test_catalog_without_song_id_column(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text(HEADER.replace("song_id", "id") + GOOD_ROW)
    with pytest.raises(BadCatalog, match="line 1: no song_id column"):
        load_catalog(path)


def test_a_byte_order_mark_and_crlf_lines_read_the_same(tmp_path):
    text = HEADER + GOOD_ROW + "s2\tX\tSimon & Garfunkel\trock|pop\t1990\t\t5\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    assert load_catalog(marked) == load_catalog(plain)


@pytest.mark.parametrize("header, name", [
    ("song_id\tgenres\tgenres", "genres"),  # csv.DictReader would read rock, the last
    ("song_id\tartists\tsong_id", "song_id"),
    ("year_b\tsong_id\tyear_a\tyear_b\tyear_a", "year_b"),  # the first name repeated
], ids=["genres", "song_id", "year_b-before-year_a"])
def test_a_read_column_named_twice_is_refused(tmp_path, header, name):
    path = tmp_path / "catalog.tsv"
    row = ["s1", "jazz", "rock", "", ""][:len(header.split("\t"))]
    path.write_text(header + "\n" + "\t".join(row) + "\n")
    with pytest.raises(BadCatalog) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}, line 1: column {name!r} is named twice"


def test_repeated_unread_column_names_are_accepted(tmp_path):
    path = tmp_path / "catalog.tsv"
    # trailing tabs name two empty columns
    path.write_text("song_id\ttitle\ttitle\tgenres\t\t\ns1\ta\tb\tjazz\t\t\ns2\ta\tb\n")
    with pytest.raises(BadCatalog) as exc:
        load_catalog(path)
    # the short row is counted by its fields, not by its distinct column names
    assert str(exc.value) == f"{path}, line 3: 3 fields, the header has 6"
    path.write_text("song_id\ttitle\ttitle\tgenres\t\t\ns1\ta\tb\tjazz\t\t\n")
    assert load_catalog(path) == {
        "s1": {"genres": ["jazz"], "release_year": None, "era": None, "artist": ""}}


def _field(rng: random.Random, value: str) -> str:
    """The value as a TSV field: quoted when it holds a tab, a line break
    or a quote, and now and then when it need not be."""
    if any(c in value for c in '\t\r\n"') or rng.random() < 0.05:
        return '"' + value.replace('"', '""') + '"'
    return value


# raw values of each read column: repeated artists and genre fields, years
# good and bad; no year here is one that int() reads but that is not plain
# digits with a sign, and no header names a read column twice or opens with
# a byte order mark, as the loader refuses those on purpose
FUZZ_VALUES = {
    "artists": ["Dave Brubeck; Paul Desmond", "Simon & Garfunkel", "Song (Live) feat. X", "",
                "  Miles Davis ", "Bach,\tGould", "Lennon\nMcCartney", 'The "Band"', "ft. Nobody"],
    "genres": ["cool jazz|bebop", "rock", "", "|pop|", "Hip Hop beats", "classical|Electronic",
               "folk", "indie rock\tpunk", "jazz\r\nfusion", "hiphop|rock|pop"],
    "year": ["", "", "", " ", "1990", " 1959 ", "+1975", "-12", "2023", "1895", "0001999", "1930",
             "1979", "1980", "2000"],
    "bad_year": ["19x5", "1975.0", "1e3", "abc", "- 5", "++1"],
    "other": ["t", "", "a\tb", '"q"', "x\ny", "70"],
}


def random_catalog(rng: random.Random) -> str:
    header = [name for name in ("song_id", "title", "artists", "genres", "year_a", "year_b",
                                "popularity") if rng.random() < 0.75]
    if "song_id" not in header and rng.random() < 0.9:
        header.append("song_id")
    rng.shuffle(header)
    if rng.random() < 0.1:
        header.append("")  # a trailing tab
    n_rows = rng.randrange(0, 13)
    lines = ["\t".join(header) + rng.choice(["\n", "\r\n"])]
    for _ in range(n_rows):
        while rng.random() < 0.1:
            # blank, or whitespace only (a row of one or two fields)
            lines.append(rng.choice(["\n", "\r\n"] * 3 + [" \n", "\t \r\n"]))
        row = []
        for name in header:
            if name == "song_id":
                song_id = f"s{rng.randrange(n_rows * 25 + 1)}"
                row.append(rng.choice([song_id, song_id, f" {song_id}\t"]))
            elif name in ("year_a", "year_b"):
                row.append(rng.choice(FUZZ_VALUES["bad_year" if rng.random() < 0.02 else "year"]))
            else:
                row.append(rng.choice(FUZZ_VALUES.get(name, FUZZ_VALUES["other"])))
        if rng.random() < 0.02:
            row = row[:rng.randrange(len(row))]  # short
        elif rng.random() < 0.02:
            row += FUZZ_VALUES["other"][:rng.randrange(1, 3)]  # long
        lines.append("\t".join(_field(rng, v) for v in row) + rng.choice(["\n", "\r\n"]))
    if rng.random() < 0.2:
        lines[-1] = lines[-1].rstrip("\r\n")  # no line break at the end
    return "".join(lines)


def blank_rows_emptied(text: str) -> str:
    """The text with the lines of each row after the header whose fields
    are all blank after stripping made empty, line breaks kept: the old
    loader then skips the rows that the loader skips, and every other
    row keeps its line number."""
    lines = io.StringIO(text, newline="").readlines()
    rows = csv.reader(lines, delimiter="\t")
    next(rows, None)
    first = rows.line_num  # the row's first line, 0-based
    for row in rows:
        if not "".join(row).strip():
            for i in range(first, rows.line_num):
                lines[i] = lines[i][len(lines[i].rstrip("\r\n")):]
        first = rows.line_num
    return "".join(lines)


def test_loader_matches_the_dictreader_reference_on_random_catalogs(tmp_path):
    def outcome(load, path):
        try:
            return list(load(path).items())
        except BadCatalog as exc:
            return str(exc)

    rng = random.Random(30)
    loaded = refused = after_blank = 0
    for i in range(2000):
        path = tmp_path / f"catalog{i}.tsv"
        text = random_catalog(rng)
        # the old loader reads a row of blank fields as a row; the loader
        # skips it as it skips an empty line
        path.write_text(blank_rows_emptied(text), encoding="utf-8", newline="")
        expected = outcome(catalog_reference, path)
        path.write_text(text, encoding="utf-8", newline="")
        got = outcome(load_catalog, path)
        assert got == expected, text
        if isinstance(got, list):
            loaded += 1
            # every row has a genres list of its own
            assert len({id(rec["genres"]) for _, rec in got}) == len(got)
        else:
            refused += 1
            line = int(got.removeprefix(f"{path}, line ").split(":")[0])
            after_blank += line > 2 and text.splitlines()[line - 2] == ""
    # refused rows that blank lines come before are compared too
    assert loaded >= 500 and refused >= 500 and after_blank >= 20
