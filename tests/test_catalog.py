import random

import pytest

from notegraph.errors import BadCatalog
from notegraph.catalog import (
    build_record,
    clean_name,
    era_bucket,
    first_artist,
    load_catalog,
    macro_genres,
    reconcile_release_year,
)


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
], ids=["short-row", "year_a", "year_b", "long-row", "duplicate-song-id"])
def test_malformed_row_names_file_and_line(tmp_path, bad_row, message):
    path = tmp_path / "catalog.tsv"
    path.write_text(HEADER + GOOD_ROW + bad_row + GOOD_ROW.replace("s1", "s3"))
    with pytest.raises(BadCatalog) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}, {message}"


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
