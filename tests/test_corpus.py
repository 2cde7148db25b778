import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_raw_csv
from sentiga.corpus import (
    DEFAULT_SCHEMA,
    CleanRecord,
    LabelMap,
    RawRecord,
    SentimentClass,
    _parse_count,
    class_counts,
    clean_record,
    deduplicate,
    default_label_map,
    load_raw,
    prepare_corpus,
)
from sentiga.datasets import reference_corpus_path
from sentiga.errors import DataError
from sentiga.textnorm import default_leet, load_slang


class TestLoadRaw:
    def test_header_only_gives_empty_list(self, tmp_path):
        path = write_raw_csv(tmp_path / "empty.csv", [])
        assert load_raw(path) == []

    def test_basic_row(self, tmp_path):
        path = write_raw_csv(tmp_path / "one.csv", [("halo #x", "Joy", "2", "3", "#x")])
        records = load_raw(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.text == "halo #x"
        assert rec.raw_label == "Joy"
        assert (rec.retweets, rec.likes) == (2, 3)

    def test_empty_text_rows_are_retained(self, tmp_path):
        path = write_raw_csv(tmp_path / "e.csv", [("", "Joy", "0", "0", "")])
        assert len(load_raw(path)) == 1

    def test_missing_column_names_the_column(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "bad.csv", [("a", "1", "2")], header=("Text", "Retweets", "Likes")
        )
        with pytest.raises(DataError, match="required column not found: 'sentiment'"):
            load_raw(path)

    def test_case_insensitive_header_binding(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "caps.csv",
            [("halo", "Joy", "1", "1", "")],
            header=("TEXT", "SENTIMENT", "RETWEETS", "LIKES", "HASHTAGS"),
        )
        assert load_raw(path)[0].raw_label == "Joy"

    def test_missing_numeric_cell_parses_as_zero(self, tmp_path):
        path = write_raw_csv(tmp_path / "m.csv", [("halo", "Joy", "", "", "")])
        rec = load_raw(path)[0]
        assert (rec.retweets, rec.likes) == (0, 0)

    def test_float_styled_counts_parse(self, tmp_path):
        path = write_raw_csv(tmp_path / "f.csv", [("halo", "Joy", "20.0", "5.0", "")])
        rec = load_raw(path)[0]
        assert (rec.retweets, rec.likes) == (20, 5)

    def test_integer_count_beyond_two_to_the_53_parses_exactly(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "big.csv", [("halo", "Joy", "12345678901234567890", "1e3", "")]
        )
        rec = load_raw(path)[0]
        assert (rec.retweets, rec.likes) == (12345678901234567890, 1000)

    @pytest.mark.parametrize(
        "cell, count",
        [
            ("+12345678901234567890", 12345678901234567890),
            ("12345678901234567890.0", 12345678901234567890),
            ("12345678901234567890.9", 12345678901234567890),
            ("3.0", 3),
            ("3.7", 3),
            ("1e3", 1000),
        ],
    )
    def test_count_cell_parses_to_its_integer_part(self, cell, count):
        assert _parse_count(cell, 2, "likes", False) == count

    @pytest.mark.parametrize("cell", ["-1", "inf", "1e400"])
    def test_count_cell_out_of_range_is_a_row_error(self, cell):
        with pytest.raises(DataError, match="row 2: cannot parse"):
            _parse_count(cell, 2, "likes", False)
        assert _parse_count(cell, 2, "likes", True) == 0

    def test_unparseable_cell_strict_vs_lenient(self, tmp_path):
        path = write_raw_csv(tmp_path / "bad.csv", [("halo", "Joy", "abc", "1", "")])
        with pytest.raises(DataError, match="row 2: cannot parse"):
            load_raw(path)
        assert load_raw(path, lenient=True)[0].retweets == 0

    def test_empty_label_is_rejected(self, tmp_path):
        path = write_raw_csv(tmp_path / "nolabel.csv", [("halo", "  ", "1", "1", "")])
        with pytest.raises(DataError, match="row 2: empty sentiment label"):
            load_raw(path)

    def test_unknown_columns_ignored(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "extra.csv",
            [("halo", "Joy", "1", "1", "", "junk")],
            header=("Text", "Sentiment", "Retweets", "Likes", "Hashtags", "Extra"),
        )
        assert len(load_raw(path)) == 1

    def test_four_column_csv_loads_the_same_records(self, tmp_path):
        rows = [("halo #x", "Joy", "2", "3"), ("sedih", "Sad", "", "1")]
        four = write_raw_csv(tmp_path / "four.csv", rows, header=_PRIMARY)
        five = write_raw_csv(tmp_path / "five.csv", [row + ("#x",) for row in rows])
        assert load_raw(four) == load_raw(five)

    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        path = write_raw_csv(tmp_path / "short.csv", [("halo", "Joy", "4")])
        assert load_raw(path) == [RawRecord("halo", "Joy", 4, 0)]

    @pytest.mark.parametrize(
        "header",
        [
            ("Text", "Sentiment", "Retweets", "Likes", "Text"),
            ("Text", "Sentiment", "Retweets", "Likes", "Hashtags", " TEXT "),
            ("Text", "Sentiment", "Retweets", "Likes", "likes"),
        ],
    )
    def test_repeated_bound_header_is_refused(self, tmp_path, header):
        repeated = header[-1].strip().lower()
        path = write_raw_csv(tmp_path / "dup.csv", [("halo", "Joy", "1", "1", "")], header=header)
        with pytest.raises(DataError, match=f"header repeats '{repeated}'"):
            load_raw(path)

    def test_repeated_unbound_header_is_ignored(self, tmp_path):
        header = _PRIMARY + ("Extra", "extra", "Hashtags", "Hashtags")
        path = write_raw_csv(tmp_path / "x.csv", [("halo", "Joy", "1", "2", "", "", "", "")],
                             header=header)
        assert load_raw(path) == [RawRecord("halo", "Joy", 1, 2)]

    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + reference_corpus_path().read_bytes())
        assert prepare_corpus(load_raw(path)) == prepare_corpus(load_raw(reference_corpus_path()))


_PRIMARY = ("Text", "Sentiment", "Retweets", "Likes")
# the RawRecord field each schema column is read into
_FIELD = {"text": "text", "sentiment": "raw_label", "retweets": "retweets", "likes": "likes"}
_CELL = {"text": "halo", "sentiment": "Joy", "retweets": "7", "likes": "9"}


def _bound_value(tmp_path, header, row, column):
    """The value that `column` reads from a one-row CSV."""
    record = load_raw(write_raw_csv(tmp_path / "one.csv", [row], header=header))[0]
    value = getattr(record, _FIELD[column])
    return str(value) if column in ("retweets", "likes") else value


class TestHeaderAliases:
    """Each logical column binds any of its aliases, in any case and with
    surrounding spaces; when several aliases are present, the first in
    `DEFAULT_SCHEMA` wins."""

    @pytest.mark.parametrize(
        "column, alias",
        [(column, alias) for column, aliases in DEFAULT_SCHEMA.items() for alias in aliases],
    )
    @pytest.mark.parametrize("spell", [str.lower, str.upper, str.title, lambda s: f"  {s}\t"])
    def test_alias_binds_its_column(self, tmp_path, column, alias, spell):
        columns = list(DEFAULT_SCHEMA)
        header = [spell(alias) if c == column else name for c, name in zip(columns, _PRIMARY)]
        row = [_CELL[c] for c in columns]
        assert _bound_value(tmp_path, header, row, column) == _CELL[column]

    @pytest.mark.parametrize(
        "column, first, later",
        [
            (column, aliases[i], aliases[j])
            for column, aliases in DEFAULT_SCHEMA.items()
            for i in range(len(aliases))
            for j in range(i + 1, len(aliases))
        ],
    )
    def test_first_alias_wins(self, tmp_path, column, first, later):
        others = [name for c, name in zip(DEFAULT_SCHEMA, _PRIMARY) if c != column]
        header = [later.upper(), *others, first]  # the later alias comes first in the file
        cells = {"text": ("kalah", "menang"), "sentiment": ("Sad", "Joy"),
                 "retweets": ("1", "2"), "likes": ("3", "4")}
        lose, win = cells[column]
        row = [lose] + [_CELL[c] for c in DEFAULT_SCHEMA if c != column] + [win]
        assert _bound_value(tmp_path, header, row, column) == win


def _raw(raw_label, text="senang sekali"):
    return RawRecord(text=text, raw_label=raw_label, retweets=0, likes=0)


class TestLabelMap:
    def test_table_rows(self):
        label_map = default_label_map()
        assert label_map.lookup("Joy") is SentimentClass.POSITIVE
        assert label_map.lookup("Curiosity") is SentimentClass.NEUTRAL
        assert label_map.lookup("Sad") is SentimentClass.NEGATIVE

    def test_case_and_whitespace_insensitive(self):
        label_map = default_label_map()
        assert label_map.lookup("  ANGER ") is SentimentClass.NEGATIVE
        for raw in ("Joy", "joy", " JOY  "):
            assert label_map.lookup(raw) is SentimentClass.POSITIVE
            [record] = prepare_corpus([_raw(raw)], label_map)
            assert record.label is SentimentClass.POSITIVE

    def test_unmapped_label_raises_unless_dropped(self):
        label_map = LabelMap(entries={"joy": SentimentClass.POSITIVE})
        assert label_map.lookup("zzz") is None
        with pytest.raises(DataError, match="unmapped raw label: 'zzz'"):
            prepare_corpus([_raw("zzz")], label_map)
        with pytest.raises(DataError, match="unmapped raw label: 'zzz'"):
            clean_record(_raw("zzz"), label_map)
        assert prepare_corpus([_raw("zzz")], label_map, drop_unmapped=True) == []

    def test_empty_text_is_dropped_before_its_label_is_looked_up(self):
        label_map = LabelMap(entries={"joy": SentimentClass.POSITIVE})
        assert prepare_corpus([_raw("zzz", text="http://t.co/x")], label_map) == []

    def test_drop_unmapped_is_keyword_only(self):
        with pytest.raises(TypeError):
            prepare_corpus([], default_label_map(), None, None, True)

    def test_bundled_map_has_191_entries(self):
        label_map = default_label_map()
        assert len(label_map.entries) == 191

    def test_digest_is_layout_independent(self):
        a = LabelMap(entries={"a": SentimentClass.POSITIVE, "b": SentimentClass.NEGATIVE})
        b = LabelMap(entries={"b": SentimentClass.NEGATIVE, "a": SentimentClass.POSITIVE})
        assert a.digest() == b.digest()

    def test_maps_with_the_same_entries_are_equal(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("Joy,positive\nsad,negative\n", encoding="utf-8")
        from_file = LabelMap.from_file(path)
        built = LabelMap(entries={"sad": SentimentClass.NEGATIVE, "joy": SentimentClass.POSITIVE})
        assert from_file == built
        assert from_file.digest() == built.digest()
        assert [f.name for f in fields(LabelMap)] == ["entries"]

    @pytest.mark.parametrize("key", ["Joy", " joy", "joy\t", "JOY"])
    def test_key_that_can_never_match_is_refused(self, key):
        with pytest.raises(DataError, match=re.escape(f"label map key {key!r} is not normalized")):
            LabelMap(entries={key: SentimentClass.POSITIVE})


def _rec(text, label=SentimentClass.POSITIVE):
    return CleanRecord(
        clean_text=text,
        label=label,
        word_count=len(text.split()),
        engagement=0,
        hashtag_count=0,
    )


class TestDeduplicate:
    def test_exact_duplicate_collapses(self):
        records = [_rec("halo dunia"), _rec("halo dunia")]
        assert len(deduplicate(records)) == 1

    def test_all_unique_is_identity(self):
        records = [_rec("a"), _rec("b"), _rec("c")]
        assert deduplicate(records) == records

    def test_first_occurrence_kept_order_preserved(self):
        records = [_rec("a"), _rec("b"), _rec("a", SentimentClass.NEGATIVE), _rec("c")]
        kept = deduplicate(records)
        assert [r.clean_text for r in kept] == ["a", "b", "c"]
        assert kept[0].label is SentimentClass.POSITIVE

    def test_never_grows_and_idempotent(self):
        records = [_rec(t) for t in ["a", "b", "a", "c", "b", "a"]]
        once = deduplicate(records)
        assert len(once) <= len(records)
        assert deduplicate(once) == once


class TestCleanRecord:
    def test_fields_follow_the_pipeline(self):
        from sentiga.corpus import RawRecord

        raw = RawRecord(
            text="Senang BGT #liburan http://t.co/x", raw_label="Joy", retweets=2, likes=3
        )
        rec = clean_record(raw, default_label_map())
        assert rec.clean_text == "senang banget liburan"
        assert rec.word_count == 3
        assert rec.engagement == 5
        assert rec.hashtag_count == 1

    def test_empty_cleaning_drops_record(self):
        from sentiga.corpus import RawRecord

        raw = RawRecord(text="http://t.co/x", raw_label="Joy", retweets=0, likes=0)
        assert clean_record(raw, default_label_map()) is None


class _ReadLog:
    """A raw record that logs the name of each attribute read from it."""

    def __init__(self, record, names):
        self._record, self._names = record, names

    def __getattr__(self, name):
        self._names.add(name)
        return getattr(self._record, name)


def test_every_raw_record_field_is_read():
    """A RawRecord field that preparation never reads is a column loaded
    for nothing."""
    names = set()
    raws = [_ReadLog(raw, names) for raw in load_raw(reference_corpus_path())[:20]]
    prepare_corpus(raws)
    for raw in raws:
        clean_record(raw, default_label_map())
    assert names == {f.name for f in fields(RawRecord)}


class TestReferenceFixture:
    def test_raw_shape(self):
        records = load_raw(reference_corpus_path())
        assert len(records) == 732
        labels = {r.raw_label.strip().lower() for r in records}
        assert len(labels) == 191

    def test_pipeline_reduction_and_class_counts(self):
        records = prepare_corpus(load_raw(reference_corpus_path()))
        assert len(records) == 707
        counts = class_counts(records)
        assert counts[int(SentimentClass.POSITIVE)] == 459
        assert counts[int(SentimentClass.NEGATIVE)] == 188
        assert counts[int(SentimentClass.NEUTRAL)] == 60


# Raw posts built from pieces that reach every stage of the cleaner, and the
# Unicode case mappings and whitespace where lowercasing a whole post could
# differ from lowercasing each token: final sigma, dotted capital I, sharp s,
# a case-ignorable combining mark, and whitespace that str.split splits on
# (\x1c, \xa0) or does not (U+180E).
_SLANG_TEXT = "gk,tidak sama-sekali\nbgt,banget!! pol\nmantul,mantap betul .\nsja,saja\n"
_PIECES = st.one_of(
    st.sampled_from(["http://", "https://t.co/", "www.", "@", "@ΑΣ", "#", "##", "#1"]),
    st.sampled_from(["gk", "GK", "bgt", "Bgt!!", "mantul", "g4k", "sja", "s4ja", "k3r3n", "1307"]),
    st.sampled_from(["Σ", "ΑΣ", "ΣΑ", "İ", "ß", "STRASSE", "\u0345", "é", "ﬁ"]),
    st.sampled_from([" ", "  ", "\t", "\x1c", "\xa0", "\u180e", "\n"]),
    st.text(alphabet="aAbkSt0134579!.,#@Σͅ ", max_size=5),
)
_POST_TEXT = st.lists(_PIECES, max_size=14).map("".join)


class TestPrepareCorpusTokenMemo:
    """prepare_corpus cleans each distinct raw token once; its records must
    equal cleaning every record on its own."""

    @pytest.fixture(scope="class")
    def slang(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("slang") / "slang.txt"
        path.write_text(_SLANG_TEXT, encoding="utf-8")
        return load_slang(path)

    @settings(max_examples=300)
    @given(texts=st.lists(_POST_TEXT, max_size=8), data=st.data())
    def test_equals_deduplicated_per_record_cleaning(self, slang, texts, data):
        raws = [
            RawRecord(text=text, raw_label=data.draw(st.sampled_from(["Joy", "sad", " Anger "])),
                      retweets=data.draw(st.integers(0, 3)), likes=data.draw(st.integers(0, 3)))
            for text in texts
        ]
        raws += raws[::-1]  # every token seen again, through the memo
        label_map = default_label_map()
        for tables in ((slang, default_leet()), (None, None)):
            expected = deduplicate(
                [r for r in (clean_record(raw, label_map, *tables) for raw in raws) if r]
            )
            assert prepare_corpus(raws, label_map, *tables) == expected

    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["halo", "", "@x", "bgt #y"]),
                      st.sampled_from(["Joy", "NotAnEmotion"]),
                      st.sampled_from([0, 1, 10**400])),
            max_size=6,
        )
    )
    def test_first_error_is_the_per_record_one(self, rows):
        raws = [RawRecord(text=t, raw_label=label, retweets=n, likes=n) for t, label, n in rows]
        label_map = default_label_map()

        def outcome(prepare):
            try:
                return prepare()
            except DataError as exc:
                return str(exc)

        expected = outcome(lambda: deduplicate(
            [r for r in (clean_record(raw, label_map) for raw in raws) if r]
        ))
        assert outcome(lambda: prepare_corpus(raws, label_map)) == expected


class TestPrepareCorpusDropUnmapped:
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["halo", "", "@x", "bgt #y"]),
                      st.sampled_from(["Joy", " SAD ", "NotAnEmotion", "zzz"])),
            max_size=8,
        )
    )
    def test_equals_preparing_only_the_mapped_records(self, rows):
        raws = [_raw(label, text=text) for text, label in rows]
        label_map = default_label_map()
        mapped = [raw for raw in raws if label_map.lookup(raw.raw_label) is not None]
        assert prepare_corpus(raws, label_map, drop_unmapped=True) == prepare_corpus(
            mapped, label_map
        )
