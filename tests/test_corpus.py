import pytest

from conftest import write_raw_csv
from sentiga.corpus import (
    CleanRecord,
    LabelMap,
    SentimentClass,
    _parse_count,
    class_counts,
    clean_record,
    deduplicate,
    default_label_map,
    load_raw,
    map_label,
    prepare_corpus,
)
from sentiga.datasets import reference_corpus_path
from sentiga.errors import RowParseError, SchemaError, UnmappedLabelError


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
        assert rec.hashtags_field == "#x"

    def test_empty_text_rows_are_retained(self, tmp_path):
        path = write_raw_csv(tmp_path / "e.csv", [("", "Joy", "0", "0", "")])
        assert len(load_raw(path)) == 1

    def test_missing_column_names_the_column(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "bad.csv", [("a", "1", "2")], header=("Text", "Retweets", "Likes")
        )
        with pytest.raises(SchemaError, match="sentiment"):
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
        with pytest.raises(RowParseError, match="row 2"):
            _parse_count(cell, 2, "likes", False)
        assert _parse_count(cell, 2, "likes", True) == 0

    def test_unparseable_cell_strict_vs_lenient(self, tmp_path):
        path = write_raw_csv(tmp_path / "bad.csv", [("halo", "Joy", "abc", "1", "")])
        with pytest.raises(RowParseError, match="row 2"):
            load_raw(path)
        assert load_raw(path, lenient=True)[0].retweets == 0

    def test_empty_label_is_rejected(self, tmp_path):
        path = write_raw_csv(tmp_path / "nolabel.csv", [("halo", "  ", "1", "1", "")])
        with pytest.raises(RowParseError):
            load_raw(path)

    def test_unknown_columns_ignored(self, tmp_path):
        path = write_raw_csv(
            tmp_path / "extra.csv",
            [("halo", "Joy", "1", "1", "", "junk")],
            header=("Text", "Sentiment", "Retweets", "Likes", "Hashtags", "Extra"),
        )
        assert len(load_raw(path)) == 1


class TestLabelMap:
    def test_table_rows(self):
        label_map = default_label_map()
        assert map_label("Joy", label_map) is SentimentClass.POSITIVE
        assert map_label("Curiosity", label_map) is SentimentClass.NEUTRAL
        assert map_label("Sad", label_map) is SentimentClass.NEGATIVE

    def test_case_and_whitespace_insensitive(self):
        label_map = default_label_map()
        assert map_label("  ANGER ", label_map) is SentimentClass.NEGATIVE
        for raw in ("Joy", "joy", " JOY  "):
            assert map_label(raw, label_map) is SentimentClass.POSITIVE

    def test_unmapped_policies(self):
        strict = LabelMap(entries={"joy": SentimentClass.POSITIVE})
        with pytest.raises(UnmappedLabelError, match="zzz"):
            map_label("zzz", strict)
        dropping = LabelMap(entries={"joy": SentimentClass.POSITIVE}, unmapped_policy="drop")
        assert map_label("zzz", dropping) is None

    def test_bundled_map_has_191_entries(self):
        label_map = default_label_map()
        assert len(label_map.entries) == 191

    def test_digest_is_layout_independent(self):
        a = LabelMap(entries={"a": SentimentClass.POSITIVE, "b": SentimentClass.NEGATIVE})
        b = LabelMap(entries={"b": SentimentClass.NEGATIVE, "a": SentimentClass.POSITIVE})
        assert a.digest() == b.digest()


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
