import re
import string

import pytest
from hypothesis import example, given, strategies as st

from conftest import SOCIAL_POSTS
from sentiga import textnorm
from sentiga.corpus import LabelMap, load_raw
from sentiga.datasets import reference_corpus_path
from sentiga.errors import DataError
from sentiga.textnorm import (
    check_tables,
    clean_text,
    count_hashtags,
    default_leet,
    default_slang,
    load_leet,
    load_slang,
    post_cleaner,
    read_pairs_file,
)

ALPHABET = set(string.ascii_lowercase + " ")


def reference_clean_text(raw, slang, leet):
    """The cleaner as a plain loop: every token runs every stage."""
    leet_table = str.maketrans(leet)
    tokens = []
    for token in raw.lower().split():
        if token.startswith(("http://", "https://", "www.")):
            continue
        if token.startswith("@"):
            continue
        if re.search(r"[a-z]", token):
            token = token.translate(leet_table)
        expansion = slang.get(re.sub(r"[^a-z]", "", token))
        if expansion is not None:
            tokens.extend(expansion.split())
        else:
            tokens.append(token)
    stripped = re.sub(r"[^a-z ]", "", " ".join(tokens))
    return " ".join(stripped.split())


class TestCleanText:
    def test_six_stage_example(self):
        assert clean_text("Cek http://t.co/x @user GAK seru bgt!!!") == "cek tidak seru banget"

    def test_already_clean_identity(self):
        assert clean_text("halo dunia") == "halo dunia"

    def test_leet_normalization(self):
        assert clean_text("k3r3n") == "keren"

    def test_leet_runs_before_slang(self):
        assert clean_text("g4k") == "tidak"

    def test_pure_numbers_are_stripped_not_leeted(self):
        assert clean_text("1307 senang") == "senang"

    def test_url_variants_removed(self):
        assert clean_text("a http://x.co b") == "a b"
        assert clean_text("a https://x.co/y b") == "a b"
        assert clean_text("a www.x.co b") == "a b"

    def test_mention_removed_without_merging(self):
        assert clean_text("foo @someone bar") == "foo bar"

    def test_slang_matches_through_punctuation(self):
        assert clean_text("seru bgt!!!") == "seru banget"

    def test_multi_token_expansion(self):
        assert clean_text("thx semua") == "terima kasih semua"

    def test_empty_and_degenerate_inputs(self):
        assert clean_text("") == ""
        assert clean_text("   ") == ""
        assert clean_text("@a @b http://c 123 !!!") == ""

    def test_hashtag_word_survives(self):
        assert clean_text("#senang banget") == "senang banget"

    @given(st.text(max_size=200))
    def test_output_alphabet_and_spacing(self, raw):
        out = clean_text(raw)
        assert set(out) <= ALPHABET
        assert "  " not in out
        assert out == out.strip()

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    )
    def test_url_removal_never_merges_words(self, left, right):
        with_url = clean_text(f"{left} http://t.co/xyz {right}")
        without = clean_text(f"{left} {right}")
        assert with_url == without


class TestReferenceCleaner:
    """clean_text skips stages that cannot change a plain ASCII word; its
    output must equal the every-stage loop exactly."""

    @given(st.text(max_size=200))
    def test_equals_reference_on_any_text(self, raw):
        assert clean_text(raw) == reference_clean_text(raw, default_slang(), default_leet())

    @given(SOCIAL_POSTS)
    @example("gakß ébgt g4k!! k3rén @gak www.bgt 2bgt")
    def test_equals_reference_on_social_media_tokens(self, raw):
        assert clean_text(raw) == reference_clean_text(raw, default_slang(), default_leet())

    def test_equals_reference_on_every_reference_row(self):
        slang, leet = default_slang(), default_leet()
        for record in load_raw(reference_corpus_path()):
            assert clean_text(record.text, slang, leet) == reference_clean_text(
                record.text, slang, leet
            )


class TestCountHashtags:
    def test_direct_count(self):
        assert count_hashtags("#senang #banget hari ini") == 2

    def test_absence(self):
        assert count_hashtags("no tags here") == 0

    def test_token_rule(self):
        # "##x" and "#1" qualify; a bare "#" does not
        assert count_hashtags("##x #1 # ") == 2

    def test_mid_word_hash_not_counted(self):
        assert count_hashtags("a#b") == 0

    @given(st.one_of(SOCIAL_POSTS, st.text(alphabet="#!ab1 \t\n", max_size=30)))
    @example("a#b")
    @example("#")
    @example("#!!")
    @example("no hash in this post")
    @example("")
    def test_equals_the_token_by_token_count(self, raw):
        # the post with no "#" returns at once; the count must not change
        assert count_hashtags(raw) == sum(
            token.startswith("#") and any(ch.isalnum() for ch in token) for token in raw.split()
        )


class TestPostCleaner:
    """The token memo behind prepare_corpus and bundle.predict starts over
    once it is full; what it returns never depends on what it holds."""

    @given(posts=st.lists(SOCIAL_POSTS, max_size=8))
    def test_bounded_memo_gives_the_cleaner_and_counts(self, posts):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textnorm, "_MEMO_LIMIT", 4)
            clean = post_cleaner()
            for post in posts + posts[::-1]:
                text = clean_text(post)
                assert clean(post) == (text, len(text.split()), count_hashtags(post))
                assert len(clean.__self__) <= 4

    def test_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(textnorm, "_MEMO_LIMIT", 4)
        clean = post_cleaner()
        assert clean("satu dua tiga empat") == ("satu dua tiga empat", 4, 0)
        assert clean("lima #enam") == ("lima enam", 2, 1)
        assert sorted(clean.__self__) == ["#enam", "lima"]


class TestAssets:
    def test_defaults_include_documented_rows(self):
        slang = default_slang()
        assert slang["gak"] == "tidak"
        assert slang["bgt"] == "banget"
        leet = default_leet()
        assert leet == {"0": "o", "1": "i", "3": "e", "4": "a", "5": "s", "7": "t"}

    def test_slang_values_are_not_keys(self):
        # keeps the cleaner a fixed point: expansions never re-expand
        slang = default_slang()
        value_tokens = {tok for value in slang.values() for tok in value.split()}
        assert not value_tokens & set(slang)

    def test_pairs_file_parsing(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("# comment\nfoo,bar\n\nbaz, qux \n", encoding="utf-8")
        assert read_pairs_file(path) == {"foo": "bar", "baz": "qux"}

    def test_pairs_file_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no-separator-here\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_pairs_file(path)

    @pytest.mark.parametrize(
        "load, lines, key",
        [
            (read_pairs_file, "foo,bar\nfoo,baz\n", "foo"),
            (load_slang, "gak,tidak\nGAK,enggak\n", "gak"),
            (load_leet, "4,a\n3,e\n4,h\n", "4"),
            (LabelMap.from_file, "Joy,positive\njoy,negative\n", "joy"),
        ],
        ids=["pairs", "slang", "leet", "label-map"],
    )
    def test_key_repeated_after_folding_is_refused(self, tmp_path, load, lines, key):
        path = tmp_path / "pairs.txt"
        path.write_text(lines, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load(path)
        assert str(path) in str(exc.value) and repr(key) in str(exc.value)

    def test_keys_distinct_only_before_folding_are_kept_by_the_plain_reader(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("gak,tidak\nGAK,enggak\n", encoding="utf-8")
        assert read_pairs_file(path) == {"gak": "tidak", "GAK": "enggak"}

    def test_load_slang_rejects_multiword_keys(self, tmp_path):
        path = tmp_path / "slang.txt"
        path.write_text("two words,x\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_slang(path)

    def test_load_leet_validates_entries(self, tmp_path):
        path = tmp_path / "leet.txt"
        path.write_text("33,e\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_leet(path)

    @pytest.mark.parametrize(
        "slang, leet",
        [
            ({"two words": "x"}, {}),
            ({"tab\tkey": "x"}, {}),
            ({"gk": 5}, {}),
            ({"gk": " "}, {}),
            ({}, {"10": "i"}),
            ({}, {"a": "e"}),
            ({}, {"4": "ab"}),
            ({}, {"4": 4}),
        ],
    )
    def test_check_tables_rejects(self, slang, leet):
        with pytest.raises(DataError):
            check_tables(slang, leet)

    def test_check_tables_accepts_the_defaults(self):
        check_tables(default_slang(), default_leet())
