import csv
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

# On a failing @given test, hypothesis imports its patching module, whose
# libcst import raises a DeprecationWarning; under pyproject's
# error::DeprecationWarning filter that would end the run in an
# INTERNALERROR instead of printing the falsifying example. Import it here,
# once, with that warning ignored. It is absent when libcst is.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

from sentiga.corpus import CleanRecord, SentimentClass
from sentiga.textnorm import default_slang


# Token pieces that reach every stage of the cleaner. Half of all tokens
# are slang keys with a non-ASCII letter, leet digit or punctuation
# attached; the rest glue one to three pieces together.
_NON_ASCII = ["é", "ß", "İ", "ﬁ", "café", "straße", "İstanbul", "naïve", "k3rén"]
_SLANG_TOKEN = st.tuples(
    st.sampled_from(["", "é", "ß", "İ", "@", "4"]),
    st.sampled_from(sorted(default_slang())),
    st.sampled_from(["", "!", "!!!", ".", ",", "7", "é", "ß", "İ"]),
).map("".join)
_PIECES = st.one_of(
    st.sampled_from(["http://", "https://", "www.", "@"]),
    st.from_regex(r"[a-z]{0,3}[0-9][a-z0-9]{0,3}", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.from_regex(r"[A-Za-z]{1,6}", fullmatch=True),
    st.sampled_from(_NON_ASCII + list("!?.,#:;'\"()-_/")),
    _SLANG_TOKEN,
)
SOCIAL_POSTS = st.lists(
    st.one_of(_SLANG_TOKEN, st.lists(_PIECES, min_size=1, max_size=3).map("".join)),
    max_size=12,
).map(" ".join)


def make_separable_xy(seed=1, per_class=10, scale=3.0, noise=0.1):
    """Three well-separated point clouds around one-hot prototypes."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [scale * np.eye(3)[c] + rng.normal(scale=noise, size=(per_class, 3)) for c in range(3)]
    )
    y = np.repeat([0, 1, 2], per_class)
    return X, y


def spell_index(i):
    """Digits of i as letters, so markers survive text cleaning unchanged."""
    return "".join(chr(ord("a") + int(d)) for d in str(i))


def make_clean_records(n_per_class=(8, 8, 8), seed=0):
    """Tiny prepared corpus with class-correlated words."""
    rng = np.random.default_rng(seed)
    pools = {
        SentimentClass.NEGATIVE: ["sedih", "kecewa", "buruk", "marah", "gagal"],
        SentimentClass.NEUTRAL: ["biasa", "info", "jadwal", "tanya", "cek"],
        SentimentClass.POSITIVE: ["senang", "bagus", "keren", "suka", "puas"],
    }
    filler = ["hari", "ini", "itu", "kita", "yang", "juga"]
    records = []
    for cls, n in zip(SentimentClass, n_per_class):
        for i in range(n):
            words = list(rng.choice(pools[cls], size=3, replace=False))
            words += list(rng.choice(filler, size=2, replace=False))
            words.append(f"x{cls.label[:3]}{spell_index(i)}")  # uniqueness marker
            text = " ".join(words)
            records.append(
                CleanRecord(
                    clean_text=text,
                    label=cls,
                    word_count=len(text.split()),
                    engagement=int(rng.integers(0, 50)),
                    hashtag_count=int(rng.integers(0, 3)),
                )
            )
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def edit_bundle_payload(path, edit):
    """Apply edit(payload dict) to a saved bundle and rewrite its checksum,
    so the result passes the integrity check but carries the edit."""
    magic, _, payload = path.read_text(encoding="utf-8").split("\n", 2)
    data = json.loads(payload)
    edit(data)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path.write_text(f"{magic}\nsha256:{digest}\n{payload}\n", encoding="utf-8")
    return path


def write_raw_csv(path, rows, header=("Text", "Sentiment", "Retweets", "Likes", "Hashtags")):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture
def small_raw_csv(tmp_path):
    """~60-row raw CSV with enough per-class volume for end-to-end runs."""
    rng = np.random.default_rng(3)
    pools = {
        "Joy": ["senang bagus keren", "suka puas senang", "bagus keren mantap"],
        "Sad": ["sedih kecewa buruk", "marah gagal sedih", "buruk kecewa susah"],
        "Neutral": ["biasa info jadwal", "tanya cek jadwal", "info biasa berita"],
    }
    rows = []
    i = 0
    for label, texts in pools.items():
        for _ in range(20):
            base = texts[i % len(texts)]
            text = f"{base} nomor u{spell_index(i)}"
            rows.append((text, label, str(rng.integers(0, 30)), str(rng.integers(0, 60)), ""))
            i += 1
    return write_raw_csv(tmp_path / "small.csv", rows)


@pytest.fixture
def clean_records():
    return make_clean_records()
