"""Bundled synthetic reference corpus.

The generator produces a raw CSV shaped like a real social-media export:
732 rows that reduce to 707 records after cleaning and deduplication, with
class counts 459 positive / 188 negative / 60 neutral and all 191 raw
emotion labels of the bundled map represented. Post text mixes
class-correlated Indonesian vocabulary with the noise the cleaner is built
for: URLs, mentions, hashtags, leetspeak, slang, stray punctuation and
casing. Generation is fully deterministic for a given seed; the checked-in
asset was produced with the default seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import SentimentClass, default_label_map
from .textnorm import _asset_path

POSITIVE_WORDS = (
    "senang bahagia bagus keren mantap hebat suka cinta indah puas sukses "
    "semangat lucu asik nyaman ramah enak cantik menang bangga syukur seru "
    "ceria damai manis juara favorit terbaik menyenangkan memukau"
).split()
NEGATIVE_WORDS = (
    "sedih marah kecewa buruk jelek benci takut sakit gagal susah kesal "
    "bosan capek menyesal hancur kacau menangis rugi kalah menyebalkan "
    "parah payah lambat mahal rusak kotor bising macet menderita terburuk"
).split()
NEUTRAL_WORDS = (
    "biasa mungkin tanya info kapan dimana berapa apakah lihat baca cek "
    "jadwal harga lokasi daftar laporan data cuaca berita acara rapat "
    "kantor sekolah jalan kota pasar toko bus kereta stasiun"
).split()
FILLER_WORDS = (
    "hari ini itu aku kamu dia kita yang dan di ke pada ada sudah akan "
    "bisa mau lagi juga sama buat kalau tapi dengan untuk saat orang "
    "tempat waktu semua"
).split()

CLASS_WORDS = {
    SentimentClass.POSITIVE: POSITIVE_WORDS,
    SentimentClass.NEGATIVE: NEGATIVE_WORDS,
    SentimentClass.NEUTRAL: NEUTRAL_WORDS,
}
CLASS_HASHTAGS = {
    SentimentClass.POSITIVE: ["liburan", "bahagia", "mantap", "senang"],
    SentimentClass.NEGATIVE: ["kecewa", "sedih", "macet", "kesal"],
    SentimentClass.NEUTRAL: ["info", "berita", "cuaca", "jadwal"],
}
TARGET_COUNTS = {
    SentimentClass.POSITIVE: 459,
    SentimentClass.NEGATIVE: 188,
    SentimentClass.NEUTRAL: 60,
}
N_DUPLICATES = 15

# Rows whose text survives loading but cleans to the empty string.
EMPTY_TEXTS = (
    "",
    "   ",
    "http://t.co/abc123",
    "https://www.contoh.id/promo",
    "@pengguna01 @pengguna02",
    "!!! ??? ...",
    "12345 67890",
    "@akun http://t.co/xyz99",
    "#2026 #123",
    ".....",
)

_LEET_SUBS = {"e": "3", "a": "4", "i": "1", "o": "0", "s": "5", "t": "7"}
_SLANG_NOISE = ["gak", "bgt", "yg", "udh", "kalo", "dgn", "utk", "jg"]

HEADER = ("Text", "Sentiment", "Retweets", "Likes", "Hashtags")


def _noisify(tokens: list[str], rng: np.random.Generator, cls: SentimentClass) -> tuple[str, str]:
    """Dress clean tokens up as a raw social-media post; returns (text, hashtags_field)."""
    tokens = list(tokens)
    if rng.random() < 0.20:  # leetspeak one word
        idx = int(rng.integers(len(tokens)))
        letters = [ch for ch in sorted(set(tokens[idx])) if ch in _LEET_SUBS]
        if letters:
            ch = letters[int(rng.integers(len(letters)))]
            tokens[idx] = tokens[idx].replace(ch, _LEET_SUBS[ch])
    if rng.random() < 0.25:  # slang token that expands to a filler word
        tokens.insert(int(rng.integers(len(tokens) + 1)), str(rng.choice(_SLANG_NOISE)))
    if rng.random() < 0.30:  # random casing
        idx = int(rng.integers(len(tokens)))
        tokens[idx] = tokens[idx].upper() if rng.random() < 0.5 else tokens[idx].capitalize()
    if rng.random() < 0.15:
        tokens.insert(int(rng.integers(len(tokens) + 1)), f"http://t.co/{int(rng.integers(10_000))}")
    if rng.random() < 0.15:
        tokens.insert(int(rng.integers(len(tokens) + 1)), f"@user{int(rng.integers(1_000))}")
    if rng.random() < 0.40:  # trailing punctuation
        idx = int(rng.integers(len(tokens)))
        tokens[idx] += str(rng.choice(["!", "!!", "!!!", "?", "...", ","]))

    hashtags = []
    if rng.random() < 0.35:
        pool = CLASS_HASHTAGS[cls]
        for tag in rng.choice(pool, size=int(rng.integers(1, 3)), replace=False):
            hashtags.append(f"#{tag}")
        tokens.extend(hashtags)
    return " ".join(tokens), " ".join(hashtags)


def generate_reference_rows(seed: int = 42) -> list[tuple[str, str, str, str, str]]:
    """Deterministically build the 732 raw CSV rows (without header)."""
    from .textnorm import clean_text

    rng = np.random.default_rng(seed)
    label_map = default_label_map()
    labels_by_class: dict[SentimentClass, list[str]] = {c: [] for c in SentimentClass}
    for key, cls in sorted(label_map.entries.items()):
        labels_by_class[cls].append(key.capitalize())

    rows = []
    seen_clean: set[str] = set()
    for cls in (SentimentClass.POSITIVE, SentimentClass.NEGATIVE, SentimentClass.NEUTRAL):
        class_pool = CLASS_WORDS[cls]
        labels = labels_by_class[cls]
        other_pools = [w for c, ws in CLASS_WORDS.items() if c != cls for w in ws]
        for i in range(TARGET_COUNTS[cls]):
            # cover every raw label at least once, then draw randomly
            raw_label = labels[i] if i < len(labels) else str(rng.choice(labels))
            while True:
                if rng.random() < 0.08:  # hard post: barely any class signal
                    n_class, n_fill = 1, int(rng.integers(5, 9))
                else:
                    n_class, n_fill = int(rng.integers(3, 8)), int(rng.integers(2, 6))
                tokens = list(rng.choice(class_pool, size=n_class, replace=False))
                tokens += list(rng.choice(FILLER_WORDS, size=n_fill, replace=False))
                if rng.random() < 0.30:  # lexical overlap with the other classes
                    n_cross = int(rng.integers(1, 3))
                    tokens += list(rng.choice(other_pools, size=n_cross, replace=False))
                tokens = [tokens[j] for j in rng.permutation(len(tokens))]
                text, hashtags_field = _noisify(tokens, rng, cls)
                cleaned = clean_text(text)
                if cleaned and cleaned not in seen_clean:
                    seen_clean.add(cleaned)
                    break
            retweets = _count_cell(rng, 200)
            likes = _count_cell(rng, 500)
            rows.append((text, raw_label, retweets, likes, hashtags_field))

    # exact duplicates of earlier rows (dropped by deduplication)
    source_indices = rng.choice(len(rows), size=N_DUPLICATES, replace=False)
    for idx in source_indices:
        text, raw_label, _, _, hashtags_field = rows[int(idx)]
        rows.append((text, raw_label, _count_cell(rng, 200), _count_cell(rng, 500), hashtags_field))

    # rows that clean to nothing (dropped by the empty-text filter)
    all_labels = sorted(label_map.entries)
    for text in EMPTY_TEXTS:
        raw_label = str(rng.choice(all_labels)).capitalize()
        rows.append((text, raw_label, _count_cell(rng, 200), _count_cell(rng, 500), ""))

    order = rng.permutation(len(rows))
    return [rows[int(i)] for i in order]


def _count_cell(rng: np.random.Generator, high: int) -> str:
    """Metadata cell in the mixed styles real exports show: int, float, or empty."""
    roll = rng.random()
    value = int(rng.integers(0, high))
    if roll < 0.05:
        return ""
    if roll < 0.20:
        return f"{value}.0"
    return str(value)


def write_reference_corpus(path: str | Path, seed: int = 42) -> Path:
    from .export import write_csv_atomic

    return write_csv_atomic(path, HEADER, generate_reference_rows(seed))


def reference_corpus_path() -> Path:
    """Path of the checked-in reference corpus asset."""
    return _asset_path("reference_corpus.csv")
