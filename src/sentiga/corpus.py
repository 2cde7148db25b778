"""Raw CSV ingestion, label remapping, and corpus preparation.

Raw posts come from an RFC-4180 style CSV with a header row. The four
logical columns the pipeline reads (text, sentiment, retweets, likes) are
bound to headers once, case-insensitively through an alias table, so
differently named exports of the same data load without preprocessing.
Other columns, a Hashtags column among them, are ignored: the hashtag count
is taken from the text. Fine-grained emotion labels are compressed to three
operational classes through an editable label map.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .model import N_CLASSES, SentimentClass, _engagement
from .textnorm import (_asset_path, clean_text, count_hashtags, pairs_digest, post_cleaner,
                       read_pairs_file)


@dataclass(frozen=True)
class RawRecord:
    """One post as ingested: un-normalized text plus metadata."""

    text: str
    raw_label: str
    retweets: int
    likes: int


@dataclass(frozen=True)
class CleanRecord:
    """One post after normalization and label remapping."""

    clean_text: str
    label: SentimentClass
    word_count: int
    engagement: int
    hashtag_count: int


@dataclass(frozen=True)
class LabelMap:
    """Lookup from normalized raw emotion label to sentiment class.

    ``unmapped_policy`` decides what happens to unknown labels: ``error``
    raises (the default for training data, so gaps in the map surface),
    ``drop`` tells the caller to discard the record.
    """

    entries: Mapping[str, SentimentClass]
    unmapped_policy: str = "error"

    def __post_init__(self):
        if self.unmapped_policy not in ("error", "drop"):
            raise DataError(
                f"unmapped_policy must be 'error' or 'drop', got {self.unmapped_policy!r}"
            )

    @staticmethod
    def normalize_key(raw_label: str) -> str:
        return raw_label.strip().lower()

    def lookup(self, raw_label: str) -> SentimentClass | None:
        return self.entries.get(self.normalize_key(raw_label))

    @classmethod
    def from_file(cls, path: str | Path, unmapped_policy: str = "error") -> "LabelMap":
        entries = {
            key: SentimentClass.parse(value)
            for key, value in read_pairs_file(path, cls.normalize_key).items()
        }
        return cls(entries=entries, unmapped_policy=unmapped_policy)

    def digest(self) -> str:
        """Stable fingerprint of the mapping, independent of file layout."""
        return pairs_digest({key: cls.label for key, cls in self.entries.items()})


def default_label_map_path() -> Path:
    return _asset_path("label_map.txt")


@lru_cache(maxsize=2)
def default_label_map(unmapped_policy: str = "error") -> LabelMap:
    return LabelMap.from_file(default_label_map_path(), unmapped_policy)


# Logical column -> acceptable header names, matched case-insensitively.
DEFAULT_SCHEMA: dict[str, tuple[str, ...]] = {
    "text": ("text", "content", "tweet"),
    "sentiment": ("sentiment", "label", "emotion"),
    "retweets": ("retweets", "retweet_count"),
    "likes": ("likes", "like_count", "favourites"),
}


def _resolve_columns(header: Sequence[str]) -> list[int]:
    """The header index of each logical column, in schema order; the first
    alias present binds it, and naming that alias twice is refused."""
    names = [name.strip().lower() for name in header]
    columns = []
    for logical, aliases in DEFAULT_SCHEMA.items():
        name = next((alias for alias in aliases if alias in names), None)
        if name is None:
            raise DataError(f"required column not found: {logical!r}")
        if names.count(name) > 1:
            raise DataError(f"header repeats {name!r}, the {logical!r} column")
        columns.append(names.index(name))
    return columns


_DECIMAL = re.compile(r"([+-]?\d+)(?:\.\d+)?")


def _parse_count(cell: str, row: int, column: str, lenient: bool) -> int:
    cell = cell.strip()
    if not cell:
        return 0  # missing numeric cells parse as 0
    try:
        # a plain decimal parses exactly, truncated to its integer part;
        # exponent forms such as "1e3" go through float
        exact = _DECIMAL.fullmatch(cell)
        value = int(exact[1]) if exact else int(float(cell))
        if value < 0:
            raise ValueError("negative")
    except (ValueError, OverflowError):  # OverflowError: "inf", "1e400"
        if lenient:
            return 0
        raise DataError(f"row {row}: cannot parse {column}={cell!r}") from None
    return value


def load_raw(path: str | Path, lenient: bool = False) -> list[RawRecord]:
    """Read the raw CSV, UTF-8 with or without a byte-order mark, into
    records, one per data row; a file that does not decode or parse is a
    DataError naming the line.

    Only the four schema columns are read, and a short row's missing cells
    read as empty. Rows with empty text are retained here (cleaning drops
    them later). Missing numeric cells parse as 0; other unparseable
    numeric cells raise unless ``lenient`` maps them to 0 too.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: missing header row")
            columns = _resolve_columns(header)
            records = []
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    continue
                text, raw_label, retweets, likes = (row[i] if i < len(row) else "" for i in columns)
                raw_label = raw_label.strip()
                if not raw_label:
                    raise DataError(f"row {row_num}: empty sentiment label")
                records.append(RawRecord(
                    text, raw_label,
                    _parse_count(retweets, row_num, "retweets", lenient),
                    _parse_count(likes, row_num, "likes", lenient),
                ))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: unreadable after line {reader.line_num}: {exc}") from None
    return records


def map_label(raw_label: str, label_map: LabelMap) -> SentimentClass | None:
    """Map one raw emotion label to its class.

    Under policy ``error`` an unknown label raises; under ``drop`` it
    returns None and the caller discards the record.
    """
    found = label_map.lookup(raw_label)
    if found is None and label_map.unmapped_policy == "error":
        raise DataError(f"unmapped raw label: {raw_label!r}")
    return found


def _record(
    raw: RawRecord, label_map: LabelMap, text: str, word_count: int, hashtag_count: int
) -> CleanRecord | None:
    """The record of `raw` cleaned to `text`; None when the text is empty or
    the label is dropped."""
    if not text:
        return None
    label = map_label(raw.raw_label, label_map)
    if label is None:
        return None
    return CleanRecord(
        clean_text=text,
        label=label,
        word_count=word_count,
        engagement=_engagement(raw.retweets, raw.likes),
        hashtag_count=hashtag_count,
    )


def clean_record(
    raw: RawRecord,
    label_map: LabelMap,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
) -> CleanRecord | None:
    """Normalize one raw record; None when it cleans to empty or its label
    is dropped."""
    text = clean_text(raw.text, slang, leet)
    return _record(raw, label_map, text, len(text.split()), count_hashtags(raw.text))


def deduplicate(records: Iterable[CleanRecord]) -> list[CleanRecord]:
    """Keep the first record for each distinct cleaned text, preserving order."""
    seen: set[str] = set()
    kept = []
    for record in records:
        if record.clean_text in seen:
            continue
        seen.add(record.clean_text)
        kept.append(record)
    return kept


def prepare_corpus(
    raw_records: Iterable[RawRecord],
    label_map: LabelMap | None = None,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
) -> list[CleanRecord]:
    """Full preparation: clean, drop empty texts, remap labels, deduplicate.
    Gives ``deduplicate`` of each record's ``clean_record``, but cleans each
    distinct raw token once (`textnorm.post_cleaner`)."""
    if label_map is None:
        label_map = default_label_map()
    clean = post_cleaner(slang, leet)
    cleaned = []
    for raw in raw_records:
        record = _record(raw, label_map, *clean(raw.text))
        if record is not None:
            cleaned.append(record)
    return deduplicate(cleaned)


def class_counts(records: Iterable[CleanRecord]) -> np.ndarray:
    """Per-class record counts in ordinal order (negative, neutral, positive)."""
    counts = np.zeros(N_CLASSES, dtype=int)
    for record in records:
        counts[int(record.label)] += 1
    return counts
