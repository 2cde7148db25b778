"""Raw CSV ingestion, label remapping, and corpus preparation.

Raw posts come from an RFC-4180 style CSV with a header row. Logical
columns (text, sentiment, retweets, likes, hashtags) are bound to headers
case-insensitively through an alias table, so differently named exports of
the same data load without preprocessing. Fine-grained emotion labels are
compressed to three operational classes through an editable label map.
"""

from __future__ import annotations

import csv
import hashlib
import re
import sys
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, RowParseError, SchemaError, UnmappedLabelError
from .textnorm import clean_text, count_hashtags, read_pairs_file


class SentimentClass(IntEnum):
    """Operational sentiment classes; the ordinal order is used everywhere
    class indices appear (rows of weight matrices, confusion axes, ...)."""

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "SentimentClass":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise DataError(f"unknown sentiment class: {name!r}") from None


CLASS_NAMES = tuple(c.label for c in SentimentClass)


@dataclass(frozen=True)
class RawRecord:
    """One post as ingested: un-normalized text plus metadata."""

    text: str
    raw_label: str
    retweets: int
    likes: int
    hashtags_field: str = ""


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
            cls.normalize_key(key): SentimentClass.parse(value)
            for key, value in read_pairs_file(path).items()
        }
        return cls(entries=entries, unmapped_policy=unmapped_policy)

    def digest(self) -> str:
        """Stable fingerprint of the mapping, independent of file layout."""
        return pairs_digest({key: cls.label for key, cls in self.entries.items()})


def pairs_digest(pairs: Mapping[str, str]) -> str:
    """SHA-256 of the pairs as sorted `key,value` lines: the fingerprint of a
    label map, slang table or leet table."""
    canon = "\n".join(f"{key},{value}" for key, value in sorted(pairs.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def default_label_map_path() -> Path:
    return Path(str(resources.files("sentiga").joinpath("assets", "label_map.txt")))


@lru_cache(maxsize=2)
def default_label_map(unmapped_policy: str = "error") -> LabelMap:
    return LabelMap.from_file(default_label_map_path(), unmapped_policy)


# Logical column -> acceptable header names, matched case-insensitively.
DEFAULT_SCHEMA: dict[str, tuple[str, ...]] = {
    "text": ("text", "content", "tweet"),
    "sentiment": ("sentiment", "label", "emotion"),
    "retweets": ("retweets", "retweet_count"),
    "likes": ("likes", "like_count", "favourites"),
    "hashtags": ("hashtags", "hashtag"),
}


def _resolve_columns(header: Sequence[str]) -> dict[str, int]:
    lowered = {name.strip().lower(): idx for idx, name in enumerate(header)}
    columns = {}
    for logical, names in DEFAULT_SCHEMA.items():
        for name in names:
            idx = lowered.get(name.lower())
            if idx is not None:
                columns[logical] = idx
                break
        else:
            raise SchemaError(f"required column not found: {logical!r}")
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
        raise RowParseError(row, f"cannot parse {column}={cell!r}") from None
    return value


def load_raw(path: str | Path, lenient: bool = False) -> list[RawRecord]:
    """Read the raw CSV into records, one per data row.

    Rows with empty text are retained here (cleaning drops them later).
    Unknown columns are ignored. Missing numeric cells parse as 0; other
    unparseable numeric cells raise unless ``lenient`` maps them to 0 too.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing header row") from None
        columns = _resolve_columns(header)

        records = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue

            def cell(logical: str) -> str:
                idx = columns[logical]
                return row[idx] if idx < len(row) else ""

            raw_label = cell("sentiment").strip()
            if not raw_label:
                raise RowParseError(row_num, "empty sentiment label")
            records.append(
                RawRecord(
                    text=cell("text"),
                    raw_label=raw_label,
                    retweets=_parse_count(cell("retweets"), row_num, "retweets", lenient),
                    likes=_parse_count(cell("likes"), row_num, "likes", lenient),
                    hashtags_field=cell("hashtags").strip(),
                )
            )
    return records


def map_label(raw_label: str, label_map: LabelMap) -> SentimentClass | None:
    """Map one raw emotion label to its class.

    Under policy ``error`` an unknown label raises; under ``drop`` it
    returns None and the caller discards the record.
    """
    found = label_map.lookup(raw_label)
    if found is None and label_map.unmapped_policy == "error":
        raise UnmappedLabelError(raw_label)
    return found


def metadata_counts(clean: str, raw: str, retweets: int, likes: int) -> list[int]:
    """The three metadata features of one post, shared by training and
    serving: [word count of the cleaned text, retweets + likes, hashtag
    count of the raw text]."""
    engagement = retweets + likes
    if engagement > sys.float_info.max:
        raise DataError("retweets + likes is beyond the range of a float feature")
    return [len(clean.split()), engagement, count_hashtags(raw)]


def clean_record(
    raw: RawRecord,
    label_map: LabelMap,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
) -> CleanRecord | None:
    """Normalize one raw record; None when it cleans to empty or its label
    is dropped."""
    text = clean_text(raw.text, slang, leet)
    if not text:
        return None
    label = map_label(raw.raw_label, label_map)
    if label is None:
        return None
    word_count, engagement, hashtag_count = metadata_counts(
        text, raw.text, raw.retweets, raw.likes
    )
    return CleanRecord(
        clean_text=text,
        label=label,
        word_count=word_count,
        engagement=engagement,
        hashtag_count=hashtag_count,
    )


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
    """Full preparation: clean, drop empty texts, remap labels, deduplicate."""
    if label_map is None:
        label_map = default_label_map()
    cleaned = []
    for raw in raw_records:
        record = clean_record(raw, label_map, slang, leet)
        if record is not None:
            cleaned.append(record)
    return deduplicate(cleaned)


def class_counts(records: Iterable[CleanRecord]) -> np.ndarray:
    """Per-class record counts in ordinal order (negative, neutral, positive)."""
    counts = np.zeros(len(SentimentClass), dtype=int)
    for record in records:
        counts[int(record.label)] += 1
    return counts
