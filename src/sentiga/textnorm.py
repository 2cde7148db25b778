"""Social-media text normalization for Indonesian posts.

The cleaner runs six stages in a fixed order: lowercase, URL removal,
mention removal, leetspeak normalization, slang expansion, and finally a
non-alphabetic strip with whitespace collapse. Slang and leet tables are
plain dicts loaded from ``key,value`` asset files and are user-extensible.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import DataError

_URL_PREFIXES = ("http://", "https://", "www.")
_ASCII_LETTER_RE = re.compile(r"[a-z]")
_NON_ALPHA_SPACE_RE = re.compile(r"[^a-z ]")
_NON_ALPHA_RE = re.compile(r"[^a-z]")

# Digit-to-letter substitutions applied inside tokens that contain at least
# one letter; pure numbers are left for the non-alphabetic strip.
DEFAULT_LEET = {"0": "o", "1": "i", "3": "e", "4": "a", "5": "s", "7": "t"}


def read_pairs_file(path: str | Path) -> dict[str, str]:
    """Read a UTF-8 asset of ``key,value`` lines; ``#`` starts a comment."""
    entries: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise DataError(f"{path}: line {lineno}: expected 'key,value'")
        key, _, value = line.partition(",")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise DataError(f"{path}: line {lineno}: empty key or value")
        entries[key] = value
    return entries


def _asset_path(name: str) -> Path:
    return Path(str(resources.files("sentiga").joinpath("assets", name)))


def check_tables(slang: dict[str, str], leet: dict[str, str]) -> None:
    """Raise DataError unless every slang entry maps a single token to a
    non-empty string and every leet entry maps one digit to one letter.
    The loaders and bundles apply the same rules, so a table that cannot be
    loaded is never used."""
    for key, value in slang.items():
        if not (isinstance(key, str) and key.split() == [key]):
            raise DataError(f"slang key must be a single token: {key!r}")
        if not (isinstance(value, str) and value.strip()):
            raise DataError(f"slang value must be a non-empty string: {value!r}")
    for key, value in leet.items():
        if not (isinstance(key, str) and len(key) == 1 and key.isdigit()):
            raise DataError(f"leet key must be one digit: {key!r}")
        if not (isinstance(value, str) and len(value) == 1 and value.isalpha()):
            raise DataError(f"leet value must be one letter: {value!r}")


def load_slang(path: str | Path) -> dict[str, str]:
    """Load a slang dictionary; keys are lowercase single tokens."""
    entries = {key.lower(): value.lower() for key, value in read_pairs_file(path).items()}
    check_tables(entries, {})
    return entries


def load_leet(path: str | Path) -> dict[str, str]:
    """Load a leet map; keys are single digits, values single letters."""
    entries = {key: value.lower() for key, value in read_pairs_file(path).items()}
    check_tables({}, entries)
    return entries


@lru_cache(maxsize=1)
def default_slang() -> dict[str, str]:
    return load_slang(_asset_path("slang.txt"))


@lru_cache(maxsize=1)
def default_leet() -> dict[str, str]:
    return load_leet(_asset_path("leet.txt"))


def clean_text(
    raw: str,
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
) -> str:
    """Normalize a raw post down to lowercase words separated by single spaces.

    Stages, in order:

    1. lowercase;
    2. drop URL tokens (``http://``, ``https://`` or ``www.`` prefixed);
    3. drop ``@mention`` tokens;
    4. map leetspeak digits to letters inside tokens that contain a letter;
    5. expand slang tokens (matched on their alphabetic core, so trailing
       punctuation does not hide a match);
    6. delete remaining non-alphabetic characters, collapse whitespace, trim.

    Token removal never merges neighbouring words, and the result is a fixed
    point of the cleaner itself. The output may be empty.

    Precondition: every leet key is a single digit (``check_tables``). A
    token of ASCII letters alone is then unchanged by stages 2-4 and 6, so
    it goes straight to the slang lookup.
    """
    if slang is None:
        slang = default_slang()
    if leet is None:
        leet = default_leet()
    leet_table = None

    tokens: list[str] = []
    for token in raw.lower().split():
        if token.isascii() and token.isalpha():
            core = token
        else:
            if token.startswith(_URL_PREFIXES) or token.startswith("@"):
                continue
            if _ASCII_LETTER_RE.search(token):
                if leet_table is None:
                    leet_table = str.maketrans(leet)
                token = token.translate(leet_table)
            core = _NON_ALPHA_RE.sub("", token)
        expansion = slang.get(core)
        if expansion is not None:
            tokens.extend(expansion.split())
        else:
            tokens.append(token)

    stripped = _NON_ALPHA_SPACE_RE.sub("", " ".join(tokens))
    return " ".join(stripped.split())


def count_hashtags(raw: str) -> int:
    """Count whitespace tokens that start with ``#`` and carry an
    alphanumeric character. Counted on the raw text: cleaning destroys
    the ``#`` marker."""
    count = 0
    for token in raw.split():
        if token.startswith("#") and any(ch.isalnum() for ch in token):
            count += 1
    return count
