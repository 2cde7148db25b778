"""Social-media text normalization for Indonesian posts.

The cleaner runs six stages in a fixed order: lowercase, URL removal,
mention removal, leetspeak normalization, slang expansion, and finally a
non-alphabetic strip with whitespace collapse. Slang and leet tables are
plain dicts loaded from ``key,value`` asset files and are user-extensible.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import DataError

_URL_PREFIXES = ("http://", "https://", "www.")
_ASCII_LETTER_RE = re.compile(r"[a-z]")
_NON_ALPHA_RE = re.compile(r"[^a-z]")


def read_pairs_file(path: str | Path, fold: Callable[[str], str] = str) -> dict[str, str]:
    """Read a UTF-8 asset of ``key,value`` lines; ``#`` starts a comment.
    Each key is passed through `fold`, and a key that repeats after it is
    refused, since a later line would silently replace the earlier one."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
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
        key = fold(key)
        if key in entries:
            raise DataError(f"{path}: line {lineno}: repeats the key {key!r}")
        entries[key] = value
    return entries


def pairs_digest(pairs: Mapping[str, str]) -> str:
    """SHA-256 of the pairs as sorted `key,value` lines: the fingerprint of a
    label map, slang table or leet table."""
    canon = "\n".join(f"{key},{value}" for key, value in sorted(pairs.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
    entries = {key: value.lower() for key, value in read_pairs_file(path, str.lower).items()}
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


def _clean_tokens(tokens: Iterable[str], slang: dict[str, str], leet: dict[str, str]) -> list[str]:
    """Stages 2-6 of `clean_text` on lowercased whitespace tokens: the words
    they leave, in order. The words of each token depend on that token alone.

    Precondition: every leet key is a single digit (``check_tables``). A
    token of ASCII letters alone is then unchanged by stages 2-4 and 6, so
    it goes straight to the slang lookup.
    """
    leet_table = None
    words: list[str] = []
    for token in tokens:
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
        if expansion is None:
            if core:
                words.append(core)
        else:
            expanded = (_NON_ALPHA_RE.sub("", word) for word in expansion.split())
            words += [word for word in expanded if word]
    return words


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

    Every stage after the first maps one whitespace token to zero or more
    words (`_clean_tokens`), so token removal never merges neighbouring
    words, and the result is a fixed point of the cleaner itself. The output
    may be empty.
    """
    if slang is None:
        slang = default_slang()
    if leet is None:
        leet = default_leet()
    return " ".join(_clean_tokens(raw.lower().split(), slang, leet))


def _is_hashtag(token: str) -> bool:
    return token.startswith("#") and any(ch.isalnum() for ch in token)


def count_hashtags(raw: str) -> int:
    """Count whitespace tokens that start with ``#`` and carry an
    alphanumeric character. Counted on the raw text: cleaning destroys
    the ``#`` marker."""
    if "#" not in raw:   # most posts: no token can start with one
        return 0
    return sum(map(_is_hashtag, raw.split()))


# the raw tokens a `_TokenMemo` holds before it starts over, so the memo of a
# long-running server stays bounded; the distinct tokens of one corpus or
# stream are far fewer
_MEMO_LIMIT = 1 << 16


class _TokenMemo(dict):
    """Raw whitespace token -> (the words it cleans to, joined by spaces;
    how many; whether it is a hashtag), each entry made on first lookup."""

    def __init__(self, slang: dict[str, str], leet: dict[str, str]):
        super().__init__()
        self.slang, self.leet = slang, leet

    def __missing__(self, token: str) -> tuple[str, int, bool]:
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        words = _clean_tokens([token.lower()], self.slang, self.leet)
        entry = self[token] = (" ".join(words), len(words), _is_hashtag(token))
        return entry

    def clean(self, raw: str) -> tuple[str, int, int]:
        """`post_cleaner`'s function: the post split once, each token
        looked up."""
        entries = list(map(self.__getitem__, raw.split()))
        if not entries:
            return "", 0, 0
        texts, word_counts, hashtags = zip(*entries)
        return " ".join(filter(None, texts)), sum(word_counts), sum(hashtags)


def post_cleaner(
    slang: dict[str, str] | None = None,
    leet: dict[str, str] | None = None,
) -> Callable[[str], tuple[str, int, int]]:
    """A function from a raw post to ``(clean_text(post), its word count,
    count_hashtags(post))`` with these tables, for cleaning a whole corpus
    or serving post by post.

    It cleans each distinct raw whitespace token once and remembers the
    words it leaves and whether it is a hashtag, so each post is split once;
    the memo starts over once it holds `_MEMO_LIMIT` tokens. The function is
    a bound method whose ``__self__`` is the memo. An entry keeps what the
    tables gave when it was made, so the tables must not change while the
    function is in use.
    Lowercasing a whole post and then splitting it gives the same tokens as
    splitting it and lowercasing each token: no whitespace character is
    cased or case-ignorable, so no case mapping looks across one.
    """
    if slang is None:
        slang = default_slang()
    if leet is None:
        leet = default_leet()
    return _TokenMemo(slang, leet).clean
