"""Tokenisation helpers shared by the similarity measures."""

from __future__ import annotations

import re
import unicodedata
from typing import List

__all__ = ["normalize_text", "tokenize", "qgrams"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_WHITESPACE_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lower-case, strip accents and collapse whitespace."""
    if text is None:
        return ""
    text = str(text)
    # ASCII text is its own NFKD form and holds no combining marks.
    if not text.isascii():
        decomposed = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return _WHITESPACE_RE.sub(" ", text.lower()).strip()


def tokenize(text: str) -> List[str]:
    """Split *text* into lower-case alphanumeric word tokens."""
    return _TOKEN_RE.findall(normalize_text(text))


def qgrams(text: str, size: int = 3, pad: bool = True) -> List[str]:
    """Character q-grams of *text* (padded with ``#`` so short strings still produce grams)."""
    normalized = normalize_text(text)
    if not normalized:
        return []
    if pad:
        padding = "#" * (size - 1)
        normalized = f"{padding}{normalized}{padding}"
    if len(normalized) < size:
        return [normalized]
    return [normalized[i : i + size] for i in range(len(normalized) - size + 1)]
