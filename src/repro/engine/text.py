"""Text normalisation and word tokenisation.

The column token cache (:attr:`ColumnData.tokens
<repro.engine.columnar.ColumnData.tokens>`) and the similarity measures
(:mod:`repro.similarity.tokenize` re-exports both functions) tokenise with
these, so a cached token list is exactly what a measure would compute.
"""

from __future__ import annotations

import re
import unicodedata
from typing import List

__all__ = ["normalize_text", "tokenize"]

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
