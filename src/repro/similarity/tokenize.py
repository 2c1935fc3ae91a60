"""Tokenisation helpers shared by the similarity measures.

:func:`normalize_text` and :func:`tokenize` live in :mod:`repro.engine.text`,
so the engine's column token cache tokenises exactly as the measures do
without the engine importing this package.
"""

from __future__ import annotations

from typing import List

from repro.engine.text import normalize_text, tokenize

__all__ = ["normalize_text", "tokenize", "qgrams"]


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
