"""String and value similarity measures.

These are the measures the paper's components rely on:

* **TF-IDF cosine similarity** over whole-tuple strings — used by DUMAS to
  find seed duplicates in unaligned tables.
* **SoftTFIDF** (Cohen, Ravikumar & Fienberg 2003) — used for the field-wise
  comparison of seed duplicates during schema matching.
* **Edit distance** (Levenshtein), **Jaro / Jaro-Winkler**, n-gram and
  Jaccard similarities, and **numeric / date distance** — used by the
  duplicate-detection similarity measure.

All similarities are normalised to ``[0, 1]`` where 1 means identical.
"""

from repro.similarity.base import SimilarityMeasure
from repro.similarity.tokenize import tokenize, qgrams, normalize_text
from repro.similarity.levenshtein import (
    levenshtein_distance,
    levenshtein_similarity,
    LevenshteinSimilarity,
)
from repro.similarity.jaro import jaro_similarity, jaro_winkler_similarity, JaroWinklerSimilarity
from repro.similarity.ngram import ngram_similarity, NgramSimilarity
from repro.similarity.jaccard import jaccard_similarity, dice_similarity, JaccardSimilarity
from repro.similarity.monge_elkan import monge_elkan_similarity, MongeElkanSimilarity
from repro.similarity.tfidf import TfIdfVectorizer, TfIdfSimilarity, cosine_similarity
from repro.similarity.soft_tfidf import SoftTfIdfSimilarity
from repro.similarity.numeric import numeric_similarity, date_similarity, value_similarity

__all__ = [
    "SimilarityMeasure",
    "tokenize",
    "qgrams",
    "normalize_text",
    "levenshtein_distance",
    "levenshtein_similarity",
    "LevenshteinSimilarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "JaroWinklerSimilarity",
    "ngram_similarity",
    "NgramSimilarity",
    "jaccard_similarity",
    "dice_similarity",
    "JaccardSimilarity",
    "monge_elkan_similarity",
    "MongeElkanSimilarity",
    "TfIdfVectorizer",
    "TfIdfSimilarity",
    "cosine_similarity",
    "SoftTfIdfSimilarity",
    "numeric_similarity",
    "date_similarity",
    "value_similarity",
]
