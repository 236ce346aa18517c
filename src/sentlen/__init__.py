"""Sentence-length time-series toolkit.

Maps a book into six sentence-length series (words/characters, with
stopword removal and lemmatization variants) and quantifies their
mutual robustness via linear and rank correlation, two-sample
Kolmogorov-Smirnov comparison, and detrended fluctuation analysis.
"""

from .exceptions import ConfigError, DegenerateInputError, IngestionError, SentlenError
from .series import CANONICAL_ORDER, MeasureKind, extract_all
from .textpipe import (
    Document,
    LemmaLexicon,
    StopwordList,
    Token,
    default_lemma_lexicon,
    default_stopwords,
    load_document,
    segment_sentences,
    sentence_tokens,
    tokenize,
)

__all__ = [
    "CANONICAL_ORDER",
    "ConfigError",
    "DegenerateInputError",
    "Document",
    "IngestionError",
    "LemmaLexicon",
    "MeasureKind",
    "SentlenError",
    "StopwordList",
    "Token",
    "default_lemma_lexicon",
    "default_stopwords",
    "extract_all",
    "load_document",
    "segment_sentences",
    "sentence_tokens",
    "tokenize",
]

__version__ = "0.1.0"
