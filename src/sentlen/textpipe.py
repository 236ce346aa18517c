"""Text ingestion: one pass from a book's text to its six sentence-length
series.

A sentence ends at every '.', '!' or '?'; a run of them is a single
boundary.  Abbreviation periods are deliberately not special-cased.
Within a sentence, whitespace separates pieces, and a piece is a word
when something is left after stripping its leading and trailing
non-alphanumerics.  The text is NFC-normalized first, so the same text
gives the same counts in any Unicode normal form.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import IngestionError

_BOUNDARY_RE = re.compile(r"[.!?]+")
# alphanumeric, underscore excluded
_WORD_CHAR_RE = re.compile(r"[^\W_]", re.UNICODE)
_EDGE_STRIP_RE = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


class MeasureKind(Enum):
    WORDS = "N_w"
    CHARS = "N_c"
    LEMMA_CHARS = "N_l"
    NONSTOP_WORDS = "N_Sw"
    NONSTOP_CHARS = "N_Sc"
    NONSTOP_LEMMA_CHARS = "N_Sl"

    @property
    def label(self) -> str:
        return self.value


#: Fixed enumeration order so the 15 pairwise comparisons line up
#: across books, runs and machines; also the row order of
#: `Document.lengths`.
CANONICAL_ORDER: tuple[MeasureKind, ...] = tuple(MeasureKind)


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    lemma: str
    is_stop: bool = False


@dataclass(frozen=True)
class Document:
    """A book reduced to its six sentence-length series: `lengths` is a
    read-only (6, n_sentences) int64 array whose row k holds measure
    CANONICAL_ORDER[k] of every sentence, in text order."""

    id: str
    lengths: np.ndarray = field(repr=False)

    @property
    def sentence_count(self) -> int:
        return self.lengths.shape[1]


def _read_nfc(path) -> str:
    """A resource file's text in the normal form the books are read in,
    so its entries match the words they name."""
    return unicodedata.normalize("NFC", Path(path).read_text(encoding="utf-8"))


class StopwordList:
    """Set of lowercase function words excluded by the non-stop measures."""

    def __init__(self, words=()):
        self.words = frozenset(w.lower() for w in words if w)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @classmethod
    def from_file(cls, path) -> "StopwordList":
        text = _read_nfc(path)
        return cls(line.strip() for line in text.splitlines())


class LemmaLexicon:
    """Map from lowercase surface form to its dictionary lemma.

    Lookups fall back to the input form, so coverage gaps degrade to
    the identity mapping instead of failing.
    """

    def __init__(self, mapping=None):
        self.mapping = dict(mapping or {})

    def lemma_of(self, normalized: str) -> str:
        return self.mapping.get(normalized, normalized)

    @classmethod
    def from_file(cls, path) -> "LemmaLexicon":
        mapping = {}
        text = _read_nfc(path)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise IngestionError(
                    f"{path}:{lineno}: expected 'surface<TAB>lemma', got {line!r}"
                )
            mapping[parts[0].lower()] = parts[1].lower()
        return cls(mapping)


def default_stopwords() -> StopwordList:
    return StopwordList.from_file(resources.files("sentlen") / "data" / "stopwords.txt")


def default_lemma_lexicon() -> LemmaLexicon:
    return LemmaLexicon.from_file(resources.files("sentlen") / "data" / "lemmas.tsv")


def segment_sentences(text: str) -> list[str]:
    """Split text at every terminator character, dropping segments that
    contain no word characters (so "?!" or "..." yield one boundary)."""
    segments = _BOUNDARY_RE.split(text)
    return [seg for seg in segments if _WORD_CHAR_RE.search(seg)]


def read_piece(piece: str, stops: StopwordList,
               lexicon: LemmaLexicon) -> Token | None:
    """The one definition of a word: a whitespace-free `piece` stripped
    of leading and trailing non-alphanumerics, looked up lowercased in
    the stopword list and the lemma lexicon.  None when nothing is left.

    A segment kept by `segment_sentences` has a word character, which no
    strip removes, so every kept sentence has at least one word.
    """
    surface = _EDGE_STRIP_RE.sub("", piece)
    if not surface:
        return None
    normalized = surface.lower()
    return Token(surface=surface, normalized=normalized,
                 lemma=lexicon.lemma_of(normalized),
                 is_stop=normalized in stops)


def tokenize(raw_sentence: str, stops: StopwordList | None = None,
             lexicon: LemmaLexicon | None = None) -> list[Token]:
    """Whitespace-split, then `read_piece` each piece; internal
    apostrophes and hyphens survive.  Without `stops` no word is a
    stopword; without `lexicon` every lemma is the normalized form."""
    stops = StopwordList() if stops is None else stops
    lexicon = LemmaLexicon() if lexicon is None else lexicon
    tokens = (read_piece(p, stops, lexicon) for p in raw_sentence.split())
    return [t for t in tokens if t is not None]


def _measures(token: Token | None) -> tuple[int, ...]:
    """What one piece adds to each measure, in CANONICAL_ORDER."""
    if token is None:
        return (0,) * len(CANONICAL_ORDER)
    kept = int(not token.is_stop)
    counts = {
        MeasureKind.WORDS: 1,
        MeasureKind.CHARS: len(token.surface),
        MeasureKind.LEMMA_CHARS: len(token.lemma),
        MeasureKind.NONSTOP_WORDS: kept,
        MeasureKind.NONSTOP_CHARS: kept * len(token.surface),
        MeasureKind.NONSTOP_LEMMA_CHARS: kept * len(token.lemma),
    }
    return tuple(counts[kind] for kind in CANONICAL_ORDER)


def sentence_lengths(text: str, stops: StopwordList,
                     lexicon: LemmaLexicon) -> np.ndarray:
    """The six measures of every sentence of `text`, as a read-only
    (6, n_sentences) int64 array in CANONICAL_ORDER.

    Each distinct piece is read once per call; a sentence's lengths are
    the sums of its pieces' contributions."""
    pieces: list[str] = []
    bounds = [0]  # sentence i is pieces[bounds[i]:bounds[i + 1]]
    for raw in segment_sentences(unicodedata.normalize("NFC", text)):
        pieces += raw.split()
        bounds.append(len(pieces))
    row_of = dict.fromkeys(pieces)
    for row, piece in enumerate(row_of):
        row_of[piece] = row
    table = np.array([_measures(read_piece(p, stops, lexicon)) for p in row_of],
                     dtype=np.int64).reshape(-1, len(CANONICAL_ORDER))
    rows = np.fromiter(map(row_of.__getitem__, pieces), dtype=np.intp,
                       count=len(pieces))
    cumulative = np.zeros((len(pieces) + 1, len(CANONICAL_ORDER)), dtype=np.int64)
    np.cumsum(table[rows], axis=0, out=cumulative[1:])
    bounds = np.asarray(bounds)
    lengths = np.ascontiguousarray((cumulative[bounds[1:]] - cumulative[bounds[:-1]]).T)
    lengths.setflags(write=False)
    return lengths


def sentence_tokens(text: str, stops: StopwordList,
                    lexicon: LemmaLexicon) -> list[tuple[Token, ...]]:
    """Every sentence's words as ingestion reads them, for inspection:
    column i of `sentence_lengths(text, stops, lexicon)` is computed
    from entry i."""
    return [tuple(tokenize(raw, stops, lexicon))
            for raw in segment_sentences(unicodedata.normalize("NFC", text))]


def document_from_text(doc_id: str, text: str, stops: StopwordList,
                       lexicon: LemmaLexicon) -> Document:
    return Document(id=doc_id, lengths=sentence_lengths(text, stops, lexicon))


def load_document(path, stops: StopwordList, lexicon: LemmaLexicon) -> Document:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    return document_from_text(path.stem, text, stops, lexicon)
