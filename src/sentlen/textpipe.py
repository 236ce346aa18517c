"""Text ingestion: one pass from a book's text to its six sentence-length
series.

A sentence ends at every '.', '!' or '?'; a run of them is a single
boundary.  Segmentation is one `str.split` at '.', after '!' and '?'
are replaced by '.'.  Abbreviation periods are deliberately not
special-cased.  Within a sentence, whitespace separates pieces, and a
piece is a word when something is left after stripping its leading and
trailing non-alphanumerics, but for the combining marks after its last
alphanumeric, which stay.  Pieces and list entries are put in NFC,
so a text gives the same counts in any Unicode normal form.
"""

from __future__ import annotations

import collections
import functools
import itertools
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import IngestionError

# alphanumeric, underscore excluded
_WORD_CHAR_RE = re.compile(r"[^\W_]", re.UNICODE)
# a piece's first through last alphanumeric
_CORE_RE = re.compile(r"[^\W_](?:.*[^\W_])?", re.UNICODE | re.DOTALL)


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


def _entry(word: str) -> str:
    """A list entry in the form `read_piece` looks words up in: NFC,
    stripped of surrounding whitespace, lowercased."""
    return unicodedata.normalize("NFC", word).strip().lower()


class StopwordList:
    """Set of function words excluded by the non-stop measures; each is
    stored as its `_entry`, from a file or from code, and an entry that
    is empty is dropped."""

    def __init__(self, words=()):
        self.words = frozenset(filter(None, map(_entry, words)))

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @classmethod
    def from_file(cls, path) -> "StopwordList":
        # utf-8-sig: a leading byte-order mark would cling to the first entry
        return cls(Path(path).read_text(encoding="utf-8-sig").splitlines())


class LemmaLexicon:
    """Map from surface form to its dictionary lemma; both are stored as
    their `_entry`, from a file or from code, and neither may be empty.

    Lookups fall back to the input form, so coverage gaps degrade to
    the identity mapping instead of failing.
    """

    def __init__(self, mapping=None):
        self.mapping = {}
        for surface, lemma in dict(mapping or {}).items():
            key, value = _entry(surface), _entry(lemma)
            if not (key and value):
                raise ValueError(
                    f"empty lemma lexicon entry: {surface!r} -> {lemma!r}")
            self.mapping[key] = value

    def lemma_of(self, normalized: str) -> str:
        return self.mapping.get(normalized, normalized)

    @classmethod
    def from_file(cls, path) -> "LemmaLexicon":
        mapping = {}
        text = Path(path).read_text(encoding="utf-8-sig")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not all(map(_entry, parts)):
                raise IngestionError(
                    f"{path}:{lineno}: expected 'surface<TAB>lemma', got {line!r}"
                )
            mapping.pop(parts[0], None)  # the last line for a word wins
            mapping[parts[0]] = parts[1]
        return cls(mapping)


def default_stopwords() -> StopwordList:
    return StopwordList.from_file(resources.files("sentlen") / "data" / "stopwords.txt")


def default_lemma_lexicon() -> LemmaLexicon:
    return LemmaLexicon.from_file(resources.files("sentlen") / "data" / "lemmas.tsv")


def segment_sentences(text: str) -> list[str]:
    """Split text at every terminator character, dropping segments that
    contain no word characters (so "?!" or "..." yield one boundary)."""
    # str.replace, unlike str.translate, is as fast on non-ASCII text
    segments = text.replace("!", ".").replace("?", ".").split(".")
    return [seg for seg in segments if _WORD_CHAR_RE.search(seg)]


#: distinct pieces whose surfaces one process keeps, least recently
#: used first out; a full memo holds about 9.3 MB
PIECE_CACHE_SIZE = 2 ** 16


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _surface(piece: str) -> str | None:
    """What a whitespace-free `piece` reads as, whatever the lists: in
    NFC, so `len` counts the same in any normal form, stripped of leading
    and trailing non-alphanumerics.  None when nothing is left.  The
    combining marks (Unicode category M) that follow the last kept
    character stay with it: a mark is no alphanumeric, but a final vowel
    sign or virama is part of its word.  A leading mark, which follows no
    kept character, is stripped.

    A segment kept by `segment_sentences` has a word character, which no
    strip removes, so every kept sentence has at least one word.
    """
    text = unicodedata.normalize("NFC", piece)
    core = _CORE_RE.search(text)
    if core is None:
        return None
    end = core.end()
    while end < len(text) and unicodedata.category(text[end])[0] == "M":
        end += 1
    return text[core.start():end]


def read_piece(piece: str, stops: StopwordList,
               lexicon: LemmaLexicon) -> Token | None:
    """The one definition of a word: the `_surface` of `piece`, looked
    up lowercased in the stopword list and the lemma lexicon.  None when
    the piece has no surface."""
    surface = _surface(piece)
    if surface is None:
        return None
    normalized = surface.lower()
    return Token(surface=surface, normalized=normalized,
                 lemma=lexicon.lemma_of(normalized),
                 is_stop=normalized in stops)


def tokenize(raw_sentence: str, stops: StopwordList | None = None,
             lexicon: LemmaLexicon | None = None) -> list[Token]:
    """Whitespace-split, then `read_piece` each piece (in NFC); internal
    apostrophes and hyphens survive.  Without `stops` no word is a
    stopword; without `lexicon` every lemma is the normalized form."""
    stops = StopwordList() if stops is None else stops
    lexicon = LemmaLexicon() if lexicon is None else lexicon
    tokens = (read_piece(p, stops, lexicon) for p in raw_sentence.split())
    return [t for t in tokens if t is not None]


def sentence_lengths(text: str, stops: StopwordList,
                     lexicon: LemmaLexicon) -> np.ndarray:
    """The six measures of every sentence of `text`, as a read-only
    (6, n_sentences) int64 array in CANONICAL_ORDER.

    One pass codes each sentence's pieces as they are split: a piece
    seen for the first time gets the next row of the measure table, and
    no piece is kept, only its row, an 8-byte reference to the one int
    `row_of` holds for that row.  Each distinct piece's entries, what it
    adds to each measure, are read from its `_surface`, which a
    process-wide memo of PIECE_CACHE_SIZE pieces keeps whatever the
    lists; a sentence's lengths are the sums of its pieces' entries."""
    row_of = collections.defaultdict(itertools.count().__next__)
    code = row_of.__getitem__
    rows = []
    # sentence i begins at rows[starts[i]]; every sentence has a word, so
    # the starts strictly increase, as reduceat needs
    starts = []
    for raw in segment_sentences(text):
        starts.append(len(rows))
        rows += map(code, raw.split())
    # read_piece's lookups on bound locals: a method call per piece
    # measured slower
    stopwords, lemma_of = stops.words, lexicon.mapping.get
    entries = []
    for surface in map(_surface, row_of):
        if surface is None:
            entries.append((0, 0, 0, 0))
        else:
            normalized = surface.lower()
            entries.append((1, len(surface),
                            len(lemma_of(normalized, normalized)),
                            normalized not in stopwords))
    word, chars, lemma_chars, kept = np.array(
        entries, dtype=np.int64).reshape(-1, 4).T
    # in CANONICAL_ORDER
    columns = (word, chars, lemma_chars, kept, kept * chars, kept * lemma_chars)
    rows = np.array(rows, dtype=np.int64)
    starts = np.array(starts, dtype=np.int64)
    lengths = np.empty((len(CANONICAL_ORDER), starts.size), dtype=np.int64)
    for column, out in zip(columns, lengths):
        np.add.reduceat(column[rows], starts, out=out)
    lengths.setflags(write=False)
    return lengths


def sentence_tokens(text: str, stops: StopwordList,
                    lexicon: LemmaLexicon) -> list[tuple[Token, ...]]:
    """Every sentence's words as ingestion reads them, for inspection:
    column i of `sentence_lengths(text, stops, lexicon)` is computed
    from entry i."""
    return [tuple(tokenize(raw, stops, lexicon))
            for raw in segment_sentences(text)]


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
