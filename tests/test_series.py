import numpy as np
import pytest

import corpusgen
from sentlen import MeasureKind, extract_all
from sentlen.series import CANONICAL_ORDER
from sentlen.textpipe import document_from_text


def _series(doc, kind):
    """The row of measure `kind`, by its canonical index."""
    return extract_all(doc)[CANONICAL_ORDER.index(kind)]


def test_canonical_order_labels():
    assert [k.label for k in CANONICAL_ORDER] == [
        "N_w", "N_c", "N_l", "N_Sw", "N_Sc", "N_Sl"]


class TestExcerptCounts:
    def test_words(self, stops, lexicon, excerpt_text):
        doc = document_from_text("x", excerpt_text, stops, lexicon)
        assert _series(doc, MeasureKind.WORDS)[0] == 8

    def test_nonstop_words(self, stops, lexicon, excerpt_text):
        doc = document_from_text("x", excerpt_text, stops, lexicon)
        assert _series(doc, MeasureKind.NONSTOP_WORDS)[0] == 4

    def test_chars(self, stops, lexicon, excerpt_text):
        # To(2) Sherlock(8) Holmes(6) she(3) is(2) always(6) the(3) woman(5)
        doc = document_from_text("x", excerpt_text, stops, lexicon)
        assert _series(doc, MeasureKind.CHARS)[0] == 35

    def test_six_series_of_length_four(self, stops, lexicon, excerpt_text):
        doc = document_from_text("x", excerpt_text, stops, lexicon)
        all_series = extract_all(doc)
        assert len(all_series) == 6
        assert all(len(s) == 4 for s in all_series)


def test_empty_document_gives_six_empty_series(stops, lexicon):
    doc = document_from_text("e", "", stops, lexicon)
    rows = extract_all(doc)
    assert len(rows) == 6
    for s in rows:
        assert len(s) == 0


class TestInvariants:
    def _doc(self, stops, lexicon):
        text = corpusgen.build_book(120, seed=99)
        return document_from_text("gen", text, stops, lexicon)

    def _by_kind(self, doc):
        return dict(zip(CANONICAL_ORDER, extract_all(doc)))

    def test_alignment(self, stops, lexicon):
        doc = self._doc(stops, lexicon)
        for s in extract_all(doc):
            assert len(s) == doc.sentence_count

    def test_int64_views_of_the_lengths(self, stops, lexicon):
        # the rows are the lengths themselves, not a copy
        doc = self._doc(stops, lexicon)
        rows = extract_all(doc)
        assert all(s.dtype == np.int64 and s.ndim == 1 for s in rows)
        assert np.array_equal(np.stack(rows), doc.lengths)
        assert all(np.shares_memory(s, doc.lengths) for s in rows)

    def test_rows_read_only(self, stops, lexicon):
        doc = self._doc(stops, lexicon)
        for s in extract_all(doc):
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[0] = 0.0

    def test_pointwise_dominance(self, stops, lexicon):
        by_kind = self._by_kind(self._doc(stops, lexicon))
        assert np.all(by_kind[MeasureKind.NONSTOP_WORDS]
                      <= by_kind[MeasureKind.WORDS])
        assert np.all(by_kind[MeasureKind.NONSTOP_CHARS]
                      <= by_kind[MeasureKind.CHARS])
        assert np.all(by_kind[MeasureKind.NONSTOP_LEMMA_CHARS]
                      <= by_kind[MeasureKind.LEMMA_CHARS])

    def test_chars_at_least_words(self, stops, lexicon):
        by_kind = self._by_kind(self._doc(stops, lexicon))
        assert np.all(by_kind[MeasureKind.CHARS] >= by_kind[MeasureKind.WORDS])

    def test_words_and_chars_strictly_positive(self, stops, lexicon):
        by_kind = self._by_kind(self._doc(stops, lexicon))
        assert np.all(by_kind[MeasureKind.WORDS] >= 1)
        assert np.all(by_kind[MeasureKind.CHARS] >= 1)

    def test_deterministic(self, stops, lexicon):
        doc = self._doc(stops, lexicon)
        a = _series(doc, MeasureKind.NONSTOP_LEMMA_CHARS)
        b = _series(doc, MeasureKind.NONSTOP_LEMMA_CHARS)
        assert np.array_equal(a, b)
