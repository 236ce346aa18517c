import collections
import functools
import itertools
import pickle
import re
import string
import sys
import tempfile
import threading
import tracemalloc
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sentlen import (
    CANONICAL_ORDER,
    IngestionError,
    LemmaLexicon,
    MeasureKind,
    StopwordList,
    load_document,
    segment_sentences,
    sentence_tokens,
    tokenize,
)
from sentlen import textpipe
from sentlen.textpipe import (
    _WORD_CHAR_RE,
    document_from_text,
    sentence_lengths,
)


class TestSegmentation:
    def test_two_sentences(self):
        text = ("To Sherlock Holmes she is always the woman. I have seldom "
                "heard him mention her under any other name.")
        assert len(segment_sentences(text)) == 2

    def test_empty_input(self):
        assert segment_sentences("") == []

    def test_terminator_runs_collapse(self):
        segments = segment_sentences("Wait...! Go.")
        assert [s.strip() for s in segments] == ["Wait", "Go"]

    def test_abbreviations_are_not_special(self):
        # every period is a boundary, by design
        assert len(segment_sentences("Mr. Holmes spoke. She left.")) == 3

    def test_wordless_segments_dropped(self):
        assert segment_sentences("...?!  -- ") == []

    def test_totality_preserves_word_characters(self):
        rng = np.random.default_rng(42)
        alphabet = list(string.ascii_letters + string.digits + " .!?,;'\"-\n")
        for _ in range(50):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 200)))
            segments = segment_sentences(text)
            kept = "".join(c for s in segments for c in s if c.isalnum())
            original = "".join(c for c in text if c.isalnum())
            assert kept == original


class TestTokenize:
    def test_word_count(self):
        assert len(tokenize("To Sherlock Holmes she is always the woman")) == 8

    def test_whitespace_only(self):
        assert tokenize("   ") == []

    def test_internal_apostrophes_and_hyphens_survive(self):
        tokens = tokenize("it's half-done (really)")
        assert [t.surface for t in tokens] == ["it's", "half-done", "really"]

    def test_normalized_is_lowercased_surface(self):
        for t in tokenize("The QUICK Brown fox"):
            assert t.normalized == t.surface.lower()

    def test_punctuation_only_pieces_dropped(self):
        assert [t.surface for t in tokenize('"--" hello -- "')] == ["hello"]

    @pytest.mark.parametrize("piece,surface", [
        ("x\u0302", "x\u0302"),             # a mark with no precomposed form
        ("हिन्दी", "हिन्दी"),                   # a final vowel sign (Mc)
        ("தமிழ்", "தமிழ்"),                     # a final virama (Mn)
        ("a\u0301\u0301", "\u00e1\u0301"),  # NFC takes the first acute only
        ("(x\u0302),", "x\u0302"),
        ("\u0302x.", "x"),                   # a leading orphan mark
        ("x!\u0302", "x"),                   # a mark after stripped punctuation
    ])
    def test_marks_after_the_last_kept_character_stay(self, piece, surface):
        assert [t.surface for t in tokenize(piece)] == [surface]


class TestStopwords:
    def test_table_sentence_one(self, stops, lexicon):
        (tokens,) = sentence_tokens(
            "To Sherlock Holmes she is always the woman", stops, lexicon)
        assert [t.normalized for t in tokens if not t.is_stop] == [
            "sherlock", "holmes", "always", "woman"]

    def test_table_sentence_two(self, stops, lexicon):
        (tokens,) = sentence_tokens(
            "I have seldom heard him mention her under any other name",
            stops, lexicon)
        assert [t.normalized for t in tokens if not t.is_stop] == [
            "seldom", "heard", "mention", "name"]

    def test_all_stopwords_removed(self, stops, lexicon):
        # an all-stopword sentence keeps its place (index 3) in every series
        text = "Sherlock. Holmes. Watson. it was not the only own"
        tokens = sentence_tokens(text, stops, lexicon)
        assert [t for t in tokens[3] if not t.is_stop] == []
        lengths = sentence_lengths(text, stops, lexicon)
        assert lengths.shape == (6, 4)
        # it(2) was(3, lemma "be") not(3) the(3) only(4) own(3)
        assert lengths[:, 3].tolist() == [6, 18, 17, 0, 0, 0]

    def test_idempotent(self, stops, lexicon):
        (tokens,) = sentence_tokens(
            "In his eyes she eclipses and predominates the whole of her sex",
            stops, lexicon)
        once = tuple(t for t in tokens if not t.is_stop)
        (again,) = sentence_tokens(" ".join(t.surface for t in once),
                                   stops, lexicon)
        assert tuple(t for t in again if not t.is_stop) == once


class TestLemmatize:
    def test_table_example(self, stops, lexicon):
        (tokens,) = sentence_tokens("she is always the woman", stops, lexicon)
        assert [t.lemma for t in tokens] == [
            "she", "be", "always", "the", "woman"]

    def test_inflected_verbs(self, stops, lexicon):
        (tokens,) = sentence_tokens("eclipses and predominates", stops, lexicon)
        assert [t.lemma for t in tokens] == [
            "eclipse", "and", "predominate"]

    def test_identity_fallback(self, stops, lexicon):
        (tokens,) = sentence_tokens("sherlock xyzzy", stops, lexicon)
        assert [t.lemma for t in tokens] == ["sherlock", "xyzzy"]

    def test_token_count_preserved(self, stops, lexicon):
        text = "It was not that he felt any emotion akin to love"
        (tokens,) = sentence_tokens(text, stops, lexicon)
        assert len(tokens) == len(tokenize(text))
        words = sentence_lengths(text, stops, lexicon)[0]
        assert words.tolist() == [len(tokens)]


class TestLoadDocument:
    def test_excerpt_has_four_sentences(self, tmp_path, stops, lexicon,
                                        excerpt_text):
        path = tmp_path / "excerpt.txt"
        path.write_text(excerpt_text, encoding="utf-8")
        doc = load_document(path, stops, lexicon)
        assert doc.id == "excerpt"
        assert doc.sentence_count == 4
        assert doc.lengths.shape == (6, 4)
        # column i of the array is sentence i of the inspection helper
        assert doc.lengths[0].tolist() == [
            len(s) for s in sentence_tokens(excerpt_text, stops, lexicon)]

    def test_empty_file(self, tmp_path, stops, lexicon):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        assert load_document(path, stops, lexicon).sentence_count == 0

    def test_trailing_unterminated_segment_kept(self, tmp_path, stops, lexicon):
        path = tmp_path / "frag.txt"
        path.write_text("hello world", encoding="utf-8")
        doc = load_document(path, stops, lexicon)
        assert doc.sentence_count == 1
        assert doc.lengths[0].tolist() == [2]

    def test_missing_file(self, tmp_path, stops, lexicon):
        with pytest.raises(IngestionError):
            load_document(tmp_path / "nope.txt", stops, lexicon)

    def test_invalid_utf8(self, tmp_path, stops, lexicon):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe broken. text.")
        with pytest.raises(IngestionError):
            load_document(path, stops, lexicon)

    def test_tokens_carry_stop_status_and_lemma(self, stops, lexicon,
                                                excerpt_text):
        first = sentence_tokens(excerpt_text, stops, lexicon)[0]
        assert [t.is_stop for t in first] == [
            True, False, False, True, True, False, True, False]
        assert first[4].lemma == "be"

    def test_lengths_are_read_only(self, stops, lexicon, excerpt_text):
        doc = document_from_text("x", excerpt_text, stops, lexicon)
        assert doc.lengths.dtype == np.int64
        with pytest.raises(ValueError):
            doc.lengths[0, 0] = 1
        # a wordless text has no sentence, and still six rows
        for text, count in ((excerpt_text, 4), ("-- ... ?! ,,\n", 0)):
            lengths = document_from_text("x", text, stops, lexicon).lengths
            assert lengths.shape == (6, count)
            assert lengths.dtype == np.int64
            assert lengths.flags.c_contiguous
            assert not lengths.flags.writeable

    def test_ingest_peak_memory_is_bounded_by_text_size(self, stops, lexicon):
        # what grows with the text is the segment list and one 8-byte row
        # index per piece; no str is kept per piece, and no array has a
        # row per piece and a column per measure, so a text four times
        # longer takes no more memory per character
        book = corpusgen.build_book(12000, seed=11)
        assert len(book) >= 2_000_000
        for text in (book, book * 4):
            tracemalloc.start()
            try:
                sentence_lengths(text, stops, lexicon)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * len(text), (
                f"{len(text)} characters: {peak / len(text):.1f} bytes each")


def _memo(maxsize, reads=None):
    """A fresh memo of `textpipe._surface` holding `maxsize` pieces,
    counting each piece's misses in `reads`."""
    surface = textpipe._surface.__wrapped__

    def counted(piece):
        if reads is not None:
            reads[piece] += 1
        return surface(piece)

    return functools.lru_cache(maxsize=maxsize)(counted)


class TestPieceCache:
    TEXT = "The cat was here. A dog was not! The cat ran."

    def test_each_pair_of_lists_gives_its_own_series(self):
        # alternating lists in one process: no piece read under one pair
        # is taken as read under another
        plain = (StopwordList(), LemmaLexicon())
        stopped = (StopwordList(["the", "was"]), LemmaLexicon())
        lemmatized = (StopwordList(), LemmaLexicon({"was": "be"}))
        series = {}
        for _ in range(2):
            for name, lists in (("plain", plain), ("stopped", stopped),
                                ("lemmatized", lemmatized)):
                lengths = sentence_lengths(self.TEXT, *lists)
                assert lengths.T.tolist() == [
                    _reference_lengths(tokens)
                    for tokens in sentence_tokens(self.TEXT, *lists)]
                assert series.setdefault(name, lengths.tolist()) == \
                    lengths.tolist()
        # N_Sw of "The cat was here": 4 words, 2 of them stopwords
        assert series["plain"][3][0] == 4
        assert series["stopped"][3][0] == 2
        # N_l: "be" for "was" in the first two sentences
        assert series["plain"][2] == [13, 10, 9]
        assert series["lemmatized"][2] == [12, 9, 9]
        # the lists a pool worker unpickles are equal and count the same
        stops, lexicon = pickle.loads(pickle.dumps(stopped[:1] + lemmatized[1:]))
        assert stops.words == {"the", "was"}
        assert lexicon.mapping == {"was": "be"}
        assert sentence_lengths(self.TEXT, stops, lexicon).T.tolist() == [
            _reference_lengths(tokens) for tokens
            in sentence_tokens(self.TEXT, stopped[0], lemmatized[1])]

    def test_each_piece_read_once_per_process(self, monkeypatch):
        lists = (StopwordList(["the"]), LemmaLexicon({"was": "be"}))
        reads = collections.Counter()
        monkeypatch.setattr(textpipe, "_surface",
                            _memo(textpipe.PIECE_CACHE_SIZE, reads))
        first = sentence_lengths("The cat was here. The cat ran", *lists)
        assert reads == {"The": 1, "cat": 1, "was": 1, "here": 1, "ran": 1}
        reads.clear()
        second = sentence_lengths("The cat ran. The cat was here", *lists)
        assert not reads
        assert second.tolist() == first[:, ::-1].tolist()

    def test_alternating_lists_read_each_surface_once(self, monkeypatch):
        # a piece reads as the same surface under any lists, so switching
        # lists reads no piece again, and neither does a piece `tokenize`
        # has read
        reads = collections.Counter()
        monkeypatch.setattr(textpipe, "_surface",
                            _memo(textpipe.PIECE_CACHE_SIZE, reads))
        pairs = [(StopwordList(["the"]), LemmaLexicon()),
                 (StopwordList(), LemmaLexicon({"was": "be"}))]
        assert [t.surface for t in tokenize("The cat!", *pairs[0])] == \
            ["The", "cat"]
        assert reads == {"The": 1, "cat!": 1}
        reads.clear()
        tokenize("The cat was here", *pairs[1])
        assert reads == {"cat": 1, "was": 1, "here": 1}
        reads.clear()
        series = [sentence_lengths(self.TEXT, *lists) for lists in pairs]
        pieces = {p for raw in segment_sentences(self.TEXT)
                  for p in raw.split()}
        assert reads == {p: 1 for p in pieces - {"The", "cat", "was", "here"}}
        reads.clear()
        for _ in range(3):
            for lists, expected in zip(pairs, series):
                assert np.array_equal(sentence_lengths(self.TEXT, *lists),
                                      expected)
        assert not reads
        assert series[0][3].tolist() == [3, 4, 2]
        assert series[1][2].tolist() == [12, 9, 9]

    def test_a_full_memo_evicts_the_least_recent(self, monkeypatch):
        monkeypatch.setattr(textpipe, "_surface", _memo(4))
        lists = (StopwordList(["w1"]), LemmaLexicon({"w2": "lemma"}))
        text = " ".join(f"w{i} w{i % 3}, w{i}." for i in range(30))
        expected = [_reference_lengths(tokens)
                    for tokens in sentence_tokens(text, *lists)]
        for _ in range(2):
            assert sentence_lengths(text, *lists).T.tolist() == expected
            assert textpipe._surface.cache_info().currsize == 4

    def test_threads_with_their_own_lists_get_their_own_series(
            self, monkeypatch):
        # a small memo makes the threads evict its entries under each other
        monkeypatch.setattr(textpipe, "_surface", _memo(8))
        text = " ".join(f"w{i % 40} the was w{i % 7}." for i in range(400))
        pairs = [(StopwordList(["the", f"w{k}"]),
                  LemmaLexicon({"was": "b" * (k + 1)})) for k in range(6)]
        expected = [np.array([_reference_lengths(tokens) for tokens
                              in sentence_tokens(text, *lists)]).T.tolist()
                    for lists in pairs]
        wrong = []

        def work(k):
            for i in range(30):
                j = (k + i) % len(pairs)
                if sentence_lengths(text, *pairs[j]).tolist() != expected[j]:
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert textpipe._surface.cache_info().misses > 40

    def test_a_full_cache_holds_at_most_11_mb(self):
        lists = (StopwordList(), LemmaLexicon())
        text = " ".join(f"p{i}" for i in range(textpipe.PIECE_CACHE_SIZE))
        # so that the memo is filled while traced, whatever ran before
        textpipe._surface.cache_clear()
        tracemalloc.start()
        try:
            sentence_lengths(text, *lists)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        info = textpipe._surface.cache_info()
        assert info.currsize == info.misses == textpipe.PIECE_CACHE_SIZE
        assert held <= 11_000_000


class TestUnicode:
    TEXT = "The café served résumé coffee. Naïve."
    #: per measure in CANONICAL_ORDER, per sentence; "the" is a stopword
    EXPECTED = [[5, 1], [25, 5], [25, 5], [4, 1], [22, 5], [22, 5]]

    @pytest.mark.parametrize("form", ["NFC", "NFD", "NFKC", "NFKD"])
    def test_normal_form_does_not_change_the_series(self, stops, lexicon,
                                                    form):
        text = unicodedata.normalize(form, self.TEXT)
        assert sentence_lengths(text, stops, lexicon).tolist() == self.EXPECTED
        surfaces = [t.surface for s in sentence_tokens(text, stops, lexicon)
                    for t in s]
        assert surfaces == ["The", "café", "served", "résumé", "coffee",
                            "Naïve"]

    def test_resource_files_match_in_any_normal_form(self, tmp_path):
        (tmp_path / "stops.txt").write_text(
            unicodedata.normalize("NFD", "café\n"), encoding="utf-8")
        (tmp_path / "lemmas.tsv").write_text(
            unicodedata.normalize("NFD", "résumé\tresume\n"), encoding="utf-8")
        stops = StopwordList.from_file(tmp_path / "stops.txt")
        lexicon = LemmaLexicon.from_file(tmp_path / "lemmas.tsv")
        lengths = sentence_lengths(self.TEXT, stops, lexicon)
        # N_l: the lemma "resume" has 6 code points, as does "résumé"
        assert lengths[:, 0].tolist() == [5, 25, 25, 4, 21, 21]
        (first, _) = sentence_tokens(self.TEXT, stops, lexicon)
        assert [t.lemma for t in first][3] == "resume"
        assert [t.is_stop for t in first] == [False, True, False, False, False]


def _reference_lengths(tokens) -> list[int]:
    """The six measures of one sentence, recomputed from its tokens:
    words count tokens, character measures sum the relevant form's code
    points, non-stop variants drop stopword tokens first."""
    kept = [t for t in tokens if not t.is_stop]
    by_kind = {
        MeasureKind.WORDS: len(tokens),
        MeasureKind.CHARS: sum(len(t.surface) for t in tokens),
        MeasureKind.LEMMA_CHARS: sum(len(t.lemma) for t in tokens),
        MeasureKind.NONSTOP_WORDS: len(kept),
        MeasureKind.NONSTOP_CHARS: sum(len(t.surface) for t in kept),
        MeasureKind.NONSTOP_LEMMA_CHARS: sum(len(t.lemma) for t in kept),
    }
    return [by_kind[kind] for kind in CANONICAL_ORDER]


_PROPERTY_STOPS = StopwordList(["the", "a", "it's", "café", "x_y"])
_PROPERTY_LEMMAS = LemmaLexicon({"eyes": "eye", "was": "be", "naïve": "naive",
                                 "half-done": "do", "ß": "ss"})
_PIECES = st.one_of(
    st.sampled_from(["The", "the", "A", "it's", "It's", "café", "CAFÉ",
                     "eyes", "was", "naïve", "Naïve", "half-done", "x_y",
                     "_x_", "'quoted'", "--", "ß", "İ", "...", "?!", "Mr.",
                     "e\u0301", "\u0301", "١٢٣"]),
    st.text(alphabet="ab'-_.!?,;\"()é\u0301 \n\t", max_size=8),
    st.text(max_size=6),
)
_TEXTS = st.lists(_PIECES, max_size=40).map(" ".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_TEXTS)
def test_array_matches_the_inspection_helper(text):
    for stops, lexicon in ((_PROPERTY_STOPS, _PROPERTY_LEMMAS),
                           (StopwordList(), LemmaLexicon())):
        lengths = sentence_lengths(text, stops, lexicon)
        sentences = sentence_tokens(text, stops, lexicon)
        assert lengths.shape == (6, len(sentences))
        for i, tokens in enumerate(sentences):
            assert tokens, "every kept sentence has a word"
            assert lengths[:, i].tolist() == _reference_lengths(tokens)
        assert len(sentences) == len(segment_sentences(
            unicodedata.normalize("NFC", text)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_TEXTS, form=st.sampled_from(["NFD", "NFKC", "NFKD"]))
def test_canonically_equivalent_text_gives_the_same_array(text, form):
    # NFC of any canonically equivalent form is the same string; NFKC/NFKD
    # may differ, so they only need to agree with their own NFC
    other = unicodedata.normalize(form, text)
    same = text if form == "NFD" else unicodedata.normalize("NFC", other)
    assert np.array_equal(
        sentence_lengths(other, _PROPERTY_STOPS, _PROPERTY_LEMMAS),
        sentence_lengths(same, _PROPERTY_STOPS, _PROPERTY_LEMMAS))
    # every entry point reads a word in one form, not only the array
    assert (sentence_tokens(other, _PROPERTY_STOPS, _PROPERTY_LEMMAS)
            == sentence_tokens(same, _PROPERTY_STOPS, _PROPERTY_LEMMAS))
    assert (tokenize(other, _PROPERTY_STOPS, _PROPERTY_LEMMAS)
            == tokenize(same, _PROPERTY_STOPS, _PROPERTY_LEMMAS))


#: Mn (two accents, two viramas), Mc (two Devanagari vowel signs) and Me
#: (an enclosing circle): the three categories of combining mark
_MARKS = "\u0301\u0302\u093f\u0940\u094d\u0bcd\u20dd"
_MARKED_PIECES = st.text(alphabet="xeaहनதம" + _MARKS + ",'-_()\"",
                         min_size=1, max_size=10)


def _is_mark(char: str) -> bool:
    return unicodedata.category(char).startswith("M")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sentences=st.lists(st.lists(_MARKED_PIECES, min_size=1, max_size=6),
                          min_size=1, max_size=4))
def test_a_word_keeps_the_marks_after_its_last_character(sentences):
    for piece in itertools.chain.from_iterable(sentences):
        text = unicodedata.normalize("NFC", piece)
        kept = [i for i, char in enumerate(text) if char.isalnum()]
        tokens = tokenize(piece)
        if not kept:
            assert tokens == []
            continue
        first, last = kept[0], kept[-1]
        marks = len(list(itertools.takewhile(_is_mark, text[last + 1:])))
        (token,) = tokens
        assert token.surface == text[first:last + 1 + marks]
        assert len(token.surface) == last - first + 1 + marks
    # the array, the inspection helper and tokenize read each word alike
    text = " ".join(" ".join(words) + "." for words in sentences)
    lengths = sentence_lengths(text, _PROPERTY_STOPS, _PROPERTY_LEMMAS)
    words = [tuple(tokenize(" ".join(w), _PROPERTY_STOPS, _PROPERTY_LEMMAS))
             for w in sentences]
    words = [w for w in words if w]
    assert sentence_tokens(text, _PROPERTY_STOPS, _PROPERTY_LEMMAS) == words
    assert lengths.tolist() == (
        np.array([_reference_lengths(w) for w in words]).T.tolist()
        if words else [[]] * len(CANONICAL_ORDER))


_ACCENTED = ["café", "naïve", "résumé", "über", "façade", "señor",
             "ångström", "eyes", "ran"]


@st.composite
def _spellings(draw):
    """An accented word in random case, in NFC or NFD."""
    word = "".join(c.upper() if draw(st.booleans()) else c
                   for c in draw(st.sampled_from(_ACCENTED)))
    return unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), word)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stopwords=st.lists(_spellings(), max_size=4),
       lemmas=st.lists(st.tuples(_spellings(), _spellings()), max_size=4),
       sentences=st.lists(st.lists(_spellings(), min_size=1, max_size=6),
                          min_size=1, max_size=4))
def test_lists_built_in_code_match_lists_read_from_files(stopwords, lemmas,
                                                          sentences):
    text = " ".join(" ".join(words) + "." for words in sentences)
    in_code = (StopwordList(stopwords), LemmaLexicon(dict(lemmas)))
    with tempfile.TemporaryDirectory() as tmp:
        stops_path = Path(tmp, "stops.txt")
        lemmas_path = Path(tmp, "lemmas.tsv")
        stops_path.write_text("".join(f"{w}\n" for w in stopwords),
                              encoding="utf-8")
        lemmas_path.write_text("".join(f"{s}\t{l}\n" for s, l in lemmas),
                               encoding="utf-8")
        from_files = (StopwordList.from_file(stops_path),
                      LemmaLexicon.from_file(lemmas_path))
    assert in_code[0].words == from_files[0].words
    assert in_code[1].mapping == from_files[1].mapping
    assert np.array_equal(sentence_lengths(text, *in_code),
                          sentence_lengths(text, *from_files))
    assert sentence_tokens(text, *in_code) == sentence_tokens(text, *from_files)


class TestResourceLoading:
    def test_stopword_file(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("The\nand\n\nof\n", encoding="utf-8")
        stops = StopwordList.from_file(path)
        assert "the" in stops and "and" in stops and "of" in stops
        assert len(stops.words) == 3

    def test_lexicon_file(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("heard\thear\neyes\teye\nwas\tbe\nWas\tis\nwas\tam\n",
                        encoding="utf-8")
        lex = LemmaLexicon.from_file(path)
        assert lex.lemma_of("heard") == "hear"
        # one word in two cases: the last line wins
        assert lex.lemma_of("was") == "am"
        assert lex.lemma_of("unknown") == "unknown"

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        files = {"stops.txt": b"the\nand\n", "lemmas.tsv": b"was\tbe\nran\trun\n"}
        loaded = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            for name, content in files.items():
                (tmp_path / name).write_bytes(prefix + content)
            loaded.append((StopwordList.from_file(tmp_path / "stops.txt"),
                           LemmaLexicon.from_file(tmp_path / "lemmas.tsv")))
        (plain_stops, plain_lex), (bom_stops, bom_lex) = loaded
        assert bom_stops.words == plain_stops.words == {"the", "and"}
        assert bom_lex.mapping == plain_lex.mapping == {"was": "be",
                                                        "ran": "run"}

    def test_malformed_lexicon_line(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        for line in ("heard hear", "was\t", "\tbe", "was\t \t",
                     "was\tbe\tis", "\u3000\tbe"):
            path.write_text(f"eyes\teye\n{line}\n", encoding="utf-8")
            with pytest.raises(IngestionError, match=re.escape(f"{path}:2:")):
                LemmaLexicon.from_file(path)

    def test_whitespace_around_an_entry_is_not_part_of_it(self, tmp_path):
        clean = tmp_path / "clean.tsv"
        padded = tmp_path / "padded.tsv"
        clean.write_text("was\tbe\nran\trun\n", encoding="utf-8")
        padded.write_text("was\t be\nran \trun\n", encoding="utf-8")
        for lexicon in (LemmaLexicon.from_file(clean),
                        LemmaLexicon.from_file(padded),
                        LemmaLexicon({" was": "be\u3000", "ran\t": " run"})):
            assert lexicon.mapping == {"was": "be", "ran": "run"}
            # N_l: 2 + 2 + 4, and "ran" reads as "run"
            assert sentence_lengths("it was here. ran", StopwordList(),
                                    lexicon)[2].tolist() == [8, 3]
        assert StopwordList([" The\t", "\u3000", ""]).words == {"the"}

    @pytest.mark.parametrize("mapping", [{"was": ""}, {"was": " \t"},
                                         {"": "be"}, {"\u3000": "be"}])
    def test_an_empty_lexicon_entry_is_refused(self, mapping):
        (surface, lemma), = mapping.items()
        with pytest.raises(ValueError,
                           match=re.escape(f"{surface!r} -> {lemma!r}")):
            LemmaLexicon(mapping)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.text(alphabet="ab\t \u3000\n#\ufeff", max_size=40))
def test_a_lexicon_file_loads_or_is_refused_by_line(text):
    # never an uncaught ValueError: a bad line is an IngestionError
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "lemmas.tsv")
        path.write_text(text, encoding="utf-8")
        try:
            lexicon = LemmaLexicon.from_file(path)
        except IngestionError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(k and v and k == k.strip() and v == v.strip()
                       for k, v in lexicon.mapping.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_TEXTS)
def test_terminator_runs_segment_like_one_period(text):
    collapsed = re.sub(r"[.!?]+", ".", text)
    assert segment_sentences(collapsed) == segment_sentences(text)


def regex_segments(text: str) -> list[str]:
    """The regex segmentation `segment_sentences` replaced: split at each
    run of terminators, keep the segments that have a word character."""
    return [s for s in re.split(r"[.!?]+", text) if _WORD_CHAR_RE.search(s)]


# fullwidth terminators, the ellipsis character, the underscore and
# combining marks are not terminators and not word characters
_LOOKALIKES = "！？…_\u0301\u0308\u20dd"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=st.one_of(
    _TEXTS,
    st.text(alphabet="ab .!?" + _LOOKALIKES + "\n", max_size=60),
    st.lists(st.one_of(_PIECES, st.sampled_from(
        ["！", "？", "…", "wait…", "no！", "_", "a\u0308", "\u20dd.", "?!"])),
        max_size=40).map(" ".join)))
def test_split_matches_the_regex_split(text):
    assert segment_sentences(text) == regex_segments(text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(first=_TEXTS, terminator=st.sampled_from(".!?"), second=_TEXTS)
def test_joined_texts_give_both_columns_in_order(first, terminator, second):
    first += terminator
    lengths = [sentence_lengths(t, _PROPERTY_STOPS, _PROPERTY_LEMMAS)
               for t in (first, second, first + " " + second)]
    assert np.array_equal(lengths[2], np.hstack(lengths[:2]))
