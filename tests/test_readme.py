"""The README's Python examples run as documented."""

import re
from pathlib import Path

import numpy as np

import corpusgen
from sentlen import default_lemma_lexicon, default_stopwords, sentence_tokens

README = Path(__file__).resolve().parent.parent / "README.md"
LIBRARY, INSPECTION = re.findall(r"^```python\n(.*?)^```$",
                                 README.read_text(encoding="utf-8"),
                                 flags=re.MULTILINE | re.DOTALL)


def test_the_library_example_reads_a_book(tmp_path, monkeypatch):
    (tmp_path / "book.txt").write_text(corpusgen.build_book(300, 11),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(LIBRARY, names)
    assert names["doc"].id == "book"
    assert len(names["series"]) == 6
    assert -1.0 <= names["r"] <= 1.0
    assert np.isfinite(names["h"])
    assert names["est"].h == names["h"]
    assert np.isfinite(names["est"].h_shuffled)


def test_the_inspection_example_prints_each_sentence(capsys):
    text = "The cat was here. It ran!"
    stops, lexicon = default_stopwords(), default_lemma_lexicon()
    exec(INSPECTION, {"text": text, "stops": stops, "lexicon": lexicon})
    lines = capsys.readouterr().out.splitlines()
    assert lines == [repr([(t.surface, t.lemma, t.is_stop) for t in tokens])
                     for tokens in sentence_tokens(text, stops, lexicon)]
    assert len(lines) == 2
