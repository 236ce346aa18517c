"""Benchmark workloads, generated from a seed with the test-suite corpus
generator (`tests/corpusgen.py`), plus the manifest each output is
checked against.

Each workload is a closed loop with one client: one `sentlen analyze`
run at a time over one generated directory of `.txt` books.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import corpusgen  # noqa: E402

DEFAULT_SEED = 20260826  # the acceptance-suite corpus seed


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    fmt: str

    @property
    def flags(self) -> tuple[str, ...]:
        return ("--jobs", str(self.jobs), "--format", self.fmt)


WORKLOADS = {w.name: w for w in (
    # the acceptance corpus: ingest dominates
    Workload("corpus12", jobs=1, fmt="json"),
    # long series of cheap sentences: the rank statistics and DFA dominate
    Workload("long-short", jobs=1, fmt="json"),
    # per-book fixed costs, and the only workload on the process pool, the
    # CSV writer and the skip path
    Workload("many-small", jobs=2, fmt="csv"),
)}


def _paragraphs(sentences) -> str:
    # the same running-prose layout as corpusgen.build_book
    return "\n\n".join(" ".join(sentences[i:i + 12])
                       for i in range(0, len(sentences), 12)) + "\n"


def _short_sentence_book(n_sentences: int, seed: int) -> str:
    """corpusgen.build_book with a mean of about 6 words per sentence.

    Sentence lengths are independent (Hurst 0.5): with persistence, the
    word count of a two-book workload swings by about 4 % from seed to
    seed, and the rank statistics and DFA cost the same either way.
    """
    rng = np.random.default_rng(seed)
    counts = corpusgen.sentence_word_counts(n_sentences, 0.5, rng, scale=3.0)
    return _paragraphs([corpusgen.build_sentence(int(k), rng) for k in counts])


def _corrupt(text: str) -> bytes:
    """Valid text with two bytes that are not UTF-8 planted mid-file."""
    raw = text.encode("utf-8")
    mid = len(raw) // 2
    return raw[:mid] + b"\xff\xfe" + raw[mid:]


def _books(name: str, seed: int, directory: Path) -> list[tuple[str, str]]:
    """Write the workload's books; return (file name, expected outcome).

    Book sizes are fixed per workload and the seed sets only the text, so
    every seed asks for the same amount of work and the run-to-run spread
    is the machine's, not the input's.
    """
    books = []
    if name == "corpus12":
        # the acceptance corpus's book sizes; at DEFAULT_SEED these are
        # exactly corpusgen.write_corpus(n_books=12, base_seed=DEFAULT_SEED)
        sizes = np.random.default_rng(DEFAULT_SEED).integers(1600, 3200, 12)
        for i, n in enumerate(sizes):
            books.append((f"book{i:02d}.txt", "analyzed",
                          corpusgen.build_book(int(n), seed + 7 * i + 1)))
    elif name == "long-short":
        for i in range(2):
            books.append((f"long{i}.txt", "analyzed",
                          _short_sentence_book(15000, seed + 7 * i + 1)))
    elif name == "many-small":
        for i in range(48):
            books.append((f"book{i:02d}.txt", "analyzed",
                          corpusgen.build_book(220 + 200 * i // 48,
                                               seed + 7 * i + 1)))
        for i in range(6):
            books.append((f"short{i}.txt", "skipped_floor",
                          corpusgen.build_book(60 + 25 * i, seed + 7 * i + 3)))
        books.append(("unreadable.txt", "unreadable",
                      _corrupt(corpusgen.build_book(300, seed + 5))))
    else:
        raise KeyError(name)
    for file_name, _, body in books:
        path = directory / file_name
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body, encoding="utf-8")
    return [(file_name, outcome) for file_name, outcome, _ in books]


def generate(name: str, seed: int, directory: Path) -> dict:
    """Write workload `name` for `seed` into `directory`/books and return
    its manifest (also written to `directory`/manifest.json)."""
    books_dir = directory / "books"
    books_dir.mkdir(parents=True)
    return write_manifest(directory, name, seed, _books(name, seed, books_dir))


def write_manifest(directory: Path, name: str, seed: int, books) -> dict:
    """Manifest of the (file name, expected outcome) pairs in
    `directory`/books: each book's outcome, sentences, bytes and sha256."""
    entries = []
    for file_name, outcome in books:
        raw = (directory / "books" / file_name).read_bytes()
        # every generated sentence carries exactly one terminator, and no
        # generated word contains one
        sentences = sum(raw.count(t) for t in (b".", b"!", b"?"))
        entries.append({
            "book_id": Path(file_name).stem,
            "outcome": outcome,
            "sentences": sentences,
            "bytes": len(raw),
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
    manifest = {"workload": name, "seed": seed,
                "books": sorted(entries, key=lambda e: e["book_id"])}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
