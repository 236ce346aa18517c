"""Batch orchestration: analyze every book in a directory, bundle the
15 pairwise comparisons and six DFA estimates per book, and aggregate
corpus-level distributions and acceptance tables.  `emit` writes them."""

from __future__ import annotations

import logging
import numbers
import operator
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from . import correlation, dfa, distribution, textpipe
# emit_reports stays a harness name for the library API and bench/tracer.py
from .emit import _path, emit_reports  # noqa: F401
from .exceptions import ConfigError, DegenerateInputError, IngestionError
from .series import CANONICAL_ORDER, MeasureKind, extract_all

log = logging.getLogger(__name__)

#: Canonical enumeration of the 15 measure pairs (indices into CANONICAL_ORDER).
PAIR_INDICES: tuple[tuple[int, int], ...] = tuple(
    combinations(range(len(CANONICAL_ORDER)), 2))


@dataclass(frozen=True)
class AnalysisConfig:
    stopwords_path: str | None = None
    lemmas_path: str | None = None
    dfa_degree: int = 1
    dfa_min_window: int = dfa.DEFAULT_MIN_WINDOW
    dfa_max_fraction: float = dfa.DEFAULT_MAX_FRACTION
    dfa_points: int = dfa.DEFAULT_NUM_WINDOWS
    seed: int = 0
    p_threshold: float = 0.01
    min_sentences: int = 200
    hist_bin_width: int = 1000
    #: worker processes; never more than books or CPUs this process may use
    jobs: int = 1

    def __post_init__(self):
        for name in ("dfa_degree", "dfa_min_window", "dfa_points", "seed",
                     "min_sentences", "hist_bin_width", "jobs"):
            value = getattr(self, name)
            try:
                # a numpy integer is stored as a Python int: a numpy seed
                # would overflow the shuffle seed's << 64; a bool, like
                # np.True_, is refused
                object.__setattr__(self, name, operator.index(
                    None if isinstance(value, bool) else value))
            except TypeError:
                raise ConfigError(
                    f"{name} must be an integer, got {value!r}") from None
        for name in ("dfa_max_fraction", "p_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            # a numpy float is stored as the Python float it holds
            object.__setattr__(self, name, float(value))
        for name in ("stopwords_path", "lemmas_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str, os.PathLike)):
                raise ConfigError(
                    f"{name} must be a path or None, got {value!r}")
        checks = (
            ("dfa_degree", self.dfa_degree >= 1, ">= 1"),
            # a degree-l fit needs at least l + 2 points per window
            ("dfa_min_window", self.dfa_min_window >= self.dfa_degree + 2,
             f">= dfa_degree + 2 = {self.dfa_degree + 2}"),
            ("dfa_points", self.dfa_points >= dfa.MIN_FIT_POINTS,
             f">= {dfa.MIN_FIT_POINTS}"),
            ("dfa_max_fraction", 0 < self.dfa_max_fraction <= dfa.MAX_FRACTION,
             f"in (0, {dfa.MAX_FRACTION}]"),
            ("seed", self.seed >= 0, ">= 0"),
            ("p_threshold", 0 < self.p_threshold < 1, "in (0, 1)"),
            ("min_sentences", self.min_sentences >= 0, ">= 0"),
            ("hist_bin_width", self.hist_bin_width >= 1, ">= 1"),
            ("jobs", self.jobs >= 1, ">= 1"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ComparisonResult:
    pair: tuple[MeasureKind, MeasureKind]
    pearson: float
    spearman: correlation.RankTestResult
    kendall: correlation.RankTestResult
    gamma: correlation.RankTestResult
    ks_plain: distribution.KsResult
    ks_mapped: distribution.KsResult
    linear_map: correlation.LinearMap


@dataclass(frozen=True)
class BookReport:
    book_id: str
    sentence_count: int
    comparisons: tuple[ComparisonResult, ...]
    hurst: dict[MeasureKind, dfa.HurstEstimate]
    max_abs_delta_h: float


@dataclass(frozen=True)
class SkippedBook:
    book_id: str
    reason: str


@dataclass(frozen=True)
class CorpusSummary:
    book_count: int
    skipped: tuple[SkippedBook, ...]
    sentence_count_histogram: tuple[tuple[int, int], ...]
    r_values: np.ndarray = field(repr=False)
    kappa_values: np.ndarray = field(repr=False)
    delta_h_values: np.ndarray = field(repr=False)
    acceptance_plain: np.ndarray = field(repr=False)  # 6x6, upper triangle, %
    acceptance_mapped: np.ndarray = field(repr=False)
    h_vs_length_r: float | None


def _load(field, path, kind):
    """kind.from_file(path); a bad file is a ConfigError naming its field."""
    try:
        return kind.from_file(path)
    except (OSError, UnicodeDecodeError, IngestionError) as exc:
        raise ConfigError(f"cannot load {field} {path!r}: {exc}") from exc


@lru_cache(maxsize=4)
def _resources(stopwords_path, lemmas_path):
    # only None means the bundled list: an empty path fails to load
    stops = (textpipe.default_stopwords() if stopwords_path is None else
             _load("stopwords_path", stopwords_path, textpipe.StopwordList))
    lexicon = (textpipe.default_lemma_lexicon() if lemmas_path is None else
               _load("lemmas_path", lemmas_path, textpipe.LemmaLexicon))
    return stops, lexicon


def analyze_book(path, config: AnalysisConfig) -> BookReport | SkippedBook:
    """Full per-book pipeline: `load_document`, then `analyze_lengths` of
    its lengths.  Raises IngestionError for unreadable files."""
    stops, lexicon = _resources(config.stopwords_path, config.lemmas_path)
    doc = textpipe.load_document(Path(path), stops, lexicon)
    return analyze_lengths(doc.id, doc.lengths, config)


def analyze_lengths(book_id: str, lengths,
                    config: AnalysisConfig) -> BookReport | SkippedBook:
    """The analysis of one book's (6, n_sentences) integer lengths, row k
    measure CANONICAL_ORDER[k], as `textpipe.Document.lengths` holds them.
    Returns SkippedBook for books below the sentence floor; raises
    DegenerateInputError for a book too short for the DFA windows."""
    doc = textpipe.Document(book_id, lengths)
    if doc.sentence_count < config.min_sentences:
        return SkippedBook(
            book_id=doc.id,
            reason=(f"only {doc.sentence_count} sentences "
                    f"(floor {config.min_sentences})"),
        )
    # all six series share the sentence count, so one window grid serves all
    dfa_config = dfa.default_config(
        doc.sentence_count, detrend_degree=config.dfa_degree,
        min_window=config.dfa_min_window,
        max_fraction=config.dfa_max_fraction, num=config.dfa_points)
    # one table per series feeds every statistic; each field is computed
    # on its first read, so an all-zero series still fails in pearson first
    tables = [correlation.rank_table(v) for v in extract_all(doc)]

    pair_stats = []
    for i, j in PAIR_INDICES:
        tx, ty = tables[i], tables[j]
        pair_stats.append(dict(
            pair=(CANONICAL_ORDER[i], CANONICAL_ORDER[j]),
            pearson=correlation.pearson(tx, ty),
            spearman=correlation.spearman(tx, ty, config.p_threshold),
            kendall=correlation.kendall_tau(tx, ty, config.p_threshold),
            gamma=correlation.goodman_kruskal_gamma(tx, ty,
                                                    config.p_threshold),
            ks_mapped=distribution.ks_after_linear_map(tx, ty,
                                                       config.p_threshold),
            linear_map=correlation.fit_linear_map(tx, ty),
        ))
    # the 15 plain KS tests read each table's distinct values over its
    # mean; after the pair loop, so that an all-zero series fails in
    # pearson before its zero mean is refused
    comparisons = tuple(
        ComparisonResult(ks_plain=ks, **stats) for stats, ks in zip(
            pair_stats, distribution.ks_mean_normalized(
                tables, PAIR_INDICES, config.p_threshold)))

    hurst = {kind: dfa.hurst_with_control(table, dfa_config, config.seed,
                                          f"{doc.id}/{kind.label}")
             for kind, table in zip(CANONICAL_ORDER, tables)}

    hs = [hurst[k].h for k in CANONICAL_ORDER]
    max_delta = max(abs(hs[i] - hs[j]) for i, j in PAIR_INDICES)
    return BookReport(
        book_id=doc.id,
        sentence_count=doc.sentence_count,
        comparisons=comparisons,
        hurst=hurst,
        max_abs_delta_h=max_delta,
    )


def _safe_analyze(path, config):
    """analyze_book; any error becomes a SkippedBook, never fatal."""
    try:
        return analyze_book(path, config)
    except (IngestionError, DegenerateInputError) as exc:
        return SkippedBook(book_id=Path(path).stem, reason=str(exc))
    except Exception as exc:
        log.exception("analysis of %s failed", path)
        return SkippedBook(book_id=Path(path).stem,
                           reason=f"failed: {type(exc).__name__}: {exc}")


def hurst_length_correlation(reports) -> float:
    """Pearson r between per-book sentence count and the Words-measure
    Hurst exponent."""
    reports = list(reports)
    if len(reports) < 3:
        raise DegenerateInputError("need at least 3 books")
    counts = [r.sentence_count for r in reports]
    hs = [r.hurst[MeasureKind.WORDS].h for r in reports]
    return correlation.pearson(counts, hs)


def _histogram(counts, bin_width):
    # floor division in Python ints: any width, even one past int64, works
    bins = np.bincount(np.array([c // bin_width for c in counts],
                                dtype=np.int64))
    return tuple((b * bin_width, int(c)) for b, c in enumerate(bins))


def summarize(reports, skipped, config: AnalysisConfig) -> CorpusSummary:
    reports = sorted(reports, key=lambda r: r.book_id)
    r_values = np.sort([c.pearson for rep in reports for c in rep.comparisons])
    kappa_values = np.sort([c.ks_plain.kappa for rep in reports
                            for c in rep.comparisons])
    delta_h = []
    for rep in reports:
        hs = [rep.hurst[k].h for k in CANONICAL_ORDER]
        delta_h.extend(abs(hs[i] - hs[j]) for i, j in PAIR_INDICES)
    delta_h = np.sort(delta_h)

    n = len(CANONICAL_ORDER)
    plain = np.full((n, n), np.nan)
    mapped = np.full((n, n), np.nan)
    if reports:
        for idx, (i, j) in enumerate(PAIR_INDICES):
            plain[i, j] = 100.0 * np.mean(
                [rep.comparisons[idx].ks_plain.accepted for rep in reports])
            mapped[i, j] = 100.0 * np.mean(
                [rep.comparisons[idx].ks_mapped.accepted for rep in reports])

    try:
        h_vs_len = hurst_length_correlation(reports)
    except DegenerateInputError:
        h_vs_len = None

    return CorpusSummary(
        book_count=len(reports),
        skipped=tuple(sorted(skipped, key=lambda s: s.book_id)),
        sentence_count_histogram=_histogram(
            [r.sentence_count for r in reports], config.hist_bin_width),
        r_values=r_values,
        kappa_values=kappa_values,
        delta_h_values=delta_h,
        acceptance_plain=plain,
        acceptance_mapped=mapped,
        h_vs_length_r=h_vs_len,
    )


def analyze_corpus(directory, config: AnalysisConfig
                   ) -> tuple[CorpusSummary, list[BookReport]]:
    directory = _path("directory", directory)
    # a bad resource file ends the run here, before any book is read
    _resources(config.stopwords_path, config.lemmas_path)
    paths = sorted(p for p in directory.glob("*.txt") if p.is_file())
    if not paths:
        raise IngestionError(f"no .txt files found in {directory}")

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(config.jobs, len(paths), cpus)
    if workers > 1:
        # imported here: a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_safe_analyze, paths,
                                     [config] * len(paths)))
    else:
        outcomes = [_safe_analyze(p, config) for p in paths]

    reports = sorted((o for o in outcomes if isinstance(o, BookReport)),
                     key=lambda r: r.book_id)
    skipped = [o for o in outcomes if isinstance(o, SkippedBook)]
    for s in skipped:
        log.warning("skipped %s: %s", s.book_id, s.reason)
    return summarize(reports, skipped, config), reports
