"""Batch orchestration: analyze every book in a directory, bundle the
15 pairwise comparisons and six DFA estimates per book, and aggregate
corpus-level distributions and acceptance tables."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
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
                # would overflow the shuffle seed's << 64
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(
                    f"{name} must be an integer, got {value!r}") from None
        for name in ("dfa_max_fraction", "p_threshold"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
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
    # the 15 plain KS tests read each sorted row over its mean, reversed if
    # the mean is negative; after the pair loop, so that an all-zero series
    # fails in pearson before its zero mean is refused
    normalized = [(t.sorted / distribution._nonzero_mean(t))[
        ::-1 if t.mean < 0 else 1] for t in tables]
    comparisons = tuple(
        ComparisonResult(ks_plain=ks, **stats) for stats, ks in zip(
            pair_stats, distribution._ks_tests(
                normalized, PAIR_INDICES, config.p_threshold)))

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


def _path(name, path) -> Path:
    """path as a Path; an empty path, which Path reads as the working
    directory, is a ConfigError."""
    if not os.fspath(path):
        raise ConfigError(f"{name} must not be empty")
    return Path(path)


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


# ---------------------------------------------------------------------------
# report emission


def _fmt(x) -> str:
    """All numeric output carries 6 significant digits."""
    # most values are Python floats: one type check, then the format
    if type(x) is float:
        return format(x, ".6g")
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


def _jnum(x):
    if x is None:
        return None
    return float(format(float(x), ".6g"))


#: One entry per book-CSV column after measure_x, measure_y, in order:
#: (attribute path on ComparisonResult, column).
_COMPARISON_FIELDS = (
    ("pearson", "pearson_r"),
    ("spearman.statistic", "spearman_rho"),
    ("spearman.p_value", "spearman_p"),
    ("kendall.statistic", "kendall_tau"),
    ("kendall.p_value", "kendall_p"),
    ("gamma.statistic", "gamma"),
    ("gamma.p_value", "gamma_p"),
    ("ks_plain.kappa", "ks_plain_kappa"),
    ("ks_plain.p_value", "ks_plain_p"),
    ("ks_plain.accepted", "ks_plain_accepted"),
    ("ks_mapped.kappa", "ks_mapped_kappa"),
    ("ks_mapped.p_value", "ks_mapped_p"),
    ("ks_mapped.accepted", "ks_mapped_accepted"),
    ("linear_map.alpha", "map_alpha"),
    ("linear_map.beta", "map_beta"),
)
#: a ComparisonResult's values of those columns, as one tuple
_comparison_values = operator.attrgetter(
    *(attr for attr, _ in _COMPARISON_FIELDS))


def _json_value(x):
    """The JSON form of an analysis result: a dataclass is an object of
    its fields, a MeasureKind its label, a tuple a list, a dict an object
    of serialized keys and values, and a float carries 6 significant
    digits; a bool, int, str or None is written as it is."""
    if dataclasses.is_dataclass(x):
        return {"pearson_r" if f.name == "pearson" else f.name:
                _json_value(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, MeasureKind):
        return x.label
    if isinstance(x, tuple):
        return [_json_value(v) for v in x]
    if isinstance(x, dict):
        return {_json_value(k): _json_value(v) for k, v in x.items()}
    if isinstance(x, float):
        return _jnum(x)
    return x


def _book_record(rep: BookReport) -> dict:
    return _json_value(rep)


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it onto
    `path`, so a crash never leaves a partial output file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


_BOOK_CSV_HEADER = [
    "measure_x", "measure_y",
    *(column for _, column in _COMPARISON_FIELDS),
    "hurst_x", "hurst_y", "hurst_shuffled_x", "hurst_shuffled_y",
    "abs_delta_h",
]


def _book_csv_rows(rep: BookReport):
    for c in rep.comparisons:
        hx = rep.hurst[c.pair[0]]
        hy = rep.hurst[c.pair[1]]
        yield [
            c.pair[0].label, c.pair[1].label,
            *map(_fmt, _comparison_values(c)),
            _fmt(hx.h), _fmt(hy.h), _fmt(hx.h_shuffled), _fmt(hy.h_shuffled),
            _fmt(abs(hx.h - hy.h)),
        ]


def _cdf_rows(values: np.ndarray):
    # the values as Python floats, which _fmt formats first
    n = len(values)
    return [[_fmt(v), _fmt((i + 1) / n)]
            for i, v in enumerate(values.tolist())]


def _acceptance_rows(matrix):
    labels = [k.label for k in CANONICAL_ORDER]
    rows = []
    for i in range(len(labels) - 1):
        row = [labels[i]]
        for j in range(1, len(labels)):
            row.append(_fmt(matrix[i, j]) if j > i else "")
        rows.append(row)
    return rows


def _summary_record(summary: CorpusSummary) -> dict:
    return {
        "book_count": summary.book_count,
        "skipped": _json_value(summary.skipped),
        "comparison_count": int(summary.r_values.size),
        "mean_pearson_r": _jnum(summary.r_values.mean())
        if summary.r_values.size else None,
        "ks_plain_acceptance_pct": _jnum(
            np.nanmean(summary.acceptance_plain))
        if summary.book_count else None,
        "ks_mapped_acceptance_pct": _jnum(
            np.nanmean(summary.acceptance_mapped))
        if summary.book_count else None,
        "h_vs_length_r": _jnum(summary.h_vs_length_r),
        "sentence_count_histogram": [
            {"bin_start": b, "count": c}
            for b, c in summary.sentence_count_histogram
        ],
    }


def _render(summary: CorpusSummary, reports, fmt) -> dict[str, str]:
    """Every file a run in format `fmt` ("json" or "csv") writes:
    {path relative to OUT_DIR: text}."""
    reports = sorted(reports, key=lambda r: r.book_id)
    if fmt == "json":
        files = {f"books/{rep.book_id}.json": _json_text(_book_record(rep))
                 for rep in reports}
        files["summary.json"] = _json_text(_summary_record(summary))
    else:
        files = {f"books/{rep.book_id}.csv":
                 _csv_text(_BOOK_CSV_HEADER, _book_csv_rows(rep))
                 for rep in reports}
        # the scalar entries of the JSON summary, in its order
        files["summary.csv"] = _csv_text(
            ["key", "value"],
            [[key, _fmt(value)]
             for key, value in _summary_record(summary).items()
             if not isinstance(value, list)])

    files["plots/sentence_count_histogram.csv"] = _csv_text(
        ["bin_start", "count"], summary.sentence_count_histogram)
    for name, column, values in (
            ("pearson_cdf", "r", summary.r_values),
            ("ks_kappa_cdf", "kappa", summary.kappa_values),
            ("hurst_delta_cdf", "abs_delta_h", summary.delta_h_values)):
        files[f"plots/{name}.csv"] = _csv_text(
            [column, "cumulative_fraction"], _cdf_rows(values))
    for name, matrix in (("plain", summary.acceptance_plain),
                         ("mapped", summary.acceptance_mapped)):
        files[f"plots/ks_acceptance_{name}.csv"] = _csv_text(
            [""] + [k.label for k in CANONICAL_ORDER][1:],
            _acceptance_rows(matrix))
    if summary.skipped:
        files["skipped.csv"] = _csv_text(
            ["book_id", "reason"],
            [[s.book_id, s.reason] for s in summary.skipped])
    return files


def emit_reports(summary: CorpusSummary, reports, out_dir,
                 formats=("json",)) -> list[Path]:
    """Write per-book records, the corpus summary, and plot-ready CSVs.
    Deterministic: identical inputs produce byte-identical files.  Every
    file is rendered before any is written, so a failure while rendering
    leaves `out_dir` as it was.  Into a used directory, it leaves the tree
    a fresh run writes for `formats`.

    `formats` is a non-empty sequence of "json" and "csv"; anything else
    raises ValueError, and an empty `out_dir` ConfigError, before any file
    is rendered or touched."""
    if not formats or not set(formats) <= {"json", "csv"}:
        raise ValueError("formats must be a non-empty sequence of 'json' "
                         f"and 'csv', got {formats!r}")
    out_dir = _path("out_dir", out_dir)
    files = {}
    for fmt in formats:
        files.update(_render(summary, reports, fmt))

    books_dir = out_dir / "books"
    try:
        books_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "plots").mkdir(exist_ok=True)
    except OSError as exc:
        raise IngestionError(f"cannot create output directory: {exc}") from exc

    written = [out_dir / rel for rel in files]
    for path, text in zip(written, files.values()):
        _write_atomic(path, text)

    # only now that every write succeeded: drop what an earlier run left,
    # in either format
    stale = [out_dir / "skipped.csv"]
    for fmt in ("json", "csv"):
        stale += [out_dir / f"summary.{fmt}", *books_dir.glob(f"*.{fmt}")]
    for path in set(stale).difference(written):
        path.unlink(missing_ok=True)
    return written
