"""Batch orchestration: analyze every book in a directory, bundle the
15 pairwise comparisons and six DFA estimates per book, and aggregate
corpus-level distributions and acceptance tables."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, lru_cache
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

#: shuffled controls averaged per series; a single permutation leaves
#: ~0.03 estimator noise on h*, averaging tightens the control
N_SHUFFLES = 8


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
    stops = (_load("stopwords_path", stopwords_path, textpipe.StopwordList)
             if stopwords_path else textpipe.default_stopwords())
    lexicon = (_load("lemmas_path", lemmas_path, textpipe.LemmaLexicon)
               if lemmas_path else textpipe.default_lemma_lexicon())
    return stops, lexicon


def _shuffle_seed(config: AnalysisConfig, book_id: str, kind: MeasureKind,
                  index: int) -> int:
    # stable across runs and worker scheduling; hash() is salted, so use sha256
    digest = hashlib.sha256(f"{book_id}/{kind.label}/{index}".encode()).digest()
    return (config.seed << 64) ^ int.from_bytes(digest[:8], "big")


def analyze_book(path, config: AnalysisConfig) -> BookReport | SkippedBook:
    """Full per-book pipeline.  Returns SkippedBook for books below the
    sentence floor; raises IngestionError for unreadable files and
    DegenerateInputError for a book too short for the DFA windows."""
    path = Path(path)
    stops, lexicon = _resources(config.stopwords_path, config.lemmas_path)
    doc = textpipe.load_document(path, stops, lexicon)
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
    values = extract_all(doc)
    # each ranked once for the rank tests; ranking a constant series raises
    # nothing, so an all-zero series still fails in pearson first
    ranks = [correlation.rank_table(v) for v in values]
    # each normalized once, on first use, for the same reason
    normalized = cache(lambda k: distribution.mean_normalize(values[k]))

    comparisons = []
    for i, j in PAIR_INDICES:
        x, y = values[i], values[j]
        rx, ry = ranks[i], ranks[j]
        comparisons.append(ComparisonResult(
            pair=(CANONICAL_ORDER[i], CANONICAL_ORDER[j]),
            pearson=correlation.pearson(x, y),
            spearman=correlation.spearman(rx, ry, config.p_threshold),
            kendall=correlation.kendall_tau(rx, ry, config.p_threshold),
            gamma=correlation.goodman_kruskal_gamma(rx, ry,
                                                    config.p_threshold),
            ks_plain=distribution.ks_two_sample(
                normalized(i), normalized(j), config.p_threshold),
            ks_mapped=distribution.ks_after_linear_map(x, y, config.p_threshold),
            linear_map=correlation.fit_linear_map(x, y),
        ))

    hurst = {}
    for kind, v in zip(CANONICAL_ORDER, values):
        est = dfa.hurst_of_series(v, dfa_config)
        h_star = float(np.mean([
            dfa.shuffled_hurst(v, dfa_config,
                               _shuffle_seed(config, doc.id, kind, k))
            for k in range(N_SHUFFLES)
        ]))
        hurst[kind] = dataclasses.replace(est, h_shuffled=h_star)

    hs = [hurst[k].h for k in CANONICAL_ORDER]
    max_delta = max(abs(hs[i] - hs[j]) for i, j in PAIR_INDICES)
    return BookReport(
        book_id=doc.id,
        sentence_count=doc.sentence_count,
        comparisons=tuple(comparisons),
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
    bins = np.bincount(np.asarray(counts, dtype=np.int64) // bin_width)
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
    # a bad resource file ends the run here, before any book is read
    _resources(config.stopwords_path, config.lemmas_path)
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.txt") if p.is_file())
    if not paths:
        raise IngestionError(f"no .txt files found in {directory}")

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(config.jobs, len(paths), cpus)
    if workers > 1:
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


#: One entry per comparison field, in book-CSV column order: (attribute
#: path on ComparisonResult, key path in the book JSON record, book-CSV
#: column or None).  The JSON record also holds "pair"; the CSV row starts
#: with measure_x, measure_y.
_COMPARISON_FIELDS = (
    ("pearson", "pearson_r", "pearson_r"),
    ("spearman.statistic", "spearman.statistic", "spearman_rho"),
    ("spearman.p_value", "spearman.p_value", "spearman_p"),
    ("spearman.rejected", "spearman.rejected", None),
    ("kendall.statistic", "kendall.statistic", "kendall_tau"),
    ("kendall.p_value", "kendall.p_value", "kendall_p"),
    ("kendall.rejected", "kendall.rejected", None),
    ("gamma.statistic", "gamma.statistic", "gamma"),
    ("gamma.p_value", "gamma.p_value", "gamma_p"),
    ("gamma.rejected", "gamma.rejected", None),
    ("ks_plain.kappa", "ks_plain.kappa", "ks_plain_kappa"),
    ("ks_plain.p_value", "ks_plain.p_value", "ks_plain_p"),
    ("ks_plain.accepted", "ks_plain.accepted", "ks_plain_accepted"),
    ("ks_mapped.kappa", "ks_mapped.kappa", "ks_mapped_kappa"),
    ("ks_mapped.p_value", "ks_mapped.p_value", "ks_mapped_p"),
    ("ks_mapped.accepted", "ks_mapped.accepted", "ks_mapped_accepted"),
    ("linear_map.alpha", "linear_map.alpha", "map_alpha"),
    ("linear_map.beta", "linear_map.beta", "map_beta"),
)

#: HurstEstimate fields of each measure's entry in the book JSON record
_HURST_FIELDS = ("h", "intercept", "fit_r2", "h_shuffled")


def _comparison_record(c: ComparisonResult) -> dict:
    record = {"pair": [c.pair[0].label, c.pair[1].label]}
    for attr, key, _ in _COMPARISON_FIELDS:
        group, _, leaf = key.rpartition(".")
        node = record.setdefault(group, {}) if group else record
        value = operator.attrgetter(attr)(c)
        node[leaf] = value if isinstance(value, bool) else _jnum(value)
    return record


def _book_record(rep: BookReport) -> dict:
    return {
        "book_id": rep.book_id,
        "sentence_count": rep.sentence_count,
        "comparisons": [_comparison_record(c) for c in rep.comparisons],
        "hurst": {
            k.label: {name: _jnum(getattr(est, name))
                      for name in _HURST_FIELDS}
            for k, est in rep.hurst.items()
        },
        "max_abs_delta_h": _jnum(rep.max_abs_delta_h),
    }


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
    *(column for _, _, column in _COMPARISON_FIELDS if column),
    "hurst_x", "hurst_y", "hurst_shuffled_x", "hurst_shuffled_y",
    "abs_delta_h",
]


def _book_csv_rows(rep: BookReport):
    for c in rep.comparisons:
        hx = rep.hurst[c.pair[0]]
        hy = rep.hurst[c.pair[1]]
        yield [
            c.pair[0].label, c.pair[1].label,
            *(_fmt(operator.attrgetter(attr)(c))
              for attr, _, column in _COMPARISON_FIELDS if column),
            _fmt(hx.h), _fmt(hy.h), _fmt(hx.h_shuffled), _fmt(hy.h_shuffled),
            _fmt(abs(hx.h - hy.h)),
        ]


def _cdf_rows(values):
    n = len(values)
    return [[_fmt(v), _fmt((i + 1) / n)] for i, v in enumerate(values)]


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
        "skipped": [{"book_id": s.book_id, "reason": s.reason}
                    for s in summary.skipped],
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
    raises ValueError before any file is rendered or touched."""
    if not formats or not set(formats) <= {"json", "csv"}:
        raise ValueError("formats must be a non-empty sequence of 'json' "
                         f"and 'csv', got {formats!r}")
    files = {}
    for fmt in formats:
        files.update(_render(summary, reports, fmt))

    out_dir = Path(out_dir)
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
