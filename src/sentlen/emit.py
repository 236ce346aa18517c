"""Report emission: every file a run writes, in JSON and CSV, rendered
from the `CorpusSummary` and `BookReport`s that `harness` computes."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
import os
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, IngestionError
from .series import CANONICAL_ORDER, MeasureKind


def _path(name, path) -> Path:
    """path as a Path; an empty path, which Path reads as the working
    directory, is a ConfigError."""
    if not os.fspath(path):
        raise ConfigError(f"{name} must not be empty")
    return Path(path)


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
    return json.dumps(record, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


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
        files = {f"books/{rep.book_id}.json": _json_text(_json_value(rep))
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
    file is rendered before any is written, so a failure while rendering,
    such as the ValueError of a NaN or infinity in "json" (JSON has no
    token for either), leaves `out_dir` as it was.  Into a used
    directory, it leaves the tree a fresh run writes for `formats`.

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
