import json

import numpy as np
import pytest

from sentlen import harness, textpipe
from sentlen.cli import main as cli_main
from sentlen.exceptions import ConfigError, DegenerateInputError, IngestionError
from sentlen.harness import (
    PAIR_INDICES,
    AnalysisConfig,
    BookReport,
    SkippedBook,
    analyze_book,
    analyze_corpus,
    emit_reports,
    export_series_csv,
    hurst_length_correlation,
    summarize,
)
from sentlen.series import MeasureKind, extract_series
from sentlen.textpipe import document_from_text


@pytest.fixture(scope="module")
def small_results(small_corpus_dir):
    return analyze_corpus(small_corpus_dir, AnalysisConfig())


def test_pair_enumeration_is_canonical():
    assert len(PAIR_INDICES) == 15
    assert PAIR_INDICES[0] == (0, 1)
    assert PAIR_INDICES[-1] == (4, 5)


class TestAnalyzeBook:
    def test_short_book_skipped(self, tmp_path, excerpt_text):
        path = tmp_path / "excerpt.txt"
        path.write_text(excerpt_text, encoding="utf-8")
        outcome = analyze_book(path, AnalysisConfig())
        assert isinstance(outcome, SkippedBook)
        assert "4 sentences" in outcome.reason

    def test_empty_file_skipped(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        outcome = analyze_book(path, AnalysisConfig())
        assert isinstance(outcome, SkippedBook)

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(IngestionError):
            analyze_book(tmp_path / "missing.txt", AnalysisConfig())

    def test_report_shape(self, small_results):
        _, reports = small_results
        rep = reports[0]
        assert isinstance(rep, BookReport)
        assert len(rep.comparisons) == 15
        assert set(rep.hurst) == set(MeasureKind)
        hs = [rep.hurst[k].h for k in MeasureKind]
        expected = max(abs(a - b) for a in hs for b in hs)
        assert rep.max_abs_delta_h == pytest.approx(expected)


class TestAnalyzeCorpus:
    def test_comparison_count(self, small_results):
        summary, reports = small_results
        assert summary.book_count == 2
        assert summary.r_values.size == 15 * len(reports)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(IngestionError):
            analyze_corpus(tmp_path, AnalysisConfig())

    def test_bad_file_recorded_not_fatal(self, tmp_path, small_corpus_dir):
        for p in small_corpus_dir.glob("*.txt"):
            (tmp_path / p.name).write_text(p.read_text(encoding="utf-8"),
                                           encoding="utf-8")
        (tmp_path / "broken.txt").write_bytes(b"\xff\xfe bad bytes. here.")
        (tmp_path / "tiny.txt").write_text("One. Two. Three.",
                                           encoding="utf-8")
        summary, reports = analyze_corpus(tmp_path, AnalysisConfig())
        assert summary.book_count == 2
        assert {s.book_id for s in summary.skipped} == {"broken", "tiny"}

    def test_aggregate_cdfs_sorted(self, small_results):
        summary, _ = small_results
        for values in (summary.r_values, summary.kappa_values,
                       summary.delta_h_values):
            assert np.all(np.diff(values) >= 0)

    def test_acceptance_matrix_upper_triangle(self, small_results):
        summary, _ = small_results
        for mat in (summary.acceptance_plain, summary.acceptance_mapped):
            for i, j in PAIR_INDICES:
                assert 0.0 <= mat[i, j] <= 100.0
            assert np.isnan(mat[3, 1])
            assert np.isnan(mat[2, 2])

    def test_parallel_matches_serial(self, small_corpus_dir, small_results):
        serial_summary, serial_reports = small_results
        par_summary, par_reports = analyze_corpus(
            small_corpus_dir, AnalysisConfig(jobs=2))
        assert [r.book_id for r in par_reports] == [
            r.book_id for r in serial_reports]
        assert par_summary.r_values == pytest.approx(serial_summary.r_values)
        for a, b in zip(par_reports, serial_reports):
            assert a.hurst == b.hurst


class TestHurstLengthCorrelation:
    def test_needs_three_books(self, small_results):
        _, reports = small_results
        with pytest.raises(DegenerateInputError):
            hurst_length_correlation(reports)

    def test_identical_h_degenerate(self, small_results):
        _, reports = small_results
        clones = [reports[0]] * 5
        with pytest.raises(DegenerateInputError):
            hurst_length_correlation(clones)


class TestEmitReports:
    def test_csv_file_contract(self, small_results, tmp_path):
        summary, reports = small_results
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("csv",))
        book_files = sorted((out / "books").glob("*.csv"))
        assert len(book_files) == 2
        assert (out / "summary.csv").exists()
        plot_files = list((out / "plots").glob("*.csv"))
        assert len(plot_files) >= 4
        # each book file: header + 15 comparison rows
        lines = book_files[0].read_text().strip().splitlines()
        assert len(lines) == 16

    def test_acceptance_table_has_15_cells(self, small_results, tmp_path):
        summary, reports = small_results
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("csv",))
        for name in ("ks_acceptance_plain.csv", "ks_acceptance_mapped.csv"):
            rows = (out / "plots" / name).read_text().strip().splitlines()
            cells = [c for row in rows[1:] for c in row.split(",")[1:] if c]
            assert len(cells) == 15

    def test_json_records(self, small_results, tmp_path):
        summary, reports = small_results
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("json",))
        record = json.loads(
            (out / "books" / f"{reports[0].book_id}.json").read_text())
        assert len(record["comparisons"]) == 15
        assert set(record["hurst"]) == {
            "N_w", "N_c", "N_l", "N_Sw", "N_Sc", "N_Sl"}
        summary_record = json.loads((out / "summary.json").read_text())
        assert summary_record["book_count"] == 2
        assert summary_record["comparison_count"] == 30

    def test_rerun_byte_identical(self, small_results, tmp_path):
        summary, reports = small_results
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        files1 = emit_reports(summary, reports, out1, formats=("json", "csv"))
        files2 = emit_reports(summary, reports, out2, formats=("json", "csv"))
        assert len(files1) == len(files2)
        for f1, f2 in zip(sorted(files1), sorted(files2)):
            assert f1.read_bytes() == f2.read_bytes()

    def test_skip_manifest(self, tmp_path, excerpt_text):
        src = tmp_path / "src"
        src.mkdir()
        (src / "tiny.txt").write_text(excerpt_text, encoding="utf-8")
        summary, reports = analyze_corpus(src, AnalysisConfig())
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("json",))
        assert (out / "skipped.csv").exists()


def test_export_series_csv(tmp_path, stops, lexicon, excerpt_text):
    doc = document_from_text("excerpt", excerpt_text, stops, lexicon)
    series = extract_series(doc, MeasureKind.WORDS)
    path = export_series_csv(series, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sentence_index,value"
    assert lines[1] == "0,8"
    assert len(lines) == 5


def test_summarize_histogram_binning(small_results):
    summary, reports = small_results
    total = sum(count for _, count in summary.sentence_count_histogram)
    assert total == len(reports)
    widths = [b for b, _ in summary.sentence_count_histogram]
    assert widths == sorted(widths)


class TestCli:
    def test_analyze_runs(self, small_corpus_dir, tmp_path):
        out = tmp_path / "out"
        code = cli_main(["analyze", str(small_corpus_dir), "--out", str(out),
                         "--format", "csv"])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_missing_directory_fails(self, tmp_path):
        code = cli_main(["analyze", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")])
        assert code == 2


#: (AnalysisConfig field, CLI flag or None, rejected value)
BAD_SETTINGS = [
    ("hist_bin_width", "--hist-bin-width", 0),
    ("dfa_degree", "--dfa-degree", 0),
    ("dfa_points", "--dfa-points", 3),
    ("seed", "--seed", -1),
    ("p_threshold", "--p-threshold", 0.0),
    ("p_threshold", "--p-threshold", 1.0),
    ("p_threshold", "--p-threshold", 2.0),
    ("min_sentences", "--min-sentences", -1),
    ("n_shuffles", None, 0),
    ("jobs", "--jobs", 0),
]


class TestConfigValidation:
    @pytest.mark.parametrize("name,flag,value", BAD_SETTINGS)
    def test_rejected(self, name, flag, value):
        with pytest.raises(ConfigError, match=name):
            AnalysisConfig(**{name: value})

    @pytest.mark.parametrize("name,flag,value",
                             [b for b in BAD_SETTINGS if b[1]])
    def test_cli_exits_2_before_reading_a_book(self, name, flag, value,
                                               small_corpus_dir, tmp_path,
                                               monkeypatch):
        def no_reading(*args, **kwargs):
            raise AssertionError("a book was read")

        monkeypatch.setattr(textpipe, "load_document", no_reading)
        out = tmp_path / "out"
        code = cli_main(["analyze", str(small_corpus_dir), "--out", str(out),
                         flag, str(value)])
        assert code == 2
        assert not out.exists()

    def test_boundary_values_accepted(self):
        AnalysisConfig(hist_bin_width=1, dfa_degree=1, dfa_points=4, seed=0,
                       p_threshold=1e-9, min_sentences=0, n_shuffles=1,
                       jobs=1)


@pytest.mark.parametrize("jobs,cpus,expected", [
    (64, 64, 3),     # no more workers than books
    (64, 2, 2),      # nor than CPUs
    (2, 64, 2),
    (1, 64, None),   # one worker runs in process
    (64, None, None),
])
def test_pool_workers_clamped(jobs, cpus, expected, tmp_path, monkeypatch):
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.txt").write_text("Short. Book.", encoding="utf-8")
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    summary, _ = analyze_corpus(tmp_path, AnalysisConfig(jobs=jobs))
    assert len(summary.skipped) == 3
    assert pools == ([] if expected is None else [expected])
