import concurrent.futures
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from sentlen import cli, correlation, dfa, distribution, emit, harness, textpipe
from sentlen.cli import main as cli_main
from sentlen.exceptions import ConfigError, DegenerateInputError, IngestionError
from sentlen.harness import (
    PAIR_INDICES,
    AnalysisConfig,
    BookReport,
    SkippedBook,
    analyze_book,
    analyze_corpus,
    analyze_lengths,
    emit_reports,
    hurst_length_correlation,
    summarize,
)
from sentlen.series import CANONICAL_ORDER, MeasureKind


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

    @pytest.mark.parametrize("n_sentences", [300, 100])
    def test_is_analyze_lengths_of_the_document(self, tmp_path, stops,
                                                lexicon, n_sentences):
        # the default floor is 200 sentences: the second book is skipped
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(n_sentences, seed=1),
                        encoding="utf-8")
        config = AnalysisConfig()
        doc = textpipe.load_document(path, stops, lexicon)
        outcome = analyze_book(path, config)
        assert isinstance(outcome, SkippedBook) is (n_sentences < 200)
        assert outcome == analyze_lengths(doc.id, doc.lengths, config)

    def test_empty_file_skipped(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        outcome = analyze_book(path, AnalysisConfig())
        assert isinstance(outcome, SkippedBook)

    def test_too_few_dfa_windows_skipped_before_comparisons(self, tmp_path,
                                                            monkeypatch):
        for n in (33, 40):
            (tmp_path / f"n{n}.txt").write_text(
                corpusgen.build_book(n, seed=n), encoding="utf-8")

        def no_comparison(*args, **kwargs):
            raise AssertionError("a comparison ran")

        for module, name in [
            (correlation, "pearson"), (correlation, "spearman"),
            (correlation, "kendall_tau"),
            (correlation, "goodman_kruskal_gamma"),
            (correlation, "fit_linear_map"),
            (distribution, "ks_two_sample"),
            (distribution, "ks_after_linear_map"),
        ]:
            monkeypatch.setattr(module, name, no_comparison)
        summary, reports = analyze_corpus(tmp_path,
                                          AnalysisConfig(min_sentences=0))
        assert not reports
        assert {s.book_id: s.reason for s in summary.skipped} == {
            "n33": "series of length 33 too short for DFA: window grid [8] "
                   "has 1 sizes, a fit needs 4",
            "n40": "series of length 40 too short for DFA: window grid "
                   "[8, 9, 10] has 3 sizes, a fit needs 4",
        }

    def test_p_threshold_decides_every_test(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        runs = []
        for t in (0.01, 0.5):
            rep = analyze_book(path, AnalysisConfig(p_threshold=t))
            run = []
            for c in rep.comparisons:
                for test in (c.spearman, c.kendall, c.gamma):
                    assert test.rejected is (test.p_value < t)
                    run.append((test.p_value, test.rejected))
                for test in (c.ks_plain, c.ks_mapped):
                    assert test.accepted is (test.p_value >= t)
                    run.append((test.p_value, test.accepted))
            runs.append(run)
        (p_low, decided_low), (p_high, decided_high) = (zip(*run)
                                                        for run in runs)
        # the threshold moves decisions, never p-values; this book has KS
        # p-values between the two thresholds, so some decision flips
        assert p_low == p_high
        assert decided_low != decided_high

    def test_decisions_are_bools_for_a_numpy_threshold(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        rep = analyze_book(path, AnalysisConfig(p_threshold=np.float64(0.5)))
        for c in emit._json_value(rep)["comparisons"]:
            decisions = [c[test]["rejected"]
                         for test in ("spearman", "kendall", "gamma")]
            decisions += [c[test]["accepted"]
                          for test in ("ks_plain", "ks_mapped")]
            assert all(type(d) is bool for d in decisions)

    def test_each_series_prepared_once(self, tmp_path, monkeypatch):
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        normalized, dfa_inputs, checks, built = [], [], [], []
        mean_normalize = distribution.mean_normalize
        hurst_of_series = dfa.hurst_of_series
        post_init = dfa.DfaConfig.__post_init__
        rank_table = correlation.rank_table

        def record_normalize(series):
            normalized.append(series)
            return mean_normalize(series)

        def record_hurst(series, config):
            dfa_inputs.append(series)
            return hurst_of_series(series, config)

        def record_check(config):
            checks.append(config)
            post_init(config)

        def record_table(values):
            table = rank_table(values)
            if table is not values:
                built.append(table)
            return table

        ranked = []
        ties = correlation._ties

        def record_ties(values):
            ranked.append(values)
            return ties(values)

        def no_polyfit(*args, **kwargs):
            raise AssertionError("np.polyfit ran")

        extracted = []
        extract_all = harness.extract_all

        def record_extract(doc):
            extracted.append(extract_all(doc))
            return extracted[-1]

        midranked, sorted_rows = [], []
        midranks, sort = correlation._midranks, np.sort

        def record_midranks(dense, counts):
            midranked.append(dense)
            return midranks(dense, counts)

        def record_sort(a, *args, **kwargs):
            sorted_rows.append(a)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(correlation, "_midranks", record_midranks)
        monkeypatch.setattr(np, "sort", record_sort)
        correlation._concordance.cache_clear()
        monkeypatch.setattr(harness, "extract_all", record_extract)
        monkeypatch.setattr(distribution, "mean_normalize", record_normalize)
        for module in (correlation, distribution, dfa):
            monkeypatch.setattr(module, "rank_table", record_table)
        monkeypatch.setattr(dfa, "hurst_of_series", record_hurst)
        monkeypatch.setattr(dfa.DfaConfig, "__post_init__", record_check)
        monkeypatch.setattr(correlation, "_ties", record_ties)
        monkeypatch.setattr(np, "polyfit", no_polyfit)
        assert isinstance(analyze_book(path, AnalysisConfig()), BookReport)
        # the plain KS tests read the tables: nothing is mean_normalized
        assert normalized == [] and len(checks) == 1
        # one table per series is built from an array, and the DFA reads
        # those six tables
        assert len(built) == 6
        assert [id(s) for s in dfa_inputs] == [id(t) for t in built]
        rows = [id(t.row) for t in built]
        # the tables hold the int64 rows of the lengths, uncopied
        assert all(t.row.dtype == np.int64 for t in built)
        # the 45 rank tests rank those rows once each, and nothing else
        assert [id(s) for s in ranked] == rows
        # and they are the rows of the book's one extract_all
        assert len(extracted) == 1
        assert [id(s) for s in extracted[0]] == rows
        # each series' midranks are built once, for all 15 Spearman pairs
        assert len(midranked) == 6
        # the 15 pairs are counted once each: tau counts, gamma reads the
        # memo
        memo = correlation._concordance.cache_info()
        assert (memo.misses, memo.hits) == (15, 15)
        # no KS call sorts: all 30 KS tests read each table's distinct
        # values and their counts, which the rank tests' _ties made
        assert sorted_rows == []

    def test_one_hurst_with_control_call_per_series(self, monkeypatch):
        # the DFA of a book is one call per series, in CANONICAL_ORDER, on
        # the series' table, keyed by the book and the measure's label
        calls = []
        hurst_with_control = dfa.hurst_with_control

        def record(series, config, seed, key):
            calls.append((series, seed, key,
                          hurst_with_control(series, config, seed, key)))
            return calls[-1][-1]

        monkeypatch.setattr(dfa, "hurst_with_control", record)
        lengths = np.random.default_rng(3).integers(1, 40, (6, 300))
        rep = analyze_lengths("book", lengths, AnalysisConfig(seed=5))
        assert [(seed, key) for _, seed, key, _ in calls] == [
            (5, f"book/{kind.label}") for kind in CANONICAL_ORDER]
        for k, (series, *_, est) in enumerate(calls):
            assert isinstance(series, correlation.RankTable)
            assert series.row.tolist() == lengths[k].tolist()
            assert rep.hurst[CANONICAL_ORDER[k]] is est

    def test_finished_book_keeps_at_most_two_tables(self, tmp_path,
                                                    monkeypatch):
        # the concordance memo holds one pair, so at most the last pair's
        # two tables outlive the book, not all six while the next is read
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        built = []
        rank_table = correlation.rank_table

        def record_table(values):
            table = rank_table(values)
            if table is not values:
                built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(correlation, "rank_table", record_table)
        assert isinstance(analyze_book(path, AnalysisConfig()), BookReport)
        gc.collect()
        # the first six are the tables of the book's six series
        assert len(built) >= 6
        assert sum(ref() is not None for ref in built[:6]) <= 2

    def test_stopword_only_book_skipped_by_pearson(self, tmp_path):
        # its non-stopword series are all zero: ranking them raises nothing,
        # and the first pair that reads one fails in pearson
        rng = np.random.default_rng(3)
        stops = ["the", "and", "of", "it", "was", "in", "to", "a"]
        path = tmp_path / "stops.txt"
        path.write_text(" ".join(
            " ".join(rng.choice(stops, size=rng.integers(2, 12))) + "."
            for _ in range(300)), encoding="utf-8")
        assert harness._safe_analyze(path, AnalysisConfig()) == SkippedBook(
            book_id="stops", reason="zero variance input to pearson")

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

    def test_empty_path_refused_before_reading(
            self, small_corpus_dir, tmp_path, monkeypatch):
        # "" would name the working directory: here a directory of books
        def no_reading(*args, **kwargs):
            raise AssertionError("a file was read")

        for book in small_corpus_dir.glob("*.txt"):
            (tmp_path / book.name).write_bytes(book.read_bytes())
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(textpipe, "load_document", no_reading)
        monkeypatch.setattr(harness, "_load", no_reading)
        with pytest.raises(ConfigError, match="directory must not be empty"):
            analyze_corpus("", AnalysisConfig(stopwords_path="stops.txt"))

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

    def test_unexpected_error_recorded_not_fatal(self, small_corpus_dir,
                                                 tmp_path, monkeypatch,
                                                 caplog):
        failing, other = sorted(small_corpus_dir.glob("*.txt"))
        load_document = textpipe.load_document

        def load_or_fail(path, *args):
            if path == failing:
                raise RuntimeError("injected")
            return load_document(path, *args)

        monkeypatch.setattr(textpipe, "load_document", load_or_fail)
        summary, reports = analyze_corpus(small_corpus_dir,
                                          AnalysisConfig(jobs=1))
        assert [r.book_id for r in reports] == [other.stem]
        assert any(r.levelname == "ERROR" and r.exc_info
                   and str(failing) in r.getMessage() for r in caplog.records)
        emit_reports(summary, reports, tmp_path, formats=("csv",))
        assert (tmp_path / "skipped.csv").read_text() == (
            f"book_id,reason\n{failing.stem},failed: RuntimeError: injected\n")

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

    def test_parallel_matches_serial(self, small_corpus_dir, small_results,
                                     tmp_path):
        serial_summary, serial_reports = small_results
        par_summary, par_reports = analyze_corpus(
            small_corpus_dir, AnalysisConfig(jobs=2))
        assert [r.book_id for r in par_reports] == [
            r.book_id for r in serial_reports]
        np.testing.assert_array_equal(par_summary.r_values,
                                      serial_summary.r_values)
        for a, b in zip(par_reports, serial_reports):
            assert a.hurst == b.hurst
        # the files, rendered from what the workers pickle back, are the
        # serial run's byte for byte
        formats = ("json", "csv")
        emit_reports(serial_summary, serial_reports, tmp_path / "serial",
                     formats=formats)
        emit_reports(par_summary, par_reports, tmp_path / "parallel",
                     formats=formats)
        serial = _tree(tmp_path / "serial")
        assert {p.rsplit(".", 1)[-1] for p in serial} == set(formats)
        assert _tree(tmp_path / "parallel") == serial


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
    def test_empty_out_dir_refused_before_writing(self, small_results,
                                                  tmp_path, monkeypatch):
        # "" would name the working directory, and the cleanup of stale
        # output would then remove book files there that no run wrote
        summary, reports = small_results
        (tmp_path / "books").mkdir()
        (tmp_path / "books" / "mine.json").write_text("{}", encoding="utf-8")
        (tmp_path / "summary.csv").write_text("kept\n", encoding="utf-8")
        before = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        for fmt in ("json", "csv"):
            with pytest.raises(ConfigError, match="out_dir must not be empty"):
                emit_reports(summary, reports, "", formats=(fmt,))
        assert _tree(tmp_path) == before

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

    def test_interrupted_write_leaves_no_partial_file(self, small_results,
                                                      tmp_path, monkeypatch):
        summary, reports = small_results
        target = tmp_path / "old.csv"
        target.write_text("old\n", encoding="utf-8")

        def interrupt(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(emit.os, "replace", interrupt)
            for path in (tmp_path / "new.csv", target):
                with pytest.raises(KeyboardInterrupt):
                    emit._write_atomic(path, "key,value\na,1\n")
        # no .tmp file, no new target, and the old target unchanged
        assert _tree(tmp_path) == {"old.csv": b"old\n"}

        # an unserializable record fails while rendering: nothing is written
        json_text = emit._json_text
        monkeypatch.setattr(emit, "_json_text",
                            lambda record: json_text({"a": object()}))
        out = tmp_path / "out"
        with pytest.raises(TypeError):
            emit_reports(summary, reports, out, formats=("csv", "json"))
        assert not out.exists()

    def test_rerun_interrupted_while_rendering_keeps_every_file(
            self, small_corpus_dir, small_results, tmp_path, monkeypatch):
        out = tmp_path / "out"
        emit_reports(*small_results, out)
        before = _tree(out)
        rerun = analyze_corpus(small_corpus_dir, AnalysisConfig(seed=1))
        emit_reports(*rerun, tmp_path / "seed1")
        assert _tree(tmp_path / "seed1") != before  # the seed moves h_shuffled

        json_text = emit._json_text
        rendered = []

        def interrupt_at_second_book(record):
            rendered.append(record["book_id"])
            if len(rendered) == 2:
                raise KeyboardInterrupt
            return json_text(record)

        monkeypatch.setattr(emit, "_json_text", interrupt_at_second_book)
        with pytest.raises(KeyboardInterrupt):
            emit_reports(*rerun, out)
        assert len(rendered) == 2
        assert _tree(out) == before

    def test_unknown_or_no_format_is_refused_before_rendering(
            self, small_results, tmp_path, monkeypatch):
        out = tmp_path / "out"
        emit_reports(*small_results, out, formats=("json", "csv"))
        before = _tree(out)

        def no_render(*args):
            raise AssertionError("rendered")

        monkeypatch.setattr(emit, "_render", no_render)
        for formats in (("JSON",), (), ("xml",), ("json", "xml")):
            with pytest.raises(ValueError, match="formats"):
                emit_reports(*small_results, out, formats=formats)
            with pytest.raises(ValueError, match="formats"):
                emit_reports(*small_results, tmp_path / "new", formats=formats)
        assert _tree(out) == before
        assert not (tmp_path / "new").exists()

    def test_interrupted_rerun_keeps_previous_files(self, small_results,
                                                    tmp_path, monkeypatch):
        summary, reports = small_results
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("json", "csv"))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        book_csv_rows = emit._book_csv_rows

        def failing_rows(rep):
            yield from list(book_csv_rows(rep))[:3]
            raise OSError("disk full")

        monkeypatch.setattr(emit, "_book_csv_rows", failing_rows)
        with pytest.raises(OSError, match="disk full"):
            emit_reports(summary, reports, out, formats=("json", "csv"))
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before

    def test_nan_is_refused_before_writing(self, small_results, tmp_path):
        # JSON has no NaN: a report holding hurst_of_series' default
        # h_shuffled fails while rendering, so no file is written
        summary, reports = small_results
        out = tmp_path / "out"
        emit_reports(summary, reports, out, formats=("json", "csv"))
        before = _tree(out)
        rep = reports[-1]
        kind = CANONICAL_ORDER[0]
        estimate = dataclasses.replace(rep.hurst[kind], h_shuffled=math.nan)
        nan_reports = [*reports[:-1], dataclasses.replace(
            rep, hurst={**rep.hurst, kind: estimate})]
        for target in (out, tmp_path / "new"):
            with pytest.raises(ValueError, match="not JSON compliant"):
                emit_reports(summary, nan_reports, target)
        assert _tree(out) == before
        assert not (tmp_path / "new").exists()


def test_summarize_histogram_binning(small_results):
    summary, reports = small_results
    total = sum(count for _, count in summary.sentence_count_histogram)
    assert total == len(reports)
    widths = [b for b, _ in summary.sentence_count_histogram]
    assert widths == sorted(widths)


def test_histogram_of_a_width_past_int64(small_results):
    # every accepted width runs: one past int64 puts every book in bin 0
    _, reports = small_results
    summary = summarize(reports, [], AnalysisConfig(hist_bin_width=10**30))
    assert summary.sentence_count_histogram == ((0, len(reports)),)
    assert summarize([], [], AnalysisConfig(
        hist_bin_width=10**30)).sentence_count_histogram == ()


def _tree(out):
    """Every file under `out`, by relative POSIX path, with its bytes."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


class TestCli:
    def test_analyze_runs(self, small_corpus_dir, tmp_path):
        out = tmp_path / "out"
        code = cli_main(["analyze", str(small_corpus_dir), "--out", str(out),
                         "--format", "csv"])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_all_skipped_names_the_reasons(self, small_corpus_dir, tmp_path,
                                           caplog):
        code = cli_main(["analyze", str(small_corpus_dir), "--out",
                         str(tmp_path / "out"), "--dfa-min", "100000"])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert "too short for DFA" in errors[0]
        assert "sentence floor" not in errors[0]

    @staticmethod
    def _config_of(argv, monkeypatch):
        """The AnalysisConfig that `sentlen analyze DIR --out OUT *argv`
        builds, captured before any book is read."""
        class Captured(Exception):
            pass

        configs = []

        def capture(input_dir, config):
            configs.append(config)
            raise Captured

        monkeypatch.setattr(cli, "analyze_corpus", capture)
        with pytest.raises(Captured):
            cli_main(["analyze", "books", "--out", "out", *argv])
        return configs[0]

    def test_defaults_are_the_config_defaults(self, monkeypatch):
        assert self._config_of([], monkeypatch) == AnalysisConfig()

    def test_each_flag_sets_its_field(self, monkeypatch):
        config = self._config_of([
            "--stopwords", "s.txt", "--lemmas", "l.tsv", "--dfa-degree", "2",
            "--dfa-min", "5", "--dfa-max-frac", "0.2", "--dfa-points", "9",
            "--seed", "7", "--p-threshold", "0.05", "--min-sentences", "50",
            "--jobs", "3", "--hist-bin-width", "500"], monkeypatch)
        assert config == AnalysisConfig(
            stopwords_path="s.txt", lemmas_path="l.tsv", dfa_degree=2,
            dfa_min_window=5, dfa_max_fraction=0.2, dfa_points=9, seed=7,
            p_threshold=0.05, min_sentences=50, jobs=3, hist_bin_width=500)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rerun_into_used_directory_matches_fresh_run(self, fmt, tmp_path):
        books = tmp_path / "books"
        books.mkdir()
        for name, seed in (("a", 1), ("b2", 2)):
            (books / f"{name}.txt").write_text(
                corpusgen.build_book(300, seed=seed), encoding="utf-8")
        (books / "bad.txt").write_bytes(b"\xff\xfe bad bytes. here.")

        def analyze(out, fmt=fmt):
            assert cli_main(["analyze", str(books), "--out", str(out),
                             "--format", fmt]) == 0
            return _tree(out)

        assert {"skipped.csv", f"books/b2.{fmt}"} <= set(
            analyze(tmp_path / "out"))
        analyze(tmp_path / "switched")
        (books / "bad.txt").write_text(corpusgen.build_book(300, seed=3),
                                       encoding="utf-8")
        (books / "b2.txt").unlink()
        assert analyze(tmp_path / "out") == analyze(tmp_path / "fresh")
        # a rerun in the other format leaves no file of the first one
        other = "csv" if fmt == "json" else "json"
        assert analyze(tmp_path / "switched", other) == analyze(
            tmp_path / "fresh_other", other)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_serial_and_pooled_runs_write_identical_files(
            self, fmt, small_corpus_dir, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli_main(["analyze", str(small_corpus_dir), "--out",
                             str(out), "--format", fmt, "--jobs", jobs]) == 0
            trees.append(_tree(out))
        assert pools == [2]
        assert trees[0] == trees[1]

    def test_missing_directory_fails(self, tmp_path):
        code = cli_main(["analyze", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")])
        assert code == 2


#: (AnalysisConfig field, CLI flag or None, rejected value)
BAD_SETTINGS = [
    ("hist_bin_width", "--hist-bin-width", 0),
    ("dfa_degree", "--dfa-degree", 0),
    ("dfa_min_window", "--dfa-min", 2),
    ("dfa_min_window", "--dfa-min", -5),
    ("dfa_points", "--dfa-points", 3),
    ("dfa_max_fraction", "--dfa-max-frac", 0),
    ("dfa_max_fraction", "--dfa-max-frac", 0.5),
    ("dfa_max_fraction", "--dfa-max-frac", 2),
    ("seed", "--seed", -1),
    ("p_threshold", "--p-threshold", 0.0),
    ("p_threshold", "--p-threshold", 1.0),
    ("p_threshold", "--p-threshold", 2.0),
    ("min_sentences", "--min-sentences", -1),
    ("jobs", "--jobs", 0),
    # argparse refuses a float for an integer flag, so these have none
    ("dfa_degree", None, 1.5),
    ("dfa_min_window", None, 5.0),
    ("dfa_points", None, 4.5),
    ("seed", None, 1.5),
    ("min_sentences", None, "200"),
    ("hist_bin_width", None, 1.5),
    ("jobs", None, 2.0),
    # a bool is no number here, as np.True_ is not
    ("jobs", None, True),
    ("seed", None, False),
    ("min_sentences", None, True),
    ("hist_bin_width", None, True),
    ("dfa_degree", None, True),
    ("dfa_max_fraction", None, True),
    # a float setting that is not a real number, a path that is not one
    ("p_threshold", None, "0.01"),
    ("p_threshold", None, 1j),
    ("dfa_max_fraction", None, None),
    ("stopwords_path", None, 3),
    ("lemmas_path", None, b"lemmas.tsv"),
]


class TestConfigValidation:
    @pytest.mark.parametrize("name,flag,value", BAD_SETTINGS)
    def test_rejected(self, name, flag, value):
        with pytest.raises(ConfigError, match=name):
            AnalysisConfig(**{name: value})

    def test_numpy_integers_are_kept_as_ints(self, tmp_path):
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        config = AnalysisConfig(seed=np.int64(1), dfa_points=np.int32(6))
        assert type(config.seed) is int and type(config.dfa_points) is int
        assert config == AnalysisConfig(seed=1, dfa_points=6)
        # the shuffle seed shifts config.seed past 64 bits
        assert analyze_book(path, config) == analyze_book(
            path, AnalysisConfig(seed=1, dfa_points=6))

    def test_huge_dfa_points_give_the_grid_of_every_size(self, tmp_path):
        # both counts are past the clip of a 300-sentence book's grid
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        report = analyze_book(path, AnalysisConfig(dfa_points=10 ** 20))
        assert isinstance(report, BookReport)
        assert report == analyze_book(path, AnalysisConfig(dfa_points=10 ** 4))

    def test_real_numbers_are_kept_as_floats(self):
        config = AnalysisConfig(p_threshold=np.float32(0.25),
                                dfa_max_fraction=Fraction(1, 5))
        assert type(config.p_threshold) is float
        assert type(config.dfa_max_fraction) is float
        assert config == AnalysisConfig(p_threshold=0.25, dfa_max_fraction=0.2)

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

    @pytest.mark.parametrize("flag,field,name,content", [
        ("--stopwords", "stopwords_path", "missing.txt", None),
        ("--lemmas", "lemmas_path", "missing.tsv", None),
        ("--stopwords", "stopwords_path", "latin1.txt", b"caf\xe9\n"),
        ("--lemmas", "lemmas_path", "latin1.tsv", b"caf\xe9\tcafe\n"),
        ("--lemmas", "lemmas_path", "malformed.tsv", b"went\tgo\nran\n"),
        # "" names no file: it is not a request for the bundled list
        ("--stopwords", "stopwords_path", "", None),
        ("--lemmas", "lemmas_path", "", None),
    ])
    def test_bad_resource_file_exits_2_before_reading_a_book(
            self, flag, field, name, content, small_corpus_dir, tmp_path,
            monkeypatch, caplog):
        def no_reading(*args, **kwargs):
            raise AssertionError("a book was read")

        monkeypatch.setattr(textpipe, "load_document", no_reading)
        path = tmp_path / name if name else ""
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        code = cli_main(["analyze", str(small_corpus_dir), "--out", str(out),
                         flag, str(path)])
        assert code == 2
        assert not out.exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1
        assert f"cannot load {field} {str(path)!r}: " in errors[0]
        with pytest.raises(ConfigError, match=field):
            analyze_corpus(small_corpus_dir,
                           AnalysisConfig(**{field: str(path)}))

    @pytest.mark.parametrize("out", ["afile", "afile/out", "afile/out/deeper"])
    def test_unusable_out_exits_2_before_reading_a_book(
            self, out, small_corpus_dir, tmp_path, monkeypatch, caplog):
        def no_reading(*args, **kwargs):
            raise AssertionError("a book was read")

        monkeypatch.setattr(textpipe, "load_document", no_reading)
        (tmp_path / "afile").write_text("a regular file\n", encoding="utf-8")
        code = cli_main(["analyze", str(small_corpus_dir), "--out",
                         str(tmp_path / out)])
        assert code == 2
        assert _tree(tmp_path) == {"afile": b"a regular file\n"}
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [
            f"error: cannot write --out {str(tmp_path / out)!r}: "
            f"{tmp_path / 'afile'} is not a writable directory"]

    @pytest.mark.parametrize("out", ["dangling", "dangling/out"])
    def test_dangling_out_exits_2_before_reading_a_book(
            self, out, small_corpus_dir, tmp_path, monkeypatch, caplog):
        # _safe_analyze would turn a raise into a skipped book, so the
        # calls are recorded instead
        calls = []
        monkeypatch.setattr(textpipe, "load_document",
                            lambda *args, **kwargs: calls.append(args))
        link, target = tmp_path / "dangling", tmp_path / "nowhere" / "target"
        link.symlink_to(target)
        code = cli_main(["analyze", str(small_corpus_dir), "--out",
                         str(tmp_path / out)])
        assert code == 2
        assert calls == []
        assert os.readlink(link) == str(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling"]
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [
            f"error: cannot write --out {str(tmp_path / out)!r}: "
            f"{link} is not a writable directory"]

    @pytest.mark.parametrize("empty", ["input_dir", "--out"])
    def test_empty_path_exits_2_before_reading_a_book(
            self, empty, small_corpus_dir, tmp_path, monkeypatch, caplog):
        # an empty path would name the working directory: here a directory
        # of books, which a run would analyze or write its output into
        def no_reading(*args, **kwargs):
            raise AssertionError("a book was read")

        for book in small_corpus_dir.glob("*.txt"):
            (tmp_path / book.name).write_bytes(book.read_bytes())
        before = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(textpipe, "load_document", no_reading)
        books, out = (("", str(tmp_path / "out")) if empty == "input_dir"
                      else (str(small_corpus_dir), ""))
        code = cli_main(["analyze", books, "--out", out])
        assert code == 2
        assert _tree(tmp_path) == before
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        name = {"input_dir": "directory", "--out": "--out"}[empty]
        assert errors == [f"error: {name} must not be empty"]

    def test_bad_resource_file_leaves_used_directory_as_it_was(
            self, small_corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["analyze", str(small_corpus_dir), "--out",
                         str(out)]) == 0
        before = _tree(out)
        for flag in ("--stopwords", "--lemmas"):
            assert cli_main(["analyze", str(small_corpus_dir), "--out",
                             str(out), flag, str(tmp_path / "typo")]) == 2
            assert _tree(out) == before

    def test_boundary_values_accepted(self):
        AnalysisConfig(hist_bin_width=1, dfa_degree=1, dfa_min_window=3,
                       dfa_points=4, dfa_max_fraction=0.25, seed=0,
                       p_threshold=1e-9, min_sentences=0, jobs=1)


@pytest.mark.parametrize("jobs,cpus,affinity,expected", [
    (64, 64, 64, 3),      # no more workers than books
    (64, 2, 2, 2),        # nor than CPUs
    (2, 64, 64, 2),
    (1, 64, 64, None),    # one worker runs in process
    (64, None, None, None),
    (64, 2, None, 2),     # no sched_getaffinity: os.cpu_count() bounds
    (2, 2, 1, None),      # nor than CPUs this process may use (taskset -c 0)
])
def test_pool_workers_clamped(jobs, cpus, affinity, expected, tmp_path,
                              monkeypatch):
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)
    summary, _ = analyze_corpus(tmp_path, AnalysisConfig(jobs=jobs))
    assert len(summary.skipped) == 3
    assert pools == ([] if expected is None else [expected])


#: the directory that holds the sentlen package, for child interpreters
_SRC = str(Path(harness.__file__).resolve().parents[1])


#: the float bits of two DFA curves and of one book's analysis, as hex:
#: run in this process and, under one OpenBLAS thread, in a child
_THREAD_PROBE = '''
import dataclasses
import numpy as np
from sentlen import dfa, harness


def hex_floats(x):
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from hex_floats(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from hex_floats(v)
    elif isinstance(x, dict):
        for v in x.values():
            yield from hex_floats(v)
    elif isinstance(x, float):
        yield float.hex(x)


rng = np.random.default_rng(33)
probe = []
for n in (20_000, 200_000):
    series = rng.integers(1, 40, size=n)
    probe += hex_floats(dfa.dfa_curve(series, dfa.default_config(n)).tolist())
# six rows of one book of 20 000 sentences, in CANONICAL_ORDER
words = rng.integers(2, 30, size=20_000)
chars = 4 * words + rng.integers(0, 2 * words + 1)
nonstop = rng.binomial(words, 0.6)
nonstop_chars = 5 * nonstop + rng.integers(0, 2 * nonstop + 1)
lengths = np.stack([words, chars, chars - rng.binomial(words, 0.3), nonstop,
                    nonstop_chars,
                    nonstop_chars - rng.binomial(nonstop, 0.3)])
report = harness.analyze_lengths("threads", lengths, harness.AnalysisConfig())
assert isinstance(report, harness.BookReport)
probe += hex_floats(report)
'''


def test_raw_values_do_not_depend_on_the_blas_thread_count():
    """Every F of two long integer series (20 000 and 200 000 points,
    whose sums of squares run to 40 000 and 400 000 residuals) and every
    float of one 20 000-sentence book's analysis has the same bits under
    one OpenBLAS thread as under this process's threads.  On a one-CPU
    host, or with OPENBLAS_NUM_THREADS=1 already set, both sides run on
    one thread and the test passes trivially."""
    scope = {}
    exec(_THREAD_PROBE, scope)
    code = _THREAD_PROBE + "\nprint(' '.join(probe))\n"
    env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, env=env).stdout
    assert child.split() == scope["probe"]


#: what a fresh interpreter must not load for a one-process run: the
#: process pool and scipy, which only the tests use
_POOL_MODULES = ("multiprocessing", "concurrent.futures.process", "scipy")


@pytest.mark.parametrize("run", [False, True], ids=["import", "jobs-1-run"])
def test_one_process_run_loads_no_pool(run, tmp_path):
    """A fresh interpreter that imports `sentlen.cli`, and one that then
    analyzes two books with `--jobs 1`, loads no module of the process
    pool and no scipy."""
    code = "import sys\nfrom sentlen import cli\n"
    if run:
        books = tmp_path / "books"
        books.mkdir()
        for seed in (1, 2):
            (books / f"b{seed}.txt").write_text(
                corpusgen.build_book(250, seed=seed), encoding="utf-8")
        argv = ["analyze", str(books), "--out", str(tmp_path / "out"),
                "--jobs", "1"]
        code += f"assert cli.main({argv!r}) == 0\n"
    code += f"print(*[m for m in {_POOL_MODULES!r} if m in sys.modules])\n"
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=_SRC)).stdout
    assert child.split() == []
    if run:
        assert sorted(p.name for p in (tmp_path / "out" / "books").iterdir()
                      ) == ["b1.json", "b2.json"]


@st.composite
def book_lengths(draw):
    """A (6, n) integer array shaped like a book's lengths, 250 <= n <= 400:
    words, then characters and letters from them, then the same for the
    words left after stopwords, all drawn from one hypothesis seed."""
    n = draw(st.integers(250, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(1, draw(st.integers(8, 60)), size=n)
    chars = 4 * words + rng.integers(0, 2 * words + 1)
    nonstop = rng.binomial(words, 0.6)
    nonstop_chars = 5 * nonstop + rng.integers(0, 2 * nonstop + 1)
    return np.stack([words, chars, chars - rng.binomial(words, 0.3),
                     nonstop, nonstop_chars,
                     nonstop_chars - rng.binomial(nonstop, 0.3)])


def _by_pair(report):
    return {c.pair: c for c in report.comparisons}


#: the pairwise fields that do not depend on the sentences' order at all
_ORDER_FREE = ("spearman", "kendall", "gamma", "ks_plain", "ks_mapped")
#: the fields that hold x and y in the same roles
_SYMMETRIC = ("pearson", "spearman", "kendall", "gamma", "ks_plain")


class TestPlainKs:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(lengths=book_lengths(),
           signs=st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6))
    def test_is_ks_pairwise_of_the_mean_normalized_rows(self, lengths,
                                                        signs):
        # the path that normalized and sorted each row again is the
        # reference; a negated row has a negative mean, over which its
        # table's sorted row reads in reverse
        lengths = lengths * np.array(signs)[:, None]
        config = AnalysisConfig()
        report = analyze_lengths("book", lengths, config)
        assert [c.ks_plain for c in report.comparisons] == (
            distribution.ks_pairwise(
                [distribution.mean_normalize(row) for row in lengths],
                PAIR_INDICES, config.p_threshold))


class TestAnalyzeLengthsInvariance:
    """Whole-book properties of `analyze_lengths` that need no reference:
    they pin the glue between the kernels (pair labels, the rows each KS
    test normalizes, the shuffle seeds), not the kernels."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(lengths=book_lengths(), data=st.data())
    def test_a_common_permutation_of_the_sentences(self, lengths, data):
        # r, alpha and beta sum a dot product in the sentences' order, so
        # their last bits may move; every other pairwise field is a rank,
        # a count or a sorted sample, and keeps its bits
        order = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1))).permutation(
                lengths.shape[1])
        config = AnalysisConfig()
        before = analyze_lengths("book", lengths, config)
        after = analyze_lengths("book", lengths[:, order], config)
        assert after.sentence_count == before.sentence_count
        for a, b in zip(before.comparisons, after.comparisons):
            assert a.pair == b.pair
            for name in _ORDER_FREE:
                assert repr(getattr(b, name)) == repr(getattr(a, name))
            for x, y in [(a.pearson, b.pearson),
                         (a.linear_map.alpha, b.linear_map.alpha),
                         (a.linear_map.beta, b.linear_map.beta)]:
                assert emit._fmt(y) == emit._fmt(x)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(lengths=book_lengths(),
           rows=st.lists(st.integers(0, 5), min_size=2, max_size=2,
                         unique=True))
    def test_swapping_two_rows(self, lengths, rows):
        i, j = rows
        swap = list(range(6))
        swap[i], swap[j] = j, i
        config = AnalysisConfig()
        before = analyze_lengths("book", lengths, config)
        after = analyze_lengths("book", lengths[swap], config)
        old, new = _by_pair(before), _by_pair(after)
        for a, b in PAIR_INDICES:
            was = old[CANONICAL_ORDER[a], CANONICAL_ORDER[b]]
            now = new[tuple(sorted(
                [CANONICAL_ORDER[swap[a]], CANONICAL_ORDER[swap[b]]],
                key=CANONICAL_ORDER.index))]
            if swap[a] < swap[b]:
                # the same two rows in the same roles
                assert dataclasses.replace(now, pair=was.pair) == was
                continue
            for name in _SYMMETRIC:
                assert getattr(now, name) == getattr(was, name)
            # least squares of y on x and of x on y: the slopes' product
            # is r squared
            assert now.linear_map.alpha * was.linear_map.alpha == (
                pytest.approx(was.pearson ** 2, rel=1e-12))
        dfa_config = dfa.default_config(lengths.shape[1])
        for k, kind in enumerate(CANONICAL_ORDER):
            moved, stayed = after.hurst[kind], before.hurst[
                CANONICAL_ORDER[swap[k]]]
            # the real exponent follows the row's data
            assert dataclasses.replace(moved, h_shuffled=stayed.h_shuffled
                                       ) == stayed
            # the shuffled control follows the label: its seeds hash it
            series = lengths[swap[k]].astype(float)
            assert moved.h_shuffled == float(np.mean([
                dfa.shuffled_hurst(series, dfa_config, dfa._shuffle_seed(
                    config.seed, f"book/{kind.label}", s))
                for s in range(dfa.N_SHUFFLES)]))
            if swap[k] != k:
                assert moved.h_shuffled != stayed.h_shuffled

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(lengths=book_lengths())
    def test_a_new_book_id_moves_only_the_id_and_the_shuffles(self,
                                                              lengths):
        config = AnalysisConfig()
        before = analyze_lengths("one", lengths, config)
        after = analyze_lengths("two", lengths, config)
        assert after.book_id == "two"
        for kind in CANONICAL_ORDER:
            assert after.hurst[kind].h_shuffled != (
                before.hurst[kind].h_shuffled)
        assert dataclasses.replace(after, book_id="one", hurst={
            kind: dataclasses.replace(est, h_shuffled=before.hurst[
                kind].h_shuffled) for kind, est in after.hurst.items()
        }) == before
