import json
import textwrap

import numpy as np
import pytest

import corpusgen
from sentlen import cli, correlation, dfa, distribution, harness, textpipe
from sentlen.cli import main as cli_main
from sentlen.correlation import LinearMap, RankTestResult
from sentlen.dfa import HurstEstimate
from sentlen.distribution import KsResult
from sentlen.exceptions import ConfigError, DegenerateInputError, IngestionError
from sentlen.harness import (
    PAIR_INDICES,
    AnalysisConfig,
    BookReport,
    ComparisonResult,
    CorpusSummary,
    SkippedBook,
    analyze_book,
    analyze_corpus,
    emit_reports,
    hurst_length_correlation,
    summarize,
)
from sentlen.series import MeasureKind


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
        for c in harness._book_record(rep)["comparisons"]:
            decisions = [c[test]["rejected"]
                         for test in ("spearman", "kendall", "gamma")]
            decisions += [c[test]["accepted"]
                          for test in ("ks_plain", "ks_mapped")]
            assert all(type(d) is bool for d in decisions)

    def test_each_series_prepared_once(self, tmp_path, monkeypatch):
        path = tmp_path / "book.txt"
        path.write_text(corpusgen.build_book(300, seed=1), encoding="utf-8")
        normalized, dfa_inputs, checks = [], [], []
        mean_normalize = distribution.mean_normalize
        hurst_of_series = dfa.hurst_of_series
        post_init = dfa.DfaConfig.__post_init__

        def record_normalize(series):
            normalized.append(series)
            return mean_normalize(series)

        def record_hurst(series, config):
            dfa_inputs.append(series)
            return hurst_of_series(series, config)

        def record_check(config):
            checks.append(config)
            post_init(config)

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

        monkeypatch.setattr(harness, "extract_all", record_extract)
        monkeypatch.setattr(distribution, "mean_normalize", record_normalize)
        monkeypatch.setattr(dfa, "hurst_of_series", record_hurst)
        monkeypatch.setattr(dfa.DfaConfig, "__post_init__", record_check)
        monkeypatch.setattr(correlation, "_ties", record_ties)
        monkeypatch.setattr(np, "polyfit", no_polyfit)
        assert isinstance(analyze_book(path, AnalysisConfig()), BookReport)
        assert len(normalized) == 6 and len(checks) == 1
        # the DFA reads the very float rows the comparisons normalized
        rows = [id(s) for s in normalized]
        assert [id(s) for s in dfa_inputs if id(s) in rows] == rows
        assert all(s.dtype == float for s in normalized)
        # the 45 rank tests rank those rows once each, and nothing else
        assert [id(s) for s in ranked] == rows
        # and they are the rows of the book's one extract_all
        assert len(extracted) == 1
        assert [id(s) for s in extracted[0]] == rows

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

    def test_interrupted_write_leaves_no_partial_file(self, small_results,
                                                      tmp_path, monkeypatch):
        summary, reports = small_results
        target = tmp_path / "old.csv"
        target.write_text("old\n", encoding="utf-8")

        def interrupt(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(harness.os, "replace", interrupt)
            for path in (tmp_path / "new.csv", target):
                with pytest.raises(KeyboardInterrupt):
                    harness._write_atomic(path, "key,value\na,1\n")
        # no .tmp file, no new target, and the old target unchanged
        assert _tree(tmp_path) == {"old.csv": b"old\n"}

        # an unserializable record fails while rendering: nothing is written
        monkeypatch.setattr(harness, "_book_record",
                            lambda rep: {"a": object()})
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

        book_record = harness._book_record
        rendered = []

        def interrupt_at_second_book(rep):
            rendered.append(rep.book_id)
            if len(rendered) == 2:
                raise KeyboardInterrupt
            return book_record(rep)

        monkeypatch.setattr(harness, "_book_record", interrupt_at_second_book)
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

        monkeypatch.setattr(harness, "_render", no_render)
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

        book_csv_rows = harness._book_csv_rows

        def failing_rows(rep):
            yield from list(book_csv_rows(rep))[:3]
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_book_csv_rows", failing_rows)
        with pytest.raises(OSError, match="disk full"):
            emit_reports(summary, reports, out, formats=("json", "csv"))
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before


W, C = MeasureKind.WORDS, MeasureKind.CHARS


def _golden_outputs(tmp_path):
    """Emit a one-comparison book and a summary built from fixed numbers,
    no analysis, so the expected files below pin the output schema."""
    comparison = ComparisonResult(
        pair=(W, C),
        pearson=0.9876543219,
        spearman=RankTestResult(0.91234567, 2.5e-12, rejected=True),
        kendall=RankTestResult(0.75, 0.0, rejected=True),
        gamma=RankTestResult(0.8333333333, 0.0125, rejected=False),
        ks_plain=KsResult(kappa=0.0257191234, p_value=0.27894, accepted=True),
        ks_mapped=KsResult(kappa=0.125, p_value=0.00123456789,
                           accepted=False),
        linear_map=LinearMap(alpha=4.832814, beta=-4.65820001),
    )
    report = BookReport(
        book_id="golden",
        sentence_count=2955,
        comparisons=(comparison,),
        hurst={W: HurstEstimate(0.684531, -0.25, 0.99912345, 0.4827291),
               C: HurstEstimate(0.682993, 1.5, 0.9, 0.494155)},
        max_abs_delta_h=0.0123,
    )
    plain = np.full((6, 6), np.nan)
    mapped = np.full((6, 6), np.nan)
    plain[0, 1] = 100.0
    mapped[0, 1] = 200.0 / 3.0
    summary = CorpusSummary(
        book_count=1,
        skipped=(SkippedBook("tiny", "only 4 sentences (floor 200)"),),
        sentence_count_histogram=((0, 0), (1000, 0), (2000, 1)),
        r_values=np.array([0.5, 0.9876543219]),
        kappa_values=np.array([0.0257191234]),
        delta_h_values=np.array([0.001538]),
        acceptance_plain=plain,
        acceptance_mapped=mapped,
        h_vs_length_r=None,
    )
    out = tmp_path / "out"
    emit_reports(summary, [report], out, formats=("json", "csv"))
    return out


class TestOutputSchema:
    def test_book_csv(self, tmp_path):
        out = _golden_outputs(tmp_path)
        assert (out / "books" / "golden.csv").read_text() == (
            "measure_x,measure_y,pearson_r,spearman_rho,spearman_p,"
            "kendall_tau,kendall_p,gamma,gamma_p,ks_plain_kappa,ks_plain_p,"
            "ks_plain_accepted,ks_mapped_kappa,ks_mapped_p,"
            "ks_mapped_accepted,map_alpha,map_beta,hurst_x,hurst_y,"
            "hurst_shuffled_x,hurst_shuffled_y,abs_delta_h\n"
            "N_w,N_c,0.987654,0.912346,2.5e-12,0.75,0,0.833333,0.0125,"
            "0.0257191,0.27894,true,0.125,0.00123457,false,4.83281,-4.6582,"
            "0.684531,0.682993,0.482729,0.494155,0.001538\n")

    def test_book_json(self, tmp_path):
        out = _golden_outputs(tmp_path)
        expected = textwrap.dedent("""\
            {
              "book_id": "golden",
              "comparisons": [
                {
                  "gamma": {
                    "p_value": 0.0125,
                    "rejected": false,
                    "statistic": 0.833333
                  },
                  "kendall": {
                    "p_value": 0.0,
                    "rejected": true,
                    "statistic": 0.75
                  },
                  "ks_mapped": {
                    "accepted": false,
                    "kappa": 0.125,
                    "p_value": 0.00123457
                  },
                  "ks_plain": {
                    "accepted": true,
                    "kappa": 0.0257191,
                    "p_value": 0.27894
                  },
                  "linear_map": {
                    "alpha": 4.83281,
                    "beta": -4.6582
                  },
                  "pair": [
                    "N_w",
                    "N_c"
                  ],
                  "pearson_r": 0.987654,
                  "spearman": {
                    "p_value": 2.5e-12,
                    "rejected": true,
                    "statistic": 0.912346
                  }
                }
              ],
              "hurst": {
                "N_c": {
                  "fit_r2": 0.9,
                  "h": 0.682993,
                  "h_shuffled": 0.494155,
                  "intercept": 1.5
                },
                "N_w": {
                  "fit_r2": 0.999123,
                  "h": 0.684531,
                  "h_shuffled": 0.482729,
                  "intercept": -0.25
                }
              },
              "max_abs_delta_h": 0.0123,
              "sentence_count": 2955
            }
            """)
        assert (out / "books" / "golden.json").read_text() == expected

    def test_summary_csv(self, tmp_path):
        out = _golden_outputs(tmp_path)
        assert (out / "summary.csv").read_text() == (
            "key,value\n"
            "book_count,1\n"
            "comparison_count,2\n"
            "mean_pearson_r,0.743827\n"
            "ks_plain_acceptance_pct,100\n"
            "ks_mapped_acceptance_pct,66.6667\n"
            "h_vs_length_r,\n")
        assert (out / "skipped.csv").read_text() == (
            "book_id,reason\ntiny,only 4 sentences (floor 200)\n")


def test_summarize_histogram_binning(small_results):
    summary, reports = small_results
    total = sum(count for _, count in summary.sentence_count_histogram)
    assert total == len(reports)
    widths = [b for b, _ in summary.sentence_count_histogram]
    assert widths == sorted(widths)


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

        class RecordingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
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

    @pytest.mark.parametrize("flag,field,name,content", [
        ("--stopwords", "stopwords_path", "missing.txt", None),
        ("--lemmas", "lemmas_path", "missing.tsv", None),
        ("--stopwords", "stopwords_path", "latin1.txt", b"caf\xe9\n"),
        ("--lemmas", "lemmas_path", "latin1.tsv", b"caf\xe9\tcafe\n"),
        ("--lemmas", "lemmas_path", "malformed.tsv", b"went\tgo\nran\n"),
    ])
    def test_bad_resource_file_exits_2_before_reading_a_book(
            self, flag, field, name, content, small_corpus_dir, tmp_path,
            monkeypatch, caplog):
        def no_reading(*args, **kwargs):
            raise AssertionError("a book was read")

        monkeypatch.setattr(textpipe, "load_document", no_reading)
        path = tmp_path / name
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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)
    summary, _ = analyze_corpus(tmp_path, AnalysisConfig(jobs=jobs))
    assert len(summary.skipped) == 3
    assert pools == ([] if expected is None else [expected])
