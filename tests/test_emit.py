"""The seam between analysis and emission: `emit` writes every output
file from the results `harness` computes, and neither imports the
other's half.  The output schema is pinned from fixed numbers, with no
analysis."""

import ast
import textwrap
from pathlib import Path

import numpy as np

from sentlen import cli, emit, harness
from sentlen.correlation import LinearMap, RankTestResult
from sentlen.dfa import HurstEstimate
from sentlen.distribution import KsResult
from sentlen.harness import (
    BookReport,
    ComparisonResult,
    CorpusSummary,
    SkippedBook,
    emit_reports,
)
from sentlen.series import MeasureKind


def _imported_modules(module):
    """Every module that `module`'s source imports, anywhere in it: a
    sentlen module by its name within the package, any other in full."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return {name.removeprefix("sentlen.") for name in found}


def test_emit_imports_no_analysis_module():
    assert not _imported_modules(emit) & {
        "harness", "correlation", "distribution", "dfa"}


def test_harness_imports_no_output_module():
    assert not _imported_modules(harness) & {"csv", "io", "json"}


def test_one_emit_reports_for_every_caller():
    # bench/tracer.py wraps ("harness", "emit_reports") in every module
    # that binds it, so the CLI's calls are traced too
    assert harness.emit_reports is emit.emit_reports is cli.emit_reports


def test_harness_binds_the_resource_loader():
    # bench/child.py warms harness._resources by name before its clock
    # starts; without it the list loading would fall into wall_s
    assert callable(harness._resources)


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

    def test_summary_json(self, tmp_path):
        out = _golden_outputs(tmp_path)
        expected = textwrap.dedent("""\
            {
              "book_count": 1,
              "comparison_count": 2,
              "h_vs_length_r": null,
              "ks_mapped_acceptance_pct": 66.6667,
              "ks_plain_acceptance_pct": 100.0,
              "mean_pearson_r": 0.743827,
              "sentence_count_histogram": [
                {
                  "bin_start": 0,
                  "count": 0
                },
                {
                  "bin_start": 1000,
                  "count": 0
                },
                {
                  "bin_start": 2000,
                  "count": 1
                }
              ],
              "skipped": [
                {
                  "book_id": "tiny",
                  "reason": "only 4 sentences (floor 200)"
                }
              ]
            }
            """)
        assert (out / "summary.json").read_text() == expected
