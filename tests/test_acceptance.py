"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 3-6 run on the deterministic synthetic desk corpus from
corpusgen (12 book-length texts with persistent sentence-length
structure); no redistributable novel corpus is bundled.
"""

import math

import numpy as np
import pytest

import corpusgen
from sentlen.correlation import goodman_kruskal_gamma, kendall_tau, pearson
from sentlen.dfa import default_config, estimate_hurst, fluctuation, hurst_of_series, integrate_profile
from sentlen.distribution import ks_distance
from sentlen.harness import PAIR_INDICES, AnalysisConfig, analyze_corpus, emit_reports
from sentlen.textpipe import document_from_text, sentence_tokens

CHAR_MEASURES = {1, 2, 4, 5}  # indices of N_c, N_l, N_Sc, N_Sl


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)

    # KS distance vs brute-force merged-grid maximizer, 1000 pairs
    for _ in range(1000):
        na, nb = rng.integers(5, 51, size=2)
        if rng.random() < 0.5:
            a = rng.integers(0, 10, size=na).astype(float)
            b = rng.integers(0, 10, size=nb).astype(float)
        else:
            a = rng.normal(size=na)
            b = rng.normal(size=nb)
        grid = np.concatenate([a, b])
        brute = max(
            abs(np.sum(a <= g) / na - np.sum(b <= g) / nb) for g in grid)
        fast = ks_distance(a, b)
        assert abs(fast - brute) <= 1e-12

    # tau and gamma vs O(n^2) pair enumeration, 500 pairs, exact match
    checked = 0
    while checked < 500:
        n = int(rng.integers(3, 41))
        x = [float(v) for v in rng.integers(0, 8, size=n)]
        y = [float(v) for v in rng.integers(0, 8, size=n)]
        c = d = tx = ty = 0
        for i in range(n - 1):
            for j in range(i + 1, n):
                sx = (x[i] > x[j]) - (x[i] < x[j])
                sy = (y[i] > y[j]) - (y[i] < y[j])
                if sx == 0:
                    tx += 1
                if sy == 0:
                    ty += 1
                if sx * sy > 0:
                    c += 1
                elif sx * sy < 0:
                    d += 1
        n0 = n * (n - 1) // 2
        if tx == n0 or ty == n0 or c + d == 0:
            continue
        tau_oracle = (c - d) / math.sqrt((n0 - tx) * (n0 - ty))
        gamma_oracle = (c - d) / (c + d)
        assert kendall_tau(x, y).statistic == tau_oracle
        assert goodman_kruskal_gamma(x, y).statistic == gamma_oracle
        checked += 1

    # pearson vs extended-precision direct evaluation
    for _ in range(200):
        n = int(rng.integers(2, 200))
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        xl = x.astype(np.longdouble)
        yl = y.astype(np.longdouble)
        dx = xl - xl.mean()
        dy = yl - yl.mean()
        denom = np.sqrt(np.sum(dx * dx)) * np.sqrt(np.sum(dy * dy))
        if denom == 0:
            continue
        r_hp = float(np.sum(dx * dy) / denom)
        assert abs(pearson(x, y) - r_hp) <= 1e-12

    _report(1, "(KS/tau/gamma/pearson oracles)")


def test_criterion_2_dfa_calibration():
    hs = []
    for seed in range(20):
        series = np.random.default_rng(2000 + seed).standard_normal(10000)
        hs.append(hurst_of_series(series, default_config(10000)).h)
    mean_h = float(np.mean(hs))
    assert 0.45 <= mean_h <= 0.55

    profile = 1.3 * np.arange(2000.0) + 7.0
    for m in default_config(2000).window_sizes:
        assert fluctuation(profile, m, 1) == pytest.approx(0.0, abs=1e-9)

    ms = (8, 16, 32, 64, 128, 256)
    F = np.array([m ** 0.75 for m in ms])
    assert abs(estimate_hurst(ms, F).h - 0.75) <= 1e-9

    _report(2, f"(white-noise mean h = {mean_h:.4f})")


def test_criterion_3_pearson_corpus_properties(corpus_results):
    _, reports = corpus_results
    assert len(reports) >= 10

    all_r = []
    char_char = []
    word_char = []
    for rep in reports:
        for comp, (i, j) in zip(rep.comparisons, PAIR_INDICES):
            all_r.append(comp.pearson)
            assert comp.pearson >= 0.85
            if i in CHAR_MEASURES and j in CHAR_MEASURES:
                char_char.append(comp.pearson)
            elif (i in CHAR_MEASURES) != (j in CHAR_MEASURES):
                word_char.append(comp.pearson)
    mean_r = float(np.mean(all_r))
    assert 0.95 <= mean_r <= 1.01
    assert np.mean(char_char) > np.mean(word_char)

    _report(3, f"(min r = {min(all_r):.4f}, mean r = {mean_r:.4f})")


def test_criterion_4_ks_behavior(corpus_results):
    _, reports = corpus_results
    mapped = [c.ks_mapped.accepted for rep in reports for c in rep.comparisons]
    plain = [c.ks_plain.accepted for rep in reports for c in rep.comparisons]
    mapped_rate = float(np.mean(mapped))
    plain_rate = float(np.mean(plain))
    assert mapped_rate >= 0.70
    assert mapped_rate > plain_rate

    _report(4, f"(mapped {100 * mapped_rate:.1f}% > plain {100 * plain_rate:.1f}%)")


def test_criterion_5_hurst_behavior(corpus_results):
    _, reports = corpus_results
    for rep in reports:
        for est in rep.hurst.values():
            assert 0.55 <= est.h <= 0.95
            assert abs(est.h_shuffled - 0.5) <= 0.07
        assert rep.max_abs_delta_h <= 0.05

    hs = [est.h for rep in reports for est in rep.hurst.values()]
    stars = [est.h_shuffled for rep in reports for est in rep.hurst.values()]
    _report(5, f"(h in [{min(hs):.3f}, {max(hs):.3f}], "
               f"h* in [{min(stars):.3f}, {max(stars):.3f}])")


def test_criterion_6_rank_test_unanimity(corpus_results):
    _, reports = corpus_results
    for rep in reports:
        for comp in rep.comparisons:
            assert comp.spearman.rejected
            assert comp.kendall.rejected
            assert comp.gamma.rejected
    _report(6, f"(all {15 * len(reports) * 3} tests rejected at 0.01)")


def test_criterion_7_pipeline_fidelity(stops, lexicon, excerpt_text):
    doc = document_from_text("excerpt", excerpt_text, stops, lexicon)
    assert doc.sentence_count == 4
    sentences = sentence_tokens(excerpt_text, stops, lexicon)
    assert len(sentences) == doc.sentence_count
    non_stop = [
        [t.normalized for t in s if not t.is_stop]
        for s in sentences
    ]
    assert non_stop == [
        ["sherlock", "holmes", "always", "woman"],
        ["seldom", "heard", "mention", "name"],
        ["eyes", "eclipses", "predominates", "whole", "sex"],
        ["felt", "emotion", "akin", "love", "irene", "adler"],
    ]
    lemmatized = [" ".join(t.lemma for t in s) for s in sentences]
    assert lemmatized[0] == "to sherlock holmes she be always the woman"
    assert lemmatized[2] == ("in his eye she eclipse and predominate the "
                             "whole of her sex")
    _report(7, "(Table-style excerpt reproduced)")


def test_criterion_8_determinism_and_shape(corpus_results, corpus_dir,
                                           corpus_config, tmp_path):
    summary, reports = corpus_results
    assert summary.r_values.size == 15 * len(reports)

    summary2, reports2 = analyze_corpus(corpus_dir, corpus_config)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    files1 = emit_reports(summary, reports, out1, formats=("json", "csv"))
    files2 = emit_reports(summary2, reports2, out2, formats=("json", "csv"))
    assert len(files1) == len(files2)
    for f1, f2 in zip(sorted(files1), sorted(files2)):
        assert f1.relative_to(out1) == f2.relative_to(out2)
        assert f1.read_bytes() == f2.read_bytes()

    _report(8, f"({len(files1)} files byte-identical across reruns)")
