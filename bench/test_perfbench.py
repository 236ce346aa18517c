"""Tests of the benchmark itself, at a size that runs in seconds: the
generator is deterministic, the output check rejects corrupted outputs,
and the tracer leaves outputs unchanged while counting calls exactly."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
import corpusgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from sentlen import cli  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    a = workloads.generate("many-small", 5, tmp_path / "a")
    b = workloads.generate("many-small", 5, tmp_path / "b")
    other = workloads.generate("many-small", 6, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [e["sha256"] for e in a["books"]] != [e["sha256"] for e in other["books"]]
    outcomes = [e["outcome"] for e in a["books"]]
    assert outcomes.count("analyzed") == 48
    assert outcomes.count("skipped_floor") == 6
    assert outcomes.count("unreadable") == 1
    for e in a["books"]:
        if e["outcome"] == "skipped_floor":
            assert e["sentences"] < 200
        elif e["outcome"] == "analyzed":
            assert e["sentences"] >= 200
    with pytest.raises(UnicodeDecodeError):
        (tmp_path / "a" / "books" / "unreadable.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two analyzable books, one below the floor and one unreadable,
    analyzed untraced and traced."""
    work = tmp_path_factory.mktemp("tiny")
    books = work / "books"
    books.mkdir()
    (books / "a.txt").write_text(corpusgen.build_book(230, 11), encoding="utf-8")
    (books / "b.txt").write_text(corpusgen.build_book(260, 12), encoding="utf-8")
    (books / "c.txt").write_text(corpusgen.build_book(50, 13), encoding="utf-8")
    (books / "d.txt").write_bytes(b"\xff" + corpusgen.build_book(20, 14).encode())
    manifest = workloads.write_manifest(work, "tiny", 0, [
        ("a.txt", "analyzed"), ("b.txt", "analyzed"),
        ("c.txt", "skipped_floor"), ("d.txt", "unreadable")])

    def analyze(out, trace=None):
        if trace is not None:
            trace.install()
        try:
            rc = cli.main(["analyze", str(books), "--out", str(out)])
        finally:
            if trace is not None:
                trace.uninstall()
        assert rc == 0
        return check.read_tree(out)

    plain = analyze(work / "plain")
    traced = tracer.Tracer()
    traced_tree = analyze(work / "traced", traced)
    return manifest, plain, traced_tree, traced


def test_check_accepts_real_outputs(tiny):
    manifest, plain, traced_tree, _ = tiny
    assert check.check_tree(plain, manifest, "json") == ({}, [])
    assert check.compare_to_reference(plain, plain) == []


def _corrupt(tree, rel, old, new):
    tree = dict(tree)
    assert old in tree[rel]
    tree[rel] = tree[rel].replace(old, new, 1)
    return tree


def test_check_rejects_corrupted_outputs(tiny):
    manifest, plain, _, _ = tiny
    record = json.loads(plain["books/a.json"])
    r = record["comparisons"][0]["pearson_r"]
    r_text = format(r, ".6g")
    assert json.dumps(r) in plain["books/a.json"]

    # one unit in the last printed digit is tolerated, two are not
    unit = check._last_digit_unit(r_text)
    near = _corrupt(plain, "books/a.json", json.dumps(r),
                    format(r + unit, ".6g"))
    assert check.compare_to_reference(near, plain) == []
    far = _corrupt(plain, "books/a.json", json.dumps(r),
                   format(r + 2 * unit, ".6g"))
    assert check.compare_to_reference(far, plain)
    assert check.digest(far) != check.digest(plain)

    flipped = _corrupt(plain, "books/a.json", "true", "false")
    assert check.compare_to_reference(flipped, plain)

    missing = dict(plain)
    del missing["books/b.json"]
    assert set(check.check_tree(missing, manifest, "json")[0]) == {"b"}

    count = _corrupt(plain, "books/a.json", '"sentence_count": 230',
                     '"sentence_count": 231')
    assert set(check.check_tree(count, manifest, "json")[0]) == {"a"}

    nan = _corrupt(plain, "books/a.json", json.dumps(r), "NaN")
    assert set(check.check_tree(nan, manifest, "json")[0]) == {"a"}

    record["comparisons"].pop()
    short = dict(plain, **{"books/a.json": json.dumps(record)})
    assert set(check.check_tree(short, manifest, "json")[0]) == {"a"}

    unskipped = dict(plain)
    unskipped["skipped.csv"] = "\n".join(
        line for line in plain["skipped.csv"].splitlines()
        if not line.startswith("c,"))
    assert set(check.check_tree(unskipped, manifest, "json")[0]) == {"c"}


def test_tracer_leaves_outputs_unchanged(tiny):
    _, plain, traced_tree, _ = tiny
    assert traced_tree == plain


def test_tracer_counts_are_exact(tiny):
    manifest, _, _, traced = tiny
    assert traced.absent == []
    doc = json.loads(json.dumps({"spans": traced.spans,
                                 "counts": traced.counts, "absent": []}))
    m = tracer.layer_metrics(doc, traced_wall_s=2.0, serial_wall_s=1.5,
                             wall_s=1.5, workers=1)
    assert set(m) == {name for name, _, _ in tracer.LAYER_METRICS}
    assert m["textpipe.load_document.calls"] == 4
    assert m["correlation.concordance_counts.calls"] == 2 * 30
    assert m["correlation.fit_linear_map.calls"] == 2 * 30
    assert m["correlation.concordance_calls_per_pair"] == 2.0
    assert m["dfa.fluctuation.calls"] == 2 * 864
    assert m["harness.books_skipped"] == 2
    assert m["textpipe.bytes_read"] == sum(e["bytes"] for e in manifest["books"])
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert 0 < m["dfa.real_s"] < m["dfa.shuffled_s"]


def test_tracer_restores_functions_and_reports_absent(monkeypatch):
    from sentlen import harness, series

    monkeypatch.setattr(tracer, "TRACED",
                        tracer.TRACED + (("dfa", "no_such_function"),))
    original = harness.extract_all
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.extract_all is not original
        assert series.extract_all is harness.extract_all
    finally:
        t.uninstall()
    assert harness.extract_all is original
    assert t.absent == ["dfa.no_such_function"]


def test_self_time_subtracts_children():
    doc = {"spans": [["harness.analyze_book", 0, 100, -1],
                     ["dfa.shuffled_hurst", 10, 60, 0],
                     ["dfa.hurst_of_series", 20, 50, 1],
                     ["dfa.hurst_of_series", 70, 90, 0]],
           "counts": dict.fromkeys(tracer.Tracer().counts, 0)}
    m = tracer.layer_metrics(doc, 1.0, 1.0, 1.0, 1)
    assert m["harness.analyze_book.self_s"] == pytest.approx(30e-9)
    assert m["dfa.real_s"] == pytest.approx(20e-9)
    assert m["dfa.shuffled_s"] == pytest.approx(50e-9)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracer.LAYER_METRICS)


def test_host_adjustment_scales_by_the_probe():
    ref = run.REF_PROBE_S
    # a host running the probe at half speed ran the program at half speed;
    # the highest and lowest tenth of the probes do not count
    probes = [2 * ref] * 8 + [0.1 * ref, 50 * ref]
    assert run.host_adjusted(10.0, probes, []) == pytest.approx(5.0)
    # an interval without a probe of its own uses the whole sample's
    assert run.host_adjusted(1.0, [], [4 * ref]) == pytest.approx(0.25)
    # the mean follows the share of time the host ran slow
    assert run.trimmed_mean([1.0] * 5 + [2.0] * 5, cut=0) == 1.5
    sample = {"wall_s": 8.0, "setup_s": 1.0, "peak_rss_mb": 100.0,
              "probe_setup_s": [ref], "probe_wall_s": [2 * ref]}
    env = {"books_analyzed": 4, "sentences_analyzed": 400, "bytes": 2e6}
    m = run.e2e_metrics([sample], env)
    assert m["wall_s"] == [4.0] and m["raw_wall_s"] == [8.0]
    assert m["books_per_s"] == [1.0] and m["mb_per_s"] == [0.5]
    assert m["setup_s"] == [1.0]
