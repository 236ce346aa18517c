"""Output checks for one `sentlen analyze` run against the workload
manifest, the run-to-run digest and the checked-in reference."""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"
N_PAIRS = 15
N_MEASURES = 6
HIST_BIN_WIDTH = 1000  # the CLI's default histogram bin width

# numbers (as the program prints them), words, or single other characters
_TOKEN_RE = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[A-Za-z_]+|\S")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?\Z")


def read_tree(out_dir: Path) -> dict[str, str]:
    """Every output file, keyed by its path relative to `out_dir`."""
    return {p.relative_to(out_dir).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def digest(tree: dict[str, str]) -> str:
    h = hashlib.sha256()
    for rel in sorted(tree):
        h.update(f"{rel}\0{len(tree[rel])}\0{tree[rel]}\0".encode())
    return h.hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _all_finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    return all(_all_finite(v) for v in obj)


def _check_json_book(text: str, sentences: int) -> str | None:
    rec = json.loads(text)
    if rec.get("sentence_count") != sentences:
        return (f"sentence_count {rec.get('sentence_count')} != "
                f"manifest {sentences}")
    if len(rec.get("comparisons", ())) != N_PAIRS:
        return f"{len(rec.get('comparisons', ()))} comparisons"
    hurst = rec.get("hurst", {})
    if len(hurst) != N_MEASURES or not all(
            isinstance(h.get("h"), (int, float)) for h in hurst.values()):
        return f"{len(hurst)} Hurst estimates"
    if not _all_finite(rec):
        return "non-finite value"
    return None


def _check_csv_book(text: str) -> str | None:
    header, *rows = _csv_rows(text)
    if len(rows) != N_PAIRS:
        return f"{len(rows)} comparisons"
    col = {name: i for i, name in enumerate(header)}
    hurst = {}
    for row in rows:
        if len(row) != len(header):
            return "ragged row"
        hurst[row[col["measure_x"]]] = row[col["hurst_x"]]
        hurst[row[col["measure_y"]]] = row[col["hurst_y"]]
        for cell in row[2:]:
            if cell not in ("true", "false") and not math.isfinite(float(cell)):
                return "non-finite value"
    if len(hurst) != N_MEASURES:
        return f"{len(hurst)} Hurst estimates"
    return None


def check_tree(tree: dict[str, str], manifest: dict,
               fmt: str) -> tuple[dict[str, str], list[str]]:
    """Check one output tree against the manifest.

    Returns (failed books -> reason, problems with the run as a whole).
    """
    failed: dict[str, str] = {}
    problems: list[str] = []
    skipped = {}
    if "skipped.csv" in tree:
        # a malformed row leaves its book unlisted, so that book fails below
        skipped = {row[0]: row[1] for row in _csv_rows(tree["skipped.csv"])[1:]
                   if len(row) == 2}
    analyzed = []
    for book in manifest["books"]:
        bid, outcome = book["book_id"], book["outcome"]
        rel = f"books/{bid}.{fmt}"
        try:
            if outcome == "analyzed":
                analyzed.append(book["sentences"])
                if rel not in tree:
                    why = f"no {rel} (skipped: {skipped.get(bid)})"
                elif fmt == "json":
                    why = _check_json_book(tree[rel], book["sentences"])
                else:
                    why = _check_csv_book(tree[rel])
            elif rel in tree or bid not in skipped:
                why = f"expected {outcome}, not skipped"
            elif outcome == "skipped_floor":
                expect = f"only {book['sentences']} sentences"
                why = None if skipped[bid].startswith(expect) else skipped[bid]
            else:
                why = (None if skipped[bid].startswith("cannot read")
                       else skipped[bid])
        except (ValueError, KeyError, TypeError) as exc:
            why = f"malformed record: {exc!r}"
        if why is not None:
            failed[bid] = why

    expected_files = {f"books/{b['book_id']}.{fmt}" for b in manifest["books"]
                      if b["outcome"] == "analyzed"}
    extra = {rel for rel in tree if rel.startswith("books/")} - expected_files
    if extra:
        problems.append(f"unexpected book records: {sorted(extra)}")
    if set(skipped) - {b["book_id"] for b in manifest["books"]}:
        problems.append(f"unexpected skips: {sorted(skipped)}")

    hist = Counter(n // HIST_BIN_WIDTH * HIST_BIN_WIDTH for n in analyzed)
    try:
        rows = _csv_rows(tree["plots/sentence_count_histogram.csv"])[1:]
        got = {int(b): int(c) for b, c in rows if int(c)}
    except (KeyError, ValueError) as exc:
        got = repr(exc)
    if got != dict(hist):
        problems.append(f"sentence-count histogram {got} != manifest {hist}")
    return failed, problems


def _last_digit_unit(token: str) -> float:
    """One unit in the last printed digit of a number printed with 6
    significant digits (integers below 10**6 therefore compare exactly)."""
    x = abs(float(token))
    if x == 0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(x)) - 5)


def compare_to_reference(tree: dict[str, str],
                         ref: dict[str, str]) -> list[str]:
    """Every number within one unit in its 6th significant digit of the
    reference; every other token, and the set of files, exactly equal."""
    problems = []
    if set(tree) != set(ref):
        problems.append(f"file set differs: {sorted(set(tree) ^ set(ref))}")
    for rel in sorted(set(tree) & set(ref)):
        got, want = _TOKEN_RE.findall(tree[rel]), _TOKEN_RE.findall(ref[rel])
        if len(got) != len(want):
            problems.append(f"{rel}: {len(got)} tokens, reference {len(want)}")
            continue
        for g, w in zip(got, want):
            if g == w:
                continue
            numeric = _NUMBER_RE.match(g) and _NUMBER_RE.match(w)
            if not numeric or abs(float(g) - float(w)) > (
                    _last_digit_unit(w) * (1 + 1e-9)):
                problems.append(f"{rel}: {g!r} != reference {w!r}")
                break
    return problems


def _read_reference() -> dict | None:
    if not REFERENCE.exists():
        return None
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    ref = _read_reference()
    return ref["trees"].get(workload) if ref and ref["seed"] == seed else None


def write_reference(workload: str, tree: dict[str, str], seed: int) -> None:
    """Store `tree` as the reference for `workload`, keeping the other
    workloads' references when they are for the same seed."""
    ref = _read_reference()
    trees = ref["trees"] if ref and ref["seed"] == seed else {}
    trees[workload] = tree
    payload = json.dumps({"seed": seed, "trees": trees}, indent=0,
                         sort_keys=True).encode()
    with open(REFERENCE, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0, filename="") as fh:
        fh.write(payload)
