"""Command line interface: batch-analyze a directory of plain-text books."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .exceptions import ConfigError, SentlenError
from .harness import AnalysisConfig, _path, analyze_corpus, emit_reports

log = logging.getLogger("sentlen")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentlen",
        description="Sentence-length time-series analysis over a book corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze every .txt book in a directory")
    p.add_argument("input_dir", help="directory of UTF-8 plain-text books")
    p.add_argument("--out", required=True, help="output directory")
    # each analysis flag's dest is its AnalysisConfig field, and the
    # defaults are the dataclass's, so run_analyze passes the fields through
    p.set_defaults(**{f.name: f.default
                      for f in dataclasses.fields(AnalysisConfig)})
    p.add_argument("--stopwords", dest="stopwords_path", metavar="FILE",
                   help="stopword list, one lowercase word per line")
    p.add_argument("--lemmas", dest="lemmas_path", metavar="FILE",
                   help="lemma lexicon, 'surface<TAB>lemma' per line")
    p.add_argument("--dfa-degree", dest="dfa_degree", type=int,
                   help="polynomial detrending degree (default %(default)s)")
    p.add_argument("--dfa-min", dest="dfa_min_window", type=int,
                   metavar="DFA_MIN",
                   help="smallest DFA window (default %(default)s)")
    p.add_argument("--dfa-max-frac", dest="dfa_max_fraction", type=float,
                   metavar="DFA_MAX_FRAC",
                   help="largest window as a fraction of length "
                        "(default %(default)s)")
    p.add_argument("--dfa-points", dest="dfa_points", type=int,
                   help="number of log-spaced windows (default %(default)s)")
    p.add_argument("--seed", dest="seed", type=int,
                   help="base seed for the shuffled-control permutations "
                        "(default %(default)s)")
    p.add_argument("--p-threshold", dest="p_threshold", type=float,
                   help="significance threshold (default %(default)s)")
    p.add_argument("--min-sentences", dest="min_sentences", type=int,
                   help="skip books below this sentence count "
                        "(default %(default)s)")
    p.add_argument("--format", choices=["csv", "json"], default="json",
                   help="structured output format (default %(default)s)")
    p.add_argument("--jobs", dest="jobs", type=int,
                   help="parallel worker processes, at most one per book "
                        "and usable CPU (default %(default)s)")
    p.add_argument("--hist-bin-width", dest="hist_bin_width", type=int,
                   help="sentence-count histogram bin width "
                        "(default %(default)s)")
    return parser


def _check_out_dir(out) -> None:
    """Refuse an --out that is not, and cannot be made, a writable
    directory (a dangling link is not one); creates nothing."""
    path = _path("--out", out).absolute()
    while not os.path.lexists(path):
        path = path.parent
    if not (path.is_dir() and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(
            f"cannot write --out {out!r}: {path} is not a writable directory")


def run_analyze(args) -> int:
    config = AnalysisConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(AnalysisConfig)})
    _check_out_dir(args.out)
    summary, reports = analyze_corpus(args.input_dir, config)
    written = emit_reports(summary, reports, args.out, formats=(args.format,))
    log.info("analyzed %d books (%d skipped), wrote %d files to %s",
             summary.book_count, len(summary.skipped), len(written), args.out)
    if summary.book_count == 0:
        log.error("no book was analyzed: %s", "; ".join(
            f"{s.book_id}: {s.reason}" for s in summary.skipped))
        return 1
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return run_analyze(args)
    except SentlenError as exc:
        log.error("error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
