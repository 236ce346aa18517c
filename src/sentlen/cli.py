"""Command line interface: batch-analyze a directory of plain-text books."""

from __future__ import annotations

import argparse
import logging
import sys

from .exceptions import SentlenError
from .harness import AnalysisConfig, analyze_corpus, emit_reports

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
    p.add_argument("--stopwords", default=AnalysisConfig.stopwords_path,
                   metavar="FILE",
                   help="stopword list, one lowercase word per line")
    p.add_argument("--lemmas", default=AnalysisConfig.lemmas_path,
                   metavar="FILE",
                   help="lemma lexicon, 'surface<TAB>lemma' per line")
    p.add_argument("--dfa-degree", type=int, default=AnalysisConfig.dfa_degree,
                   help="polynomial detrending degree (default %(default)s)")
    p.add_argument("--dfa-min", type=int,
                   default=AnalysisConfig.dfa_min_window,
                   help="smallest DFA window (default %(default)s)")
    p.add_argument("--dfa-max-frac", type=float,
                   default=AnalysisConfig.dfa_max_fraction,
                   help="largest window as a fraction of length "
                        "(default %(default)s)")
    p.add_argument("--dfa-points", type=int, default=AnalysisConfig.dfa_points,
                   help="number of log-spaced windows (default %(default)s)")
    p.add_argument("--seed", type=int, default=AnalysisConfig.seed,
                   help="base seed for the shuffled-control permutations "
                        "(default %(default)s)")
    p.add_argument("--p-threshold", type=float,
                   default=AnalysisConfig.p_threshold,
                   help="significance threshold (default %(default)s)")
    p.add_argument("--min-sentences", type=int,
                   default=AnalysisConfig.min_sentences,
                   help="skip books below this sentence count "
                        "(default %(default)s)")
    p.add_argument("--format", choices=["csv", "json"], default="json",
                   help="structured output format (default %(default)s)")
    p.add_argument("--jobs", type=int, default=AnalysisConfig.jobs,
                   help="parallel worker processes, at most one per book "
                        "and CPU (default %(default)s)")
    p.add_argument("--hist-bin-width", type=int,
                   default=AnalysisConfig.hist_bin_width,
                   help="sentence-count histogram bin width "
                        "(default %(default)s)")
    return parser


def run_analyze(args) -> int:
    config = AnalysisConfig(
        stopwords_path=args.stopwords,
        lemmas_path=args.lemmas,
        dfa_degree=args.dfa_degree,
        dfa_min_window=args.dfa_min,
        dfa_max_fraction=args.dfa_max_frac,
        dfa_points=args.dfa_points,
        seed=args.seed,
        p_threshold=args.p_threshold,
        min_sentences=args.min_sentences,
        hist_bin_width=args.hist_bin_width,
        jobs=args.jobs,
    )
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
