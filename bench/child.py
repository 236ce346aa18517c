"""One benchmark sample in a fresh interpreter: set up, then time one
in-process `sentlen analyze` call.

    python3 bench/child.py RESULT.json [--trace SPANS.json] -- ANALYZE_ARGS...

Writes wall and set-up seconds, the exit code, peak RSS and the host-speed
probe's timings to RESULT.json. With --trace, the tracer wraps the program's
public functions after set-up, and its spans and per-layer counts go to
SPANS.json.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import threading  # noqa: E402

PROBE_INTERVAL_S = 0.1
PROBES: list[tuple[float, float]] = []  # (start, seconds) of each probe


def _probe_loop(stop: threading.Event) -> None:
    """Time a fixed piece of pure-Python work every PROBE_INTERVAL_S.

    On a shared host a core switches between a fast and a slow state many
    times a second with the load of other guests, and the share of time
    it runs slow drifts over minutes; the probe's times, taken during the
    measured call itself, say how fast the host was meanwhile. It costs
    about 1 % of one CPU and is the same on every commit.
    """
    while not stop.wait(PROBE_INTERVAL_S):
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        PROBES.append((start, time.perf_counter() - start))


_STOP_PROBE = threading.Event()
threading.Thread(target=_probe_loop, args=(_STOP_PROBE,), daemon=True).start()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup():
    """Import the CLI (numpy and scipy with it) and load the default
    stopwords and lemma lexicon, as every analyze run does."""
    from sentlen import cli, harness, textpipe

    resources = getattr(harness, "_resources", None)
    if resources is not None:
        resources(None, None)  # the CLI's cached loader
    else:
        textpipe.default_stopwords()
        textpipe.default_lemma_lexicon()
    return cli


def main(argv) -> int:
    split = argv.index("--")
    opts, analyze_args = argv[:split], argv[split + 1:]
    result_path = Path(opts[0])
    spans_path = Path(opts[2]) if opts[1:2] == ["--trace"] else None

    cli = setup()
    setup_s = time.perf_counter() - T0
    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    rc = cli.main(["analyze", *analyze_args])
    t2 = time.perf_counter()
    _STOP_PROBE.set()

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    # pool workers report their own peak; the run's is the larger of the two
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result_path.write_text(json.dumps({
        "rc": rc, "wall_s": t2 - t1, "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "probe_setup_s": [d for t, d in PROBES if t < t1],
        "probe_wall_s": [d for t, d in PROBES if t1 <= t < t2],
    }) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
