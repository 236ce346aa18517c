"""Corpus benchmark for `sentlen analyze`.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Generates the workload from the seed (bench/workloads.py), then runs
`sentlen analyze` on it, each sample one `sentlen.cli.main` call in a fresh
interpreter after set-up (bench/child.py), as many as end within --seconds
and at least three. Every sample's output tree is checked against
the generator's manifest, against every other sample of the run (by digest)
and, for the default seed, against bench/reference.json.gz.

Every time is scaled to a reference host speed: each sample's child times a
fixed piece of work every 0.1 s while it runs (bench/child.py), and the
sample's wall and set-up times are multiplied by REF_PROBE_S over the
trimmed mean probe time of the same interval. Raw times are printed beside
them and kept in the result record.

--trace 0 reports the end-to-end metrics. --trace 1 adds one traced serial
run (bench/tracer.py) and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted and failed books, and
the metrics. Generated inputs and outputs go under .bench_work/ in the
checkout; result records and span dumps stay in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"
MIN_SAMPLES = 3
# the host-speed probe's time at the reference speed (about its mean on
# the 2-vCPU Xeon VM the bounds were set on)
REF_PROBE_S = 0.001
# a run must end within 180 s: no sample starts that would end after this
RUN_DEADLINE_S = 165

#: (name, unit, better) of every end-to-end metric, in report order.
E2E_METRICS = (
    ("wall_s", "s", "lower"),
    ("books_per_s", "1/s", "higher"),
    ("sentences_per_s", "1/s", "higher"),
    ("mb_per_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
#: printed and recorded beside them, not reported in the JSON line
RAW_METRICS = (
    ("raw_wall_s", "s", "lower"),
    ("raw_setup_s", "s", "lower"),
    ("probe_s", "s", "lower"),
)


def require_checkout() -> None:
    missing = [rel for rel in ("src/sentlen/cli.py", "tests/corpusgen.py")
               if not (ROOT / rel).is_file()]
    if missing:
        sys.exit(f"error: {ROOT} is not a sentlen checkout "
                 f"(missing {', '.join(missing)})")


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor has given to other guests since boot, all
    CPUs together; None where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(work: Path, tag: str, flags, trace: bool,
              timeout: float) -> dict | None:
    """One sample in a fresh interpreter; None if it crashed or hung."""
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result)]
    if trace:
        cmd += ["--trace", str(work / f"spans-{tag}.json")]
    cmd += ["--", "books", "--out", f"out/{tag}", *flags]
    with open(work / f"log-{tag}.txt", "wb") as log:
        # own process group, so a hung run's pool workers are stopped too
        proc = subprocess.Popen(cmd, cwd=work, stdout=log, stderr=log,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result.exists():
        tail = (work / f"log-{tag}.txt").read_text(errors="replace")[-2000:]
        print(f"sample {tag} failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
        return None
    return json.loads(result.read_text())


class Session:
    """The samples of one workload run and the checks on their outputs."""

    def __init__(self, workload, manifest, work: Path, reference,
                 deadline: float):
        self.workload = workload
        self.manifest = manifest
        self.deadline = deadline  # time.perf_counter() value
        self.work = work
        self.reference = reference
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_tree = None

    def sample(self, tag: str, flags, trace: bool = False) -> dict | None:
        """Run and check one sample; None if any of it failed."""
        n_books = len(self.manifest["books"])
        self.attempted += n_books
        steal = host_steal_s()
        rec = run_child(self.work, tag, flags, trace,
                        self.deadline - time.perf_counter())
        if rec is not None and steal is not None:
            # other guests' CPU time during the sample: explains outliers
            rec["host_steal_s"] = host_steal_s() - steal
        out = self.work / "out" / tag
        tree = check.read_tree(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        failed, problems = check.check_tree(tree, self.manifest,
                                            self.workload.fmt)
        if rec is None:
            problems.append("the sample did not finish")
        elif rec["rc"] != 0:
            problems.append(f"exit code {rec['rc']}")
        digest = check.digest(tree)
        if self.digests and digest not in self.digests:
            problems.append("output tree differs from an earlier sample")
        elif not self.digests:
            self.first_tree = tree
            if self.reference is not None:
                problems += check.compare_to_reference(tree, self.reference)
        self.digests.add(digest)
        for book, why in failed.items():
            self.problems.append(f"sample {tag}: {book}: {why}")
        self.problems += [f"sample {tag}: {p}" for p in problems]
        if rec is None or problems:
            self.failed += n_books
            return None
        self.failed += len(failed)
        return None if failed else rec


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the `cut` share of lowest and of highest values.

    The host switches between a fast and a slow state many times a second,
    so probe times have two modes; their mean follows the share of time
    spent slow, which a median does not. The cut drops the few probes that
    the scheduler or the hypervisor interrupted."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def host_adjusted(seconds: float, probes, fallback) -> float:
    """`seconds` as they would read at the reference host speed, from the
    probe times taken in the same interval (or in the whole sample, when
    the interval was too short to hold one)."""
    return seconds * REF_PROBE_S / trimmed_mean(probes or fallback)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def environment(seed: int, manifest: dict) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sentlen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    books = manifest["books"]
    analyzed = [b for b in books if b["outcome"] == "analyzed"]
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "seed": seed, "books": len(books), "books_analyzed": len(analyzed),
        "sentences_analyzed": sum(b["sentences"] for b in analyzed),
        "bytes": sum(b["bytes"] for b in books),
        "ref_probe_s": REF_PROBE_S,
    }


def e2e_metrics(samples, env) -> dict[str, list[float]]:
    mb = env["bytes"] / 1e6
    wall, setup = [], []
    for s in samples:
        every_probe = s["probe_setup_s"] + s["probe_wall_s"]
        wall.append(host_adjusted(s["wall_s"], s["probe_wall_s"], every_probe))
        setup.append(host_adjusted(s["setup_s"], s["probe_setup_s"],
                                   every_probe))
    return {
        "wall_s": wall,
        "books_per_s": [env["books_analyzed"] / w for w in wall],
        "sentences_per_s": [env["sentences_analyzed"] / w for w in wall],
        "mb_per_s": [mb / w for w in wall],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": setup,
        "raw_wall_s": [s["wall_s"] for s in samples],
        "raw_setup_s": [s["setup_s"] for s in samples],
        "probe_s": [trimmed_mean(s["probe_wall_s"] or every_probe)
                    for s in samples],
    }


def print_report(env: dict, e2e: dict, layers: dict, session: Session,
                 steal: float | None) -> None:
    size = {"books_per_s": f"of {env['books_analyzed']} books",
            "sentences_per_s": f"of {env['sentences_analyzed']} sentences",
            "mb_per_s": f"of {env['bytes'] / 1e6:.6g} MB"}
    for metric, unit, _ in E2E_METRICS + RAW_METRICS:
        if metric in e2e:
            s = e2e[metric]
            print(f"  {metric:<16} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['n']:<3} "
                  f"{unit:<5} {size.get(metric, '')}")
    print(f"  {'fail_frac':<16} {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} books)")
    if steal is not None:
        print(f"  {'host_steal_s':<16} median {steal:.6g} per sample "
              "(CPU time the hypervisor gave other guests)")
    for metric, unit, _ in tracer.LAYER_METRICS:
        if metric in layers:
            print(f"  {metric:<42} {layers[metric]:<14.6g} {unit}")
    for problem in session.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 write_reference: bool) -> dict:
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    manifest = workloads.generate(name, seed, work)
    env = environment(seed, manifest)
    print(f"== {name}: {env['books']} books ({env['books_analyzed']} "
          f"analyzed), {env['sentences_analyzed']} sentences, "
          f"{env['bytes']} bytes; flags {' '.join(workload.flags)}")
    reference = None if write_reference else check.load_reference(name, seed)
    if seed == workloads.DEFAULT_SEED and reference is None and not write_reference:
        print(f"note: no reference outputs for {name} at seed {seed}")
    session = Session(workload, manifest, work, reference,
                      deadline=start + RUN_DEADLINE_S)

    samples = []
    t0 = last = time.perf_counter()
    took = 0.0
    # start a sample only if it should end within --seconds, but take at
    # least MIN_SAMPLES
    while len(samples) < MIN_SAMPLES or last + took - t0 <= seconds:
        samples.append(session.sample(str(len(samples)), workload.flags))
        took, last = time.perf_counter() - last, time.perf_counter()
        if trace or last + took > session.deadline:
            break
    ok = [s for s in samples if s is not None]

    layers = {}
    if trace:
        serial = workloads.Workload(name, jobs=1, fmt=workload.fmt).flags
        serial_rec = ok[0] if ok and workload.jobs == 1 else (
            session.sample("serial", serial))
        traced = session.sample("traced", serial, trace=True)
        if ok and serial_rec and traced:
            spans_src = work / "spans-traced.json"
            doc = json.loads(spans_src.read_text())
            layers = tracer.layer_metrics(
                doc, traced["wall_s"], serial_rec["wall_s"],
                ok[0]["wall_s"], workload.jobs)
            shutil.move(spans_src, RESULTS / f"{name}-{seed}.spans.json")
            if doc["absent"]:
                print(f"absent from the program: {', '.join(doc['absent'])}")

    correct = not session.problems
    if write_reference and correct and session.first_tree is not None:
        check.write_reference(name, session.first_tree, seed)
        print(f"wrote reference outputs for {name} at seed {seed}")

    e2e = {}
    for metric, values in (e2e_metrics(ok, env) if ok else {}).items():
        q1, med, q3 = quartiles(values)
        e2e[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    steal = [s["host_steal_s"] for s in ok if "host_steal_s" in s]
    steal = statistics.median(steal) if steal else None
    print_report(env, e2e, layers, session, steal)

    record = {
        "workload": name, "flags": list(workload.flags), "env": env,
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed, "samples": samples,
        "e2e": e2e, "layers": layers, "host_steal_s": steal,
        "problems": session.problems,
    }
    (RESULTS / f"{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {m: {"value": layers[m], "unit": u}
                   for m, u, _ in tracer.LAYER_METRICS if m in layers}
    else:
        metrics = {m: {"value": e2e[m]["median"], "unit": u}
                   for m, u, _ in E2E_METRICS if m in e2e}
    return {"correct": correct, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="corpus12, long-short, many-small or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long, at least three "
                             "samples (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    results = {n: run_workload(n, seed, args.seconds, bool(args.trace),
                               args.write_reference) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    require_checkout()
    import check  # noqa: E402
    import tracer  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())
