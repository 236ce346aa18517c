"""Summarize result records of several benchmark runs, one workload per
group: the median over runs of each metric, its quartiles, and the spread
(interquartile range over median) that the regression bounds are set
against.

    python3 bench/summarize.py .bench_work/results/*-trace*.json
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# what ran: the same for every run of one commit on one machine
VERSION_KEYS = ("commit", "src_sha256", "python", "numpy", "scipy", "nproc")


def summarize(records) -> dict:
    groups: dict[str, dict] = {}
    for rec in records:
        g = groups.setdefault(rec["workload"], {
            "flags": rec["flags"], "seeds": [], "versions": set(),
            "correct": True, "e2e": {}, "layers": {}, "steal": []})
        g["seeds"].append(rec["env"]["seed"])
        g["versions"].add(json.dumps(
            {k: rec["env"][k] for k in VERSION_KEYS}, sort_keys=True))
        g["correct"] &= rec["correct"]
        if rec.get("host_steal_s") is not None:
            g["steal"].append(rec["host_steal_s"])
        if rec["layers"]:
            for metric, value in rec["layers"].items():
                g["layers"].setdefault(metric, []).append(value)
        else:
            for metric, s in rec["e2e"].items():
                g["e2e"].setdefault(metric, []).append(s["median"])
    out = {}
    for name, g in groups.items():
        e2e = {}
        for metric, values in g["e2e"].items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            e2e[metric] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "runs": len(values)}
        out[name] = {
            "flags": g["flags"], "seeds": sorted(g["seeds"]),
            "versions": [json.loads(v) for v in sorted(g["versions"])],
            "correct": g["correct"],
            "e2e": e2e,
            "layers": {m: statistics.median(v) for m, v in g["layers"].items()},
            "host_steal_s": statistics.median(g["steal"]) if g["steal"] else None,
        }
    return out


if __name__ == "__main__":
    records = [json.loads(Path(p).read_text()) for p in sys.argv[1:]]
    print(json.dumps(summarize(records), indent=1, sort_keys=True))
