"""Repeat ``run.py`` over seeds and workloads and summarize the spread.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--traced] [--out FILE]

Runs every workload once per seed with ``--trace 0`` (seed-major order) and,
with ``--traced``, once more with ``--trace 1``.  For each end-to-end metric
it reports the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median`` against the metric's bound in BENCHMARK.json,
which should stay below a third of the bound.  ``--out`` writes everything,
per-run values and traced per-layer metrics included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result object, the environment record) of one run.py invocation."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(l.split(":", 1)[1]) for l in lines
                if l.startswith("environment:")), None)
    return json.loads(lines[-1]), env


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    ns = ap.parse_args(argv)
    workloads = ns.workloads.split(",")
    seeds = _seeds(ns.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            res, env = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append({"seed": seed, "correct": res["correct"],
                            "attempted": res["attempted"], "failed": res["failed"],
                            **{k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "environment": env,
              "workloads": {}}
    worst = 0.0
    for w in workloads:
        summary = {}
        for metric, bound in bounds.items():
            summary[metric] = summarize([r[metric] for r in runs[w]], bound)
            s = summary[metric]
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- over bound/3"
            if metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"{w:14s} {metric:12s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")
        entry = {"summary": summary, "runs": runs[w],
                 "failed_share": sum(r["failed"] for r in runs[w])
                 / sum(r["attempted"] for r in runs[w])}
        if ns.traced:
            res, _ = run_once(w, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = {k: v["value"] for k, v in res["metrics"].items()}
            entry["traced_correct"] = res["correct"]
        report["workloads"][w] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
