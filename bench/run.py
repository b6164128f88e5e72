"""rydeit benchmark: one workload through the ``rydeit`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh ``python3`` process running ``rydeit.cli.main``
exactly as a user would (``bench/child.py``), with BLAS/OpenMP pinned to one
thread, ``--threads 1`` scans and outputs written under ``.bench_work/`` in
the repository, which is removed afterwards.  Repetitions run one at a time
(closed loop, one client) until S seconds have passed, at least once.

``--trace 0`` times whole processes: ``wall_s`` (process start to exit),
``cpu_s`` (user + system), ``setup_s`` (process start to runner entry:
interpreter, imports, argument parsing, configuration) and ``peak_rss_mb``,
each the median over the repetitions; ``setup_s`` also takes five set-up-only
processes per run.  ``--trace 1`` makes one traced repetition, which wraps
the public functions of every ``rydeit`` module and reports the per-layer
metrics of ``layers.py``, then untraced ones to measure the tracing overhead;
on ``turnoff-scan`` a second traced repetition with ``--threads 2`` gives
``scenarios.threads2_speedup`` (not gated).

Every repetition's output is checked against the seed's reference values
(``check.py``); a non-zero exit or a failed check counts in ``failed``.  The
last line of standard output is the JSON result; the lines before it give
each metric with its unit and sample count, and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import check  # noqa: E402  (sibling modules of this script)
import layers  # noqa: E402

#: rydeit arguments per workload; only the Monte Carlo workload uses the seed
WORKLOADS = {
    "replica": lambda seed: ["replica"],
    "turnon-scan": lambda seed: ["scan-turnon", "--threads", "1"],
    "turnoff-scan": lambda seed: ["scan-turnoff", "--threads", "1"],
    "hbt-gaussian": lambda seed: ["emulate-hbt", "--shape", "gaussian",
                                  "--n-trials", "1000000", "--seed", str(seed % 2 ** 32)],
}
#: set-up-only processes per untimed-work run, for a steadier setup_s median
SETUP_PROBES = 5
#: the whole run must end well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


def environment() -> dict:
    """Machine and library record printed with every result."""
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": PINNED_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Runner:
    """Launches child processes into one scratch directory and tallies them."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.workload = workload
        self.cli_args = WORKLOADS[workload](seed)
        self.work = work
        self.deadline = deadline
        self.reference = check.load_reference()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=work, **PINNED_THREADS)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def launch(self, mode: str, cli_args=None) -> dict:
        """Run one child to completion; None fields where it did not get there."""
        self.attempted += 1
        tag = os.path.join(self.work, f"{mode}{self.attempted}")
        timing, out = tag + ".json", tag + ".out"
        argv = [sys.executable, os.path.join(HERE, "child.py"), mode, timing, "--",
                *(cli_args or self.cli_args), "--out", out]
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise HarnessError("run budget exhausted before the next repetition")
        with open(tag + ".log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        rec = {}
        if os.path.exists(timing):
            with open(timing, encoding="utf-8") as fh:
                rec = json.load(fh)
        if rec.get("rydeit") and not rec["rydeit"].startswith(os.path.join(ROOT, "src")):
            raise HarnessError(f"child imported rydeit from {rec['rydeit']}")
        entry = rec.get("runner_entry")
        res = {"ok": proc.returncode == 0 and entry is not None,
               "wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0,
               "setup": entry - t0 if entry is not None else None,
               "spans": rec.get("spans")}
        if res["ok"] and mode != "setup":
            problems = check.check(self.workload, out, self.reference)
            for p in problems:
                print(f"output check ({self.workload}): {p}", file=sys.stderr)
            res["ok"] = not problems
        if not res["ok"]:
            self.failed += 1
            with open(tag + ".log", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"{mode} run failed (exit {proc.returncode}):\n{tail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def repeat(self, seconds: float) -> list:
        """Untraced repetitions until ``seconds`` have passed (at least one)."""
        reps = []
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            reps.append(self.launch("run"))
        return reps


def _median(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise HarnessError("no repetition reached the measured point")
    return statistics.median(values)


def timed(runner: Runner, seconds: float) -> tuple:
    probes = [runner.launch("setup") for _ in range(SETUP_PROBES)]
    reps = runner.repeat(seconds)
    samples = {"wall_s": len(reps), "cpu_s": len(reps), "peak_rss_mb": len(reps),
               "setup_s": sum(r["setup"] is not None for r in probes + reps)}
    metrics = {"wall_s": _median(r["wall"] for r in reps),
               "cpu_s": _median(r["cpu"] for r in reps),
               "setup_s": _median(r["setup"] for r in probes + reps),
               "peak_rss_mb": _median(r["rss_mb"] for r in reps)}
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, samples


def _per_layer(res: dict) -> dict:
    if not res["spans"]:
        raise HarnessError("a traced repetition recorded no spans")
    try:
        return layers.per_layer(res["spans"])
    except ValueError as exc:
        raise HarnessError(str(exc)) from exc


def traced(runner: Runner, seconds: float) -> tuple:
    first = runner.launch("trace")
    metrics = _per_layer(first)
    plain = runner.repeat(seconds)
    metrics["trace.overhead_s"] = first["wall"] - _median(r["wall"] for r in plain)
    if runner.workload == "turnoff-scan":
        args = list(runner.cli_args)
        args[args.index("--threads") + 1] = "2"
        two = _per_layer(runner.launch("trace", args))
        metrics["scenarios.threads2_speedup"] = (
            metrics["scenarios.runner.s"] / two["scenarios.runner.s"])
    samples = {name: 1 for name, _ in layers.PER_LAYER}
    return {k: (metrics[k], unit) for k, unit in layers.PER_LAYER}, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "rydeit", "cli.py")):
        print(f"bench: no rydeit sources under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        runner = Runner(ns.workload, ns.seed, work, deadline)
        measure = traced if ns.trace else timed
        metrics, samples = measure(runner, ns.seconds)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{ns.workload}  {name} = {value!r} {unit}  (n={samples[name]})")
    print(f"{ns.workload}  failed_share = {runner.failed / runner.attempted!r}  "
          f"({runner.failed} of {runner.attempted} processes)")
    print(f"{ns.workload}  output check: {'pass' if runner.failed == 0 else 'FAIL'}")
    print("environment:", json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
