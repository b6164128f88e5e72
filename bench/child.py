"""One ``rydeit`` command-line run inside the benchmark's child process.

    python3 bench/child.py MODE TIMING_JSON -- <rydeit arguments>

MODE is one of

* ``run``   - run the command and record the monotonic clock at runner entry;
* ``setup`` - stop the process at runner entry (imports, argument parsing and
  configuration resolution only, nothing is written);
* ``trace`` - like ``run``, and also wrap the public functions of every
  ``rydeit`` module, in every module that looks them up, recording one span
  (name, start, end, parent, counts) per call.

The timing file is written when the command returns; spans stay in memory
until then.  Nothing under ``src/`` is modified: the wrappers replace module
attributes in this process only.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

#: modules whose public functions become spans, in import order
MODULES = ("model", "statespace", "dynamics", "observables", "counting",
           "configio", "scenarios")
#: public methods that are layers of their own
METHODS = (("dynamics", "SinglesPropagator", "step"),
           ("scenarios", "ResultBundle", "write"))
#: span name of whichever scenario runner the command dispatches to
RUNNER = "scenarios.runner"


class Recorder:
    """Spans as ``[name, start, end, parent_index, counts]`` in call order."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def call(self, name: str, fn, args, kwargs, counts=None):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, None])
        self._stack.append(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[i][2] = time.monotonic()
        if counts is not None:
            self.spans[i][4] = counts(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)
        traced.__wrapped__ = fn
        return traced


def _count_hooks(pkg) -> dict:
    """Per-span counts taken from arguments and results (cheap, no copies)."""
    emulate_sig = inspect.signature(pkg.counting.emulate_trials)

    def emulate(args, kwargs, stream):
        a = emulate_sig.bind(*args, **kwargs).arguments
        g2 = a["grid"].g2_matrix
        peak = float(g2.max()) if g2.size else 0.0
        return {"trials": int(a["n_trials"]), "events": int(stream.n_events),
                "accept_ratio": float(g2.mean()) / peak if peak > 0 else 0.0}

    def save_stream(args, kwargs, _result):
        target = args[1] if len(args) > 1 else kwargs["path_or_file"]
        size = target.tell() if hasattr(target, "tell") else os.path.getsize(target)
        return {"bytes": int(size)}

    def generator(args, kwargs, gen):
        idx = gen.index
        return {"dim_singles": idx.dim_singles, "dim_doubles": idx.dim_doubles,
                "n_rr": idx.n_rr, "v_max": float(gen.v_max)}

    def runner(args, kwargs, bundle):
        s = bundle.scalars
        return {"points": int(s.get("n_points", 1)),
                "points_flagged": int(s.get("n_failed", 0))}

    return {
        "dynamics.expm": lambda a, k, r: {"n3": int(a[0].shape[0]) ** 3},
        "dynamics.evolve": lambda a, k, traj: {"samples": int(traj.n_samples)},
        "dynamics.assemble_generator": generator,
        "observables.correlation_grid":
            lambda a, k, grid: {"cells": int(grid.g2_matrix.size)},
        "counting.emulate_trials": emulate,
        "counting.save_stream": save_stream,
        "scenarios.ResultBundle.write":
            lambda a, k, paths: {"bytes": sum(os.path.getsize(p) for p in paths)},
        RUNNER: runner,
    }


def install_tracing(rec: Recorder, pkg, counts: dict) -> None:
    """Replace every public function of the rydeit modules, wherever a module
    binds it, by a recording wrapper; scipy's ``expm`` as called from
    ``dynamics`` and ``scenarios`` becomes the ``dynamics.expm`` span."""
    mods = [getattr(pkg, m) for m in MODULES] + [pkg.cli]
    wrappers: dict = {}
    for short in MODULES:
        mod = getattr(pkg, short)
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = (obj, rec.wrap(name, obj, counts.get(name)))
    expm = pkg.dynamics.expm
    wrappers[id(expm)] = (expm, rec.wrap("dynamics.expm", expm, counts["dynamics.expm"]))
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for short, cls_name, meth in METHODS:
        cls = getattr(getattr(pkg, short), cls_name)
        name = f"{short}.{cls_name}.{meth}"
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth), counts.get(name)))


def main(argv: list) -> int:
    mode, out_path, sep, *cli_args = argv
    if mode not in ("run", "setup", "trace") or sep != "--":
        print("usage: child.py run|setup|trace TIMING_JSON -- ARGS...", file=sys.stderr)
        return 2
    rec = Recorder() if mode == "trace" else None
    t0 = time.monotonic()
    import rydeit
    import rydeit.cli
    t1 = time.monotonic()
    record: dict = {"mode": mode, "rydeit": rydeit.__file__}
    if rec is not None:
        rec.spans.append(["cli.import", t0, t1, None, None])
        counts = _count_hooks(rydeit)
        install_tracing(rec, rydeit, counts)

    def dump() -> None:
        if rec is not None:
            record["spans"] = rec.spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    runners = rydeit.scenarios.RUNNERS
    for kind, fn in list(runners.items()):
        def entry(cfg, _fn=fn):
            record["runner_entry"] = time.monotonic()
            if mode == "setup":
                dump()
                sys.stdout.flush()
                os._exit(0)
            if rec is None:
                return _fn(cfg)
            return rec.call(RUNNER, _fn, (cfg,), {}, counts[RUNNER])
        runners[kind] = entry

    code = rydeit.cli.main(cli_args)
    record["exit_code"] = code
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
