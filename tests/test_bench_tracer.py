"""Smoke test of the benchmark's tracer (``bench/child.py``) against the
package: a refactor that renames what the tracer binds to would otherwise
silently empty the per-layer benchmark metrics."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_traced_run_records_the_benchmark_layers(tmp_path, monkeypatch):
    timing = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(timing), "--",
         "emulate-hbt", "--n-trials", "2000", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(timing.read_text())["spans"]
    names = {s[0] for s in spans}
    for layer in ("dynamics.expm", "dynamics.SinglesPropagator.step", "scenarios.runner"):
        assert layer in names, layer
    monkeypatch.syspath_prepend(str(BENCH))
    metrics = importlib.import_module("layers").per_layer(spans)
    assert metrics["dynamics.expm.calls"] > 0
    assert metrics["dynamics.SinglesPropagator.step.calls"] > 0
    # the grid spans the whole trajectory of the run's one evolve
    assert metrics["observables.correlation_grid.cells"] == metrics["dynamics.evolve.samples"] ** 2
    # ResultBundle.write saves the stream to its file, and the span counts its bytes
    assert "counting.save_stream" in names
    assert metrics["counting.save_stream.bytes"] == (tmp_path / "out" / "timestamps.txt").stat().st_size


def test_traced_propagate_times_the_cascade_exponential(tmp_path, monkeypatch):
    # a small doubles run on the exponential (a square pulse, from a config
    # with the retired key at the one value still accepted): the expm layer
    # must be the module's own routine, called once per propagator with
    # n3 = (1 + dim)^3
    (tmp_path / "expm.ini").write_text("[integration]\nmethod = auto\n")
    timing = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(timing), "--",
         "propagate", "--config", "expm.ini", "--n-atoms", "4", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(timing.read_text())["spans"]
    sizes = [s[4] for s in spans if s[0] == "dynamics.assemble_generator"]
    assert len(sizes) == 1 and sizes[0]["dim_doubles"] > 0
    dim = 1 + sizes[0]["dim_singles"] + sizes[0]["dim_doubles"]
    monkeypatch.syspath_prepend(str(BENCH))
    metrics = importlib.import_module("layers").per_layer(spans)
    calls = metrics["dynamics.expm.calls"]
    assert calls >= 1
    assert metrics["dynamics.expm.n3"] == calls * dim ** 3
    import rydeit.dynamics
    assert rydeit.dynamics.expm.__module__ == "rydeit.dynamics"


def test_traced_turnoff_times_the_decays_as_a_layer(tmp_path, monkeypatch):
    # a one-point turn-off scan: the singles and doubles decays run through
    # the public dynamics.decay and the cached SinglesPropagator.step, so
    # the tracer charges their stepping to dynamics and the scenario's own
    # code keeps under half of the runner's time
    (tmp_path / "point.ini").write_text("[scan]\nd_list = 1.8\nomega_c_list = 0.5\n")
    timing = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(timing), "--",
         "scan-turnoff", "--config", "point.ini", "--threads", "1",
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(timing.read_text())["spans"]
    names = {s[0] for s in spans}
    for layer in ("dynamics.decay", "dynamics.SinglesPropagator.step"):
        assert layer in names, layer
    monkeypatch.syspath_prepend(str(BENCH))
    metrics = importlib.import_module("layers").per_layer(spans)
    assert metrics["scenarios.points"] == 1
    assert metrics["scenarios.self_s"] < 0.5 * metrics["scenarios.runner.s"], metrics


def test_traced_propagate_takes_every_exponential_through_the_one_cache(tmp_path):
    # a gaussian pulse with doubles: the Magnus window and the undriven tail
    # both step the stacked propagator, so each expm span is the child of a
    # SinglesPropagator.step span, and nothing else builds an exponential
    timing = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(timing), "--",
         "propagate", "--shape", "gaussian", "--n-atoms", "4", "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(timing.read_text())["spans"]
    parents = [spans[s[3]][0] if s[3] is not None else None
               for s in spans if s[0] == "dynamics.expm"]
    assert len(parents) == 2, parents       # the Magnus factor and the tail's step
    assert set(parents) == {"dynamics.SinglesPropagator.step"}, parents
