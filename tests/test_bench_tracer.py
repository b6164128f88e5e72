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
