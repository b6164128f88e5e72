"""Tests of the benchmark's own arithmetic and checks (no rydeit runs).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import math

import pytest

import check
import layers
from child import RUNNER, Recorder


def _span(name, t0, t1, parent=None, counts=None):
    return [name, t0, t1, parent, counts]


@pytest.fixture
def spans():
    # cli.import | runner [0, 10] > evolve [1, 6] > expm [2, 5]
    #                              > evolve [6, 8] (no children), write [11, 12]
    return [
        _span("cli.import", -2.0, -1.0),
        _span(RUNNER, 0.0, 10.0, None, {"points": 9, "points_flagged": 4}),
        _span("dynamics.evolve", 1.0, 6.0, 1, {"samples": 100}),
        _span("dynamics.expm", 2.0, 5.0, 2, {"n3": 8}),
        _span("dynamics.evolve", 6.0, 8.0, 1, {"samples": 50}),
        _span("scenarios.ResultBundle.write", 11.0, 12.0, None, {"bytes": 7}),
    ]


def test_self_times_subtract_direct_children_only(spans):
    own = layers.self_times(spans)
    assert own == [1.0, 3.0, 2.0, 3.0, 2.0, 1.0]


def test_self_times_under_runner_add_up_to_runner_time(spans):
    total, error, scenario_self = layers.runner_check(spans)
    assert total == 10.0
    assert error == 0.0
    assert scenario_self == 3.0     # the runner's own time: no scenarios children


def test_per_layer_rejects_spans_that_do_not_nest(spans):
    spans[2][2] = 11.0      # a child outliving the runner
    with pytest.raises(ValueError):
        layers.per_layer(spans)


def test_summarize_counts_nested_same_name_once():
    spans = [_span("a", 0.0, 4.0), _span("a", 1.0, 3.0, 0), _span("b", 1.5, 2.0, 1)]
    agg = layers.summarize(spans)
    assert agg["a"]["s"] == 4.0
    assert agg["a"]["self_s"] == 2.0 + 1.5
    assert agg["a"]["calls"] == 2


def test_per_layer_reports_every_metric(spans):
    m = layers.per_layer(spans)
    assert set(m) == {name for name, _ in layers.PER_LAYER}
    assert m["dynamics.evolve.s"] == 7.0
    assert m["dynamics.evolve.self_s"] == 4.0
    assert m["dynamics.evolve.calls"] == 2
    assert m["dynamics.evolve.samples"] == 150
    assert m["dynamics.expm.n3"] == 8
    assert m["scenarios.points_flagged"] == 4
    assert m["scenarios.ResultBundle.write.bytes"] == 7
    assert m["trace.layer_share"] == pytest.approx(0.7)
    assert m["counting.emulate_trials.s"] == 0


def test_recorder_nests_spans_and_closes_them_on_error():
    rec = Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    inner_t = rec.wrap("inner", inner, lambda a, k, r: {"out": r})
    outer_t = rec.wrap("outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(3) == 12
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert rec.spans[1][4] == {"out": 6}
    with pytest.raises(ValueError):
        outer_t(-1)
    assert all(s[2] is not None and s[2] >= s[1] for s in rec.spans)
    assert rec.spans[-1][3] == 3


# --- output check -----------------------------------------------------------

TOL = {"rel": 1e-3, "seeded_rel": 0.02, "rows_rel": 0.01, "z_max": 10.0}
REF = {"results": {"n_points": 9, "n_failed": 4, "g2_ss": 0.35, "n_events": 1000},
       "rows": {"turnoff.csv": 9, "pulse.csv": 1102},
       "estimates": [{"window": "full_output", "status": "ok", "g2_quadrature": 0.61}]}
GOOD = {"results": {"n_points": 9, "n_failed": 4, "g2_ss": 0.35 * (1 + 5e-4),
                    "n_events": 1010},
        "rows": {"turnoff.csv": 9, "pulse.csv": 1101},
        "estimates": [{"window": "full_output", "status": "ok",
                       "g2_quadrature": "0.61", "z_score": "-3.8"}]}


def test_compare_passes_within_tolerances():
    assert check.compare(GOOD, REF, TOL) == []


@pytest.mark.parametrize("path, value", [
    (("results", "g2_ss"), 0.35 * (1 + 2e-3)),     # physics moved
    (("results", "n_failed"), 3),                   # a point changed status
    (("results", "n_events"), 1100),                # Monte Carlo count off
    (("rows", "turnoff.csv"), 8),                   # a scan point lost
    (("rows", "pulse.csv"), 1000),
])
def test_compare_fails_outside_tolerances(path, value):
    got = copy.deepcopy(GOOD)
    got[path[0]][path[1]] = value
    problems = check.compare(got, REF, TOL)
    assert len(problems) == 1 and path[1] in problems[0]


def test_compare_fails_on_estimate_status_and_z():
    got = copy.deepcopy(GOOD)
    got["estimates"][0].update(status="EstimateError", z_score="nan")
    problems = check.compare(got, REF, TOL)
    assert any("status" in p for p in problems)
    assert any("z_score" in p for p in problems)


def test_compare_fails_on_missing_scalar_and_nan():
    got = copy.deepcopy(GOOD)
    del got["results"]["g2_ss"]
    assert check.compare(got, REF, TOL) == ["[results] g2_ss missing"]
    got["results"]["g2_ss"] = math.nan
    assert len(check.compare(got, REF, TOL)) == 1


def test_check_reads_a_run_directory(tmp_path):
    (tmp_path / "manifest.ini").write_text(
        "[scenario]\nkind = turnoff_scan\n\n[results]\nn_points = 9\nn_failed = 4\n"
        "g2_ss = 0.35\nn_events = 1000\n")
    (tmp_path / "turnoff.csv").write_text("# note\na,b\n" + "1,2\n" * 9)
    (tmp_path / "pulse.csv").write_text("t\n" + "0\n" * 1102)
    (tmp_path / "estimates.csv").write_text(
        "window,status,g2_quadrature,z_score\nfull_output,ok,0.61,1.0\n")
    reference = {"tolerance": TOL, "workloads": {"w": REF}}
    assert check.check("w", str(tmp_path), reference) == []
    (tmp_path / "turnoff.csv").write_text("# note\na,b\n" + "1,2\n" * 8)
    assert check.check("w", str(tmp_path), reference) == [
        "turnoff.csv: 8 data rows, expected 9"]


def test_check_reports_missing_output(tmp_path):
    reference = {"tolerance": TOL, "workloads": {"w": REF}}
    problems = check.check("w", str(tmp_path / "absent"), reference)
    assert len(problems) == 1 and problems[0].startswith("unreadable output")
