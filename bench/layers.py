"""Per-layer metrics from the spans of one traced run.

A span is ``[name, start, end, parent_index, counts]`` (see ``child.py``).
``X.s`` is the time inside calls of ``X`` (nested calls of the same name are
counted once), ``X.self_s`` is that time minus the time of traced child
calls, and count metrics add up the per-call counts.
"""

from __future__ import annotations

from child import RUNNER

#: the config resolution ``cli.main`` does before dispatching
CONFIG_SPANS = ("configio.default_config", "configio.load_config",
                "scenarios.replica_config")
#: slack (s) for the trace sanity checks: the self times under the runner add
#: up to the runner time and none is negative, up to rounding of the clock
SELF_SUM_SLACK_S = 1e-6

#: per-call counts that describe a size, reported as the largest seen
MAX_COUNTS = ("dim_singles", "dim_doubles", "n_rr", "v_max", "accept_ratio")

#: (metric, unit) in report order; every traced run reports all of them, with
#: 0 for a layer the workload never enters
PER_LAYER = (
    ("dynamics.expm.s", "s"), ("dynamics.expm.calls", "count"),
    ("dynamics.expm.n3", "count"),
    ("dynamics.evolve.s", "s"), ("dynamics.evolve.self_s", "s"),
    ("dynamics.evolve.calls", "count"), ("dynamics.evolve.samples", "count"),
    ("dynamics.steady_state.s", "s"), ("dynamics.steady_state.calls", "count"),
    ("dynamics.assemble_generator.s", "s"),
    ("dynamics.assemble_generator.calls", "count"),
    ("statespace.build_index.s", "s"),
    ("dynamics.SinglesPropagator.step.s", "s"),
    ("dynamics.SinglesPropagator.step.calls", "count"),
    ("observables.correlation_grid.s", "s"),
    ("observables.correlation_grid.self_s", "s"),
    ("observables.correlation_grid.cells", "count"),
    ("observables.transmission_spectrum.s", "s"),
    ("observables.trace_from_trajectory.s", "s"),
    ("observables.windowed_g2.s", "s"),
    ("counting.emulate_trials.s", "s"), ("counting.emulate_trials.trials_per_s", "1/s"),
    ("counting.emulate_trials.events", "count"),
    ("counting.emulate_trials.accept_ratio", "ratio"),
    ("counting.estimate_g2.s", "s"),
    ("counting.save_stream.s", "s"), ("counting.save_stream.bytes", "B"),
    ("scenarios.runner.s", "s"), ("scenarios.self_s", "s"),
    ("scenarios.points", "count"), ("scenarios.points_flagged", "count"),
    ("scenarios.ResultBundle.write.s", "s"), ("scenarios.ResultBundle.write.bytes", "B"),
    ("configio.manifest_text.s", "s"),
    ("cli.import.s", "s"), ("configio.config.s", "s"),
    ("size.dim_singles", "count"), ("size.dim_doubles", "count"),
    ("size.n_rr", "count"), ("size.v_max", "Gamma"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ("trace.layer_share", "ratio"),
    ("scenarios.threads2_speedup", "ratio"),
)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _inside(spans, i: int, anc: int) -> bool:
    while i is not None:
        if i == anc:
            return True
        i = spans[i][3]
    return False


def _outermost(spans, i: int) -> bool:
    """True unless an enclosing span has the same name (recursion)."""
    name, p = spans[i][0], spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def summarize(spans) -> dict:
    """Per-name totals: ``s``, ``self_s``, ``calls`` and summed counts."""
    own = self_times(spans)
    out: dict = {}
    for i, (name, t0, t1, _parent, counts) in enumerate(spans):
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        if _outermost(spans, i):
            agg["s"] += t1 - t0
        agg["self_s"] += own[i]
        agg["calls"] += 1
        for key, val in (counts or {}).items():
            if key in MAX_COUNTS:
                agg[key] = max(agg.get(key, 0), val)
            else:
                agg[key] = agg.get(key, 0) + val
    return out


def runner_check(spans) -> tuple:
    """(runner time, error, self time of ``scenarios`` code in the runner's
    subtree); the error is the larger of |sum of self times in the subtree -
    runner time| and the most negative self time (a child outliving its
    parent)."""
    runner = next(i for i, s in enumerate(spans) if s[0] == RUNNER)
    own = self_times(spans)
    under = [i for i in range(len(spans)) if _inside(spans, i, runner)]
    total = spans[runner][2] - spans[runner][1]
    error = max(abs(sum(own[i] for i in under) - total),
                -min(own[i] for i in under))
    scenario_self = sum(own[i] for i in under if spans[i][0].startswith("scenarios."))
    return total, error, scenario_self


def per_layer(spans) -> dict:
    """Every PER_LAYER metric except the run-level ones (trace overhead,
    threads2 speed-up), which ``run.py`` fills in.  Raises ValueError when
    the self times under the runner do not add up to the runner time."""
    agg = summarize(spans)
    runner_s, error, scenario_self = runner_check(spans)
    if error > SELF_SUM_SLACK_S:
        raise ValueError(f"spans under the runner do not nest ({error} s off)")

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for metric, _unit in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key in agg.get(layer, {}):
            m[metric] = agg[layer][key]
    em_s = get("counting.emulate_trials", "s")
    m.update({
        "counting.emulate_trials.trials_per_s":
            get("counting.emulate_trials", "trials") / em_s if em_s > 0 else 0.0,
        "scenarios.self_s": scenario_self,
        "scenarios.points": get(RUNNER, "points"),
        "scenarios.points_flagged": get(RUNNER, "points_flagged"),
        "configio.config.s": sum(s[2] - s[1] for s in spans
                                 if s[3] is None and s[0] in CONFIG_SPANS),
        "size.dim_singles": get("dynamics.assemble_generator", "dim_singles"),
        "size.dim_doubles": get("dynamics.assemble_generator", "dim_doubles"),
        "size.n_rr": get("dynamics.assemble_generator", "n_rr"),
        "size.v_max": get("dynamics.assemble_generator", "v_max"),
        "trace.spans": len(spans),
        "trace.layer_share": 1.0 - scenario_self / runner_s if runner_s > 0 else 0.0,
    })
    for metric, _unit in PER_LAYER:
        m.setdefault(metric, 0)
    return m
