import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydeit import counting
from rydeit.counting import (DetectionStream, EfficiencyBudget, EstimateError,
                             dlcz_compare, emulate_trials, estimate_g2,
                             generation_probability_from_stream,
                             generation_probability_from_trace, load_stream,
                             save_stream)
from rydeit.dynamics import evolve
from rydeit.model import ConfigurationError, PulseShape, ns_from_time
from rydeit.observables import (CorrelationGrid, ObservableTrace, correlation_grid,
                                trace_from_trajectory)

from conftest import make_generator


def _flat_scene(t_max=8.0, n=161, intensity=1.0, g2=1.0):
    """Synthetic CW scene: constant intensity and constant two-time g2."""
    ts = np.linspace(0.0, t_max, n)
    inten = np.full(n, intensity)
    trace = ObservableTrace(times=ts, envelope_unit=np.ones(n),
                            omega_c=np.full(n, 0.5), intensity=inten,
                            g2tilde=np.full(n, g2 * intensity ** 2),
                            g2=np.full(n, g2))
    grid = CorrelationGrid(times=ts, g2_matrix=np.full((n, n), g2 * intensity ** 2),
                           intensity=inten, envelope_unit=np.ones(n))
    return trace, grid


IDEAL = EfficiencyBudget(eta_path=1.0, eta1=1.0, eta2=1.0, split=0.5)


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        EfficiencyBudget(eta_path=1.4)
    with pytest.raises(ConfigurationError):
        EfficiencyBudget(split=-0.1)
    b = EfficiencyBudget()
    assert b.p_detect_1 == pytest.approx(0.46 * 0.5 * 0.43)


def test_seed_determinism():
    trace, grid = _flat_scene()
    a = emulate_trials(trace, grid, 0.4, IDEAL, 5000, seed=11)
    b = emulate_trials(trace, grid, 0.4, IDEAL, 5000, seed=11)
    c = emulate_trials(trace, grid, 0.4, IDEAL, 5000, seed=12)
    assert np.array_equal(a.times_ns, b.times_ns)
    assert np.array_equal(a.trials, b.trials)
    assert np.array_equal(a.detectors, b.detectors)
    assert not np.array_equal(a.times_ns, c.times_ns)


def test_coherent_estimator_within_errors():
    trace, grid = _flat_scene()
    stream = emulate_trials(trace, grid, 0.45, IDEAL, 200000, seed=4)
    w = (0.0, ns_from_time(8.0))
    val, se = estimate_g2(stream, w, w)
    assert abs(val - 1.0) < 3 * se
    assert se < 0.03


def test_zero_g2_gives_zero_coincidences():
    trace, grid = _flat_scene(g2=0.0)
    grid.g2_matrix[:] = 0.0
    trace.g2tilde[:] = 0.0
    stream = emulate_trials(trace, grid, 0.4, IDEAL, 50000, seed=7)
    w = (0.0, ns_from_time(8.0))
    val, se = estimate_g2(stream, w, w)
    assert val == 0.0
    n1 = stream.counts_in_window(1, w)
    n2 = stream.counts_in_window(2, w)
    assert np.dot(n1, n2) == 0


def test_antibunched_scene_estimates_below_one():
    trace, grid = _flat_scene(g2=0.3)
    stream = emulate_trials(trace, grid, 0.4, IDEAL, 200000, seed=3)
    w = (0.0, ns_from_time(8.0))
    val, se = estimate_g2(stream, w, w)
    assert abs(val - 0.3) < 3 * se


def test_independent_poisson_streams_estimate_one():
    rng = np.random.default_rng(0)
    n_trials = 60000
    events = []
    for det in (1, 2):
        counts = rng.poisson(0.25, n_trials)
        trials = np.repeat(np.arange(n_trials), counts)
        times = rng.uniform(0.0, 1000.0, trials.size)
        events.append((trials, np.full(trials.size, det), times))
    trials = np.concatenate([e[0] for e in events])
    dets = np.concatenate([e[1] for e in events])
    times = np.concatenate([e[2] for e in events])
    stream = DetectionStream(trials=trials, detectors=dets, times_ns=times,
                             n_trials=n_trials)
    val, se = estimate_g2(stream, (0.0, 1000.0), (0.0, 1000.0))
    assert abs(val - 1.0) < 3 * se


def test_perfectly_anticorrelated_stream_is_zero():
    # one photon per trial, alternating detectors: never a same-trial pair
    n_trials = 4000
    trials = np.arange(n_trials)
    dets = np.where(trials % 2 == 0, 1, 2)
    times = np.full(n_trials, 50.0)
    stream = DetectionStream(trials=trials, detectors=dets, times_ns=times,
                             n_trials=n_trials)
    val, _ = estimate_g2(stream, (0.0, 100.0), (0.0, 100.0))
    assert val == 0.0


def test_estimator_needs_enough_trials():
    stream = DetectionStream(trials=np.array([0]), detectors=np.array([1]),
                             times_ns=np.array([1.0]), n_trials=10)
    with pytest.raises(EstimateError):
        estimate_g2(stream, (0.0, 10.0), (0.0, 10.0))


def test_zero_baseline_raises():
    # detector 2 never fires: baseline is empty
    n_trials = 100
    stream = DetectionStream(trials=np.arange(n_trials),
                             detectors=np.ones(n_trials, dtype=int),
                             times_ns=np.full(n_trials, 5.0), n_trials=n_trials)
    with pytest.raises(EstimateError):
        estimate_g2(stream, (0.0, 10.0), (0.0, 10.0))


def test_generation_probability_trace_and_stream_agree():
    trace, grid = _flat_scene(intensity=0.5)
    n_in = 0.6
    stream = emulate_trials(trace, grid, n_in, IDEAL, 100000, seed=21)
    w_gamma = (0.0, 8.0)
    w_ns = (0.0, ns_from_time(8.0))
    p_trace = generation_probability_from_trace(trace, w_gamma, n_in)
    p_stream = generation_probability_from_stream(stream, w_ns, IDEAL)
    se = math.sqrt(p_trace / 100000) / IDEAL.p_detect_1
    assert abs(p_stream - p_trace) < 3 * se


def test_generation_probability_empty_window():
    trace, _ = _flat_scene()
    assert generation_probability_from_trace(trace, (100.0, 5.0), 1.0) == 0.0


def test_stream_file_round_trip(tmp_path):
    trace, grid = _flat_scene()
    stream = emulate_trials(trace, grid, 0.4, IDEAL, 2000, seed=5)
    path = tmp_path / "stamps.txt"
    save_stream(stream, path)
    back = load_stream(path)
    assert back.n_trials == stream.n_trials
    assert back.seed == stream.seed
    np.testing.assert_array_equal(back.trials, stream.trials)
    np.testing.assert_array_equal(back.detectors, stream.detectors)
    np.testing.assert_array_equal(back.times_ns, stream.times_ns)


def test_validity_warning_fires_for_bright_input():
    trace, grid = _flat_scene()
    with pytest.warns(RuntimeWarning):
        emulate_trials(trace, grid, 3.0, IDEAL, 100, seed=1)


# ---------------------------------------------------------------------------
# pair sampler: the block-bounded pre-filter against the plain rejection loop

def _reference_pair_times(rng, times, density, k):
    """Plain acceptance-rejection: every candidate gets the exact bilinear test."""
    g2max = float(np.max(density)) if density.size else 0.0
    t_lo, t_hi = float(times[0]), float(times[-1])
    acc1 = np.empty(0)
    acc2 = np.empty(0)
    while len(acc1) < k and g2max > 0:
        batch = max(256, 4 * (k - len(acc1)))
        c1 = rng.uniform(t_lo, t_hi, batch)
        c2 = rng.uniform(t_lo, t_hi, batch)
        keep = rng.random(batch) * g2max < counting._grid_interp2(times, density, c1, c2)
        acc1 = np.concatenate([acc1, c1[keep]])
        acc2 = np.concatenate([acc2, c2[keep]])
    return acc1[:k], acc2[:k]


def _simulated_scene(**kw):
    gen = make_generator(n_atoms=4, **kw)
    traj = evolve(gen, (0.0, 12.0), dt_out=0.3, method="rk4")
    return trace_from_trajectory(traj, gen), correlation_grid(traj, gen)


def _gaussian_scene():
    return _simulated_scene(shape=PulseShape.GAUSSIAN, duration=12.0)


def _square_edges_scene():
    # rise edges put breakpoints at 1, 9 and 10: the grid steps change there
    return _simulated_scene(shape=PulseShape.SQUARE, duration=10.0, rise_time=1.0)


def _blockwise_zero_scene():
    # pairs only inside a small off-diagonal patch; most bound blocks are 0
    trace, grid = _flat_scene(n=301)
    patch = np.zeros_like(grid.g2_matrix)
    patch[40:70, 200:260] = 1.0
    grid.g2_matrix[:] = patch
    return trace, grid


@pytest.mark.parametrize("scene", [_gaussian_scene, _square_edges_scene,
                                   _blockwise_zero_scene])
def test_pair_sampler_matches_plain_rejection(scene, monkeypatch):
    trace, grid = scene()
    if scene is _square_edges_scene:
        assert np.ptp(np.diff(grid.times)) > 1e-3
    density = grid.g2_matrix
    for seed in (1, 7, 21, 123456):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        a = counting._sample_pair_times(rng_a, grid.times, density, 3000)
        b = _reference_pair_times(rng_b, grid.times, density, 3000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert len(a[0]) == 3000
        assert rng_a.random() == rng_b.random()   # same number of draws

    fast = [emulate_trials(trace, grid, 0.4, IDEAL, 20000, seed=s) for s in (3, 99)]
    monkeypatch.setattr(counting, "_sample_pair_times", _reference_pair_times)
    slow = [emulate_trials(trace, grid, 0.4, IDEAL, 20000, seed=s) for s in (3, 99)]
    for x, y in zip(fast, slow):
        np.testing.assert_array_equal(x.trials, y.trials)
        np.testing.assert_array_equal(x.detectors, y.detectors)
        np.testing.assert_array_equal(x.times_ns, y.times_ns)
        assert np.any(np.bincount(x.trials, minlength=x.n_trials) == 2)


# ---------------------------------------------------------------------------
# DLCZ reference

def test_dlcz_reference_point():
    g2, p = dlcz_compare(0.025, 1.0, 1.0)
    assert g2 == 0.1
    assert p == 0.025


def test_dlcz_zero():
    assert dlcz_compare(0.0) == (0.0, 0.0)


def test_dlcz_with_efficiencies():
    g2, p = dlcz_compare(0.05, 0.5, 0.5)
    assert g2 == pytest.approx(0.2)
    assert p == pytest.approx(0.0125)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.0, 0.1), eta_d=st.floats(0.0, 1.0), eta_r=st.floats(0.0, 1.0))
def test_dlcz_algebraic_identity(p, eta_d, eta_r):
    g2, pgen = dlcz_compare(p, eta_d, eta_r)
    assert g2 == 4.0 * p
    assert pgen == p * eta_d * eta_r


def test_dlcz_warns_above_validity():
    with pytest.warns(RuntimeWarning):
        dlcz_compare(0.2)
