import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

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
                           intensity=inten)
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


def test_trace_without_input_pulse_is_refused():
    # with no input pulse there is no photon number to normalize to: the
    # generation probability refuses the trace as the emulation does
    trace, grid = _flat_scene()
    trace.envelope_unit[:] = 0.0
    with pytest.raises(ConfigurationError, match="no input pulse"):
        generation_probability_from_trace(trace, (0.0, 8.0), 1.0)
    with pytest.raises(ConfigurationError, match="no input pulse"):
        emulate_trials(trace, grid, 0.4, IDEAL, 100, seed=1)


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
    # 1.2 photons in: 0.72 pairs per trial, above the 0.5 of the warning
    trace, grid = _flat_scene()
    with pytest.warns(RuntimeWarning):
        emulate_trials(trace, grid, 1.2, IDEAL, 100, seed=1)


@pytest.mark.parametrize("n_in, total", [(math.sqrt(1.8), 0.9), (math.sqrt(2.2), 1.1),
                                         (3.0, 4.5)])
def test_per_trial_probabilities_above_one_are_refused(n_in, total):
    # on the flat coherent scene above one photon in, the pair marginal
    # exceeds the photon rate, the singles clip to 0 and the pairs per trial
    # are n_in^2 / 2: a sum of 0.9 still runs, one above 1 has no
    # at-most-one-event distribution
    trace, grid = _flat_scene()
    if total <= 1.0:
        with pytest.warns(RuntimeWarning):
            stream = emulate_trials(trace, grid, n_in, IDEAL, 1000, seed=1)
        assert stream.singles_per_trial == 0.0
        assert stream.pairs_per_trial == pytest.approx(total, rel=1e-12)
    else:
        with pytest.raises(ConfigurationError, match=f"sum to {total}"):
            emulate_trials(trace, grid, n_in, IDEAL, 1000, seed=1)


def _trapezoid(y, t):
    return np.sum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(t), axis=-1)


def test_stream_reports_pairs_singles_and_clip():
    # a bright gaussian scene: the pair marginal rho exceeds the photon rate
    # lam on part of the pulse, where the singles density is clipped at 0;
    # the stream hands back the probabilities it drew from and the clipped
    # mass, against trapezoid sums written out here
    trace, grid = _gaussian_scene()
    n_in = 2.0
    with pytest.warns(RuntimeWarning):
        stream = emulate_trials(trace, grid, n_in, IDEAL, 100, seed=1)
    t = trace.times
    np.testing.assert_array_equal(grid.times, t)
    e0sq = n_in / _trapezoid(trace.envelope_unit ** 2, t)
    lam = e0sq * trace.intensity
    rho = e0sq ** 2 * _trapezoid(grid.g2_matrix, t)
    clip = _trapezoid(np.maximum(rho - lam, 0.0), t)
    assert clip > 0.01
    assert stream.singles_clip_per_trial == pytest.approx(clip, rel=1e-12)
    assert stream.pairs_per_trial == pytest.approx(0.5 * _trapezoid(rho, t), rel=1e-12)
    assert stream.singles_per_trial == pytest.approx(
        _trapezoid(lam, t) - _trapezoid(rho, t) + clip, rel=1e-12)


def test_stream_clip_is_zero_without_clipping():
    # a flat coherent scene at 0.4 photons: rho = 0.4 lam everywhere
    trace, grid = _flat_scene()
    stream = emulate_trials(trace, grid, 0.4, IDEAL, 100, seed=1)
    assert stream.singles_clip_per_trial == 0.0
    assert stream.pairs_per_trial == pytest.approx(0.08, rel=1e-12)
    assert stream.singles_per_trial == pytest.approx(0.4 - 0.16, rel=1e-12)


# ---------------------------------------------------------------------------
# pair sampler: exact composition draws from the bilinear pair density

def _simulated_scene(**kw):
    gen = make_generator(n_atoms=4, **kw)
    traj = evolve(gen, (0.0, 12.0), dt_out=0.3)
    return trace_from_trajectory(traj, gen), correlation_grid(traj, gen)


def _gaussian_scene():
    return _simulated_scene(shape=PulseShape.GAUSSIAN, duration=12.0)


def _square_edges_scene():
    # rise edges put breakpoints at 1, 9 and 10: the grid steps change there
    return _simulated_scene(shape=PulseShape.SQUARE, duration=10.0, rise_time=1.0)


def _blockwise_zero_scene():
    # pairs only inside a small off-diagonal patch; most cells have zero mass
    trace, grid = _flat_scene(n=301)
    patch = np.zeros_like(grid.g2_matrix)
    patch[40:70, 200:260] = 1.0
    grid.g2_matrix[:] = patch
    return trace, grid


def _checkerboard_scene():
    # corners alternate between 0 and 1: no cell's density is a product of a
    # t1 and a t2 factor, so the t2 draw must follow the conditional at t1
    trace, grid = _flat_scene(n=41)
    i = np.arange(41)
    grid.g2_matrix[:] = (i[:, None] + i[None, :]) % 2
    return trace, grid


#: bilinear weights (1 - x, x) integrated over the lower and upper half of a cell
_HALF_WEIGHTS = np.array([[0.375, 0.125], [0.125, 0.375]])


def _quarter_cell_masses(times, density):
    """Mass of the bilinear interpolant on each quarter of each grid cell,
    shape (cells, cells, 2, 2); the last two axes are the lower/upper half in
    t1 and in t2."""
    corners = np.stack([np.stack([density[:-1, :-1], density[:-1, 1:]], -1),
                        np.stack([density[1:, :-1], density[1:, 1:]], -1)], -2)
    dt = np.diff(times)
    q = np.einsum("ijab,pa,qb->ijpq", corners, _HALF_WEIGHTS, _HALF_WEIGHTS)
    return q * (dt[:, None] * dt[None, :])[:, :, None, None]


def _chi2_pvalue(times, density, t1, t2, block):
    """Goodness of fit of the draws (t1, t2) to the bilinear density: counts
    per quarter cell, summed over ``block`` x ``block`` cells, against the
    exact masses.  Every draw must fall in a cell of nonzero mass."""
    n = len(times) - 1
    i = np.clip(np.searchsorted(times, t1, side="right") - 1, 0, n - 1)
    j = np.clip(np.searchsorted(times, t2, side="right") - 1, 0, n - 1)
    dt = np.diff(times)
    p = ((t1 - times[i]) / dt[i] >= 0.5).astype(int)
    q = ((t2 - times[j]) / dt[j] >= 0.5).astype(int)
    masses = _quarter_cell_masses(times, density)
    assert np.all(masses[i, j].sum(axis=(-2, -1)) > 0)
    nb = -(-n // block)
    bins = ((i // block * nb + j // block) * 2 + p) * 2 + q
    observed = np.bincount(bins, minlength=nb * nb * 4)
    expected = np.zeros((nb, nb, 2, 2))
    np.add.at(expected, (np.arange(n)[:, None] // block, np.arange(n)[None, :] // block),
              masses)
    expected = expected.ravel() * (len(t1) / expected.sum())
    live = expected > 0
    assert np.all(observed[~live] == 0)
    stat = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
    return chi2.sf(stat, int(np.sum(live)) - 1)


@pytest.mark.parametrize("scene", [_gaussian_scene, _square_edges_scene,
                                   _blockwise_zero_scene, _checkerboard_scene])
def test_pair_sampler_is_exact(scene):
    trace, grid = scene()
    if scene is _square_edges_scene:
        assert np.ptp(np.diff(grid.times)) > 1e-3
    density = grid.g2_matrix
    # blocks pool sparse cells; the checkerboard is binned per cell, because a
    # block would sum its two kinds of cell into a separable whole
    block = {_blockwise_zero_scene: 10, _checkerboard_scene: 1}.get(scene, 4)
    for seed in (1, 7, 21):
        t1, t2 = counting._sample_pair_times(np.random.default_rng(seed),
                                              grid.times, density, 200000)
        assert len(t1) == len(t2) == 200000
        assert _chi2_pvalue(grid.times, density, t1, t2, block) > 1e-4

    for s in (3, 99):
        x = emulate_trials(trace, grid, 0.4, IDEAL, 20000, seed=s)
        assert np.any(np.bincount(x.trials, minlength=x.n_trials) == 2)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0),
                                  (1e300, 1e-300), (1e-300, 1e300), (3.0, 1e-17),
                                  (1e-17, 3.0), (2.5, 0.7)])
def test_linear_inverse_cdf_edges(a, b):
    u = np.array([0.0, 1e-300, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
    x = counting._linear_fraction(np.full(u.shape, a), np.full(u.shape, b), u)
    assert np.all(np.isfinite(x))
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(x) >= 0.0)
    if a == b == 0.0:
        np.testing.assert_array_equal(x, u)   # zero density: any fraction will do
    else:
        # the CDF of a(1 - x) + b x, scaled to avoid overflow, returns u
        sa, sb = a / max(a, b), b / max(a, b)
        cdf = (2 * sa * x + (sb - sa) * x * x) / (sa + sb)
        np.testing.assert_allclose(cdf, u, rtol=1e-12, atol=1e-15)


def test_pair_sampler_empty_cases():
    times = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(0)
    for density, k in ((np.ones((5, 5)), 0), (np.zeros((5, 5)), 10)):
        t1, t2 = counting._sample_pair_times(rng, times, density, k)
        assert t1.shape == t2.shape == (0,)
    with pytest.raises(ConfigurationError):
        counting._sample_pair_times(rng, times, -np.ones((5, 5)), 10)


def test_pair_sampler_conditional_zero_at_cell_edge():
    # the only nonzero corner is (1, 1): a draw at x = 0 sees a conditional of
    # zero in t2, which must give a finite time, not 0/0
    times = np.array([0.0, 1.0])
    density = np.array([[0.0, 0.0], [0.0, 1.0]])

    class ZeroUniforms:
        def random(self, k):
            return np.zeros(k)

    t1, t2 = counting._sample_pair_times(ZeroUniforms(), times, density, 3)
    assert np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))
    np.testing.assert_array_equal(t1, 0.0)


def test_photons_per_trial_match_the_output_rate():
    # the singles density subtracts the pair marginal at every trace sample,
    # so the photons emitted per trial match the integrated output rate
    trace, grid = _gaussian_scene()
    n_in, n_trials = 0.5, 200000
    stream = emulate_trials(trace, grid, n_in, IDEAL, n_trials, seed=5)
    per_trial = np.bincount(stream.trials, minlength=n_trials) / (
        IDEAL.p_detect_1 + IDEAL.p_detect_2)
    expected = generation_probability_from_trace(
        trace, (trace.times[0], trace.times[-1] - trace.times[0]), n_in)
    se = per_trial.std() / math.sqrt(n_trials)
    assert abs(per_trial.mean() - expected) < 5 * se


@pytest.mark.parametrize("times", [lambda t: t[::2], lambda t: t + 1e-9],
                         ids=["coarser", "shifted"])
def test_emulation_refuses_a_grid_off_the_trace(times):
    # the pair marginal is subtracted sample by sample, so the correlation
    # grid must be on the trace's own grid: a coarser or shifted one is refused
    trace, grid = _flat_scene()
    t = times(grid.times)
    off = CorrelationGrid(times=t, g2_matrix=np.ones((len(t), len(t))),
                          intensity=np.ones(len(t)))
    with pytest.raises(ConfigurationError):
        emulate_trials(trace, off, 0.4, IDEAL, 100, seed=1)


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
