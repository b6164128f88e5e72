import math
import tracemalloc
from dataclasses import replace

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
from rydeit.observables import CorrelationGrid, UndefinedResultError, correlation_grid

from conftest import make_generator


def _flat_scene(t_max=8.0, n=161, intensity=1.0, g2=1.0):
    """Synthetic CW scene: constant intensity and constant two-time g2."""
    ts = np.linspace(0.0, t_max, n)
    return CorrelationGrid(times=ts, envelope_unit=np.ones(n), omega_c=np.full(n, 0.5),
                           intensity=np.full(n, intensity),
                           g2tilde=np.full(n, g2 * intensity ** 2), g2=np.full(n, g2),
                           g2_matrix=np.full((n, n), g2 * intensity ** 2))


IDEAL = EfficiencyBudget(eta_path=1.0, eta1=1.0, eta2=1.0, split=0.5)


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        EfficiencyBudget(eta_path=1.4)
    with pytest.raises(ConfigurationError):
        EfficiencyBudget(split=-0.1)
    b = EfficiencyBudget()
    assert b.p_detect_1 == pytest.approx(0.46 * 0.5 * 0.43)


def test_seed_determinism():
    grid = _flat_scene()
    a = emulate_trials(grid, 0.4, IDEAL, 5000, seed=11)
    b = emulate_trials(grid, 0.4, IDEAL, 5000, seed=11)
    c = emulate_trials(grid, 0.4, IDEAL, 5000, seed=12)
    assert np.array_equal(a.times_ns, b.times_ns)
    assert np.array_equal(a.trials, b.trials)
    assert np.array_equal(a.detectors, b.detectors)
    assert not np.array_equal(a.times_ns, c.times_ns)


def test_coherent_estimator_within_errors():
    grid = _flat_scene()
    stream = emulate_trials(grid, 0.45, IDEAL, 200000, seed=4)
    w = (0.0, ns_from_time(8.0))
    val, se = estimate_g2(stream, w, w)
    assert abs(val - 1.0) < 3 * se
    assert se < 0.03


def test_zero_g2_gives_zero_coincidences():
    grid = _flat_scene(g2=0.0)
    grid.g2_matrix[:] = 0.0
    grid.g2tilde[:] = 0.0
    stream = emulate_trials(grid, 0.4, IDEAL, 50000, seed=7)
    w = (0.0, ns_from_time(8.0))
    val, se = estimate_g2(stream, w, w)
    assert val == 0.0
    n1 = stream.counts_in_window(1, w)
    n2 = stream.counts_in_window(2, w)
    assert np.dot(n1, n2) == 0


def test_antibunched_scene_estimates_below_one():
    grid = _flat_scene(g2=0.3)
    stream = emulate_trials(grid, 0.4, IDEAL, 200000, seed=3)
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


def _whole_array_g2(stream, w1, w2):
    """estimate_g2's value and counts from whole per-trial count arrays."""
    n1 = stream.counts_in_window(1, w1)
    n2 = stream.counts_in_window(2, w2)
    t = stream.n_trials
    same = float(np.dot(n1, n2))
    b = [float(np.dot(n1[:t - k], n2[k:])) for k in range(5, 21)]
    value = (same / t) / float(np.mean([bk / (t - k) for k, bk in zip(range(5, 21), b)]))
    return value, value * math.sqrt(1.0 / same + 1.0 / sum(b))


@pytest.mark.parametrize("block", [7, 64, counting._BLOCK])
def test_blocked_estimate_matches_whole_arrays(monkeypatch, block):
    # unsorted events, several per trial, trial counts that leave a last
    # block shorter than the largest lag
    monkeypatch.setattr(counting, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for n_trials in (21, 150, 1003):
        k = 6 * n_trials
        stream = DetectionStream(trials=rng.integers(0, n_trials, k),
                                 detectors=rng.integers(1, 3, k),
                                 times_ns=rng.uniform(0.0, 100.0, k), n_trials=n_trials)
        w1, w2 = (0.0, 80.0), (10.0, 90.0)
        assert estimate_g2(stream, w1, w2) == _whole_array_g2(stream, w1, w2)
        n1 = stream.counts_in_window(1, w1)
        assert generation_probability_from_stream(stream, w1, IDEAL) == \
            float(np.mean(n1) / IDEAL.p_detect_1)


def test_estimate_holds_no_per_trial_array():
    # 10^6 trials: one int64 count per trial would be 8 MB
    rng = np.random.default_rng(1)
    n_trials, k = 10 ** 6, 20000
    stream = DetectionStream(trials=np.sort(rng.integers(0, n_trials, k)),
                             detectors=rng.integers(1, 3, k),
                             times_ns=rng.uniform(0.0, 100.0, k), n_trials=n_trials)
    tracemalloc.start()
    try:
        estimate_g2(stream, (0.0, 100.0), (0.0, 100.0))
        generation_probability_from_stream(stream, (0.0, 100.0), IDEAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


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
    grid = _flat_scene(intensity=0.5)
    n_in = 0.6
    stream = emulate_trials(grid, n_in, IDEAL, 100000, seed=21)
    w_gamma = (0.0, 8.0)
    w_ns = (0.0, ns_from_time(8.0))
    p_trace = generation_probability_from_trace(grid, w_gamma, n_in)
    p_stream = generation_probability_from_stream(stream, w_ns, IDEAL)
    se = math.sqrt(p_trace / 100000) / IDEAL.p_detect_1
    assert abs(p_stream - p_trace) < 3 * se


def test_generation_probability_empty_window():
    # the trace ends at 8: a window there holds no photons it could count
    trace = _flat_scene()
    with pytest.raises(UndefinedResultError, match="outside"):
        generation_probability_from_trace(trace, (100.0, 5.0), 1.0)


def test_generation_probability_reads_the_windowed_g2_samples():
    # one window rule (``_window_slice``): a window that starts 1e-10 past a
    # sample holds it, for the generation probability as for the windowed g2,
    # and a window of one sample holds no photons
    trace = _flat_scene(t_max=8.0, n=9)
    trace.intensity[:] = 1.0 + trace.times ** 2
    n_in = 0.6
    e0sq = n_in / trace.input_energy()
    inside = np.trapezoid(trace.intensity[2:6], trace.times[2:6])
    assert generation_probability_from_trace(trace, (2.0 + 1e-10, 3.0), n_in) == e0sq * inside
    assert generation_probability_from_trace(trace, (2.0 + 1e-10, 0.5), n_in) == 0.0
    assert trace.window_energy(2.0 + 1e-10, 3.0) == inside


def test_trace_without_input_pulse_is_refused():
    # with no input pulse there is no photon number to normalize to: the
    # generation probability refuses the trace as the emulation does
    grid = _flat_scene()
    grid.envelope_unit[:] = 0.0
    with pytest.raises(ConfigurationError, match="no input pulse"):
        generation_probability_from_trace(grid, (0.0, 8.0), 1.0)
    with pytest.raises(ConfigurationError, match="no input pulse"):
        emulate_trials(grid, 0.4, IDEAL, 100, seed=1)


def test_stream_file_round_trip(tmp_path):
    grid = _flat_scene()
    stream = emulate_trials(grid, 0.4, IDEAL, 2000, seed=5)
    path = tmp_path / "stamps.txt"
    save_stream(stream, path)
    back = load_stream(path)
    assert back.n_trials == stream.n_trials
    assert back.seed == stream.seed
    np.testing.assert_array_equal(back.trials, stream.trials)
    np.testing.assert_array_equal(back.detectors, stream.detectors)
    np.testing.assert_array_equal(back.times_ns, stream.times_ns)


def test_empty_stream_round_trip(tmp_path):
    # no photon reaches the beamsplitter: a stream of no events keeps its
    # header through the file
    grid = _flat_scene()
    stream = emulate_trials(grid, 0.4, replace(IDEAL, eta_path=0.0), 500, seed=5)
    assert stream.n_events == 0
    path = tmp_path / "stamps.txt"
    save_stream(stream, path)
    back = load_stream(path)
    assert (back.n_trials, back.seed, back.n_events) == (500, 5, 0)
    for name in ("trials", "detectors", "times_ns"):
        assert getattr(back, name).shape == (0,)
    assert back.trials.dtype == back.detectors.dtype == np.dtype(int)
    assert back.times_ns.dtype == np.dtype(float)


@pytest.mark.parametrize("header, n_trials", [
    ("# rydeit timestamps n_trials=40 trial_period_ns=8000.0 seed=3\n", 40),
    ("", 0)], ids=["header_only", "no_header"])
def test_stream_without_events_loads_empty(tmp_path, header, n_trials):
    path = tmp_path / "stamps.txt"
    path.write_text(header + "# columns: trial_index detector_id time_ns\n")
    back = load_stream(path)
    assert back.n_events == 0 and back.n_trials == n_trials
    if header:
        assert (back.trial_period_ns, back.seed) == (8000.0, 3)


@pytest.mark.parametrize("events, n_events", [("9 2 11.5\n", 1),
                                              ("3 1 10.0\n\n9 2 11.5\n", 2)],
                         ids=["one_event", "two_events"])
def test_stream_without_trial_count_takes_the_largest_trial(tmp_path, events, n_events):
    # a single event line still loads as arrays of one event
    path = tmp_path / "stamps.txt"
    path.write_text(events)
    back = load_stream(path)
    assert back.n_trials == 10 and back.seed is None
    assert back.trials.shape == back.detectors.shape == back.times_ns.shape == (n_events,)
    assert back.trials[-1] == 9 and back.detectors[-1] == 2 and back.times_ns[-1] == 11.5


@pytest.mark.parametrize("event", ["150 1 12.5", "-1 1 12.5", "7 3 12.5", "7 0 12.5"],
                         ids=["trial_past_header", "negative_trial", "detector_3",
                              "detector_0"])
def test_external_stream_out_of_range_is_refused(tmp_path, event):
    # an external file whose trial index lies outside the header's n_trials
    # or whose detector is neither 1 nor 2 would index past the estimator's
    # per-trial counts; it is refused at load time
    path = tmp_path / "stamps.txt"
    path.write_text("# rydeit timestamps n_trials=100 trial_period_ns=16000.0 seed=None\n"
                    "# columns: trial_index detector_id time_ns\n"
                    f"3 1 10.0\n4 2 11.0\n{event}\n")
    with pytest.raises(ConfigurationError):
        load_stream(path)
    path.write_text(path.read_text().replace(event, "99 2 12.5"))
    assert load_stream(path).n_events == 3


def test_validity_warning_fires_for_bright_input():
    # 1.2 photons in: 0.72 pairs per trial, above the 0.5 of the warning
    grid = _flat_scene()
    with pytest.warns(RuntimeWarning):
        emulate_trials(grid, 1.2, IDEAL, 100, seed=1)


@pytest.mark.parametrize("n_in, total", [(math.sqrt(1.8), 0.9), (math.sqrt(2.2), 1.1),
                                         (3.0, 4.5)])
def test_per_trial_probabilities_above_one_are_refused(n_in, total):
    # on the flat coherent scene above one photon in, the pair marginal
    # exceeds the photon rate, the singles clip to 0 and the pairs per trial
    # are n_in^2 / 2: a sum of 0.9 still runs, one above 1 has no
    # at-most-one-event distribution
    grid = _flat_scene()
    if total <= 1.0:
        with pytest.warns(RuntimeWarning):
            stream = emulate_trials(grid, n_in, IDEAL, 1000, seed=1)
        assert stream.singles_per_trial == 0.0
        assert stream.pairs_per_trial == pytest.approx(total, rel=1e-12)
    else:
        with pytest.raises(ConfigurationError, match=f"sum to {total}"):
            emulate_trials(grid, n_in, IDEAL, 1000, seed=1)


def _trapezoid(y, t):
    return np.sum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(t), axis=-1)


def test_stream_reports_pairs_singles_and_clip():
    # a bright gaussian scene: the pair marginal rho exceeds the photon rate
    # lam on part of the pulse, where the singles density is clipped at 0;
    # the stream hands back the probabilities it drew from and the clipped
    # mass, against trapezoid sums written out here
    grid = _gaussian_scene()
    n_in = 2.0
    with pytest.warns(RuntimeWarning):
        stream = emulate_trials(grid, n_in, IDEAL, 100, seed=1)
    t = grid.times
    e0sq = n_in / _trapezoid(grid.envelope_unit ** 2, t)
    lam = e0sq * grid.intensity
    rho = e0sq ** 2 * _trapezoid(grid.g2_matrix, t)
    clip = _trapezoid(np.maximum(rho - lam, 0.0), t)
    assert clip > 0.01
    assert stream.singles_clip_per_trial == pytest.approx(clip, rel=1e-12)
    assert stream.pairs_per_trial == pytest.approx(0.5 * _trapezoid(rho, t), rel=1e-12)
    assert stream.singles_per_trial == pytest.approx(
        _trapezoid(lam, t) - _trapezoid(rho, t) + clip, rel=1e-12)


def test_stream_clip_is_zero_without_clipping():
    # a flat coherent scene at 0.4 photons: rho = 0.4 lam everywhere
    grid = _flat_scene()
    stream = emulate_trials(grid, 0.4, IDEAL, 100, seed=1)
    assert stream.singles_clip_per_trial == 0.0
    assert stream.pairs_per_trial == pytest.approx(0.08, rel=1e-12)
    assert stream.singles_per_trial == pytest.approx(0.4 - 0.16, rel=1e-12)


# ---------------------------------------------------------------------------
# pair sampler: exact composition draws from the bilinear pair density

def _simulated_scene(**kw):
    gen = make_generator(n_atoms=4, **kw)
    traj = evolve(gen, (0.0, 12.0), dt_out=0.3)
    return correlation_grid(traj, gen)


def _gaussian_scene():
    return _simulated_scene(shape=PulseShape.GAUSSIAN, duration=12.0)


def _square_edges_scene():
    # rise edges put breakpoints at 1, 9 and 10: the grid steps change there
    return _simulated_scene(shape=PulseShape.SQUARE, duration=10.0, rise_time=1.0)


def _blockwise_zero_scene():
    # pairs only inside a small off-diagonal patch; most cells have zero mass
    grid = _flat_scene(n=301)
    patch = np.zeros_like(grid.g2_matrix)
    patch[40:70, 200:260] = 1.0
    grid.g2_matrix[:] = patch
    return grid


def _checkerboard_scene():
    # corners alternate between 0 and 1: no cell's density is a product of a
    # t1 and a t2 factor, so the t2 draw must follow the conditional at t1
    grid = _flat_scene(n=41)
    i = np.arange(41)
    grid.g2_matrix[:] = (i[:, None] + i[None, :]) % 2
    return grid


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
    grid = scene()
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
        x = emulate_trials(grid, 0.4, IDEAL, 20000, seed=s)
        assert np.any(np.bincount(x.trials, minlength=x.n_trials) == 2)


def test_stream_routes_as_three_passes():
    # the stream routes every photon by one uniform, in the order pairs' first
    # photons, their second photons, lone photons: the three-pass construction
    # below, replayed from the same seed, gives the same record
    grid = _gaussian_scene()
    budget = EfficiencyBudget(eta_path=0.9, eta1=0.8, eta2=0.6, split=0.5)
    n_in, n_trials, seed = 0.4, 20000, 5
    stream = emulate_trials(grid, n_in, budget, n_trials, seed)

    rng = np.random.default_rng(seed)
    e0sq = n_in / grid.input_energy()
    lam = e0sq * grid.intensity
    pair_density = e0sq ** 2 * grid.g2_matrix
    lam_single = np.clip(lam - np.trapezoid(pair_density, grid.times, axis=1), 0.0, None)
    u = rng.random(n_trials)
    p_pair, p_single = stream.pairs_per_trial, stream.singles_per_trial
    pair_trials = np.nonzero(u < p_pair)[0]
    single_trials = np.nonzero((u >= p_pair) & (u < p_pair + p_single))[0]
    acc1, acc2 = counting._sample_pair_times(rng, grid.times, pair_density,
                                             len(pair_trials))
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid.times) * 0.5
                                           * (lam_single[1:] + lam_single[:-1]))])
    t_single = np.interp(rng.random(len(single_trials)) * cdf[-1], cdf, grid.times)
    passes = []
    for times, trial_ids in ((acc1, pair_trials), (acc2, pair_trials),
                             (t_single, single_trials)):
        r = rng.random(len(times))
        det1 = r < budget.p_detect_1
        det2 = ~det1 & (r < budget.p_detect_1 + budget.p_detect_2)
        for det, mask in ((1, det1), (2, det2)):
            passes.append((trial_ids[mask], np.full(int(mask.sum()), det), times[mask]))
    trials, dets, times = (np.concatenate(col) for col in zip(*passes))
    order = np.lexsort((times, dets, trials))
    assert len(single_trials) > 0 and 0 < len(order) < 2 * len(pair_trials) + len(t_single)
    np.testing.assert_array_equal(stream.trials, trials[order])
    np.testing.assert_array_equal(stream.detectors, dets[order])
    np.testing.assert_array_equal(stream.times_ns, times[order] * ns_from_time(1.0, 6.0))


def _three_pass_record(grid, n_in, budget, n_trials, seed):
    """The record of ``emulate_trials`` built from one whole-size draw per
    stage, in the draw order of its contract: trial uniforms, the pair
    sampler, lone-photon times (none where their density is clipped away),
    then one routing uniform per photon in three passes."""
    rng = np.random.default_rng(seed)
    e0sq = n_in / grid.input_energy()
    lam = e0sq * grid.intensity
    pair_density = e0sq ** 2 * grid.g2_matrix
    rho = np.trapezoid(pair_density, grid.times, axis=1)
    p_pair = 0.5 * float(np.trapezoid(rho, grid.times))
    lam_single = np.clip(lam - rho, 0.0, None)
    p_single = float(np.trapezoid(lam_single, grid.times))
    u = rng.random(n_trials)
    pair_trials = np.nonzero(u < p_pair)[0]
    single_trials = np.nonzero((u >= p_pair) & (u < p_pair + p_single))[0]
    acc1, acc2 = counting._sample_pair_times(rng, grid.times, pair_density,
                                             len(pair_trials))
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid.times) * 0.5
                                           * (lam_single[1:] + lam_single[:-1]))])
    if cdf[-1] > 0:
        t_single = np.interp(rng.random(len(single_trials)) * cdf[-1], cdf, grid.times)
    else:
        t_single, single_trials = np.empty(0), single_trials[:0]
    passes = []
    for times, trial_ids in ((acc1, pair_trials), (acc2, pair_trials),
                             (t_single, single_trials)):
        r = rng.random(len(times))
        det1 = r < budget.p_detect_1
        det2 = ~det1 & (r < budget.p_detect_1 + budget.p_detect_2)
        for det, mask in ((1, det1), (2, det2)):
            passes.append((trial_ids[mask], np.full(int(mask.sum()), det), times[mask]))
    trials, dets, times = (np.concatenate(col) for col in zip(*passes))
    order = np.lexsort((times, dets, trials))
    return trials[order], dets[order], times[order] * ns_from_time(1.0, 6.0)


_ROUTED = EfficiencyBudget(eta_path=0.9, eta1=0.8, eta2=0.6, split=0.5)


@pytest.mark.parametrize("scene, n_in, budget, n_trials, block", [
    (_gaussian_scene, 1.0, _ROUTED, 1, None),
    (_gaussian_scene, 0.4, _ROUTED, counting._BLOCK - 1, None),
    (_gaussian_scene, 0.4, _ROUTED, counting._BLOCK + 1, None),
    (_gaussian_scene, 0.4, replace(_ROUTED, split=0.0), 20000, None),
    (_gaussian_scene, 0.4, replace(_ROUTED, split=1.0), 20000, None),
    (_gaussian_scene, 0.4, replace(_ROUTED, eta_path=0.0), 20000, None),
    (_flat_scene, math.sqrt(1.8), _ROUTED, 20000, None),
    (_gaussian_scene, 0.4, _ROUTED, 20000, 7),
], ids=["one_trial", "block_minus_one", "block_plus_one", "split_0", "split_1",
        "eta_path_0", "lone_photons_clipped", "block_of_7"])
@pytest.mark.filterwarnings("ignore:mean photons per trial above 0.5")
def test_stream_routes_as_three_passes_at_the_edges(monkeypatch, scene, n_in, budget,
                                                    n_trials, block):
    # the draw order is the emulation's contract: whatever the block edges,
    # the record is the one drawn stage by stage in whole-size draws; the
    # block of 7 puts many block edges in every stage, the pair sampler's
    # row blocks included
    grid = scene()
    events = set()
    for seed in range(30) if n_trials == 1 else (5,):
        expected = _three_pass_record(grid, n_in, budget, n_trials, seed)
        if block is not None:
            monkeypatch.setattr(counting, "_BLOCK", block)
        stream = emulate_trials(grid, n_in, budget, n_trials, seed)
        monkeypatch.undo()
        for got, want in zip((stream.trials, stream.detectors, stream.times_ns), expected):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        if budget.eta_path == 0.0:
            assert stream.n_events == 0
        if scene is _flat_scene:
            assert stream.singles_per_trial == 0.0 and stream.pairs_per_trial > 0.5
        if budget.split in (0.0, 1.0):
            assert set(np.unique(stream.detectors)) == {2 if budget.split == 0.0 else 1}
        events.add(stream.n_events)
    if n_trials == 1:
        assert events == {0, 1, 2}      # no event, one photon and a kept pair


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_pair_sampler_draws_do_not_depend_on_the_block(monkeypatch, block):
    # consecutive slices of a draw are the draw: cell masses summed a row
    # block at a time are those of one cumsum, bit for bit, and the pairs
    # drawn in blocks are those drawn at once
    grid = _square_edges_scene()
    times, density, scale = grid.times, grid.g2_matrix, 0.37
    d = scale * density
    cells = d[:-1, :-1] + d[:-1, 1:]
    cells += d[1:, :-1]
    cells += d[1:, 1:]
    cells *= 0.25 * np.diff(times)[:, None]
    cells *= np.diff(times)
    expected = counting._sample_pair_times(np.random.default_rng(3), times, d, 5000)
    monkeypatch.setattr(counting, "_BLOCK", block)
    np.testing.assert_array_equal(
        counting._cell_mass_cumsum(np.diff(times), density, scale), np.cumsum(cells))
    got = counting._sample_pair_times(np.random.default_rng(3), times, density, 5000,
                                      scale=scale)
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


#: bytes per trial that one emulation may trace on the pair-heavy scene of
#: the test below: 16.2 measured with 2^15-draw blocks, plus 25 % (the
#: emulation that held every photon in whole-size arrays traced 53)
_WORKING_SET_PER_TRIAL = 20.25


def test_emulation_working_set_per_trial():
    # 0.32 pairs and 0.16 lone photons per trial, under the default budget:
    # the emulation holds a few numbers per pair or photon trial and the
    # kept events, not five arrays over every photon
    grid = _flat_scene()
    n_trials = 1_000_000
    tracemalloc.start()
    try:
        stream = emulate_trials(grid, 0.8, EfficiencyBudget(), n_trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.pairs_per_trial >= 0.3
    assert stream.pairs_per_trial + stream.singles_per_trial <= 1.0
    assert peak / n_trials < _WORKING_SET_PER_TRIAL


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
    # the singles density subtracts the pair marginal at every grid sample,
    # so the photons emitted per trial match the integrated output rate
    grid = _gaussian_scene()
    n_in, n_trials = 0.5, 200000
    stream = emulate_trials(grid, n_in, IDEAL, n_trials, seed=5)
    per_trial = np.bincount(stream.trials, minlength=n_trials) / (
        IDEAL.p_detect_1 + IDEAL.p_detect_2)
    expected = generation_probability_from_trace(
        grid, (grid.times[0], grid.times[-1] - grid.times[0]), n_in)
    se = per_trial.std() / math.sqrt(n_trials)
    assert abs(per_trial.mean() - expected) < 5 * se


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
