import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydeit.model import (BlockadeConfig, ControlSchedule, ConfigurationError,
                          PulseShape, build_chain, optical_depth)
from rydeit.dynamics import evolve
from rydeit.observables import (CorrelationGrid, ExtractionError, ObservableTrace,
                                UndefinedResultError, _first_half_crossing, correlation_grid,
                                eit_peak, extract_tau0, fit_exponential_envelope,
                                measure_steady_state, spectrum_fwhm, tau_eit,
                                trace_from_trajectory, transmission_spectrum,
                                windowed_g2, write_csv)

from conftest import make_generator, oracle_rows, state_rows, two_time_g2


def _synthetic_trace(times, intensity, g2tilde, envelope=None, omega=None):
    times = np.asarray(times, float)
    intensity = np.asarray(intensity, float)
    g2tilde = np.asarray(g2tilde, float)
    env = np.ones_like(times) if envelope is None else np.asarray(envelope, float)
    om = np.full_like(times, 0.5) if omega is None else np.asarray(omega, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(intensity > 1e-4, g2tilde / intensity ** 2, np.nan)
    return ObservableTrace(times=times, envelope_unit=env, omega_c=om,
                           intensity=intensity, g2tilde=g2tilde, g2=g2)


# ---------------------------------------------------------------------------
# output amplitudes

def test_no_atoms_equivalent_input_passthrough():
    # a chain must hold at least one atom; the zero-state trace plays the role
    # of "atoms never excited": output equals the bare input
    from rydeit.dynamics import StateTrajectory
    gen = make_generator(n_atoms=1, omega_c=0.5)
    traj = StateTrajectory(times=np.array([0.0, 1.0]),
                           covectors=gen.output_covectors(),
                           projections=np.zeros((2, 2), dtype=complex),
                           envelope_unit=np.array([0.73, 0.0]), omega_c=np.full(2, 0.5),
                           segment_starts=np.array([0]))
    trace = trace_from_trajectory(traj, gen)
    np.testing.assert_allclose(trace.intensity, [0.73 ** 2, 0.0], rtol=1e-15)
    np.testing.assert_allclose(trace.g2tilde, [0.73 ** 4, 0.0], rtol=1e-15)


def test_coherent_factorization_trace(params):
    gen = make_generator(n_atoms=10, blockade=BlockadeConfig.none(), duration=30.0)
    traj = evolve(gen, (0.0, 45.0), dt_out=0.25)
    trace = trace_from_trajectory(traj, gen)
    mask = trace.intensity > 1e-2
    assert np.nanmax(np.abs(trace.g2[mask] - 1.0)) < 1e-6


def test_two_time_factorization_and_symmetry():
    gen = make_generator(n_atoms=6, blockade=BlockadeConfig.none(), duration=20.0)
    traj = evolve(gen, (0.0, 30.0), dt_out=0.5)
    grid = correlation_grid(traj, gen)
    outer = np.outer(grid.intensity, grid.intensity)
    assert np.max(np.abs(grid.g2_matrix - outer)) < 1e-6
    assert np.max(np.abs(grid.g2_matrix - grid.g2_matrix.T)) < 1e-10


def test_two_time_matches_equal_time_on_diagonal():
    gen = make_generator(n_atoms=5, duration=20.0)
    traj = evolve(gen, (0.0, 25.0), dt_out=0.5, project=oracle_rows(gen))
    trace = trace_from_trajectory(traj, gen)
    for i in (3, 17, 30):
        t = float(traj.times[i])
        val = two_time_g2(traj, gen, t, t)
        assert val == pytest.approx(trace.g2tilde[i], abs=1e-8)


def test_two_time_g2_off_diagonal_consistent_with_grid():
    gen = make_generator(n_atoms=5, duration=20.0)
    traj = evolve(gen, (0.0, 25.0), dt_out=0.5, project=oracle_rows(gen))
    grid = correlation_grid(traj, gen)
    i, j = 16, 31
    t1, t2 = float(grid.times[i]), float(grid.times[j])
    assert two_time_g2(traj, gen, t1, t2) == pytest.approx(
        grid.g2_matrix[i, j], rel=1e-7, abs=1e-12)


def _power_law(n_atoms):
    from rydeit.model import PhysicalParams
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)
    return BlockadeConfig.power_law_from_db(1.5, build_chain(n_atoms), p)


#: Omega_c stepped down at 6 and 9
_STEPS = ControlSchedule((0.5, 0.3, 0.1), (6.0, 9.0))


@pytest.mark.parametrize("shape, schedule", [
    (PulseShape.SQUARE, None),
    (PulseShape.GAUSSIAN, None),
    (PulseShape.SQUARE, ControlSchedule.storage(0.5, t_off=8.0, t_store=6.0)),
    (PulseShape.GAUSSIAN, _STEPS)])
@pytest.mark.parametrize("blockaded", [True, False])
@pytest.mark.parametrize("first, stop, step", [(0, None, 1), (7, 61, 3)])
def test_correlation_grid_matches_conditioned_evolution(shape, schedule, blockaded,
                                                        first, stop, step):
    # the closed-form grid against the oracle that evolves each conditioned
    # state under the driven generator, at pairs of the grid samples
    # [first:stop:step]; the second set straddles storage's control jumps
    # and the steps' breakpoints
    n = 5
    gen = make_generator(n_atoms=n, shape=shape, duration=12.0, schedule=schedule,
                         blockade=None if blockaded else _power_law(n))
    _check_grid_against_oracle(gen, first, stop, step)


@pytest.mark.parametrize("shape, rise", [(PulseShape.SQUARE, 3.0),
                                         (PulseShape.TRIANGULAR_POS, 0.0)])
@pytest.mark.parametrize("blockaded", [True, False])
def test_correlation_grid_on_drive_ramps_matches_conditioned_evolution(shape, rise, blockaded):
    # the trajectory and the oracle's conditioned [ground; singles] columns,
    # whose ground f1 is not 1, cross the drive ramps on their clocked route
    n = 5
    gen = make_generator(n_atoms=n, shape=shape, duration=12.0, rise_time=rise,
                         blockade=None if blockaded else _power_law(n))
    _check_grid_against_oracle(gen, 7, 61, 3)


@pytest.mark.parametrize("blockaded", [True, False])
def test_correlation_grid_storage_window_inside_one_interval(blockaded):
    # the whole 0.25 storage window [8, 8.25] is one sample interval: a
    # segment of one step at Omega_c = 0 between two at 0.5
    n = 5
    gen = make_generator(n_atoms=n, duration=12.0,
                         schedule=ControlSchedule.storage(0.5, t_off=8.0, t_store=0.25),
                         blockade=None if blockaded else _power_law(n))
    _check_grid_against_oracle(gen, 28, 40, 1)


def test_correlation_grid_reads_each_segment_at_its_own_control():
    # the control switches off at 1.51, just past the sum of six steps of
    # 1.51 / 6: the storage segment steps at Omega_c = 0 from its first sample
    gen = make_generator(n_atoms=3, duration=3.0,
                         schedule=ControlSchedule.storage(0.5, t_off=1.51, t_store=1.0))
    traj = evolve(gen, (0.0, 4.0), dt_out=0.3, project=oracle_rows(gen))
    grid = correlation_grid(traj, gen)
    peak = np.max(grid.g2_matrix)
    for a in range(len(grid.times)):
        for b in range(a, len(grid.times)):
            ref = two_time_g2(traj, gen, grid.times[a], grid.times[b])
            assert abs(grid.g2_matrix[a, b] - ref) <= 1e-8 * peak, (a, b)


def test_correlation_grid_one_exponential_per_segment_step(monkeypatch):
    # storage switches Omega_c 0.5 -> 0 -> 0.5, and the pulse's end at 12
    # splits the dark stretch: four recorded segments, all at step 0.25,
    # share two (Omega_c, h), so the grid builds two singles exponentials
    import rydeit.dynamics as dynamics
    gen = make_generator(n_atoms=4, duration=12.0,
                         schedule=ControlSchedule.storage(0.5, t_off=8.0, t_store=6.0))
    traj = evolve(gen, (0.0, 22.0), dt_out=0.25)
    starts = traj.segment_starts
    np.testing.assert_array_equal(traj.times[starts], [0.0, 8.0, 12.0, 14.0])
    steps = {(traj.omega_c[s], traj.times[s + 1] - traj.times[s]) for s in starts}
    assert steps == {(0.5, 0.25), (0.0, 0.25)}
    calls = []
    real = dynamics.expm
    monkeypatch.setattr(dynamics, "expm",
                        lambda m, *levels: calls.append(m.shape) or real(m, *levels))
    correlation_grid(traj, gen)
    n1 = gen.index.dim_singles
    assert calls == [(n1, n1)] * len(steps)


def _check_grid_against_oracle(gen, first, stop, step):
    traj = evolve(gen, (0.0, 22.0), dt_out=0.25, project=oracle_rows(gen))
    grid = correlation_grid(traj, gen)
    np.testing.assert_array_equal(grid.times, traj.times)
    peak = np.max(grid.g2_matrix)
    rng = np.random.default_rng(11)
    sel = np.arange(len(grid.times))[first:stop:step]
    m = len(sel)
    pairs = [(0, 0), (0, m - 1), (m - 1, m - 1)] + [
        tuple(sorted(rng.integers(0, m, size=2))) for _ in range(12)]
    for a, b in (sel[list(pair)] for pair in pairs):
        ref = two_time_g2(traj, gen, grid.times[a], grid.times[b])
        assert abs(grid.g2_matrix[a, b] - ref) <= 1e-8 * peak, (a, b)
        assert grid.g2_matrix[b, a] == grid.g2_matrix[a, b]


def test_correlation_grid_needs_the_grid_rows():
    gen = make_generator(n_atoms=3, duration=10.0)
    traj = evolve(gen, (0.0, 12.0), dt_out=0.5, project=gen.output_covectors())
    with pytest.raises(ConfigurationError):
        correlation_grid(traj, gen)


def test_correlation_grid_is_its_trajectory_trace():
    # a grid run's one output record: the trace bit for bit, with its G2
    gen = make_generator(n_atoms=4, blockade=_power_law(4), shape=PulseShape.GAUSSIAN,
                         duration=12.0)
    traj = evolve(gen, (0.0, 40.0), dt_out=0.25)
    grid, trace = correlation_grid(traj, gen), trace_from_trajectory(traj, gen)
    for name in ("times", "envelope_unit", "omega_c", "intensity", "g2tilde"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(trace, name))
    assert np.isnan(trace.g2).any()
    np.testing.assert_array_equal(grid.g2, trace.g2)     # NaN where trace's is
    w = (2.0, 8.0)
    assert grid.window_energy(*w) == trace.window_energy(*w) > 0.0
    assert grid.input_energy() == trace.input_energy()


@pytest.mark.parametrize("read", [trace_from_trajectory, correlation_grid])
def test_a_record_of_other_rows_is_refused(read):
    # a record of the whole state has as many columns as the readers need,
    # but they are not the output covectors' projections
    gen = make_generator(n_atoms=3, duration=10.0)
    traj = evolve(gen, (0.0, 12.0), dt_out=0.5, project=state_rows(gen))
    assert traj.projections.shape[1] >= 2 + 2 * gen.index.dim_singles
    with pytest.raises(ConfigurationError):
        read(traj, gen)


# ---------------------------------------------------------------------------
# windowed estimator

def _coherent_grid(t_max=10.0, n=101, intensity=1.0):
    ts = np.linspace(0.0, t_max, n)
    trace = _synthetic_trace(ts, np.full(n, intensity), np.full(n, intensity ** 2))
    return CorrelationGrid(**vars(trace), g2_matrix=np.full((n, n), intensity ** 2))


def test_windowed_g2_coherent_is_one():
    grid = _coherent_grid()
    assert windowed_g2(grid, (0.0, 4.0), (3.0, 5.0)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.0, 5.0), w=st.floats(0.5, 4.0))
def test_windowed_g2_coherent_any_window(a, w):
    grid = _coherent_grid()
    assert windowed_g2(grid, (a, w), (a, w)) == pytest.approx(1.0, abs=1e-10)


def test_windowed_g2_floor_error():
    grid = _coherent_grid(intensity=1e-7)
    with pytest.raises(UndefinedResultError):
        windowed_g2(grid, (0.0, 5.0), (0.0, 5.0))


@pytest.mark.parametrize("grid_block", [1, 3, 128])
def test_windowed_g2_row_blocks_match_the_whole_trapezoid(monkeypatch, grid_block):
    # the inner trapezoid taken a row block at a time gives each row's
    # value of the whole-matrix trapezoid, so the estimate is bit-identical
    # on random windows of an uneven grid and a random G2 matrix; at
    # GRID_BLOCK = 1 a block is at most one row long
    import rydeit.observables as observables
    monkeypatch.setattr(observables, "GRID_BLOCK", grid_block)
    rng = np.random.default_rng(grid_block)
    n = 161
    ts = np.cumsum(rng.uniform(0.02, 0.1, n))
    inten = rng.uniform(0.5, 1.5, n)
    trace = _synthetic_trace(ts, inten, inten ** 2)
    grid = CorrelationGrid(**vars(trace), g2_matrix=rng.uniform(0.0, 2.0, (n, n)))
    for _ in range(20):
        w1, w2 = ((rng.uniform(ts[0], ts[-1] - 2.0), rng.uniform(0.5, 2.0)) for _ in range(2))
        (a1, b1), (a2, b2) = (observables._window_slice(ts, *w) for w in (w1, w2))
        t1, t2 = ts[a1:b1], ts[a2:b2]
        whole = np.trapezoid(np.trapezoid(grid.g2_matrix[a1:b1, a2:b2], t2, axis=1), t1)
        ref = whole / (np.trapezoid(inten[a1:b1], t1) * np.trapezoid(inten[a2:b2], t2))
        assert windowed_g2(grid, w1, w2) == float(ref)


def test_windowed_g2_converges_to_instantaneous():
    # shrink the window at a steady point: gap to g2(t) closes roughly linearly
    gen = make_generator(n_atoms=10, omega_c=0.5, duration=120.0)
    traj = evolve(gen, (0.0, 110.0), dt_out=0.2)
    trace = trace_from_trajectory(traj, gen)
    i80 = int(np.argmin(np.abs(trace.times - 80.0)))
    assert trace.times[i80] == pytest.approx(80.0, abs=1e-9)
    grid = correlation_grid(traj, gen)
    g2_inst = float(trace.g2[i80])
    gaps = []
    widths = (16.0, 8.0, 4.0, 2.0)
    for w in widths:
        val = windowed_g2(grid, (80.0 - w / 2, w), (80.0 - w / 2, w))
        gaps.append(abs(val - g2_inst))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    # the gap closes at least linearly as the window shrinks 8x
    assert gaps[-1] < 0.2 * gaps[0]


def test_two_time_g2_recovers_to_one_at_large_delay():
    # in the blockaded steady state, pairs separated by more than the memory
    # time are uncorrelated: g2(t, t+tau) climbs from the antibunched
    # equal-time value back to ~1
    gen = make_generator(n_atoms=10, omega_c=0.5, duration=120.0)
    traj = evolve(gen, (0.0, 110.0), dt_out=0.5)
    trace = trace_from_trajectory(traj, gen)
    i0 = int(np.argmin(np.abs(trace.times - 60.0)))
    assert trace.times[i0] == pytest.approx(60.0, abs=1e-9)
    grid = correlation_grid(traj, gen)
    later = slice(i0, i0 + 81)
    norm = grid.g2_matrix[i0, later] / (grid.intensity[i0] * grid.intensity[later])
    assert norm[0] < 0.3
    assert norm[-1] > 0.9
    assert norm[-1] == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_perfect_eit_at_resonance(params, chain10):
    spec = transmission_spectrum(params, chain10, omega_c=0.5, deltas=[0.0])
    assert spec[0][1] == pytest.approx(1.0, abs=1e-10)


def test_spectrum_two_level_resonance(params, chain10):
    spec = transmission_spectrum(params, chain10, omega_c=0.0, deltas=[0.0])
    assert spec[0][1] == pytest.approx(math.exp(-optical_depth(chain10, params)),
                                       rel=1e-6)


def test_spectrum_fwhm_on_analytic_window():
    deltas = np.linspace(-2.0, 2.0, 801)
    width = 0.31
    spec = [(float(d), float(math.exp(-(d / (width / 2)) ** 2 * math.log(2))))
            for d in deltas]
    assert spectrum_fwhm(spec) == pytest.approx(width, rel=2e-3)
    _, pk, _ = eit_peak(spec)
    assert pk == pytest.approx(1.0, abs=1e-6)


def test_spectrum_fwhm_needs_both_half_crossings(tmp_path):
    # each edge is the first half crossing from the peak outward; a window
    # that never falls to half height on one side is an extraction error,
    # and the spectrum runner then records fwhm_gamma = fwhm_mhz = nan
    from dataclasses import replace
    from rydeit.configio import default_config
    from rydeit.scenarios import run_spectrum
    spec = [(float(d), 1.0 / (1.0 + d * d)) for d in np.linspace(-2.0, 2.0, 801)]
    assert spectrum_fwhm(spec) == pytest.approx(2.0, rel=1e-9)
    for side in (lambda d: d > -0.5, lambda d: d < 0.5):
        with pytest.raises(ExtractionError):
            spectrum_fwhm([(d, t) for d, t in spec if side(d)])
    cfg = replace(default_config("spectrum", {}), delta_min=-0.01, delta_max=0.01)
    bundle = run_spectrum(cfg)
    assert math.isnan(bundle.scalars["fwhm_gamma"]) and math.isnan(bundle.scalars["fwhm_mhz"])
    bundle.write(tmp_path)
    manifest = (tmp_path / "manifest.ini").read_text()
    assert "fwhm_gamma = nan" in manifest and "fwhm_mhz = nan" in manifest


# ---------------------------------------------------------------------------
# steady-state measurement and transient extraction

def test_measure_steady_state_flatness():
    ts = np.linspace(0.0, 100.0, 1001)
    flat = np.where(ts < 95.0, 0.5, 0.5)
    tr = _synthetic_trace(ts, flat, 0.1 * flat ** 2)
    stats = measure_steady_state(tr, 0.0, 100.0)
    assert stats.flat
    assert stats.i_ss == pytest.approx(0.5)
    assert stats.g2_ss == pytest.approx(0.1)  # (0.1 * 0.25) / 0.25^2
    drift = 0.5 + 0.05 * np.sin(ts)
    tr2 = _synthetic_trace(ts, drift, 0.1 * drift ** 2)
    assert not measure_steady_state(tr2, 0.0, 100.0).flat


def test_tau_eit_arithmetic():
    # 4 * 9.1 * (Gamma/1.2) / (Gamma/2)^2 = 121.3/Gamma
    assert tau_eit(9.1, 1.0 / 1.2, 0.5) == pytest.approx(121.3333333, rel=1e-9)


def test_extract_tau0_permanence_rule():
    ts = np.linspace(0.0, 100.0, 2001)
    g2ss = 0.2
    # crosses into the band early, leaves again, settles for good at t = 40
    g2 = np.full_like(ts, 0.2)
    g2[ts < 10.0] = 1.0
    g2[(ts >= 20.0) & (ts < 40.0)] = 0.2 * 1.02
    intensity = np.ones_like(ts)
    tr = _synthetic_trace(ts, intensity, g2 * intensity ** 2)
    tau0 = extract_tau0(tr, 0.0, 100.0, g2ss)
    assert tau0 == pytest.approx(40.0, abs=0.1)


def test_extract_tau0_never_settles():
    ts = np.linspace(0.0, 50.0, 501)
    tr = _synthetic_trace(ts, np.ones_like(ts), np.full_like(ts, 0.4))
    with pytest.raises(ExtractionError):
        extract_tau0(tr, 0.0, 50.0, 0.2)


def test_extract_tau_i_falling_crossing():
    ts = np.linspace(0.0, 30.0, 3001)
    t_off = 10.0
    i_ss = 0.8
    # retrieval shape: zero at shutoff, flash above, then exponential fall
    intensity = np.where(ts < t_off, i_ss,
                         1.2 * i_ss * (1 - np.exp(-(ts - t_off) / 0.2))
                         * np.exp(-(ts - t_off) / 3.0))
    # tau_I as the turn-off runner reads it: the falling half crossing
    after = ts >= t_off - 1e-12
    target = 0.5 * i_ss
    tau_i = _first_half_crossing(ts[after], intensity[after], target,
                                 falling_only=True) - t_off
    assert tau_i > 0.2  # not the initial zero
    val = np.interp(t_off + tau_i, ts, intensity)
    assert val == pytest.approx(target, rel=1e-3)
    # without falling_only the initial zero is the crossing
    assert _first_half_crossing(ts[after], intensity[after], target) - t_off == 0.0


def test_extract_tau_ii_half_of_post_jump():
    ts = np.linspace(10.0, 20.0, 2001)
    g2t = 0.9 * np.exp(-(ts - 10.0) / 1.5)
    # tau_II: the two-photon intensity falls to half its post-jump value
    tau = _first_half_crossing(ts, g2t, 0.5 * g2t[0]) - 10.0
    assert tau == pytest.approx(1.5 * math.log(2.0), rel=1e-3)
    with pytest.raises(ExtractionError):
        _first_half_crossing(ts, g2t, 0.1 * g2t[-1])


# ---------------------------------------------------------------------------
# exponential envelope fit

def test_fit_pure_exponentials_within_one_percent():
    ts = np.linspace(2.0, 20.0, 400)
    for rate in (1.0, 2.0):
        assert fit_exponential_envelope(ts, 0.5 * np.exp(-rate * ts)) == pytest.approx(
            rate, rel=0.01)


def test_fit_oscillating_envelope():
    ts = np.linspace(0.0, 19.5, 2000)
    y = np.exp(-ts) * (0.55 + 0.45 * np.cos(3.0 * ts)) ** 2
    rate = fit_exponential_envelope(ts, y)
    assert rate == pytest.approx(1.0, rel=0.15)


def test_fit_too_few_points_errors():
    ts = np.linspace(0.0, 10.0, 100)
    window = (ts >= 4.0) & (ts <= 4.05)
    with pytest.raises(ExtractionError):
        fit_exponential_envelope(ts[window], np.exp(-ts[window]))


# ---------------------------------------------------------------------------
# csv emission

def test_write_csv_is_plain_and_stable(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1.0, 0.5, "ok"), (2.0, float("nan"), "bad")]
    write_csv(path, ["a", "b", "status"], rows, "demo units")
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# demo units"
    assert lines[1] == "a,b,status"
    assert lines[2] == "1.0,0.5,ok"
    assert "nan" in lines[3]
