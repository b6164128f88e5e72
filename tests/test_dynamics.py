import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
from scipy.linalg import expm as _scipy_expm

from rydeit.model import (BlockadeConfig, BlockadeMode, ConfigurationError, ControlSchedule,
                          PhysicalParams, PulseEnvelope, PulseShape, build_chain, optical_depth,
                          time_from_ns)
from rydeit.dynamics import (DynamicsError, SinglesPropagator, StateTrajectory, _TaylorAction,
                             _cascade_order, _csr, _giant_step, assemble_generator,
                             decay, evolve, expm, singles_blocks,
                             steady_state, steady_transmission_amplitude)
from rydeit.observables import trace_from_trajectory
from conftest import (augmented, make_generator, padded, rk4_dt, rk4_evolve, rk4_segment,
                      state_rows, vacuum)


def _stacked(gen):
    """A fresh stacked propagator of ``gen``, the one ``evolve`` steps."""
    return SinglesPropagator(gen, "stacked")


def _spy_ends(monkeypatch, stepper):
    """The end states the ``dynamics`` stepper named ``stepper`` returns, one
    per call, appended as ``evolve`` runs."""
    import rydeit.dynamics as dynamics
    ends, inner = [], getattr(dynamics, stepper)

    def spy(*args):
        proj, y = inner(*args)
        ends.append(y)
        return proj, y

    monkeypatch.setattr(dynamics, stepper, spy)
    return ends


def _block(doubles):
    return "doubles" if doubles else "singles"


def _m1(gen, omega):
    """The singles block of S + omega W, dense."""
    return gen.operator(omega, slots=gen.index.singles).toarray()


# ---------------------------------------------------------------------------
# single-atom and linear-optics oracles

def test_single_excited_atom_decays_at_gamma():
    gen = make_generator(n_atoms=1, omega_c=0.0)
    idx = gen.index
    y0 = vacuum(gen)
    y0[1 + 0] = 1.0
    # drive off: evolve outside the pulse support
    traj = evolve(gen, (50.0, 56.0), dt_out=0.5, initial=y0, project=state_rows(gen))
    pops = np.abs(traj.projections[:, 0]) ** 2
    expected = np.exp(-(traj.times - 50.0))
    np.testing.assert_allclose(pops, expected, rtol=1e-8)


def test_single_atom_transmission_formula():
    # amplitude transmission 1 - (Gamma_1D/2)/(Gamma/2 - i delta) to 1e-9
    p0 = PhysicalParams.from_ratio(0.2)
    chain = build_chain(1)
    for delta in np.linspace(-5.0, 5.0, 41):
        p = replace(p0, delta_e=float(delta), delta_2=float(delta))
        t = steady_transmission_amplitude(p, chain, omega_c=0.0)
        ref = 1.0 - (p.gamma_1d / 2) / (p.gamma_total / 2 - 1j * delta)
        assert abs(t - ref) < 1e-9


def test_n_atom_resonant_transmission_exp_minus_d(params):
    for n in (5, 10, 25):
        chain = build_chain(n)
        t = steady_transmission_amplitude(params, chain, omega_c=0.0)
        d = optical_depth(chain, params)
        assert abs(t) ** 2 == pytest.approx(math.exp(-d), rel=1e-6)


@pytest.mark.parametrize("ratio", [0.1, 0.2, 0.5])
@pytest.mark.parametrize("n_atoms", [3, 10, 40])
@pytest.mark.parametrize("omega", [0.25, 0.5, 1.0])
def test_group_delay_is_n_gamma_1d_over_two_omega_squared(ratio, n_atoms, omega):
    # EIT group delay d arg t / d delta at delta = 0, with the probe and the
    # two-photon detuning moving together, by a central difference of the
    # singles generator's transmission: N Gamma_1D / (2 Omega_c^2)
    p = PhysicalParams.from_ratio(ratio, omega_c_peak=omega)
    chain = build_chain(n_atoms)
    h = 1e-5
    t_up, t_down = (steady_transmission_amplitude(replace(p, delta_e=d, delta_2=d),
                                                  chain, omega) for d in (h, -h))
    tau_g = np.angle(t_up / t_down) / (2.0 * h)
    assert tau_g == pytest.approx(n_atoms * p.gamma_1d / (2.0 * omega ** 2), rel=1e-7)


def test_transmission_chain_vs_per_atom_product_oracle():
    # independent oracle: the cascaded medium is the per-atom product
    p0 = PhysicalParams.from_ratio(0.2, gamma_r=0.05)
    chain = build_chain(7)
    om = 0.3
    for delta in (-0.8, 0.0, 0.45):
        p = replace(p0, delta_e=delta, delta_2=delta)
        t = steady_transmission_amplitude(p, chain, omega_c=om)
        atom = 1.0 - (p.gamma_1d / 2) / (
            p.gamma_total / 2 - 1j * delta + om ** 2 / (p.gamma_r - 1j * delta))
        assert t == pytest.approx(atom ** 7, rel=1e-9)


def test_perfect_eit_steady_state():
    gen = make_generator(n_atoms=3, omega_c=0.5)
    ss = steady_state(gen, omega_c=0.5)
    idx = gen.index
    for h in range(3):
        assert abs(ss[1 + h]) < 1e-12
        expected_r = math.sqrt(gen.params.gamma_1d / 2) / 0.5
        assert ss[1 + idx.n_atoms + h] == pytest.approx(expected_r, rel=1e-12)
    assert 1.0 + gen.out_e @ ss[1:1 + idx.dim_singles] == pytest.approx(1.0, abs=1e-12)


def test_blockaded_steady_transparency():
    # normalized intensity reaches ~1 in steady state: the single-photon
    # component sees perfect transparency regardless of the blockade
    gen = make_generator(n_atoms=10, omega_c=0.5)
    ss = steady_state(gen, omega_c=0.5)
    psi1 = ss[1:1 + gen.index.dim_singles]
    assert abs(1.0 + gen.out_e @ psi1) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_steady_state_matches_long_evolution():
    gen = make_generator(n_atoms=5, omega_c=0.4, duration=400.0)
    ss = steady_state(gen, omega_c=0.4)
    traj = evolve(gen, (0.0, 300.0), dt_out=10.0, project=state_rows(gen))
    np.testing.assert_allclose(traj.projections[-1], ss[1:], atol=1e-8)


def test_steady_outputs_converge_as_one_over_n_at_a_fixed_device():
    # the chain discretizes a medium of fixed optical depth D = 10.21 with
    # Gamma_1D/Gamma' = exp(D/2N) - 1, at a fixed blockade radius r_b =
    # 0.08815 (chain units) and pair-shift scale v0 = 1.0292, on the
    # replica's Omega_c = 3.2/6 and gamma_r = 0.8/6.  At N = 14, 28, 56 and
    # 112 the steady transmission reads 0.18759, 0.16517, 0.15438, 0.14910
    # and g2_ss 0.33489, 0.35180, 0.33970, 0.33476.  Under 1/N convergence
    # each difference is half the one before: the transmission differences
    # fall by 2.08 and 2.05, pinned to [1.8, 2.3], and those of g2_ss from
    # N = 28 on (N = 14 is too coarse for r_b) by 2.45, pinned to [2, 3]
    rows = []
    for n in (14, 28, 56, 112):
        p = PhysicalParams.from_ratio(math.exp(10.21 / (2 * n)) - 1.0, omega_c_peak=3.2 / 6.0,
                                      gamma_r=0.8 / 6.0)
        chain = build_chain(n)
        assert optical_depth(chain, p) == pytest.approx(10.21, rel=1e-12)
        blk = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.08815, v0=1.0292)
        gen = assemble_generator(p, chain, blk, ControlSchedule.constant(p.omega_c_peak),
                                 PulseEnvelope(duration=10.0))
        ss = steady_state(gen, p.omega_c_peak)
        f, a2 = gen.out_e @ ss[gen.index.singles], gen.a2vec @ ss[gen.index.doubles]
        rows.append((abs(1.0 + f) ** 2, abs(1.0 + 2.0 * f + a2) ** 2 / abs(1.0 + f) ** 4))
    transmission, g2 = np.array(rows).T
    dt, dg = -np.diff(transmission), -np.diff(g2[1:])
    assert np.all(dt > 0) and np.all(dg > 0)
    assert np.all((1.8 <= dt[:-1] / dt[1:]) & (dt[:-1] / dt[1:] <= 2.3)), dt
    assert 2.0 <= dg[0] / dg[1] <= 3.0, dg


# ---------------------------------------------------------------------------
# evolution basics

def test_zero_envelope_stays_zero():
    gen = make_generator(n_atoms=4)
    traj = evolve(gen, (40.0, 60.0), dt_out=2.0, project=state_rows(gen))  # after the pulse
    assert np.all(traj.projections == 0)


def test_trajectory_grid_contains_breakpoints():
    gen = make_generator(n_atoms=2, duration=10.0)
    traj = evolve(gen, (0.0, 15.0), dt_out=0.7)
    assert np.any(np.isclose(traj.times, 10.0))
    assert np.all(np.diff(traj.times) > 0)
    # the trajectory records where each segment starts: at 0 and at the
    # pulse's end, each in equal steps
    starts = traj.segment_starts
    np.testing.assert_allclose(traj.times[starts], [0.0, 10.0], atol=1e-12)
    for s, e in zip(starts, [*starts[1:], traj.n_samples - 1]):
        np.testing.assert_allclose(np.diff(traj.times[s:e + 1]), traj.times[s + 1] - traj.times[s],
                                   rtol=1e-12)


def test_segment_starts_on_its_breakpoint():
    # six steps of 1.51 / 6 add up to 1.5099999999999998: the segment's last
    # sample is the breakpoint itself, so the storage segment after it
    # starts at Omega_c = 0 and the tail after the pulse at envelope 0
    gen = make_generator(n_atoms=2, duration=3.0,
                         schedule=ControlSchedule.storage(0.5, t_off=1.51, t_store=1.0))
    traj = evolve(gen, (0.0, 4.0), dt_out=0.3)
    starts = traj.segment_starts
    np.testing.assert_array_equal(traj.times[starts], [0.0, 1.51, 2.51, 3.0])
    np.testing.assert_array_equal(traj.omega_c[starts], [0.5, 0.0, 0.5, 0.5])
    np.testing.assert_array_equal(traj.envelope_unit[starts], [1.0, 1.0, 1.0, 0.0])
    assert traj.times[-1] == 4.0


@pytest.mark.parametrize("starts", [[], [1], [0, 3, 3], [0, 5, 2], [0, 7]])
def test_trajectory_refuses_malformed_segment_starts(starts):
    # segment starts rise from 0, and every segment holds at least one step
    gen = make_generator(n_atoms=2, duration=10.0)
    n = 8
    with pytest.raises(ConfigurationError, match="segment starts"):
        StateTrajectory(times=np.arange(float(n)),
                        covectors=gen.output_covectors(),
                        projections=np.zeros((n, 2), dtype=complex),
                        envelope_unit=np.zeros(n), omega_c=np.zeros(n),
                        segment_starts=np.array(starts, dtype=int))


def test_rk4_fourth_order_convergence():
    # the RK4 oracle on a smooth drive: halve dt -> global error drops ~16x
    gen = make_generator(n_atoms=3, shape=PulseShape.GAUSSIAN, duration=12.0)
    ref = rk4_evolve(gen, (0.0, 12.0), 12.0, dt=0.0025, project=state_rows(gen)).projections[-1]
    errs = []
    for dt in (0.08, 0.04):
        y = rk4_evolve(gen, (0.0, 12.0), 12.0, dt=dt, project=state_rows(gen)).projections[-1]
        errs.append(np.max(np.abs(y - ref)))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 23.0


def test_magnus_fourth_order_convergence(monkeypatch):
    # the gaussian's Magnus step against a tight-step RK4 run: the end-state
    # error falls by at least 12x per halving of the substep, twice
    import rydeit.dynamics as dynamics
    gen = make_generator(n_atoms=3, shape=PulseShape.GAUSSIAN, duration=12.0)
    rows = state_rows(gen)
    ref = rk4_evolve(gen, (0.0, 12.0), 12.0, dt=0.0025, project=rows).projections[-1]
    errs = []
    for per_fwhm in (20, 40, 80):
        monkeypatch.setattr(dynamics, "MAGNUS_PER_FWHM", per_fwhm)
        y = evolve(gen, (0.0, 12.0), dt_out=12.0, project=rows).projections[-1]
        errs.append(np.max(np.abs(y - ref)))
    assert errs[0] >= 12.0 * errs[1] and errs[1] >= 12.0 * errs[2], errs


@pytest.mark.parametrize("power_law", [False, True])
def test_gaussian_matches_rk4(power_law):
    # a gaussian window and its tail against the RK4 oracle at its own step,
    # with pair shifts up to v_max ~ 68 or none: the output covectors each
    # within 1e-8 of their largest entry, every grid column within 5e-8
    kw = dict(n_atoms=4, shape=PulseShape.GAUSSIAN, duration=3.0)
    gen = (_power_law_generator(**kw) if power_law
           else make_generator(blockade=BlockadeConfig.none(), **kw))
    assert (gen.v_max > 50.0) == power_law
    window = (0.0, gen.envelope.t_end + 0.5)
    got = evolve(gen, window, dt_out=0.125).projections
    ref = rk4_evolve(gen, window, 0.125).projections
    _assert_columns_close(got[:, :2], ref[:, :2], 1e-8)
    _assert_columns_close(got, ref, 5e-8)


@pytest.mark.parametrize("n_atoms", [4, 10])
def test_gaussian_linear_medium_is_coherent(n_atoms):
    # without the blockade the doubles stay the symmetrized pair of the
    # singles: each Magnus factor is an exact exponential of the lifted
    # generator, so g2 = 1 to rounding wherever the intensity counts
    gen = make_generator(n_atoms=n_atoms, blockade=BlockadeConfig.none(),
                         shape=PulseShape.GAUSSIAN, duration=30.0)
    trace = trace_from_trajectory(evolve(gen, (0.0, 42.0), dt_out=0.25), gen)
    mask = trace.intensity > 1e-2
    assert np.max(np.abs(trace.g2[mask] - 1.0)) <= 1e-12


def test_narrow_gaussian_underflow_stays_finite():
    # a 20 ns gaussian in a 1 us window: the envelope underflows to exactly
    # 0.0 over most of the window, and no drive level is ever divided by
    from rydeit.configio import default_config
    cfg = default_config("propagate", {"shape": "gaussian", "fwhm_ns": 20.0,
                                       "duration_ns": 1000.0})
    gen = assemble_generator(cfg.params, cfg.chain(), cfg.blockade(), cfg.schedule(),
                             cfg.envelope())
    shape = gen.envelope.unit_shape
    assert shape(0.0) == 0.0 == shape(gen.envelope.t_end * (1 - 1e-9))
    window = (0.0, gen.envelope.t_end + 1.0)
    dt_out = time_from_ns(cfg.dt_out_ns, cfg.params.gamma_mhz)
    got = evolve(gen, window, dt_out=dt_out).projections
    assert np.all(np.isfinite(got.view(float)))
    ref = rk4_evolve(gen, window, dt_out).projections
    _assert_columns_close(got[:, :2], ref[:, :2], 1e-8)
    _assert_columns_close(got, ref, 5e-8)


def test_magnus_above_expm_cap_takes_the_action(monkeypatch):
    # above the dense cap each Magnus factor is the Taylor action of the
    # folded generator at its drive level, never a dense exponential; the
    # substeps are the same, so the two runs agree to rounding
    import rydeit.dynamics as dynamics
    gen = _power_law_generator(n_atoms=4, shape=PulseShape.GAUSSIAN, duration=3.0)
    window = (0.0, gen.envelope.t_end + 0.5)
    dense = evolve(gen, window, dt_out=0.125).projections

    def no_dense(m, *levels):
        raise AssertionError("dense exponential above the cap")

    monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", gen.index.dim)
    monkeypatch.setattr(dynamics, "expm", no_dense)
    got = evolve(gen, window, dt_out=0.125).projections
    _assert_columns_close(got, dense, 1e-12)


def test_expm_matches_rk4_on_square_pulse():
    gen = make_generator(n_atoms=4, duration=15.0)
    rows = state_rows(gen)
    a = rk4_evolve(gen, (0.0, 20.0), 1.0, dt=0.01, project=rows).projections
    b = evolve(gen, (0.0, 20.0), dt_out=1.0, project=rows).projections
    np.testing.assert_allclose(a, b, atol=5e-9)


def test_evolve_above_expm_cap_takes_the_action(monkeypatch):
    # above the dense cap a constant stretch takes the Taylor action of the
    # folded generator, never a dense exponential, and agrees with the dense
    # run; so does the end state of one segment, read from identity rows
    import rydeit.dynamics as dynamics
    gen = make_generator(n_atoms=4, duration=15.0)
    rows = state_rows(gen)
    dense = evolve(gen, (0.0, 20.0), dt_out=1.0, project=rows).projections
    y0 = np.concatenate([[1.0], dense[4]])

    def segment():
        return evolve(gen, (5.0, 10.0), 1.0, initial=y0,
                      project=np.eye(len(y0))).projections[-1]

    end = segment()

    def no_dense(m, *levels):
        raise AssertionError("dense exponential above the cap")

    monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", gen.index.dim)
    monkeypatch.setattr(dynamics, "expm", no_dense)
    got = evolve(gen, (0.0, 20.0), dt_out=1.0, project=rows).projections
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
    got = segment()
    assert np.max(np.abs(got - end)) <= 1e-12 * np.max(np.abs(end))


@pytest.mark.parametrize("length", ["singles", "short", "long"])
def test_propagate_segment_needs_the_stacked_length(length):
    # only [ground; singles; doubles] vectors step a segment; a [ground;
    # singles] column or any other length is refused by evolve, which steps
    # every segment, before any work
    gen = make_generator(n_atoms=3, duration=15.0)
    d = {"singles": 1 + gen.index.dim_singles, "short": gen.index.dim,
         "long": 2 + gen.index.dim}[length]
    with pytest.raises(ConfigurationError, match="stacked vector"):
        evolve(gen, (2.0, 4.0), dt_out=1.0, initial=np.ones(d, dtype=complex))


def _power_law_generator(n_atoms=6, **kwargs):
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)
    blk = BlockadeConfig.power_law_from_db(1.5, build_chain(n_atoms), p)
    return make_generator(n_atoms=n_atoms, blockade=blk, **kwargs)


@pytest.mark.parametrize("doubles", [False, True])
@pytest.mark.parametrize("a, b, level", [
    (2.0, 6.0, 1.0),                         # the plateau: drive level 1
    (12.0, 16.0, 0.0)])                      # after the pulse: drive level 0
def test_drive_level_identity(monkeypatch, doubles, a, b, level):
    # the propagator derived from the unit-drive exponential equals the
    # exponential of the generator at the envelope's drive level; without
    # ``doubles`` the state starts with none and is read on its ground and
    # singles, which step as the leading block of the generator
    gen = _power_law_generator(duration=10.0)
    assert gen.v_max > 0.0
    n_out = 7
    dim = 1 + (gen.index.dim if doubles else gen.index.dim_singles)
    rng = np.random.default_rng(5)
    y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    env, om = gen.envelope.unit_shape(a), gen.schedule.value(a)
    assert env == level
    prop = _scipy_expm(augmented(gen, env, om, doubles) * ((b - a) / n_out))
    ref = np.empty((n_out, dim), dtype=complex)
    y = y0
    for k in range(n_out):
        y = ref[k] = prop @ y
    ends = _spy_ends(monkeypatch, "_dense_powers")
    got = evolve(gen, (a, b), (b - a) / n_out, initial=padded(gen, y0),
                 project=np.eye(dim, 1 + gen.index.dim)).projections[1:]
    end, = ends
    assert np.array_equal(end[:dim], got[-1])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("power_law", [False, True])
@pytest.mark.parametrize("level", [0.37, 1e-170])
def test_tri_apply_at_a_drive_level(power_law, level):
    # a step of the stacked unit-drive propagator at drive level e, applied
    # to the columns of the identity (vector form) and to the identity as a
    # row stack, is scipy's exponential of the generator at e, block by
    # block over the levels [ground; singles; doubles], each block on its
    # own scale; at e = 1e-170, e^2 underflows to 0 < e.  Steps at e, and
    # at e = 0, leave the held tile tree as it was, to the bit
    import rydeit.dynamics as dynamics
    gen = _power_law_generator(n_atoms=4) if power_law else make_generator(n_atoms=4)
    assert gen.dtype == (complex if power_law else float)
    assert (level ** 2 == 0.0) == (level < 1e-100) and level > 0.0
    om, h = 0.5, 0.7
    ref = _scipy_expm(augmented(gen, level, om) * h)
    unit = _stacked(gen).step(om, h)
    assert unit.levels == (gen.index.singles.start, gen.index.doubles.start)
    back = np.argsort(unit.perm)
    eye = np.eye(len(ref), dtype=gen.dtype)
    held = unit.tiles.buf.copy()
    by_cols = np.stack([dynamics._tri_apply(unit, col, level) for col in eye], axis=1)
    by_rows = dynamics._tri_apply(unit, eye, level)
    dynamics._tri_apply(unit, eye, 0.0)
    assert np.array_equal(unit.tiles.buf, held)
    levels = np.split(np.arange(len(ref)), unit.levels)
    for got in (by_cols, by_rows):
        got = got[np.ix_(back, back)]
        for r in levels:
            for c in levels:
                block = ref[np.ix_(r, c)]
                atol = max(1e-13 * np.max(np.abs(block)), 1e-300)
                np.testing.assert_allclose(got[np.ix_(r, c)], block, rtol=0, atol=atol)


@pytest.mark.parametrize("shape, duration", [(PulseShape.GAUSSIAN, 10.0),
                                             (PulseShape.SQUARE, 100.0)])
def test_cached_propagators_are_read_only(monkeypatch, shape, duration):
    # the unit-drive propagators a run caches, and the powers they keep,
    # hold their tile trees read-only: the gaussian's Magnus levels and the
    # square's tail (e = 0) step them at other levels, and they stay
    # bit-equal to what they held when made (the gaussian caches the Magnus
    # factor and the tail's step, the square its step and the step's
    # giant-step power, m = 4 over its 200 samples), the flat buffer and
    # every stored array and level view read-only
    import rydeit.dynamics as dynamics
    seen = {}
    real = dynamics.TriangularExp.__post_init__

    def spy(p):
        real(p)
        seen.setdefault(id(p), (p, p.tiles.buf.copy()))

    monkeypatch.setattr(dynamics.TriangularExp, "__post_init__", spy)
    gen = make_generator(n_atoms=4, shape=shape, duration=duration)
    evolve(gen, (0.0, duration + 4.0), dt_out=0.5)
    assert len(seen) == 2
    for p, first in seen.values():
        arrays = [p.tiles.buf, *(t for *_, t in p.tiles.arrays()), *(t for *_, t in p.views)]
        assert len(p.views) >= 6 and not any(x.flags.writeable for x in arrays)
        assert np.array_equal(p.tiles.buf, first)
        with pytest.raises(ValueError, match="read-only"):
            p.views[-1][-1][0, 0] = 1.0


def _count_expm(monkeypatch):
    # records each call of the module's own exponential and runs it, so the
    # counts pin what production runs
    import rydeit.dynamics as dynamics
    calls = []
    real = dynamics.expm

    def counted(m, *levels):
        calls.append(m.shape)
        return real(m, *levels)

    monkeypatch.setattr(dynamics, "expm", counted)
    return calls


def test_evolve_takes_one_exponential(monkeypatch):
    # square pulse with rise edges and a tail: the plateau (drive 1) and the
    # tail (drive 0) share one unit-drive exponential; the edges are drive
    # ramps, stepped by the Taylor action of their clocked generator
    gen = make_generator(n_atoms=4, duration=20.0, rise_time=1.0)
    calls = _count_expm(monkeypatch)
    traj = evolve(gen, (0.0, 30.0), dt_out=0.5, project=state_rows(gen))
    assert calls == [(1 + gen.index.dim,) * 2]
    rk4 = rk4_evolve(gen, (0.0, 30.0), 0.5, dt=0.01, project=state_rows(gen))
    np.testing.assert_allclose(traj.projections, rk4.projections, atol=5e-9)


def test_each_stretch_takes_its_route(monkeypatch):
    # a square pulse with rise edges takes one exponential for its plateau
    # and tail and the clocked action on its edges, never the Magnus step;
    # a gaussian takes the Magnus step over its window, from one unit-drive
    # exponential at half the substep, and a second exponential in the tail
    import rydeit.dynamics as dynamics
    magnus = []
    real = dynamics._magnus_powers

    def counted(prop, omega, a, *args):
        magnus.append(a)
        return real(prop, omega, a, *args)

    monkeypatch.setattr(dynamics, "_magnus_powers", counted)
    dense = []
    real_dense = dynamics._dense_powers

    def counted_dense(prop, y, n_out, project, e):
        dense.append(n_out)
        return real_dense(prop, y, n_out, project, e)

    monkeypatch.setattr(dynamics, "_dense_powers", counted_dense)
    calls = _count_expm(monkeypatch)
    square = make_generator(n_atoms=3, duration=10.0, rise_time=1.0)
    evolve(square, (0.0, 12.0), dt_out=0.5)
    assert magnus == [] and len(calls) == 1
    assert dense == [16, 4]                  # the plateau and the tail
    calls.clear()
    dense.clear()
    gaussian = make_generator(n_atoms=3, shape=PulseShape.GAUSSIAN, duration=10.0)
    evolve(gaussian, (0.0, 12.0), dt_out=0.5)
    assert magnus == [0.0]                   # the window; the tail is constant
    assert len(calls) == 2 and dense == [4]
    # the post-pulse tail is affine at level 0, and so is the stretch before
    # a late pulse: both take the tail's exponential, the window the Magnus step
    assert gaussian.envelope.affine_on(10.0, 12.0) == (0.0, 0.0)
    assert gaussian.envelope.affine_on(0.0, 10.0) is None
    late = replace(gaussian, envelope=replace(gaussian.envelope, t_on=2.0))
    assert late.envelope.affine_on(0.0, 2.0) == (0.0, 0.0)
    calls.clear()
    dense.clear()
    magnus.clear()
    evolve(late, (0.0, 14.0), dt_out=0.5)
    assert magnus == [2.0]
    assert len(calls) == 2 and dense == [4, 4]


@pytest.mark.parametrize("a, b", [(2.0, 6.0), (0.5, 1.5), (8.0, 12.0)])
def test_segment_across_a_breakpoint_is_refused(a, b):
    # Omega_c is constant and the envelope one smooth piece on every segment
    # of evolve: a span across a jump of the control (at 4) or a kink of the
    # envelope (its rise ends at 1, its fall starts at 9) is never one
    # segment, as evolve starts a segment there
    schedule = ControlSchedule((0.5, 0.1), (4.0,))
    gen = make_generator(n_atoms=3, duration=10.0, rise_time=1.0, schedule=schedule)
    traj = evolve(gen, (a, b), dt_out=0.5)
    cuts = [t for t in gen.breakpoints() if a < t < b]
    assert cuts and np.array_equal(traj.times[traj.segment_starts], [a, *cuts])
    traj = evolve(gen, (0.0, 12.0), dt_out=0.5)
    assert {1.0, 4.0, 9.0} <= set(traj.times)


def _ramp_case(shape, power_law):
    """Four atoms under a pulse with drive ramps: a square one with 0.25
    edges, or a triangular one (whole window a ramp), with full blockade or
    pair shifts up to v_max ~ 68; short, so that the RK4 oracle stays
    cheap."""
    square = shape is PulseShape.SQUARE
    kw = dict(n_atoms=4, shape=shape, rise_time=0.25 if square else 0.0,
              duration=1.5 if square else 0.5 if power_law else 3.0)
    return _power_law_generator(**kw) if power_law else make_generator(**kw)


RAMP_CASES = [(shape, power_law) for shape in (PulseShape.SQUARE, PulseShape.TRIANGULAR_NEG,
                                               PulseShape.TRIANGULAR_POS)
              for power_law in (False, True)]


def _assert_columns_close(got, ref, rel):
    """Every column of ``got`` within ``rel`` of its largest entry in ``ref``."""
    err = np.max(np.abs(got - ref), axis=0)
    assert np.all(err <= rel * np.max(np.abs(ref), axis=0)), np.max(err)


@pytest.mark.parametrize("shape, power_law", RAMP_CASES)
def test_drive_ramps_match_rk4(shape, power_law):
    # evolve over the whole window with the drive ramps on their clocked
    # route, against the RK4 oracle at its own step: the output covectors
    # and the grid stack, each column within 1e-10 of its largest entry
    gen = _ramp_case(shape, power_law)
    assert (gen.v_max > 50.0) == power_law
    window = (0.0, gen.envelope.t_end + 0.5)
    got = [evolve(gen, window, dt_out=0.125, project=gen.output_covectors(grid)).projections
           for grid in (False, True)]
    ref = rk4_evolve(gen, window, 0.125).projections
    for proj in got:
        _assert_columns_close(proj, ref[:, :proj.shape[1]], 1e-10)


@pytest.mark.parametrize("doubles", [False, True])
@pytest.mark.parametrize("shape, power_law", RAMP_CASES)
def test_drive_ramp_segment(monkeypatch, shape, power_law, doubles):
    # one ramp from a random state (ground != 1, as in a conditioned
    # singles column), with doubles, or without them and read on the ground
    # and singles only: the projections against the RK4 oracle, the last
    # row against the end state (read from identity rows) to the bit, and
    # the clocks of the clocked layout at the end: g (b - a), g (b - a)^2
    # and (b - a) psi1
    gen = _ramp_case(shape, power_law)
    a, b = gen.envelope.breakpoints()[:2]
    ramp = gen.envelope.affine_on(a, b)
    assert ramp is not None and ramp[1] != 0.0
    n1 = gen.index.dim_singles
    dim = 1 + (gen.index.dim if doubles else n1)
    rng = np.random.default_rng(7)
    y0 = padded(gen, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    rows = gen.output_covectors(grid=True)
    rows[:, dim:] = 0.0
    d = len(y0)
    n_out = 5
    clocked = _spy_ends(monkeypatch, "_action_powers")
    project = np.vstack([rows, np.eye(d)])
    rec = evolve(gen, (a, b), (b - a) / n_out, initial=y0, project=project).projections
    got, end = rec[1:, :len(rows)], rec[-1, len(rows):]
    ref, _ = rk4_segment(gen, y0, a, b, n_out, rk4_dt(gen), rows)
    _assert_columns_close(got, ref, 1e-10)
    assert np.array_equal(rec[-1], project @ end)
    z, = clocked
    assert np.array_equal(z[:d], end)
    g, length = y0[0], b - a
    assert len(z) == d + 2 + n1
    assert abs(z[d] - g * length) <= 1e-13 * abs(g * length)
    assert abs(z[-1] - g * length ** 2) <= 1e-13 * abs(g * length ** 2)
    chi = z[d + 1:d + 1 + n1]
    assert np.max(np.abs(chi - length * end[1:1 + n1])) <= 1e-12 * np.max(np.abs(chi))


def test_singles_propagator_one_exponential_per_step(monkeypatch):
    # segment steps of 0.5 before the pulse (drive 0) and on the plateau
    # (drive 1), and of 0.25 in the tail: the undriven propagator never sees
    # the drive, so two exponentials, not three
    gen = make_generator(n_atoms=4, duration=20.0, rise_time=1.0)
    calls = _count_expm(monkeypatch)
    prop = SinglesPropagator(gen)
    pre, plateau, tail = (prop.step(0.5, h) for h in (0.5, 0.5, 0.25))
    assert len(calls) == 2 and plateau is pre
    np.testing.assert_allclose(tail.dense(), _scipy_expm(_m1(gen, 0.5) * 0.25), rtol=0, atol=1e-13)


def test_short_constant_stretch_takes_the_exponential(monkeypatch):
    # a constant stretch takes the exponential however short its output
    # step: at steps of 0.4 the plateau and the tail of a square pulse share
    # one exponential and match a tight-step RK4 run
    gen = make_generator(n_atoms=3, duration=16.0)
    rows = state_rows(gen)
    calls = _count_expm(monkeypatch)
    auto = evolve(gen, (0.0, 20.0), dt_out=0.4, project=rows)
    assert calls == [(1 + gen.index.dim,) * 2]
    rk4 = rk4_evolve(gen, (0.0, 20.0), 0.4, dt=0.005, project=rows)
    np.testing.assert_array_equal(auto.times, rk4.times)
    np.testing.assert_allclose(auto.projections, rk4.projections, atol=5e-9)


@pytest.mark.parametrize("doubles, horizon", [(False, 40.0), (True, 10.0)])
@pytest.mark.parametrize("n_out", [1, 2, 63, 64, 65, 5000, 6001])
def test_free_decay_matches_step_loop(doubles, horizon, n_out):
    # the free decay of one block (decay) splits the powers into baby
    # and giant steps; the reference is the plain loop y <- P y, projected on
    # one covector and on a 2-row stack of it and a random covector
    _check_free_decay_against_loop(make_generator(n_atoms=10, omega_c=0.5), doubles,
                                   horizon, n_out)


@pytest.mark.parametrize("n_out", [1, 64, 5000])
def test_free_decay_power_law_matches_step_loop(n_out):
    # the doubles decay with pair shifts up to v_max ~ 68 Gamma: the stiff
    # rr diagonal sets the Taylor plan of every action
    gen = _power_law_generator(n_atoms=10)
    assert gen.v_max > 50.0
    _check_free_decay_against_loop(gen, True, 10.0, n_out)


def _check_free_decay_against_loop(gen, doubles, horizon, n_out):
    from scipy.linalg import expm as _expm
    ss, n1 = steady_state(gen, omega_c=0.5), gen.index.dim_singles
    y0, m, project = ((ss[1 + n1:], gen.operator(0.5, slots=gen.index.doubles).toarray(),
                       gen.a2vec) if doubles else (ss[1:1 + n1], _m1(gen, 0.5), gen.out_e))
    rng = np.random.default_rng(11)
    stack = np.stack([project, rng.normal(size=len(y0)) + 1j * rng.normal(size=len(y0))])
    prop = _expm(m * (horizon / n_out))
    ref = np.empty((n_out, 2), dtype=complex)
    y = y0
    for k in range(n_out):
        y = prop @ y
        ref[k] = stack @ y
    prop = SinglesPropagator(gen, _block(doubles))
    got, end = decay(prop, 0.5, horizon / n_out, y0, n_out, project[None])
    assert got.shape == (n_out, 1)
    assert np.max(np.abs(got[:, 0] - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref[:, 0]))
    assert np.max(np.abs(end - y)) <= 1e-12 * np.max(np.abs(y))
    got, _ = decay(prop, 0.5, horizon / n_out, y0, n_out, stack)
    assert got.shape == (n_out, 2)
    for r in range(2):
        assert np.max(np.abs(got[:, r] - ref[:, r])) <= 1e-12 * np.max(np.abs(ref[:, r]))


@pytest.mark.parametrize("doubles", [False, True])
def test_free_decay_stack_above_expm_cap(monkeypatch, doubles):
    # above the dense cap the Taylor action projects a covector stack row by
    # row like one-row stacks
    import rydeit.dynamics as dynamics
    gen = make_generator(n_atoms=4, omega_c=0.5)
    ss, n1 = steady_state(gen, omega_c=0.5), gen.index.dim_singles
    y0, project = (ss[1 + n1:], gen.a2vec) if doubles else (ss[1:1 + n1], gen.out_e)
    stack = np.stack([project, np.conj(project)])
    monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", 1)
    prop = SinglesPropagator(gen, _block(doubles))
    got, _ = decay(prop, 0.5, 0.1, y0, 20, stack)
    assert got.shape == (20, 2)
    for r in range(2):
        one, _ = decay(prop, 0.5, 0.1, y0, 20, stack[r:r + 1])
        assert np.max(np.abs(got[:, r:r + 1] - one)) <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("kind", ["stacked", "doubles"])
@pytest.mark.parametrize("dense", [True, False])
def test_decay_last_row_is_the_end_state_projected(monkeypatch, dense, kind):
    # on either route, the dense exponential or the Taylor action (above
    # the cap), decay's last row is the covector stack times its end state,
    # to the bit: a run's last sample and the state it goes on from agree
    import rydeit.dynamics as dynamics
    if not dense:
        monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", 0)
    gen = make_generator(n_atoms=4, omega_c=0.5)
    prop = SinglesPropagator(gen, kind)
    assert prop.dense == dense
    y, rows, e = steady_state(gen, omega_c=0.5), gen.output_covectors(grid=True), 1.0
    if kind == "doubles":
        k = gen.index.doubles
        y, rows, e = y[k], rows[:, k], 0.0
    proj, end = decay(prop, 0.5, 0.3, y, 37, rows, e)
    assert proj.shape == (37, len(rows))
    assert np.array_equal(proj[-1], rows @ end)


def test_small_doubles_decay_takes_the_dense_route(monkeypatch):
    # a doubles block up to DECAY_DENSE_DOUBLES decays by one dense
    # exponential (d = 155, the D ~ 3.6 turn-off device), and matches the
    # Taylor action it takes above the bound
    import rydeit.dynamics as dynamics
    gen = make_generator(n_atoms=10, omega_c=0.5)
    assert gen.index.dim_doubles == 155 <= dynamics.DECAY_DENSE_DOUBLES
    y0 = steady_state(gen, omega_c=0.5)[1 + gen.index.dim_singles:]
    calls = _count_expm(monkeypatch)
    dense, _ = decay(SinglesPropagator(gen, "doubles"), 0.5, 45.0 / 5000, y0, 5000,
                     gen.a2vec[None])
    assert calls == [(155, 155)]
    monkeypatch.setattr(dynamics, "DECAY_DENSE_DOUBLES", 154)
    action, _ = decay(SinglesPropagator(gen, "doubles"), 0.5, 45.0 / 5000, y0, 5000,
                      gen.a2vec[None])
    assert calls == [(155, 155)]
    assert np.max(np.abs(dense - action)) <= 1e-12 * np.max(np.abs(action))


@pytest.mark.parametrize("doubles, cap", [(False, None), (True, None), (False, 1), (True, 1)])
def test_decay_steps_continue_from_the_end_state(monkeypatch, doubles, cap):
    # the steps of one propagator, continued from the end state of a first
    # call, give the samples of one call over the whole span, on the dense
    # route and (above the cap) by the Taylor action; like a turn-off point,
    # the three calls share one cached exponential on the dense route
    import rydeit.dynamics as dynamics
    if cap is not None:
        monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", cap)
    gen = make_generator(n_atoms=6, omega_c=0.25)
    ss, n1 = steady_state(gen, omega_c=0.25), gen.index.dim_singles
    y0, project = (ss[1 + n1:], gen.a2vec) if doubles else (ss[1:1 + n1], gen.out_e)
    calls = _count_expm(monkeypatch)
    prop = SinglesPropagator(gen, _block(doubles))
    whole, end = decay(prop, 0.25, 0.01, y0, 3000, project[None])
    first, y = decay(prop, 0.25, 0.01, y0, 1000, project[None])
    rest, y = decay(prop, 0.25, 0.01, y, 2000, project[None])
    assert calls == ([] if cap else [(len(y0),) * 2])
    got = np.concatenate([first, rest])
    assert np.max(np.abs(got - whole)) <= 1e-12 * np.max(np.abs(whole))
    assert np.max(np.abs(y - end)) <= 1e-12 * np.max(np.abs(end))


def test_complex_stack_on_a_real_generator_takes_one_complex_exponential(monkeypatch):
    # a complex covector stack on a real device steps a complex propagator,
    # built once and cached beside the real one; the real stack's call
    # still takes the real one
    gen = make_generator(n_atoms=4, omega_c=0.5)
    assert gen.dtype == np.float64
    y0 = steady_state(gen, omega_c=0.5)[1:1 + gen.index.dim_singles]
    stack = np.stack([gen.out_e, 1j * gen.out_e])
    calls = _count_expm(monkeypatch)
    prop = SinglesPropagator(gen)
    first, _ = decay(prop, 0.5, 0.1, y0, 300, stack)
    again, _ = decay(prop, 0.5, 0.1, y0, 300, stack)
    assert len(calls) == 1
    assert prop.step(0.5, 0.1, complex).dtype == np.complex128
    assert len(calls) == 1
    assert np.array_equal(first, again) and first.dtype == np.complex128
    real, _ = decay(prop, 0.5, 0.1, y0, 300, gen.out_e[None])
    assert len(calls) == 2 and prop.step(0.5, 0.1).dtype == np.float64
    assert np.max(np.abs(real[:, 0] - first[:, 0])) <= 1e-14 * np.max(np.abs(real))


def test_power_is_kept_by_its_propagator():
    # P^m is squared once per m and kept read-only by P; a second call
    # returns the same object, and P^1 is P
    gen = make_generator(n_atoms=4, omega_c=0.5)
    p = SinglesPropagator(gen).step(0.5, 0.2)
    p4 = p.power(4)
    assert p.power(4) is p4 and p.power(1) is p
    assert not p4.tiles.buf.flags.writeable and not p.tiles.buf.flags.writeable
    np.testing.assert_allclose(p4.dense(), np.linalg.matrix_power(p.dense(), 4),
                               rtol=0, atol=1e-14)


def test_giant_step_cost_rule():
    # the measured shapes: turn-on points (d ~ 1,001, 2,500 steps, two
    # covectors), a d = 975 block over 5,000 steps onto one covector and
    # the replica's plateau and tail (d = 1,625, ~500 steps, two), where one
    # triangular squaring costs less than the ~250 matvecs it saves
    assert _giant_step(1001, 2500, 2) == 16
    assert _giant_step(975, 5000, 1) == 32
    for n in (450, 500, 523, 550):
        assert _giant_step(1625, n, 2) == 2
    assert _giant_step(56, 6000, 1) == 64
    assert _giant_step(1625, 1, 2) == 1


@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("tau_norm", [0.0, 1e-3, 0.04, 2.6, 50.0])
@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("power_law", [False, True])
def test_taylor_action_matches_expm(power_law, omega, tau_norm, cols):
    # exp(tau A) X for a doubles block against the dense exponential, with
    # tau ||A||_1 from no step at all to many Taylor substeps
    gen = (_power_law_generator(n_atoms=8, omega_c=omega) if power_law
           else make_generator(n_atoms=8, omega_c=omega))
    a = gen.operator(omega, slots=gen.index.doubles)
    tau = tau_norm / np.max(np.abs(a).sum(axis=0))
    rng = np.random.default_rng(12)
    shape = (a.shape[0],) if cols is None else (a.shape[0], cols)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = _scipy_expm(a.toarray() * tau) @ x
    got = _TaylorAction(a)(tau, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(_TaylorAction(a)(tau, x), got)


def _random_chain_generator(mode, omega, n_atoms=6, seed=3):
    """Jittered chain in one of the three blockade modes; the power-law pair
    shifts are fixed by Omega_c = 0.5, so they stay on at omega = 0."""
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=omega)
    chain = build_chain(n_atoms, placement="jittered", seed=seed)
    blk = {"power_law": BlockadeConfig.power_law_from_db(1.5, chain,
                                                         replace(p, omega_c_peak=0.5)),
           "full": BlockadeConfig.fully_blockaded(),
           "none": BlockadeConfig.none()}[mode]
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=10.0)
    return assemble_generator(p, chain, blk, ControlSchedule.constant(omega), env)


BLOCKADE_MODES = ["power_law", "full", "none"]


#: (Padé degree m, squarings s) by the 1-norm of the argument (Higham, SIAM
#: J. Matrix Anal. Appl. 26:1179, 2005, table 2.3: theta_3 = 0.015,
#: theta_5 = 0.254, theta_7 = 0.950, theta_9 = 2.098, theta_13 = 5.372)
PADE_PLAN = {0.0: (3, 0), 1e-3: (3, 0), 0.01: (3, 0), 0.2: (5, 0), 0.9: (7, 0), 1.0: (9, 0),
             2.0: (9, 0), 2.5: (13, 0), 5.0: (13, 0), 20.0: (13, 2), 50.0: (13, 4)}


def _count_pade(monkeypatch):
    """The degree of each Padé approximant ``dynamics._pade_strips`` sums,
    appended as they come."""
    import rydeit.dynamics as dynamics
    degrees, real = [], dynamics._pade_strips

    def counted(b, u, bounds):
        degrees.append(len(b) - 1)
        return real(b, u, bounds)

    monkeypatch.setattr(dynamics, "_pade_strips", counted)
    return degrees


def _count_tri_mul(monkeypatch):
    """The calls of ``dynamics._tri_mul`` not made by ``_tri_mul`` itself,
    appended as they come (one per block triangular product)."""
    import rydeit.dynamics as dynamics
    calls, depth, real = [], [0], dynamics._tri_mul

    def counted(l, m):
        if depth[0] == 0:
            calls.append(len(l))
        depth[0] += 1
        try:
            real(l, m)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(dynamics, "_tri_mul", counted)
    return calls


@pytest.mark.parametrize("leaf", [None, 7, 20])
@pytest.mark.parametrize("tau_norm", list(PADE_PLAN))
@pytest.mark.parametrize("mode, doubles, omega", [
    (mode, doubles, omega) for mode in BLOCKADE_MODES for doubles in (False, True)
    for omega in (0.0, 0.25, 0.5)] + [("dense", None, None)])
def test_expm_matches_scipy(monkeypatch, mode, doubles, omega, tau_norm, leaf):
    # the cascade-triangular exponential against scipy's dense one on the
    # stacked generators (omega = 0.25 makes each singles 2 x 2 block
    # defective, and at omega = 0.5 its eigenvalues are complex) and on a
    # dense random matrix, one strongly connected block; leaf = 7 (one,
    # four and five levels) and 20 (two and three) take these small
    # matrices through the tile trees and Padé strips of one or two
    # columns.  The fully blockaded and interaction-free
    # generators are real and so is their exponential; the power-law one
    # is complex.  The norm is that of the permuted transpose expm works
    # on, the largest row sum of |a|, one in each band of the Padé degree;
    # the Padé sums give the degree, and the count of block triangular
    # products the squarings it took
    import rydeit.dynamics as dynamics
    if leaf is not None:
        monkeypatch.setattr(dynamics, "TRI_LEAF", leaf)
    if mode == "dense":
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        assert len(_cascade_order(a)[1]) == 2
    else:
        a = augmented(_random_chain_generator(mode, omega), 1.0, omega, doubles)
    a = a * (tau_norm / np.max(np.abs(a).sum(axis=1)))
    ref = _scipy_expm(a)
    degrees, products = _count_pade(monkeypatch), _count_tri_mul(monkeypatch)
    prop = expm(a)
    m, s = PADE_PLAN[tau_norm]
    assert degrees == [m] and len(products) == s
    # below its diagonal, T is nonzero only inside the cascade blocks
    perm, bounds = _cascade_order(a)
    assert np.array_equal(prop.perm, perm) and np.array_equal(prop.bounds, bounds)
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    d = slice(0, a.shape[0])
    rows, cols = np.nonzero(np.tril(prop.tiles.get(d, d), -1))
    assert np.all(block[rows] == block[cols])
    assert (mode in ("full", "none")) == np.isrealobj(a)
    got = prop.dense()
    assert got.shape == a.shape and got.dtype == np.result_type(a, float)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    if omega == 0.0:
        # every block is one slot, so the diagonal is exp(a_ii) to the bit
        assert len(_cascade_order(a)[1]) == a.shape[0] + 1
        assert np.array_equal(np.diag(got), np.exp(np.diag(a)))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("device", ["power_law", "detuned", "real"])
def test_pade_strips_match_dense_sums(monkeypatch, device, m):
    # the Padé numerator and denominator, V + U and V - U, summed a strip of
    # columns at a time from sparse powers of u, against the same sums of
    # dense powers, and the exponential at that degree against scipy's.  At
    # TRI_LEAF = 28 the 46-57 slot stacked generators of 5 atoms (power-law
    # pair shifts, complex; detuned, complex; resonant and fully
    # blockaded, real) span several leaves and take strips of 3-4 columns,
    # several of which end inside a cascade block and keep rows down to
    # that block's end
    import rydeit.dynamics as dynamics
    monkeypatch.setattr(dynamics, "TRI_LEAF", 28)
    gen = {"power_law": lambda: _power_law_generator(n_atoms=5),
           "detuned": lambda: make_generator(n_atoms=5, delta_e=0.3, delta_2=-0.2),
           "real": lambda: make_generator(n_atoms=5)}[device]()
    a = augmented(gen, 1.0, 0.5)
    a = a * (0.9 * dynamics.PADE_THETA[m] / np.max(np.abs(a).sum(axis=1)))
    d = len(a)
    assert 40 <= d <= 60 and np.iscomplexobj(a) == (device != "real")
    perm, bounds = _cascade_order(a)
    w = 28 ** 2 // (4 * d)
    assert w in (3, 4)
    assert any(c1 not in bounds for c1 in range(w, d, w))
    u = a[np.ix_(perm, perm)].T
    b = dynamics.PADE[m]
    powers = [np.eye(d)]
    for _ in range(1, len(b) // 2):
        powers.append(powers[-1] @ u @ u)
    odd = u @ sum(c * q for c, q in zip(b[1::2], powers))
    even = sum(c * q for c, q in zip(b[0::2], powers))
    x, v = dynamics._pade_strips(b, sp.csr_matrix(u), bounds)
    assert len(list(x.leaves())) > 1
    full = slice(0, d)
    for got, ref in ((x, even + odd), (v, even - odd)):
        assert np.max(np.abs(got.get(full, full) - ref)) <= 1e-15 * np.max(np.abs(ref))
    degrees = _count_pade(monkeypatch)
    ref = _scipy_expm(a)
    assert np.max(np.abs(expm(a).dense() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert degrees == [m]


@pytest.mark.parametrize("shape", [PulseShape.SQUARE, PulseShape.TRIANGULAR_POS,
                                   PulseShape.GAUSSIAN])
@pytest.mark.parametrize("power_law", [False, True])
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_one_dtype_end_to_end(monkeypatch, power_law, shape):
    # a fully blockaded resonant generator is real, and so are its
    # exponentials, evolve's record, the free decay steps and the
    # correlation grid's matrix: a complex buffer anywhere would upcast the
    # real propagator on every matvec (or drop an imaginary part on its way
    # into a real one).  The power-law device stays complex
    import rydeit.dynamics as dynamics
    import rydeit.observables as observables
    kw = dict(n_atoms=5, shape=shape, duration=6.0, rise_time=1.0)
    gen = _power_law_generator(**kw) if power_law else make_generator(**kw)
    want = np.complex128 if power_law else np.float64
    assert gen.dtype == want
    real_expm, props = dynamics.expm, []
    monkeypatch.setattr(dynamics, "expm",
                        lambda a, *levels: props.append(real_expm(a, *levels)) or props[-1])
    traj = evolve(gen, (0.0, 10.0), dt_out=0.1)
    assert props and all(p.dtype == want for p in props)
    assert traj.projections.dtype == want
    # the grid's Toeplitz factors, rows out_e P^k and carried columns
    real_fill, factors = observables._fill_run, []
    monkeypatch.setattr(observables, "_fill_run",
                        lambda g2, f1, rows, cols, s: factors.append((rows.dtype, cols.dtype))
                        or real_fill(g2, f1, rows, cols, s))
    assert observables.correlation_grid(traj, gen).g2_matrix.dtype == np.float64
    assert factors and all(f == (want, want) for f in factors)
    n1 = gen.index.dim_singles
    ss = steady_state(gen, omega_c=0.5)
    assert ss.dtype == want
    for doubles, y, row in ((False, ss[1:1 + n1], gen.out_e), (True, ss[1 + n1:], gen.a2vec)):
        proj, end = decay(SinglesPropagator(gen, _block(doubles)), 0.5, 0.1, y, 50, row[None])
        assert proj.dtype == want and end.dtype == want


@pytest.mark.parametrize("doubles", [False, True])
@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_expm_of_csr_matches_dense_to_the_bit(mode, doubles):
    # a CSR argument becomes dense only as the permuted transpose, with the
    # same entries in the same layout as a dense one's: the same cascade
    # order and the same triangular exponential, bit for bit, each stored
    # array in Fortran order
    gen = _random_chain_generator(mode, 0.5)
    a = gen.operator(0.5, 1.0) * 0.37
    if not doubles:
        # the leading [ground; singles] block
        d = 1 + gen.index.dim_singles
        a = _csr(a[:d, :d])
    dense, sparse = expm(a.toarray()), expm(a)
    assert np.array_equal(sparse.perm, dense.perm)
    assert np.array_equal(sparse.tiles.buf, dense.tiles.buf)
    assert all(t.flags.f_contiguous for *_, t in sparse.tiles.arrays())


def _peak_bytes(monkeypatch, call):
    """The memory peak of ``call()``: the traced bytes (tracemalloc) plus
    those of the anonymous maps that hold the tile buffers
    (``_Tiles.zeros``), which tracemalloc does not see.  The traced peak is
    read and reset whenever a map comes or goes."""
    import mmap
    import tracemalloc
    import types
    import weakref
    import rydeit.dynamics as dynamics
    live = [0, 0]                       # bytes mapped now, the peak so far

    def mark(change):
        live[1] = max(live[1], live[0] + tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        live[0] += change

    def mapped(fileno, length):
        m = mmap.mmap(fileno, length)
        mark(length)
        weakref.finalize(m, mark, -length)
        return m

    monkeypatch.setattr(dynamics, "mmap", types.SimpleNamespace(mmap=mapped), raising=False)
    tracemalloc.start()
    try:
        call()
        mark(0)
    finally:
        tracemalloc.stop()
    return live[1]


@pytest.mark.parametrize("tau_norm", [0.5, 17.0])
def test_expm_peak_memory(monkeypatch, tau_norm):
    # one exponential of a 530-slot power-law generator, at Padé degree 7
    # and at degree 13 with squarings, holds two tile trees of 0.625 d^2
    # entries each at once, plus Padé strips and product temporaries of at
    # most TRI_LEAF^2 entries (0.23 d^2 here): 1.68 d x d arrays measured,
    # bound with 0.22 to spare
    gen = _power_law_generator(n_atoms=16)
    a = gen.operator(0.5, 1.0)
    a = a * (tau_norm / abs(a).sum(axis=1).max())
    d = a.shape[0]
    assert d == 530 and a.dtype == np.complex128
    assert _peak_bytes(monkeypatch, lambda: expm(a)) < 1.9 * d * d * a.dtype.itemsize


def test_power_peak_memory(monkeypatch):
    # P^4 of a stacked propagator, P held read-only: P^2, P times a copy of
    # P, and the squaring's second buffer are tile trees of 0.625 d^2
    # entries, plus product temporaries of at most TRI_LEAF^2 entries
    # (0.23 d^2 here): 1.44 d^2 measured, bound with 0.16 to spare
    gen = _power_law_generator(n_atoms=16)
    p = _stacked(gen).step(0.5, 0.2)
    d, itemsize = len(p.perm), p.dtype.itemsize
    assert d == 530 and p.levels
    assert _peak_bytes(monkeypatch, lambda: p.power(4)) < 1.6 * d * d * itemsize
    assert 4 in p.powers


@pytest.mark.parametrize("leaf", [3, 7, 20, 256])
@pytest.mark.parametrize("sizes", [[1] * 30, [2, 1, 4, 3, 1, 2, 4, 4, 1, 3, 2, 2], [40],
                                   [9, 1, 30]])
def test_tiles_round_trip(monkeypatch, leaf, sizes):
    # a block upper triangular matrix put into its tile tree and read back
    # whole, in pieces, by its stored arrays and by entry places: the stored
    # entries round-trip, the lower-left rectangles are not stored (and read
    # back as 0), and the tree stores fewer entries than the square once it
    # splits
    import rydeit.dynamics as dynamics
    monkeypatch.setattr(dynamics, "TRI_LEAF", leaf)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    d = int(bounds[-1])
    block = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(leaf)
    full = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    full[block[:, None] > block[None, :]] = 0.0
    x = dynamics._Tiles.zeros(bounds, complex)
    assert len(x.buf) == dynamics._Tiles.size(bounds) <= d * d
    assert (len(x.buf) < d * d) == (x.full is None)
    edges = [t.start for t in x.leaves()] + [d]
    assert set(edges) <= set(bounds) and edges[0] == 0
    all_ = slice(0, d)
    x.put(all_, all_, full)
    stored = np.zeros((d, d), bool)
    for t, q in x.pieces(all_, all_):
        stored[q] = True
        assert np.shares_memory(t, x.buf)
    assert stored.sum() == len(x.buf)
    assert np.all(stored[block[:, None] <= block[None, :]])
    back = x.get(all_, all_)
    assert back.flags.f_contiguous and np.array_equal(back, full)
    r, c = np.nonzero(stored)
    assert np.array_equal(x.buf[x.positions(r, c)], full[r, c])
    assert np.array_equal(np.sort(x.positions(r, c)), np.arange(len(x.buf)))
    assert np.array_equal(x.buf[x.diag], np.diag(full))
    # a block straddling leaves, and the stored arrays, which tile buf
    rows, cols = slice(d // 3, d // 2 + 1), slice(d // 4, d)
    assert np.array_equal(x.get(rows, cols), full[rows, cols])
    arrays = list(x.arrays())
    assert sum(t.size for *_, t in arrays) == len(x.buf)
    for r, c, t in arrays:
        assert np.shares_memory(t, x.buf)
        assert np.array_equal(t, full[r:r + t.shape[0], c:c + t.shape[1]])


@pytest.mark.parametrize("leaf", [5, 7, 256])
def test_power_with_levels_inside_tiles(monkeypatch, leaf):
    # a stacked propagator whose level starts (the singles and the doubles)
    # fall inside tiles, not at their edges: the views its stored arrays are
    # cut into at the levels hold each stored entry of T on or above the
    # level diagonal once, with k the levels between row and column, and
    # below it T is 0; P^4 is the matrix power
    import rydeit.dynamics as dynamics
    monkeypatch.setattr(dynamics, "TRI_LEAF", leaf)
    gen = _power_law_generator(n_atoms=4)
    p = _stacked(gen).step(0.5, 0.3)
    edges = {t.start for t in p.tiles.leaves()}
    assert (leaf == 256) == (len(edges) == 1)
    if leaf < 256:
        assert not set(p.levels) <= edges
    d = len(p.perm)
    full = p.tiles.get(slice(0, d), slice(0, d))
    level = np.searchsorted(p.levels, np.arange(d), side="right")
    seen = np.zeros((d, d), int)
    for r, c, k, t in p.views:
        assert np.array_equal(full[r, c], t) and np.shares_memory(t, p.tiles.buf)
        assert np.all(level[c] - level[r][:, None] == k)
        seen[r, c] += 1
    stored = np.zeros((d, d), bool)
    for r, c, t in p.tiles.arrays():
        stored[r:r + t.shape[0], c:c + t.shape[1]] = True
    above = level[None, :] >= level[:, None]
    assert np.array_equal(seen, stored & above) and np.all(full[~above] == 0.0)
    ref = np.linalg.matrix_power(p.dense(), 4)
    assert np.max(np.abs(p.power(4).dense() - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("leaf", [3, 7, 256])
@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_expm_one_slot_diagonal_is_exact(monkeypatch, mode, omega, leaf):
    # after 4 squarings every one-slot block's diagonal entry is exp(a_ii)
    # to the bit, written through the tiles' entry places, beside the
    # larger blocks (at omega = 0.5) wherever the leaves cut
    import rydeit.dynamics as dynamics
    monkeypatch.setattr(dynamics, "TRI_LEAF", leaf)
    a = augmented(_random_chain_generator(mode, omega), 1.0, omega, True)
    a = a * (50.0 / np.max(np.abs(a).sum(axis=1)))
    prop = expm(a)
    one = np.flatnonzero(np.diff(prop.bounds) == 1)
    slots = prop.bounds[one]
    assert len(slots) > 0 and (omega == 0.0) == (len(one) == len(prop.bounds) - 1)
    rates = a[prop.perm[slots], prop.perm[slots]]
    assert np.array_equal(prop.tiles.buf[prop.tiles.diag[slots]], np.exp(rates))


def _checked_cascade_order(a, largest):
    """``_cascade_order(a)``, checked to make ``a`` block lower triangular
    with blocks of at most ``largest`` slots."""
    perm, bounds = _cascade_order(a)
    assert np.array_equal(np.sort(perm), np.arange(a.shape[0]))
    assert bounds[0] == 0 and bounds[-1] == a.shape[0]
    assert np.max(np.diff(bounds)) <= largest
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    rows, cols = a[perm][:, perm].nonzero()
    assert np.all(block[cols] <= block[rows])
    return perm, bounds


def _cascade_layouts(gen, omega):
    """(generator block, its largest cascade block): the singles, the
    doubles and the stacked layout."""
    return ((_m1(gen, omega), 2), (gen.operator(omega, slots=gen.index.doubles), 4),
            (augmented(gen, 1.0, omega, True), 4))


@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_cascade_order_is_block_lower_triangular(mode):
    # in cascade order every generator block is block lower triangular, with
    # (e_h, r_h) blocks for the singles and at most ee, er, re and rr of one
    # pair for the doubles; the order is a pure function of the pattern
    gen = _random_chain_generator(mode, 0.5, n_atoms=8)
    for a, largest in _cascade_layouts(gen, 0.5):
        perm, bounds = _checked_cascade_order(a, largest)
        again = _cascade_order(a)
        assert np.array_equal(again[0], perm) and np.array_equal(again[1], bounds)
    # on the stacked layout the ground, singles and doubles stay contiguous
    n1 = gen.index.dim_singles
    perm, _ = _cascade_order(augmented(gen, 1.0, 0.5, True))
    assert np.all(np.diff(np.searchsorted([1, 1 + n1], perm, side="right")) >= 0)


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_cascade_order_of_a_relabelled_layout(mode, omega):
    # the order is scipy's component labels, whatever the slot numbering: on
    # random symmetric permutations of each layout, where the slot order no
    # longer follows the cascade, it is still block lower triangular, with
    # the blocks of the natural layout
    gen = _random_chain_generator(mode, omega)
    rng = np.random.default_rng(5)
    for a, largest in _cascade_layouts(gen, omega):
        perm, bounds = _checked_cascade_order(a, largest)
        blocks = sorted(sorted(perm[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        for _ in range(10):
            q = rng.permutation(a.shape[0])
            perm, bounds = _checked_cascade_order(a[q][:, q], largest)
            assert sorted(sorted(q[perm[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])) == blocks


def test_cascade_order_refuses_labels_out_of_cascade_order(monkeypatch):
    # a labelling that puts a block before one it reads (here scipy's
    # reversed) fails the run instead of giving a wrong exponential
    import rydeit.dynamics as dynamics
    real = dynamics.connected_components

    def reversed_labels(*args, **kwargs):
        n, label = real(*args, **kwargs)
        return n, n - 1 - label

    monkeypatch.setattr(dynamics, "connected_components", reversed_labels)
    a = augmented(_random_chain_generator("full", 0.5), 1.0, 0.5, True)
    for call in (_cascade_order, expm):
        with pytest.raises(DynamicsError, match="cascade order"):
            call(a)


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_steady_state_natural_order_matches_colamd(mode, omega):
    # the doubles steady state solved in cascade order against the COLAMD
    # solve of the unpermuted system; omega = 0 (no rr damping or detuning)
    # solves only the ee/er sector and pins rr to zero
    import scipy.sparse.linalg as spla
    gen = _random_chain_generator(mode, omega, n_atoms=10)
    idx = gen.index
    ss, n1 = steady_state(gen, omega_c=omega), idx.dim_singles
    rhs = -(gen.stacked[2][1 + n1:, 1:1 + n1] @ ss[1:1 + n1])
    n_keep = idx.n_ee + idx.n_er if omega == 0.0 else idx.dim_doubles
    ref = np.zeros(idx.dim_doubles, dtype=complex)
    m2 = gen.operator(omega, slots=idx.doubles)
    ref[:n_keep] = spla.spsolve(m2[:n_keep, :n_keep].tocsc(), rhs[:n_keep],
                                permc_spec="COLAMD")
    assert np.max(np.abs(ss[1 + n1:] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("mode", BLOCKADE_MODES)
def test_steady_state_is_a_null_vector_of_the_driven_rows(mode, omega):
    # y = [1; psi1; psi2] solves rows 1: of (S + omega W + F) y = 0; at
    # omega = 0 (gamma_r = delta_2 = 0) the undriven r and rr rows are
    # pinned to zero and still solve theirs
    gen = _random_chain_generator(mode, omega, n_atoms=8)
    assert gen.params.gamma_r == gen.params.delta_2 == 0.0
    s, w, f = gen.stacked
    a = s + omega * w + f
    y = steady_state(gen, omega_c=omega)
    assert y.shape == (1 + gen.index.dim,) and y[0] == 1.0
    residual = (a @ y)[1:]
    scale = (abs(a) @ np.abs(y))[1:]
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(scale)


def _stacked_y(gen, doubles, rng, cols=None):
    """A random stacked vector, or ``cols`` columns; without ``doubles``
    the doubles slots are zero."""
    d = 1 + gen.index.dim
    shape = (d,) if cols is None else (d, cols)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if not doubles:
        y[1 + gen.index.dim_singles:] = 0.0
    return y


def _pair_source(gen, s1):
    """S21 by the pair rule: doubles slot k of modes (a, b) is sourced by
    s1_a psi1_b + s1_b psi1_a, over sqrt(2) when a = b."""
    a, b = gen.index.mode_pairs()
    k = np.arange(len(a))
    weight = np.where(a == b, 1.0 / math.sqrt(2.0), 1.0)
    s21 = np.zeros((len(a), gen.index.dim_singles), dtype=complex)
    np.add.at(s21, (k, b), weight * s1[a])
    np.add.at(s21, (k, a), weight * s1[b])
    return s21


def _blocks(gen):
    """The blocks of the stacked parts: the singles from ``singles_blocks``,
    the doubles blocks of S and W, and S21 by ``_pair_source``."""
    m1s, m1o, s1, _ = singles_blocks(gen.params, gen.chain)
    k = slice(1 + gen.index.dim_singles, None)
    s, w, _ = gen.stacked
    return m1s, m1o, s1, s[k, k], w[k, k], _pair_source(gen, s1)


@pytest.mark.parametrize("doubles", [False, True])
def test_augmented_is_the_sum_of_the_stacked_parts(doubles):
    # the whole layout, or without ``doubles`` its leading [ground; singles]
    # block, which ``augmented`` cuts out: nothing outside it feeds it
    gen = _power_law_generator(omega_c=0.5, gamma_r=0.02, delta_e=0.1)
    s, w, f = gen.stacked
    n1 = gen.index.dim_singles
    assert s.format == w.format == f.format == "csr"
    assert s.shape == (1 + gen.index.dim,) * 2
    for env, om in ((1.0, 0.5), (1.7, 0.05), (0.0, 0.25)):
        # the folded CSR that every route reads
        dense = s.toarray() + om * w.toarray() + env * f.toarray()
        assert np.array_equal(gen.operator(om, env).toarray(), dense)
    # the blocks land where the [ground; singles; doubles] layout puts them
    m1s, m1o, s1, _, _, s21 = _blocks(gen)
    full = s.toarray() + 0.5 * w.toarray() + 0.3 * f.toarray()
    a = augmented(gen, 0.3, 0.5, doubles)
    assert np.array_equal(a, full[:len(a), :len(a)])
    assert np.all(a[0] == 0)
    np.testing.assert_array_equal(a[1:1 + n1, 0], 0.3 * s1)
    np.testing.assert_array_equal(a[1:1 + n1, 1:1 + n1], m1s + 0.5 * m1o)
    np.testing.assert_array_equal(full[:1 + n1, 1 + n1:], 0)
    if doubles:
        np.testing.assert_array_equal(a[1 + n1:, 0], 0)
        np.testing.assert_allclose(a[1 + n1:, 1:1 + n1], 0.3 * s21, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(a[1 + n1:, 1 + n1:],
                                      gen.operator(0.5, slots=gen.index.doubles).toarray())
    else:
        assert a.shape == (1 + n1, 1 + n1)


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.3])
def test_m1_m2_are_the_blocks_of_the_stacked_parts(omega):
    # Generator.operator over the singles slots (M1) and the doubles slots
    # (M2) is the block of S + omega W, at any drive level e: F is 0 there;
    # over the whole layout it is S + omega W + e F
    gen = _power_law_generator(omega_c=0.5, gamma_r=0.02, delta_e=0.1)
    s, w, f = gen.stacked
    a = s.toarray() + omega * w.toarray()
    n1 = gen.index.dim_singles
    for e in (0.0, 0.37):
        m1, m2 = (gen.operator(omega, e, k) for k in (gen.index.singles, gen.index.doubles))
        assert sp.issparse(m1) and sp.issparse(m2)
        np.testing.assert_array_equal(m1.toarray(), a[1:1 + n1, 1:1 + n1])
        np.testing.assert_array_equal(m2.toarray(), a[1 + n1:, 1 + n1:])
        np.testing.assert_array_equal(gen.operator(omega, e).toarray(), a + e * f.toarray())


def _block_deriv(blocks, yy, drive, om):
    """The derivative block by block (``_blocks``), on slices of the
    stacked vector or columns."""
    m1s, m1o, s1, m2s, m2o, s21 = blocks
    n1 = len(s1)
    s1 = s1 if yy.ndim == 1 else s1[:, None]
    y1 = yy[1:1 + n1]
    d = np.empty_like(yy)
    d[0] = 0.0
    d[1:1 + n1] = m1s @ y1 + om * (m1o @ y1) + drive * (s1 * yy[0:1])
    y2 = yy[1 + n1:]
    d[1 + n1:] = m2s @ y2 + om * (m2o @ y2) + drive * (s21 @ y1)
    return d


@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("doubles", [False, True])
def test_stacked_derivative_matches_block_derivative(doubles, cols):
    # a random state, or one without doubles, which they gain only from the
    # drive
    gen = _power_law_generator(omega_c=0.5, gamma_r=0.02)
    s, w, f = gen.stacked
    blocks = _blocks(gen)
    rng = np.random.default_rng(3)
    for drive, om in ((0.0, 0.5), (0.37, 0.5), (1.7, 0.05)):
        y = _stacked_y(gen, doubles, rng, cols)
        ref = _block_deriv(blocks, y, drive, om)
        scale = np.max(np.abs(ref))
        got = s @ y + om * (w @ y) + drive * (f @ y)
        folded = (s + om * w + drive * f).tocsr() @ y
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale
        assert np.max(np.abs(folded - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 19.0)])   # rise edge, plateau
def test_rk4_matches_block_derivative_loop(a, b):
    # the RK4 oracle (the three stacked parts on the varying edge and on the
    # plateau alike) against the RK4 loop on the block derivative
    gen = make_generator(n_atoms=4, duration=20.0, rise_time=1.0)
    rng = np.random.default_rng(4)
    y0 = _stacked_y(gen, True, rng)
    dt, n_out = 0.01, 5
    got, end = rk4_segment(gen, y0, a, b, n_out, dt, np.eye(len(y0)))
    h_out = (b - a) / n_out
    n_sub = math.ceil(h_out / dt - 1e-9)
    h = h_out / n_sub
    t_hi = b - 1e-12 * max(1.0, b - a)
    blocks = _blocks(gen)

    def deriv(t, yy):
        t = min(t, t_hi)
        return _block_deriv(blocks, yy, gen.envelope.unit_shape(t), gen.schedule.value(t))

    ref = np.empty_like(got)
    y = y0
    for k in range(n_out):
        for i in range(n_sub):
            t = a + k * h_out + i * h
            k1 = deriv(t, y)
            k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = deriv(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ref[k] = y
    assert np.array_equal(end, got[-1])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("method", ["auto", "rk4"])
def test_projections_only_evolve_matches_states(method):
    # square pulse with rise edges and a tail, doubles on: exponential
    # plateau and tail, clocked Taylor actions on the edges (evolve, "auto"),
    # or the RK4 oracle throughout ("rk4"); the output-covector run records
    # C y where the state-row run records y
    gen = _power_law_generator(duration=20.0, rise_time=1.0)
    c = gen.output_covectors()

    def run(project):
        if method == "auto":
            return evolve(gen, (0.0, 30.0), dt_out=0.25, project=project)
        return rk4_evolve(gen, (0.0, 30.0), 0.25, dt=0.01, project=project)

    full, proj = run(state_rows(gen)), run(c)
    np.testing.assert_array_equal(proj.times, full.times)
    ones = np.ones((full.n_samples, 1))
    ref = np.hstack([ones, full.projections]) @ c.T
    assert np.max(np.abs(proj.projections - ref)) <= 1e-13 * np.max(np.abs(ref))
    intensity = np.abs(full.envelope_unit + ref[:, 0]) ** 2
    np.testing.assert_allclose(trace_from_trajectory(proj, gen).intensity, intensity, rtol=0,
                               atol=1e-13 * np.max(intensity))


@pytest.mark.parametrize("n_out, m", [(1, 1), (2, 1), (33, 1), (64, 2), (65, 2),
                                      (255, 8), (256, 8), (511, 8), (512, 8),
                                      (513, 8), (2500, 32)])
def test_projected_segment_matches_state_loop(monkeypatch, n_out, m):
    # one exponential stretch: the projections and the end state from baby
    # and giant steps against the step loop; n_out on both sides of
    # multiples of the chosen giant step m, so the end state takes 0 to
    # m - 1 plain matvecs after the last column
    gen = _power_law_generator(n_atoms=8, duration=100.0)
    assert _giant_step(1 + gen.index.dim, n_out, 3) == m
    rng = np.random.default_rng(6)
    y0 = _stacked_y(gen, True, rng)
    c = np.vstack([gen.output_covectors(), rng.normal(size=len(y0))])

    def segment(project):
        return evolve(gen, (2.0, 42.0), 40.0 / n_out, initial=y0,
                      project=project).projections[1:]

    states = segment(np.eye(len(y0)))
    end_ref = states[-1]
    ends = _spy_ends(monkeypatch, "_dense_powers")
    got = segment(c)
    end, = ends
    ref = states @ c.T
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the undamped r amplitudes carry the rounding of up to 2,500 steps,
    # taken in a different order by the two paths
    assert np.max(np.abs(end - end_ref)) <= 1e-12 * np.max(np.abs(end_ref))


def _dense_loop(prop, y, n_out, rows):
    """The reference: y <- P y with a dense P, projected after each step."""
    ref = np.empty((n_out, len(rows)), dtype=complex)
    for k in range(n_out):
        y = prop @ y
        ref[k] = rows @ y
    return ref, y


@pytest.mark.parametrize("n_out", [255, 256, 257])
@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("doubles", [False, True])
@pytest.mark.parametrize("level", [0.0, 0.37, 1.0])
def test_triangular_basis_matches_dense_step_loop(monkeypatch, level, doubles, grid, n_out):
    # an exponential stretch stepped in the triangular basis of expm, at a
    # drive level scaled from the unit-drive propagator, against scipy's
    # dense propagator at that level stepped in the natural basis; n_out on
    # both sides of a multiple of the chosen giant step m > 1.  The stretch
    # is short: the random rr amplitudes keep their norm and turn at pair
    # shifts up to v_max ~ 68, so any double-precision step loop, this one
    # or the reference, drifts by up to 3e-14 of the largest entry per unit
    # time in the end state (1.2e-12 over 40, 4.5e-14 over this stretch of 2).
    # Without ``doubles`` the state starts with none and is read on its
    # ground and singles, against the loop of their own block
    gen = _power_law_generator(duration=100.0)
    monkeypatch.setattr(PulseEnvelope, "affine_on", lambda self, a, b: (level, 0.0))
    dim = 1 + (gen.index.dim if doubles else gen.index.dim_singles)
    rows = gen.output_covectors(grid)
    rows[:, dim:] = 0.0
    m = _giant_step(1 + gen.index.dim, n_out, len(rows))
    assert m > 1 and 256 % m == 0
    rng = np.random.default_rng(9)
    y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    h = 2.0 / n_out
    ref, y_ref = _dense_loop(_scipy_expm(augmented(gen, level, 0.5, doubles) * h), y0,
                             n_out, rows[:, :dim])
    ends = _spy_ends(monkeypatch, "_dense_powers")
    got = evolve(gen, (2.0, 4.0), h, initial=padded(gen, y0), project=rows).projections[1:]
    end, = ends
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(end[:dim] - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
    assert np.array_equal(got[-1], rows @ end)


@pytest.mark.parametrize("n_out", [255, 256, 257])
@pytest.mark.parametrize("c", [1, 2, "singles"])
def test_free_decay_triangular_basis_matches_dense_step_loop(c, n_out):
    # the dense singles route of decay, stepped in the triangular
    # basis, against scipy's dense propagator: one covector, two rows, and
    # the out_e row over the singles rows a correlation grid reads
    gen = _power_law_generator(n_atoms=10, omega_c=0.5)
    n1 = gen.index.dim_singles
    y0 = steady_state(gen, omega_c=0.5)[1:1 + n1]
    rng = np.random.default_rng(13)
    other = rng.normal(size=n1) + 1j * rng.normal(size=n1)
    rows = {1: gen.out_e[None], 2: np.stack([gen.out_e, other]),
            "singles": np.vstack([gen.out_e, np.eye(n1)])}[c]
    m = _giant_step(n1, n_out, len(rows))
    assert m > 1 and 256 % m == 0
    ref, y_ref = _dense_loop(_scipy_expm(_m1(gen, 0.5) * (40.0 / n_out)), y0, n_out, rows)
    got, end = decay(SinglesPropagator(gen), 0.5, 40.0 / n_out, y0, n_out, rows)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(end - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
    assert np.array_equal(got[-1], rows @ end)


def test_evolve_deterministic_bit_for_bit():
    for shape in (PulseShape.SQUARE, PulseShape.GAUSSIAN):
        gen = make_generator(n_atoms=3, shape=shape)
        a, b = (evolve(gen, (0.0, 10.0), dt_out=0.5, project=state_rows(gen)).projections
                for _ in range(2))
        assert np.array_equal(a, b)


def test_nan_detection_raises():
    # a non-finite amplitude stops the run at the end of its segment
    gen = make_generator(n_atoms=3)
    y0 = vacuum(gen)
    y0[1 + 0] = np.nan
    with pytest.raises(DynamicsError), np.errstate(invalid="ignore"):
        evolve(gen, (0.0, 40.0), dt_out=4.0, initial=y0)


@pytest.mark.parametrize("extra", [-1, 1])
def test_evolve_refuses_an_initial_vector_of_the_wrong_length(extra):
    gen = make_generator(n_atoms=3)
    y0 = np.zeros(1 + gen.index.dim + extra, dtype=complex)
    with pytest.raises(ConfigurationError, match="length"):
        evolve(gen, (0.0, 4.0), dt_out=1.0, initial=y0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_dissipativity_drive_off(seed):
    gen = make_generator(n_atoms=3, omega_c=0.5, gamma_r=0.01)
    rng = np.random.default_rng(seed)
    y0 = np.concatenate([[0.0], rng.normal(size=gen.index.dim)
                         + 1j * rng.normal(size=gen.index.dim)])
    traj = evolve(gen, (40.0, 48.0), dt_out=0.5, initial=y0, project=state_rows(gen))
    norms = np.linalg.norm(traj.projections, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_observables_independent_of_atom_positions():
    # without a distance-dependent interaction, the cascaded chain's
    # observables depend only on the atom COUNT: the positions enter only
    # through the blockade
    from rydeit.model import build_chain as _bc, PulseEnvelope as _PE, \
        ControlSchedule as _CS, BlockadeConfig as _BC, PhysicalParams as _PP
    from rydeit.dynamics import assemble_generator as _ag
    p = _PP.from_ratio(0.2, omega_c_peak=0.5)
    env = _PE(duration=12.0)
    results = []
    for placement, seed in (("uniform", None), ("jittered", 3), ("jittered", 99)):
        chain = _bc(8, placement=placement, seed=seed)
        gen = _ag(p, chain, _BC.fully_blockaded(), _CS.constant(0.5), env)
        trace = trace_from_trajectory(evolve(gen, (0.0, 14.0), dt_out=1.0), gen)
        results.append((trace.intensity, trace.g2tilde))
    for intensity, g2t in results[1:]:
        np.testing.assert_allclose(intensity, results[0][0], atol=1e-12)
        np.testing.assert_allclose(g2t, results[0][1], atol=1e-12)


# ---------------------------------------------------------------------------
# field application and conditioned evolution

def test_turn_on_instant_is_coherent():
    gen = make_generator(n_atoms=6)
    trace = trace_from_trajectory(evolve(gen, (0.0, 5.0), dt_out=0.5), gen)
    assert trace.envelope_unit[0] == 1.0
    assert trace.g2[0] == pytest.approx(1.0, abs=1e-12)


def test_storage_population_decay_oracle():
    # stored r population decays as exp(-2 gamma_r t_store) while both fields
    # are off: pure amplitude damping of every r slot
    gamma_r = 0.02
    t_store = 30.0
    sched = ControlSchedule.storage(0.5, t_off=20.0, t_store=t_store)
    gen = make_generator(n_atoms=4, omega_c=0.5, gamma_r=gamma_r, duration=20.0,
                         schedule=sched)
    traj = evolve(gen, (0.0, 20.0 + t_store), dt_out=1.0, project=state_rows(gen))
    idx = gen.index
    i_off = int(np.argmin(np.abs(traj.times - 20.0)))
    r_slots = [idx.n_atoms + h for h in range(4)]
    pop_start = np.sum(np.abs(traj.projections[i_off, r_slots]) ** 2)
    pop_end = np.sum(np.abs(traj.projections[-1, r_slots]) ** 2)
    assert pop_end / pop_start == pytest.approx(math.exp(-2 * gamma_r * t_store), rel=1e-6)


def test_phase_matched_spin_wave_superradiant_rate():
    # the uniform e spin wave (phase matched to the probe, whose propagation
    # phase the cascaded chain gauges away) decays collectively; for this
    # cascaded chain the exact initial intensity decay is
    # Gamma + (N-1) Gamma_1D / 2, which is what the D/4 collective-rate
    # scaling approximates at this branching ratio
    n = 63
    gen = make_generator(n_atoms=n, omega_c=0.0, duration=1.0)
    idx = gen.index
    y0 = vacuum(gen)
    y0[1:1 + n] = 1.0 / math.sqrt(n)
    traj = evolve(gen, (5.0, 5.02), dt_out=0.01, initial=y0, project=state_rows(gen))
    norms = np.linalg.norm(traj.projections, axis=1) ** 2
    rate = -(math.log(norms[-1]) - math.log(norms[0])) / (traj.times[-1] - traj.times[0])
    g1d = gen.params.gamma_1d
    exact = 1.0 + (n - 1) * g1d / 2.0
    d = optical_depth(gen.chain, gen.params)
    assert rate == pytest.approx(exact, rel=0.05)
    assert rate == pytest.approx(1.0 + d / 4.0, rel=0.25)


def test_superradiant_retrieval_after_shutoff():
    # stored spin wave retrieved collectively: the short-time flash exceeds
    # the steady transmission at high depth and moderate control
    from rydeit.model import atoms_for_depth
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.2)
    n = atoms_for_depth(23.0, p)
    gen = make_generator(n_atoms=n, omega_c=0.2, duration=10.0)
    ss = steady_state(gen, omega_c=0.2)
    from scipy.linalg import expm as _expm
    m1 = _m1(gen, 0.2)
    prop = _expm(m1 * 0.02)
    y = ss[1:1 + gen.index.dim_singles]
    peak = 0.0
    for _ in range(250):  # first 5/Gamma after shutoff
        y = prop @ y
        peak = max(peak, abs(complex(gen.out_e @ y)) ** 2)
    assert peak > 1.0
