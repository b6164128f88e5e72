import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydeit.model import (BLOCKED, AtomChain, BlockadeConfig, BlockadeMode,
                          ConfigurationError, ControlSchedule, PhysicalParams,
                          PulseEnvelope, PulseShape, atoms_for_depth, build_chain,
                          interaction, optical_depth, rate_from_mhz,
                          single_atom_bandwidth, time_from_ns, ns_from_time)


# ---------------------------------------------------------------------------
# physical parameters

def test_gamma_decomposition_exact():
    p = PhysicalParams(gamma_1d=0.3, gamma_prime=0.7)
    assert p.gamma_total == 0.3 + 0.7


def test_from_ratio_default_branching():
    p = PhysicalParams.from_ratio(0.2)
    assert p.gamma_1d / p.gamma_prime == pytest.approx(0.2, rel=1e-14)
    assert p.gamma_total == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("field,value", [("gamma_1d", -0.1), ("gamma_prime", -1.0),
                                         ("gamma_r", -0.2), ("omega_c_peak", -0.5)])
def test_negative_rates_rejected(field, value):
    kwargs = {"gamma_1d": 0.2, "gamma_prime": 0.8, field: value}
    with pytest.raises(ConfigurationError):
        PhysicalParams(**kwargs)


def test_unit_conversions_round_trip():
    assert rate_from_mhz(6.0) == pytest.approx(1.0)
    assert time_from_ns(1000.0) == pytest.approx(2 * math.pi * 6.0, rel=1e-12)
    assert ns_from_time(time_from_ns(123.4)) == pytest.approx(123.4, rel=1e-12)


# ---------------------------------------------------------------------------
# chain geometry and optical depth

def test_single_atom_at_cell_midpoint():
    chain = build_chain(1)
    assert chain.positions == (0.5,)


def test_uniform_positions_strictly_increasing():
    chain = build_chain(10)
    z = chain.z()
    assert np.all(np.diff(z) > 0)
    assert z[0] == pytest.approx(0.05)


def test_jitter_is_seeded_and_bounded():
    a = build_chain(20, placement="jittered", seed=3)
    b = build_chain(20, placement="jittered", seed=3)
    c = build_chain(20, placement="jittered", seed=4)
    assert a.positions == b.positions
    assert a.positions != c.positions
    base = build_chain(20).z()
    assert np.all(np.abs(a.z() - base) <= 1.0 / (4 * 20) + 1e-12)


def test_invalid_chain_inputs():
    with pytest.raises(ConfigurationError):
        build_chain(0)
    with pytest.raises(ConfigurationError):
        build_chain(3, placement="lattice")
    with pytest.raises(ConfigurationError):
        AtomChain(positions=(0.2, 0.1))
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        AtomChain(positions=(0.5, 1.5))


def test_optical_depth_values(params):
    # D = 2 N ln(1.2) at the fixed branching ratio
    assert optical_depth(build_chain(10), params) == pytest.approx(
        20 * math.log(1.2), rel=1e-12)  # ~3.646, the D ~ 3.6 setting
    assert optical_depth(build_chain(25), params) == pytest.approx(
        9.116077839, rel=1e-9)
    assert optical_depth(build_chain(5), params) == pytest.approx(
        1.823215568, rel=1e-9)
    assert optical_depth(build_chain(28), params) == pytest.approx(
        10.21000718, rel=1e-9)


def test_optical_depth_zero_atoms():
    from rydeit.model import optical_depth_for
    assert optical_depth_for(0, PhysicalParams.from_ratio(0.2)) == 0.0


def test_atoms_for_depth_one_atom_granularity(params):
    for target in (1.8, 3.6, 9.1, 10.0, 27.3):
        n = atoms_for_depth(target, params)
        d = optical_depth(build_chain(n), params)
        assert abs(d - target) <= 2 * math.log(1.2) * (0.5 + 1e-12)


# ---------------------------------------------------------------------------
# blockade and interaction

def test_interaction_at_blockade_radius_is_v0():
    b = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.1, v0=2.5)
    assert interaction(b, 0.1) == pytest.approx(2.5, rel=1e-12)


def test_fully_blockaded_always_blocked():
    b = BlockadeConfig.fully_blockaded()
    for r in (1e-6, 0.3, 100.0):
        assert interaction(b, r) == BLOCKED


def test_zero_separation_blocked_in_power_law():
    b = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.1, v0=1.0)
    assert interaction(b, 0.0) == BLOCKED


def test_cap_promotes_to_blockade():
    b = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.1, v0=1.0, v_cap=10.0)
    assert interaction(b, 0.01) == BLOCKED
    assert interaction(b, 0.2) < 10.0


def test_single_atom_bandwidth_value(params):
    # V0 = 2 Omega^2 / sqrt(Gamma_1D (2 Gamma' + Gamma_1D)) at Omega = Gamma/2
    expected = 0.5 / math.sqrt((1 / 6) * (11 / 6))
    assert single_atom_bandwidth(replace(params, omega_c_peak=0.5)) == pytest.approx(
        expected, rel=1e-12)
    assert expected == pytest.approx(0.904534034, rel=1e-9)


def test_db_relation(params, chain10):
    b = BlockadeConfig.power_law_from_db(0.9, chain10, params)
    d_b = optical_depth(chain10, params) * b.r_b
    assert d_b == pytest.approx(0.9, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(r1=st.floats(0.01, 10.0), r2=st.floats(0.01, 10.0))
def test_interaction_monotone_decreasing(r1, r2):
    b = BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.5, v0=1.0, v_cap=1e12)
    lo, hi = min(r1, r2), max(r1, r2)
    assert interaction(b, lo) >= interaction(b, hi)


# ---------------------------------------------------------------------------
# pulse envelopes

def test_square_zero_before_turn_on():
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=10.0)
    assert env.unit_shape(-0.1) == 0.0


def _closed_form_norm(env: PulseEnvelope) -> float:
    """The integral of unit_shape^2 over all time, in closed form per shape."""
    if env.shape is PulseShape.SQUARE:
        return env.duration - 4.0 * env.rise_time / 3.0
    if env.shape in (PulseShape.TRIANGULAR_NEG, PulseShape.TRIANGULAR_POS):
        return env.duration / 3.0
    a = 8.0 * math.log(2.0) / env.gaussian_fwhm ** 2  # unit_shape^2 = exp(-a x^2)
    return math.sqrt(math.pi / a) * math.erf(math.sqrt(a) * 0.5 * env.duration)


def _peak_field(env: PulseEnvelope, n_in: float) -> float:
    """Peak field amplitude, sqrt(photons/time), with int |E_p|^2 dt = n_in."""
    return math.sqrt(n_in / _closed_form_norm(env))


def test_square_mid_pulse_physical_amplitude():
    one_us = time_from_ns(1000.0)
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=one_us)
    assert _peak_field(env, 1.5) * env.unit_shape(0.5 * one_us) == pytest.approx(
        math.sqrt(1.5 / one_us), rel=1e-12)


def test_triangular_edges():
    neg = PulseEnvelope(shape=PulseShape.TRIANGULAR_NEG, duration=8.0)
    assert neg.unit_shape(0.0) == 1.0
    assert neg.unit_shape(8.0) == 0.0  # closes at zero
    pos = PulseEnvelope(shape=PulseShape.TRIANGULAR_POS, duration=8.0)
    assert pos.unit_shape(0.0) == 0.0
    assert pos.unit_shape(8.0) == 0.0  # right-continuous at the drop
    assert pos.unit_shape(7.9999) == pytest.approx(1.0, abs=1e-4)


def test_square_edges_right_continuous():
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=5.0)
    assert env.unit_shape(0.0) == 1.0    # post-jump value at turn-on
    assert env.unit_shape(5.0) == 0.0    # post-jump value at shutoff


def _numeric_norm(env: PulseEnvelope, n_in: float, pts_per_segment: int = 30001) -> float:
    """Independent quadrature of int |E_p|^2 dt: dense trapezoid on each
    smooth piece between breakpoints (the envelope is only piecewise
    continuous, so a grid crossing a jump cannot converge)."""
    total = 0.0
    brk = env.breakpoints()
    for a, b in zip(brk, brk[1:]):
        ts = np.linspace(a, b, pts_per_segment)
        vals = np.array([env.unit_shape(float(t)) for t in ts])
        vals[-1] = env.unit_shape(b - 1e-12 * (b - a))  # inside limit at the edge
        total += np.trapezoid((_peak_field(env, n_in) * vals) ** 2, ts)
    return float(total)


@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from(list(PulseShape)),
       duration=st.floats(5.0, 80.0),
       n_in=st.floats(0.2, 4.0),
       rise_frac=st.floats(0.0, 0.4))
def test_envelope_normalization_numerical(shape, duration, n_in, rise_frac):
    rise = rise_frac * duration / 2 if shape is PulseShape.SQUARE else 0.0
    env = PulseEnvelope(shape=shape, duration=duration, rise_time=rise)
    assert _numeric_norm(env, n_in) == pytest.approx(n_in, rel=1e-6)


def test_envelope_normalization_all_shapes_fixed():
    for shape in PulseShape:
        env = PulseEnvelope(shape=shape, duration=37.699,
                            rise_time=0.4 if shape is PulseShape.SQUARE else 0.0)
        assert _numeric_norm(env, 1.5) == pytest.approx(1.5, rel=1e-6)


def test_envelope_breakpoints():
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=10.0, rise_time=1.0)
    assert env.breakpoints() == (0.0, 1.0, 9.0, 10.0)


# ---------------------------------------------------------------------------
# control schedule

def test_constant_schedule_everywhere():
    s = ControlSchedule.constant(0.4)
    for t in (-5.0, 0.0, 0.5, 100.0):
        assert s.value(t) == 0.4


def test_storage_schedule_off_interval():
    t_off = time_from_ns(900.0)
    t_store = time_from_ns(500.0)
    s = ControlSchedule.storage(0.5, t_off, t_store)
    assert s.value(t_off + 0.5 * t_store) == 0.0
    assert s.value(0.5 * t_off) == 0.5
    assert s.value(t_off + t_store + 1.0) == 0.5


def test_schedule_breakpoints_only_where_control_changes():
    from rydeit.model import ControlSegment
    assert ControlSchedule.constant(0.4).breakpoints() == ()
    assert ControlSchedule.storage(0.5, 10.0, 5.0).breakpoints() == (10.0, 15.0)
    step_off = ControlSchedule(segments=(ControlSegment(0.0, 2.0, 0.5),
                                         ControlSegment(2.0, 4.0, 0.0)))
    assert step_off.breakpoints() == (2.0,)
    # constant between breakpoints, right-continuous at the jump
    assert step_off.value(0.5) == step_off.value(2.0 - 1e-9) == 0.5
    assert step_off.value(2.0) == step_off.value(3.0) == 0.0


def test_schedule_clamps_outside():
    from rydeit.model import ControlSegment
    s = ControlSchedule(segments=(ControlSegment(1.0, 2.0, 0.3), ControlSegment(2.0, 3.0, 0.7)))
    assert s.value(0.0) == 0.3
    assert s.value(5.0) == 0.7


def test_non_contiguous_segments_rejected():
    from rydeit.model import ControlSegment
    with pytest.raises(ConfigurationError):
        ControlSchedule(segments=(ControlSegment(0.0, 1.0, 0.5),
                                  ControlSegment(1.5, 2.0, 0.5)))
