import numpy as np
import pytest

from rydeit import (BlockadeConfig, ControlSchedule, PhysicalParams, PulseEnvelope,
                    PulseShape, assemble_generator, build_chain)
from rydeit.dynamics import _segment_grid, propagate_segment


@pytest.fixture(scope="session")
def params():
    """Canonical simulation constants: branching ratio 0.2, resonant, no dephasing."""
    return PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)


@pytest.fixture(scope="session")
def chain10():
    return build_chain(10, 1.0)


def make_generator(n_atoms=10, omega_c=0.5, blockade=None, shape=PulseShape.SQUARE,
                   duration=30.0, n_in=1.5, rise_time=0.0, gamma_r=0.0,
                   delta_e=0.0, delta_2=0.0, schedule=None, k_p=1.0):
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=omega_c, gamma_r=gamma_r,
                                  delta_e=delta_e, delta_2=delta_2)
    chain = build_chain(n_atoms, 1.0, k_p=k_p)
    blk = blockade if blockade is not None else BlockadeConfig.fully_blockaded()
    env = PulseEnvelope(shape=shape, duration=duration, n_in=n_in, rise_time=rise_time)
    sch = schedule if schedule is not None else ControlSchedule.constant(omega_c)
    return assemble_generator(p, chain, blk, sch, env)


def augmented(gen, env, omega, doubles=True):
    """The dense generator S + Omega_c W + e F on the stacked
    [ground; singles(; doubles)] layout at drive level ``env``."""
    s, w, f = gen.stacked(doubles)
    return (s + omega * w + env * f).toarray()


def state_rows(gen):
    """Covectors over [ground; singles; doubles] that make ``evolve`` record
    the whole state [singles; doubles]."""
    return np.eye(1 + gen.index.dim, dtype=complex)[1:]


def oracle_rows(gen):
    """The correlation-grid covectors followed by the state rows: one
    trajectory then serves the trace, the grid and ``two_time_g2``."""
    return np.vstack([gen.output_covectors(grid=True), state_rows(gen)])


def two_time_g2(traj, gen, t1, t2, dt=None):
    """Independent oracle for G2(t1, t2) at two times of a trajectory
    recorded with ``oracle_rows``: apply the output field once at the
    earlier time, evolve the conditioned [ground; singles] column to the
    later one under the driven generator (the frozen ground keeps sourcing
    the singles through the probe), apply the field again and take the
    squared modulus of the ground component."""
    t1, t2 = sorted((float(t1), float(t2)))
    i = int(np.argmin(np.abs(traj.times - t1)))
    n1 = gen.index.dim_singles
    state = traj.projections[i, -gen.index.dim:]
    env = traj.envelope_unit[i]
    y = np.concatenate([[env + gen.out_e @ state[:n1]],
                        env * state[:n1] + gen.ann @ state[n1:]])
    if dt is None:
        dt = 0.05 / gen.nonstiff_rate()
    if t2 > t1:
        for a, b, _ in _segment_grid(t1, t2, gen.breakpoints(), t2 - t1):
            y = propagate_segment(gen, y, a, b, dt=dt)
    return float(abs(gen.envelope_at(t2) * y[0] + gen.out_e @ y[1:]) ** 2)
