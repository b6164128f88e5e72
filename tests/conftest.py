import math

import numpy as np
import pytest

from rydeit import (BlockadeConfig, ControlSchedule, PhysicalParams, PulseEnvelope,
                    PulseShape, assemble_generator, build_chain)
from rydeit.dynamics import StateTrajectory, _segment_grid, evolve


@pytest.fixture(scope="session")
def params():
    """Canonical simulation constants: branching ratio 0.2, resonant, no dephasing."""
    return PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)


@pytest.fixture(scope="session")
def chain10():
    return build_chain(10)


def make_generator(n_atoms=10, omega_c=0.5, blockade=None, shape=PulseShape.SQUARE,
                   duration=30.0, rise_time=0.0, gamma_r=0.0,
                   delta_e=0.0, delta_2=0.0, schedule=None):
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=omega_c, gamma_r=gamma_r,
                                  delta_e=delta_e, delta_2=delta_2)
    chain = build_chain(n_atoms)
    blk = blockade if blockade is not None else BlockadeConfig.fully_blockaded()
    env = PulseEnvelope(shape=shape, duration=duration, rise_time=rise_time)
    sch = schedule if schedule is not None else ControlSchedule.constant(omega_c)
    return assemble_generator(p, chain, blk, sch, env)


def augmented(gen, env, omega, doubles=True):
    """The dense generator S + Omega_c W + e F on the stacked
    [ground; singles; doubles] layout at drive level ``env``; without
    ``doubles`` its leading [ground; singles] block, which reads no doubles
    and so evolves on its own."""
    s, w, f = gen.stacked
    a = (s + omega * w + env * f).toarray()
    d = len(a) if doubles else 1 + gen.index.dim_singles
    return a[:d, :d]


def padded(gen, y):
    """The leading slots ``y`` of a stacked vector, the rest zero: a
    [ground; singles] column becomes a state without doubles."""
    full = np.zeros(1 + gen.index.dim, dtype=complex)
    full[:len(y)] = y
    return full


def vacuum(gen):
    """The stacked vacuum e_0 = [1; 0; 0]."""
    return np.eye(1, 1 + gen.index.dim, dtype=complex)[0]


def state_rows(gen):
    """Covectors over [ground; singles; doubles] that make ``evolve`` record
    the whole state [singles; doubles]."""
    return np.eye(1 + gen.index.dim, dtype=complex)[1:]


def oracle_rows(gen):
    """The correlation-grid covectors followed by the state rows: one
    trajectory then serves the trace, the grid and ``two_time_g2``."""
    return np.vstack([gen.output_covectors(grid=True), state_rows(gen)])


def two_time_g2(traj, gen, t1, t2):
    """Independent oracle for G2(t1, t2) at two times of a trajectory
    recorded with ``oracle_rows``: apply the output field once at the
    earlier time, evolve the conditioned [ground; singles] column, padded
    with doubles it never reads, to the later one under the driven
    generator (the frozen ground keeps sourcing the singles through the
    probe), apply the field again and take the squared modulus of the
    ground component."""
    t1, t2 = sorted((float(t1), float(t2)))
    i = int(np.argmin(np.abs(traj.times - t1)))
    n1 = gen.index.dim_singles
    state = traj.projections[i, -gen.index.dim:]
    env = traj.envelope_unit[i]
    y = padded(gen, np.concatenate([[env + gen.out_e @ state[:n1]],
                                    env * state[:n1] + gen.ann @ state[n1:]]))
    if t2 > t1:
        y = evolve(gen, (t1, t2), t2 - t1, initial=y,
                   project=np.eye(len(y), dtype=complex)).projections[-1]
    return float(abs(gen.envelope.unit_shape(t2) * y[0] + gen.out_e @ y[1:1 + n1]) ** 2)


# ---------------------------------------------------------------------------
# the RK4 oracle

def rk4_dt(gen):
    """The oracle's default step: one eighth of 0.05 over the fastest rate of
    the generator (the decay, dephasing and detunings, the largest Omega_c,
    the collective emission rate N Gamma_1D / 2 and the largest kept pair
    shift v_max, and at least 1)."""
    p = gen.params
    rate = max(p.gamma_total, p.gamma_r, abs(p.delta_e), abs(p.delta_2),
               max(gen.schedule.levels),
               0.5 * p.gamma_1d * gen.index.n_atoms, gen.v_max, 1.0)
    return 0.05 / rate / 8.0


def rk4_segment(gen, y, a, b, n_out, dt, project):
    """Plain fixed-step RK4 of the stacked vector ``y`` from ``a`` to ``b`` in
    ``n_out`` output steps, each split into equal substeps no longer than
    ``dt``, with the derivative S y + Omega_c(t) W y + e(t) F y of
    ``Generator.stacked``; the coefficients are looked up clamped below
    ``b``, so a jump at ``b`` is not seen.  Returns the projections
    ``project @ y`` after each output step and the state at ``b``."""
    s, w, f = gen.stacked
    t_hi = b - 1e-12 * max(1.0, abs(b - a))

    def deriv(t, yy):
        t = min(t, t_hi)
        return (s @ yy + gen.schedule.value(t) * (w @ yy)
                + gen.envelope.unit_shape(t) * (f @ yy))

    h_out = (b - a) / n_out
    n_sub = max(1, math.ceil(h_out / dt - 1e-9))
    h = h_out / n_sub
    proj = np.empty((n_out, len(project)), dtype=complex)
    for k in range(n_out):
        for i in range(n_sub):
            t = a + k * h_out + i * h
            k1 = deriv(t, y)
            k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = deriv(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        proj[k] = project @ y
    return proj, y


def rk4_evolve(gen, t_span, dt_out, dt=None, initial=None, project=None):
    """``evolve`` by ``rk4_segment`` on the same output grid, at steps of at
    most ``dt`` (by default ``rk4_dt``), as a ``StateTrajectory``."""
    t0, t1 = t_span
    dt = rk4_dt(gen) if dt is None else dt
    y = vacuum(gen) if initial is None else np.asarray(initial, dtype=complex)
    project = gen.output_covectors(grid=True) if project is None else project
    record, times, starts = [project @ y], [t0], []
    for a, b, n_out in _segment_grid(t0, t1, gen.breakpoints(), dt_out):
        starts.append(len(times) - 1)
        proj, y = rk4_segment(gen, y, a, b, n_out, dt, project)
        record.extend(proj)
        h_out = (b - a) / n_out
        times.extend([*(a + k * h_out for k in range(1, n_out)), b])
    return StateTrajectory(times=np.array(times), covectors=project,
                           projections=np.array(record),
                           envelope_unit=np.array([gen.envelope.unit_shape(t) for t in times]),
                           omega_c=np.array([gen.schedule.value(t) for t in times]),
                           segment_starts=np.array(starts))
