"""Few-atom oracle: the cascaded master equation of N <= 4 three-level atoms.

Each atom has the levels g, e and r.  The chain couples to the probe in the
forward-scattering limit (Gardiner, PRL 70:2269, 1993; Carmichael, PRL
70:2273, 1993), with gamma_c = Gamma_1D/2 the rate into the collected mode:

- a collective forward jump sqrt(gamma_c) sum_h sigma_h, sigma_h = |g><e|_h,
  and the cascade Hamiltonian -(i gamma_c/2) sum_{m<h} (sigma_h^+ sigma_m -
  sigma_m^+ sigma_h), so that atom h sees only the atoms upstream of it;
- local loss sqrt(Gamma - gamma_c) sigma_h and Rydberg decay
  sqrt(2 gamma_r) |g><r|_h on each atom (or, in the dephasing variant, pure
  dephasing sqrt(2 gamma_r) |r><r|_h, a channel the model does not hold);
- the drive -sqrt(gamma_c) E (sigma_h + sigma_h^+), the control
  Omega_c (|e><r| + |r><e|)_h and the pair shift V_hj on |r_h r_j>; a pair
  the blockade forbids loses its rr states (full blockade deletes them all).

The output is b = E + i sqrt(gamma_c) sum_h sigma_h.  The Liouvillian is
built sparse, the steady state is its sparse solve, and g2_ss = <b+ b+ b b> / <b+ b>^2 is
Richardson-extrapolated to E -> 0 from E = 0.02 and 0.01.  On a square
pulse the Liouvillian is propagated by its dense exponential, on and then
off, and g2(t) is extrapolated the same way.

The weak-drive model makes each atom two bosonic modes, so its doubles keep
the same-atom slots ee(h, h) and er(h, h) that three-level atoms cannot
hold.  Restricted to the distinct-atom slots, (Q M2 Q^T, Q S21, Q a2vec)
with Q the rows of the doubles whose two modes sit on different atoms, the
production generator gives the atoms' g2_ss and g2(t); with the same-atom
slots kept it does not, on the falling edge too.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from rydeit.dynamics import assemble_generator, evolve, steady_state
from rydeit.model import (BLOCKED, BlockadeConfig, BlockadeMode, ControlSchedule,
                          PhysicalParams, PulseEnvelope, build_chain, interaction)
from rydeit.observables import trace_from_trajectory

G, E, R = 0, 1, 2
OMEGA_C = 0.5
DRIVES = (0.02, 0.01)


def _atoms(params, chain, blockade, omega, dephasing=False):
    """The atoms' Liouvillian at drive level e, ``liouvillian(e)`` (CSR), on
    the row-major vec(rho), with Rydberg decay or, with ``dephasing``, pure
    dephasing of r as the gamma_r channel, the output moments (<b+ b>, <b+ b+ b b>) of a state
    at drive level e, ``moments(rho, e)``, vec(rho) of the ground state (the
    first kept state) and the row tr rho of vec(rho)."""
    n, z = chain.n_atoms, chain.z()
    shift = {(h, j): interaction(blockade, abs(z[j] - z[h]))
             for h in range(n) for j in range(h + 1, n)}
    keep = [s for s in itertools.product((G, E, R), repeat=n)
            if not any(s[h] == s[j] == R and v == BLOCKED for (h, j), v in shift.items())]
    at = {s: i for i, s in enumerate(keep)}
    d = len(keep)

    def op(h, to, frm):
        """|to><frm| on atom h, between the kept states."""
        m = np.zeros((d, d))
        for i, s in enumerate(keep):
            t = s[:h] + (to,) + s[h + 1:]
            if s[h] == frm and t in at:
                m[at[t], i] = 1.0
        return m

    sig = [op(h, G, E) for h in range(n)]
    gc = 0.5 * params.gamma_1d
    h0 = np.zeros((d, d), dtype=complex)
    for h in range(n):
        h0 += -params.delta_e * op(h, E, E) - params.delta_2 * op(h, R, R)
        h0 += omega * (op(h, E, R) + op(h, R, E))
        for m in range(h):
            h0 += -0.5j * gc * (sig[h].T @ sig[m] - sig[m].T @ sig[h])
    for (h, j), v in shift.items():
        if v != BLOCKED:
            h0 += v * op(h, R, R) @ op(j, R, R)
    jumps = [math.sqrt(gc) * sum(sig)] + [math.sqrt(params.gamma_total - gc) * s for s in sig]
    jumps += [math.sqrt(2.0 * params.gamma_r) * op(h, R if dephasing else G, R)
              for h in range(n)]
    drive = -math.sqrt(gc) * sum(s + s.T for s in sig)
    eye, one = np.eye(d), sp.identity(d, format="csr")

    def liouvillian(e):
        # d rho/dt = -i H_eff rho + i rho H_eff^+ + sum L rho L^+
        heff = h0 + e * drive - 0.5j * sum(l.conj().T @ l for l in jumps)
        lv = -1j * sp.kron(heff, one) + 1j * sp.kron(one, heff.conj())
        for l in jumps:
            lv += sp.kron(l, l.conj())
        return lv.tocsr()

    def moments(rho, e):
        b = e * eye + 1j * math.sqrt(gc) * sum(sig)
        rho, bb = rho.reshape(d, d), b @ b
        return np.trace(b @ rho @ b.conj().T).real, np.trace(bb @ rho @ bb.conj().T).real

    return liouvillian, moments, np.eye(1, d * d, dtype=complex)[0], eye.reshape(-1)


def _richardson(x):
    """The E -> 0 value of x(E) = x0 + c E^2 from x at ``DRIVES``."""
    return (4.0 * x[1] - x[0]) / 3.0


def _master_equation(params, chain, blockade, omega, dephasing=False):
    """(g2_ss, output intensity per unit drive squared) of the atoms'
    steady state, each Richardson-extrapolated from ``DRIVES``."""
    liouvillian, moments, ground, trace_row = _atoms(params, chain, blockade, omega, dephasing)
    g2, inten = [], []
    for e in DRIVES:
        # the ground population's row becomes tr rho = 1
        lv = sp.vstack([sp.csr_matrix(trace_row), liouvillian(e)[1:]])
        one, two = moments(spla.spsolve(lv.tocsc(), ground), e)
        g2.append(two / one ** 2)
        inten.append(one / e ** 2)
    return _richardson(g2), _richardson(inten)


def _distinct(gen):
    """The rows q of the doubles whose two modes sit on different atoms."""
    a, b = gen.index.mode_pairs()
    return np.flatnonzero(a % gen.index.n_atoms != b % gen.index.n_atoms)


def _model(params, chain, blockade, omega):
    """(g2_ss of the model as built, g2_ss of its distinct-atom restriction,
    steady output intensity |1 + f|^2), from the steady singles psi1 of
    ``steady_state``: g2_ss = |1 + 2 f + a2|^2 / |1 + f|^4, f = out_e psi1
    and a2 = a2vec psi2."""
    gen = assemble_generator(params, chain, blockade, ControlSchedule.constant(omega),
                             PulseEnvelope(duration=10.0))
    k1, k2 = gen.index.singles, gen.index.doubles
    ss = steady_state(gen, omega)
    f = gen.out_e @ ss[k1]
    q = _distinct(gen)
    m2 = gen.operator(omega, slots=k2)[q][:, q].toarray()
    s21 = gen.stacked[2][k2, k1][q].toarray()
    psi2 = np.linalg.solve(m2, -(s21 @ ss[k1])) if len(q) else np.zeros(0)
    inten = abs(1.0 + f) ** 2
    return tuple(abs(1.0 + 2.0 * f + a2) ** 2 / inten ** 2
                 for a2 in (gen.a2vec @ ss[k2], gen.a2vec[q] @ psi2)) + (inten,)


#: devices at Omega_c = 0.5 under full blockade, with g2_ss to 4 decimals:
#: (Gamma_1D/Gamma', gamma_r, N, current model, atoms)
FULL_ROWS = [(0.2, 0.0, 1, 0.9724, 1.0000), (0.2, 0.0, 3, 0.8014, 0.8531),
             (1.0, 0.05, 3, 0.1744, 0.2019), (0.2, 0.0, 4, 0.6888, 0.7401),
             (1.0, 0.05, 4, 0.0482, 0.0267)]


@pytest.mark.parametrize("ratio, gamma_r, n, current, atoms", FULL_ROWS)
def test_full_blockade_atoms_are_the_distinct_atom_doubles(ratio, gamma_r, n, current, atoms):
    params = PhysicalParams.from_ratio(ratio, omega_c_peak=OMEGA_C, gamma_r=gamma_r)
    chain, blockade = build_chain(n), BlockadeConfig.fully_blockaded()
    g2, inten = _master_equation(params, chain, blockade, OMEGA_C)
    model, distinct, model_inten = _model(params, chain, blockade, OMEGA_C)
    # the singles agree: the atoms' output intensity is the model's
    assert inten == pytest.approx(model_inten, abs=1e-6)
    assert g2 == pytest.approx(distinct, abs=1e-6)
    assert g2 == pytest.approx(atoms, abs=5e-5)
    # the same-atom slots move g2_ss: by 0.021-0.052 on these rows
    assert model == pytest.approx(current, abs=5e-5)
    assert abs(model - g2) > 0.02


#: power-law devices on the three atoms at z = 1/6, 1/2, 5/6: every pair
#: shifted (V = 4.84, 0.076, 4.84) at r_b = 0.45, and the nearest pairs
#: blockaded (V > v_cap) with the outer one shifted by 0.43 at r_b = 0.6
POWER_LAW = [BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=r_b, v0=0.8, v_cap=5.0)
             for r_b in (0.45, 0.6)]


#: g2_ss of the atoms at Gamma_1D/Gamma' = 1, gamma_r = 0.05, Omega_c = 0.5
#: under full blockade, to 6 decimals: (N, Rydberg decay, pure dephasing)
GAMMA_R_ROWS = [(1, 0.995470, 1.046996), (2, 0.583279, 0.606496), (3, 0.201938, 0.213529)]


@pytest.mark.parametrize("n, decay, dephasing", GAMMA_R_ROWS)
def test_gamma_r_is_rydberg_decay_not_dephasing(n, decay, dephasing):
    # the model's gamma_r channel is the jump sqrt(2 gamma_r)|g><r|: the
    # atoms under it give the distinct-atom restriction's g2_ss, and under
    # pure dephasing sqrt(2 gamma_r)|r><r| of the same rate they do not
    params = PhysicalParams.from_ratio(1.0, omega_c_peak=OMEGA_C, gamma_r=0.05)
    chain, blockade = build_chain(n), BlockadeConfig.fully_blockaded()
    _, distinct, _ = _model(params, chain, blockade, OMEGA_C)
    g2 = [_master_equation(params, chain, blockade, OMEGA_C, dephasing)[0]
          for dephasing in (False, True)]
    assert g2 == pytest.approx([decay, dephasing], abs=1e-6)
    assert g2[0] == pytest.approx(distinct, abs=1e-6)
    assert abs(g2[1] - distinct) > 0.01


@pytest.mark.parametrize("blockade", POWER_LAW, ids=["shifted", "partly_blockaded"])
@pytest.mark.parametrize("ratio, gamma_r", [(0.2, 0.0), (1.0, 0.05)])
def test_power_law_atoms_are_the_distinct_atom_doubles(blockade, ratio, gamma_r):
    params = PhysicalParams.from_ratio(ratio, omega_c_peak=OMEGA_C, gamma_r=gamma_r)
    chain = build_chain(3)
    g2, _ = _master_equation(params, chain, blockade, OMEGA_C)
    model, distinct, _ = _model(params, chain, blockade, OMEGA_C)
    assert g2 == pytest.approx(distinct, abs=1e-6)
    assert abs(model - g2) > 0.05


@pytest.mark.parametrize("n, atoms", [(2, 0.9907), (3, 0.9853)])
def test_interaction_free_atoms_are_not_coherent(n, atoms):
    # without blockade the bosonic model is a linear medium, g2_ss = 1;
    # three-level atoms with Rydberg decay are not, and their g2_ss is again
    # the distinct-atom restriction's
    params = PhysicalParams.from_ratio(1.0, omega_c_peak=OMEGA_C, gamma_r=0.05)
    chain, blockade = build_chain(n), BlockadeConfig.none()
    g2, _ = _master_equation(params, chain, blockade, OMEGA_C)
    model, distinct, _ = _model(params, chain, blockade, OMEGA_C)
    assert model == pytest.approx(1.0, abs=1e-12)
    assert g2 == pytest.approx(distinct, abs=1e-6)
    assert g2 == pytest.approx(atoms, abs=5e-5)


# ---------------------------------------------------------------------------
# square-pulse transient

#: the square pulse's end, the samples compared (on the plateau, and 2 and 4
#: after the shutoff) and the step of the dense exponentials between them
T_OFF, SAMPLES, STEP = 40.0, (38.0, 42.0, 44.0), 2.0


def _at_samples(step_on, step_off, y):
    """The state ``y`` at t = 0 carried to each of ``SAMPLES`` by the
    one-step maps under the pulse (before ``T_OFF``) and after it."""
    t, out = 0.0, []
    for s in SAMPLES:
        while t < s:
            y = (step_on if t < T_OFF else step_off) @ y
            t += STEP
        out.append(y)
    return out


def _master_equation_pulse(params, chain, blockade, omega):
    """g2(t) = <b+ b+ b b> / <b+ b>^2 of the atoms at ``SAMPLES`` on a square
    pulse over [0, ``T_OFF``], Richardson-extrapolated from ``DRIVES``."""
    liouvillian, moments, ground, _ = _atoms(params, chain, blockade, omega)
    step_off = expm(STEP * liouvillian(0.0).toarray())
    g2 = []
    for e in DRIVES:
        rhos = _at_samples(expm(STEP * liouvillian(e).toarray()), step_off, ground)
        g2.append(np.array([two / one ** 2 for one, two in
                            (moments(rho, e if s < T_OFF else 0.0)
                             for rho, s in zip(rhos, SAMPLES))]))
    return _richardson(g2)


def _model_pulse(gen, omega):
    """g2(t) = |A2|^2 / |f1|^4 at ``SAMPLES`` of the stacked amplitudes
    restricted to the ground, the singles and the distinct-atom doubles
    (``trace_from_trajectory``'s f1 and A2), by dense exponentials."""
    n1, q = gen.index.dim_singles, _distinct(gen)
    keep = np.r_[0, 1:1 + n1, gen.index.doubles.start + q]
    step_on, step_off = (expm(STEP * gen.operator(omega, e)[keep][:, keep].toarray())
                         for e in (1.0, 0.0))
    g2 = []
    for y, s in zip(_at_samples(step_on, step_off, np.eye(1, len(keep))[0]), SAMPLES):
        ep = 1.0 if s < T_OFF else 0.0
        f = gen.out_e @ y[1:1 + n1]
        a2 = ep ** 2 + 2.0 * ep * f + gen.a2vec[q] @ y[1 + n1:]
        g2.append(abs(a2) ** 2 / abs(ep + f) ** 4)
    return np.array(g2)


#: square-pulse devices at Omega_c = 0.5 under full blockade, with g2 at
#: ``SAMPLES`` to 6 decimals: (Gamma_1D/Gamma', gamma_r, N, atoms, model)
PULSE_ROWS = [(1.0, 0.05, 3, (0.201968, 0.200839, 0.000663), (0.174463, 0.112914, 0.001179)),
              (0.2, 0.0, 3, (0.853069, 0.125287, 0.000312), (0.801414, 0.210464, 0.000122)),
              (1.0, 0.05, 2, (0.583278, 0.194470, 0.000516), (0.437921, 0.278696, 0.000003))]


@pytest.mark.parametrize("ratio, gamma_r, n, atoms, current", PULSE_ROWS)
def test_square_pulse_atoms_are_the_distinct_atom_doubles(ratio, gamma_r, n, atoms, current):
    # the falling edge itself differs: at 2 after the shutoff the same-atom
    # slots move g2 by 0.084-0.088 on these rows
    params = PhysicalParams.from_ratio(ratio, omega_c_peak=OMEGA_C, gamma_r=gamma_r)
    chain, blockade = build_chain(n), BlockadeConfig.fully_blockaded()
    gen = assemble_generator(params, chain, blockade, ControlSchedule.constant(OMEGA_C),
                             PulseEnvelope(duration=T_OFF))
    g2 = _master_equation_pulse(params, chain, blockade, OMEGA_C)
    np.testing.assert_allclose(g2, _model_pulse(gen, OMEGA_C), rtol=0, atol=1e-6)
    np.testing.assert_allclose(g2, atoms, rtol=0, atol=5e-5)
    trace = trace_from_trajectory(evolve(gen, (0.0, 46.0), dt_out=0.5), gen)
    at = np.searchsorted(trace.times, SAMPLES)
    np.testing.assert_array_equal(trace.times[at], SAMPLES)
    np.testing.assert_allclose(trace.g2[at], current, rtol=0, atol=5e-5)
    assert abs(trace.g2[at][1] - g2[1]) > 0.05
