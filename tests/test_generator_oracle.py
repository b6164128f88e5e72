"""Independent reconstruction of the generator by operator algebra.

Builds the truncated two-oscillator-per-atom Fock space (at most two quanta
in total) with explicit ladder-operator matrices, assembles the effective
Hamiltonian and drive from first principles, and compares every block of the
production generator against it.  This pins each sqrt(2) matrix element and
coupling independently of the production assembly, which lifts the singles
operators onto the doubles slots.  The oracle keeps the probe's propagation
phase exp(i k_p z_h), which the production generator drops as a gauge; the
comparison applies that diagonal change of variables.
"""

import itertools
import math

import numpy as np
import pytest

from rydeit.model import (BlockadeConfig, BlockadeMode, ControlSchedule,
                          PhysicalParams, PulseEnvelope, build_chain, interaction,
                          BLOCKED)
from rydeit.dynamics import assemble_generator


def _fock_basis(n_atoms):
    """Occupation tuples (e_0..e_{N-1}, r_0..r_{N-1}) with total <= 2 quanta."""
    modes = 2 * n_atoms
    basis = []
    for total in (0, 1, 2):
        for occ in itertools.combinations_with_replacement(range(modes), total):
            counts = [0] * modes
            for m in occ:
                counts[m] += 1
            basis.append(tuple(counts))
    return basis


def _ladder(basis, mode):
    """Annihilation operator for one mode on the truncated basis."""
    lookup = {occ: i for i, occ in enumerate(basis)}
    a = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, occ in enumerate(basis):
        if occ[mode] == 0:
            continue
        target = list(occ)
        target[mode] -= 1
        a[lookup[tuple(target)], j] = math.sqrt(occ[mode])
    return a


def _brute_force_generator(params, chain, blockade, k_p):
    """M = -iH_eff and the drive pattern on the full truncated Fock space,
    with the probe's propagation phase exp(i k_p z_h) at atom h."""
    n = chain.n_atoms
    z = chain.z()
    basis = _fock_basis(n)
    dim = len(basis)
    b = [_ladder(basis, h) for h in range(n)]          # e-coherence modes
    c = [_ladder(basis, n + h) for h in range(n)]      # r-coherence modes

    g1d = params.gamma_1d
    w = math.sqrt(0.5 * g1d) * np.exp(1j * k_p * z)
    h_static = np.zeros((dim, dim), dtype=complex)
    h_omega = np.zeros((dim, dim), dtype=complex)
    for h in range(n):
        h_static += (-params.delta_e - 0.5j * params.gamma_total) * b[h].conj().T @ b[h]
        h_static += (-params.delta_2 - 1j * params.gamma_r) * c[h].conj().T @ c[h]
        h_omega += b[h].conj().T @ c[h] + c[h].conj().T @ b[h]
        for m in range(h):
            h_static += -0.5j * g1d * np.exp(1j * k_p * (z[h] - z[m])) \
                * b[h].conj().T @ b[m]
    for h in range(n):
        for j in range(h + 1, n):
            v = interaction(blockade, abs(z[j] - z[h]))
            if v != BLOCKED and v != 0.0:
                h_static += v * (c[h].conj().T @ c[h]) @ (c[j].conj().T @ c[j])
    drive = np.zeros((dim, dim), dtype=complex)        # upward part of -w b^dag
    for h in range(n):
        drive += -w[h] * b[h].conj().T
    return basis, -1j * h_static, -1j * h_omega, -1j * drive


def _slot_map(basis, idx):
    """Map Fock occupation tuples to production flat slots (or None): e_h
    is slot h, r_h slot N + h, and the doubles slot of singles modes (a, b)
    is dim_singles + k through ``mode_pairs``."""
    n = idx.n_atoms
    pair_slot = {(a, b): idx.dim_singles + k
                 for k, (a, b) in enumerate(zip(*(m.tolist() for m in idx.mode_pairs())))}
    mapping = {}
    for i, occ in enumerate(basis):
        modes = [m for m in range(2 * n) for _ in range(occ[m])]
        if not modes:
            mapping[i] = ("ground", None)
        elif len(modes) == 1:
            mapping[i] = ("state", modes[0])
        else:
            # None for a blockaded rr pair
            mapping[i] = ("state", pair_slot.get(tuple(modes)))
    return mapping


def _embedding(basis, idx):
    """The 0/1 matrix taking Fock amplitudes to the stacked layout: the
    ground to row 0 and the state of flat slot s to row 1 + s (a blockaded
    rr state has no row)."""
    e = np.zeros((1 + idx.dim, len(basis)))
    for i, (kind, slot) in _slot_map(basis, idx).items():
        if kind == "ground":
            e[0, i] = 1.0
        elif slot is not None:
            e[1 + slot, i] = 1.0
    return e


def _gauge(chain, idx, k_p):
    """The diagonal change of variables e_h -> exp(-i k_p z_h) e_h (r_h
    alike) on the stacked layout: 1 on the ground, the mode's factor on each
    singles slot, and the product of its two modes' factors on each doubles
    slot (``mode_pairs``)."""
    mode = np.tile(np.exp(-1j * k_p * chain.z()), 2)
    a, b = idx.mode_pairs()
    return np.r_[1.0, mode, mode[a] * mode[b]]


@pytest.mark.parametrize("mode", ["none", "full", "power", "partial"])
def test_generator_matches_operator_algebra(mode):
    # the oracle keeps the probe's propagation phase exp(i k_p z_h); the
    # production generator is the oracle's after the gauge change of
    # variables, and at k_p = 0 the two agree entry by entry
    params = PhysicalParams.from_ratio(0.2, omega_c_peak=0.37, gamma_r=0.04,
                                       delta_e=0.2, delta_2=-0.1)
    chain = build_chain(4)
    # "partial": r_b = 0.45 on spacing 1/4 puts V = 27 > v_cap on nearest
    # neighbours and V <= 0.43 on farther pairs
    blockade = {"none": BlockadeConfig.none(),
                "full": BlockadeConfig.fully_blockaded(),
                "power": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.3,
                                        v0=0.8, v_cap=5.0),
                "partial": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.45,
                                          v0=0.8, v_cap=5.0)}[mode]
    gen = assemble_generator(params, chain, blockade, ControlSchedule.constant(0.37),
                             PulseEnvelope(duration=10.0))
    idx = gen.index
    if mode == "partial":
        distinct = sum(h < j for h, j in idx.rr_pairs)
        assert 0 < distinct < 4 * 3 // 2

    e = _embedding(_fock_basis(chain.n_atoms), idx)
    k1, k2 = idx.singles, idx.doubles
    for k_p in (0.0, 2.3):
        basis, m_static, m_omega, m_drive = _brute_force_generator(params, chain,
                                                                   blockade, k_p)
        # the oracle on the stacked layout, in the production gauge; its
        # entries touching removed rr states do not apply
        phi = _gauge(chain, idx, k_p)
        assert k_p != 0.0 or np.all(phi == 1.0)

        def gauged(m):
            return phi[:, None] * (e @ m @ e.T) / phi[None, :]

        for part, ref, name in zip(gen.stacked, (m_static, m_omega, m_drive),
                                   ("static", "omega", "drive")):
            np.testing.assert_allclose(part.toarray(), gauged(ref), rtol=0,
                                       atol=1e-13 if name != "drive" else 1e-14,
                                       err_msg=f"{mode}/{name} block mismatch at k_p = {k_p}")

        # field operator: atomic lowering part c_out * sum_h exp(-i k_p z_h) b_h
        c_out = 1j * math.sqrt(0.5 * params.gamma_1d)
        field = sum(c_out * np.exp(-1j * k_p * z) * _ladder(basis, h)
                    for h, z in enumerate(chain.z()))
        ref = gauged(field)
        np.testing.assert_allclose(gen.out_e, ref[0, k1], rtol=0, atol=1e-14)
        np.testing.assert_allclose(gen.ann.toarray(), ref[k1, k2], rtol=0, atol=1e-14)
        # the double-annihilation covector is the composition of the two
        np.testing.assert_allclose(gen.a2vec, gauged(field @ field)[0, k2], rtol=0,
                                   atol=1e-14)
