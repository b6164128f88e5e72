"""Independent reconstruction of the generator by operator algebra.

Builds the truncated two-oscillator-per-atom Fock space (at most two quanta
in total) with explicit ladder-operator matrices, assembles the effective
Hamiltonian and drive from first principles, and compares every block of the
production generator against it.  This pins each sqrt(2) matrix element and
coupling independently of the production assembly, which lifts the singles
operators onto the doubles slots.
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


def _brute_force_generator(params, chain, blockade):
    """M = -iH_eff and the drive pattern on the full truncated Fock space."""
    n = chain.n_atoms
    z = chain.z()
    basis = _fock_basis(n)
    dim = len(basis)
    b = [_ladder(basis, h) for h in range(n)]          # e-coherence modes
    c = [_ladder(basis, n + h) for h in range(n)]      # r-coherence modes

    g1d = params.gamma_1d
    w = math.sqrt(0.5 * g1d) * np.exp(1j * chain.k_p * z)
    h_static = np.zeros((dim, dim), dtype=complex)
    h_omega = np.zeros((dim, dim), dtype=complex)
    for h in range(n):
        h_static += (-params.delta_e - 0.5j * params.gamma_total) * b[h].conj().T @ b[h]
        h_static += (-params.delta_2 - 1j * params.gamma_r) * c[h].conj().T @ c[h]
        h_omega += b[h].conj().T @ c[h] + c[h].conj().T @ b[h]
        for m in range(h):
            h_static += -0.5j * g1d * np.exp(1j * chain.k_p * (z[h] - z[m])) \
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


@pytest.mark.parametrize("mode", ["none", "full", "power", "partial"])
def test_generator_matches_operator_algebra(mode):
    params = PhysicalParams.from_ratio(0.2, omega_c_peak=0.37, gamma_r=0.04,
                                       delta_e=0.2, delta_2=-0.1)
    chain = build_chain(4, 1.0, k_p=2.3)
    # "partial": r_b = 0.45 on spacing 1/4 puts V = 27 > v_cap on nearest
    # neighbours and V <= 0.43 on farther pairs
    blockade = {"none": BlockadeConfig.none(),
                "full": BlockadeConfig.fully_blockaded(),
                "power": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.3,
                                        v0=0.8, v_cap=5.0),
                "partial": BlockadeConfig(mode=BlockadeMode.POWER_LAW, r_b=0.45,
                                          v0=0.8, v_cap=5.0)}[mode]
    gen = assemble_generator(params, chain, blockade, ControlSchedule.constant(0.37),
                             PulseEnvelope(duration=10.0, n_in=1.0))
    idx = gen.index
    if mode == "partial":
        distinct = sum(h < j for h, j in idx.rr_pairs)
        assert 0 < distinct < 4 * 3 // 2

    basis, m_static, m_omega, m_drive = _brute_force_generator(params, chain, blockade)
    mapping = _slot_map(basis, idx)

    # embed the production parts into the Fock layout and compare: slot s
    # of the index is row 1 + s of the stacked layout
    dim = len(basis)
    n1 = idx.dim_singles
    s_part, w_part, f_part = (m.toarray() for m in gen.stacked)
    for ref, parts in ((m_static, "static"), (m_omega, "omega")):
        got = np.zeros((dim, dim), dtype=complex)
        src = s_part if parts == "static" else w_part
        for i, (kind_i, slot_i) in mapping.items():
            for j, (kind_j, slot_j) in mapping.items():
                if kind_i != "state" or kind_j != "state":
                    continue
                if slot_i is None or slot_j is None:
                    continue  # blockaded rr states are removed, not evolved
                got[i, j] = src[1 + slot_i, 1 + slot_j]
        # reference entries touching removed rr states do not apply
        keep = np.array([mapping[i][0] == "state" and mapping[i][1] is not None
                         for i in range(dim)])
        ref_kept = ref[np.ix_(keep, keep)]
        got_kept = got[np.ix_(keep, keep)]
        np.testing.assert_allclose(got_kept, ref_kept, atol=1e-13,
                                   err_msg=f"{mode}/{parts} block mismatch")

    # drive: ground -> singles and singles -> doubles sources
    for j, (kind_j, slot_j) in mapping.items():
        col = m_drive[:, j]
        for i, amp in enumerate(col):
            if amp == 0:
                continue
            kind_i, slot_i = mapping[i]
            if slot_i is None:
                continue
            if kind_j == "ground":
                assert f_part[1 + slot_i, 0] == pytest.approx(amp, abs=1e-14)
            elif kind_j == "state" and slot_j is not None and slot_j < n1 \
                    and slot_i is not None and slot_i >= n1:
                assert f_part[1 + slot_i, 1 + slot_j] == pytest.approx(amp, abs=1e-14)

    # field operator: atomic lowering part c_out * sum_h u_h b_h
    z = chain.z()
    c_out = 1j * math.sqrt(0.5 * params.gamma_1d)
    field = np.zeros((len(basis), len(basis)), dtype=complex)
    for h in range(chain.n_atoms):
        field += c_out * np.exp(-1j * chain.k_p * z[h]) * _ladder(basis, h)
    for j, (kind_j, slot_j) in mapping.items():
        col = field[:, j]
        for i, amp in enumerate(col):
            if amp == 0:
                continue
            kind_i, slot_i = mapping[i]
            if kind_j != "state" or slot_j is None:
                continue
            if kind_i == "ground":
                assert gen.out_e[slot_j] == pytest.approx(amp, abs=1e-14)
            elif slot_i is not None and slot_i < n1 and slot_j >= n1:
                assert gen.ann[slot_i, slot_j - n1] == pytest.approx(amp, abs=1e-14)
    # the double-annihilation covector is the composition of the two
    field2_ground = (field @ field)[0, :]
    for j, (kind_j, slot_j) in mapping.items():
        if kind_j == "state" and slot_j is not None and slot_j >= n1:
            assert gen.a2vec[slot_j - n1] == pytest.approx(field2_ground[j], abs=1e-14)
