"""Time-dependent linear generator over the truncated state and its evolution.

The chain couples to the probe in the forward-scattering (cascaded) limit:
atom h is driven by the input field plus the forward emission of every atom
upstream of it, and never by downstream atoms.  Per atom this gives the
amplitude transmission t(delta) = 1 - (Gamma_1D/2)/(Gamma/2 - i delta), which
telescopes to the resonant intensity transmission exp(-D) with
D = 2 N ln(Gamma/Gamma').

Within the weak-drive hierarchy the equations are linear: the ground
amplitude stays 1 and sources the singles through the probe; the singles
source the doubles.  Each atom is two bosonic modes, e and r, so the doubles
are pairs of excitations in the 2N singles modes, and their generator is the
singles one-body operator acting on each excitation of a pair, plus the
Rydberg pair shift -i V_hj on rr amplitudes.  ``assemble_generator`` builds
it as that lift: U spreads each doubles slot onto the (2N)^2 pair tensor T,
the singles operator K acts as K x 1 + 1 x K, and P picks the slots back.  A
slot stores the amplitude of a normalized ket, a_a^+ a_b^+ |0> for modes
a != b but (a_a^+)^2 / sqrt(2) |0> for a = b, while the state is
(1/2) sum T_ab a_a^+ a_b^+ |0>; so U weights (a, a) by sqrt(2) and P by
1/sqrt(2), and every sqrt(2) matrix element on a doubly occupied slot falls
out of the two maps.

Single-excitation amplitudes (per unit peak drive, Gamma = 1 units):

    d e_h/dt = (i d_e - Gamma/2) e_h - i Omega_c(t) r_h
               + i sqrt(Gamma_1D/2) ep(t) - (Gamma_1D/2) sum_{m<h} e_m
    d r_h/dt = (i d_2 - gamma_r) r_h - i Omega_c(t) e_h

and the one-photon output amplitude is
f1(t) = ep(t) + i sqrt(Gamma_1D/2) sum_h e_h(t).  The propagation phase
exp(i k_p z_h) of the probe at atom h is a gauge of the cascaded chain: the
change of variables e_h -> exp(-i k_p z_h) e_h (r_h alike) removes it from
every equation and leaves each output unchanged, so the atom positions
enter only through the blockade.

Every evolution of the full state goes through ``propagate_segment``, which
advances a stacked [ground; singles; doubles] vector across one segment in
equal output steps.  ``Generator.stacked`` holds the generator on that
layout as three CSR parts, A(t) = S + Omega_c(t) W + e(t) F at drive level
e = ep(t).  The control is piecewise constant and segments end at its
breakpoints, so Omega_c is constant on each.  A stretch where e is constant
too takes the exact exponential, whatever its length.  So does a drive
ramp, where the envelope is affine, e(a + tau) = c0 + c1 tau (a square
pulse's rise and fall, a triangular pulse): F is nilpotent and the ground
amplitude g is frozen, so the clocks tau g, tau^2 g and tau psi1 make the
ramp a constant linear system, stepped by its Taylor action
(``_ramp_powers``).

A gaussian envelope takes the 4th-order commutator-free Magnus step of
Blanes and Moan (Appl. Numer. Math. 56:1519, 2006; see also Alvermann and
Fehske, J. Comput. Phys. 230:5930, 2011): two exponentials per substep, at
drive levels weighted from the envelope at the substep's Gauss nodes, both
from one cached unit-drive exponential (``_magnus_powers``).  The substep
is at most FWHM / ``MAGNUS_PER_FWHM``, a fixed rule on the envelope: the
error goes as (h / FWHM)^4, and the stiff pair shifts commute with F (it
measured the same at v_max = 68 and 385).  Each factor is an exact
exponential of the lifted generator, so in a linear medium the doubles stay
the pair of the singles and g2 = 1 to rounding.

Under ``EXPM_MAX_DIM`` the exponential is E = exp(A(1) h) at unit drive,
of the CSR S + Omega_c W + F, once per (Omega_c, step h).  With
D = diag(1, e, e^2) over the ground, singles and doubles blocks,
A(e) = D A(1) D^-1 and so exp(A(e) h) = D E D^-1: the ground column's
singles rows scale by e, its doubles rows by e^2 and the doubles <- singles
block by e (``_at_drive``; no level is divided by e, which may underflow to
0).  At e = 0, after the probe shuts off, that is the block diagonal of E,
so a square pulse's plateau and its tail share one exponential, and its
giant-step power, which ``evolve`` keeps for one call.  Above the cap a
stretch, and a Magnus factor, takes the action of the exponential of the
folded CSR S + Omega_c W + e F (``_action_powers``, ``_TaylorAction``).
``evolve`` records the sample where each segment starts
(``StateTrajectory.segment_starts``), and a correlation grid steps the
undriven singles by exp(M1 h) at each segment's Omega_c and sample step h
(``SinglesPropagator``).

That exponential is this module's ``expm``.  The model is cascaded
(Gardiner, PRL 70:2269, 1993): a slot is driven only by slots upstream of
it, so the strongly connected components of the generator's nonzero
pattern, in topological order (``_cascade_order``), make it block lower
triangular.  The blocks hold at most 2 slots in the singles, (e_h, r_h), and
4 in the doubles, the ee, er, re and rr amplitudes of one pair.  The complex
Schur forms of these blocks make the generator triangular in a block-diagonal
unitary basis, and degree-13 Padé scaling and squaring (Higham, SIAM J.
Matrix Anal. Appl. 26:1179, 2005) then needs only triangular products and
one triangular solve, done by recursive 2 x 2 tiles over ztrmm and ztrsm at
about n^3/6 complex multiplications each, against n^3 for a dense GEMM.  At
one BLAS thread that took 2.0-2.3 s for the replica's 1,625-dim propagator
against 6.3-7.4 s for scipy.linalg.expm, agreeing to 6e-15 of the largest
entry.  ``expm`` returns exp(t), upper triangular, with that basis
(``TriangularExp``): the permutation and the Schur blocks Z, at most 4 x 4.
The propagator stays there: a stretch maps y and the covectors in once,
steps with triangular matvecs, and maps only its end state back, and the
drive scaling acts in place on the triangle, since Z never mixes the
ground, singles and doubles.  Only ``SinglesPropagator``, whose correlation
grid reads the entries of one step per segment, asks for the dense matrix.
``steady_state`` solves the doubles system in the same order, where LU in
the natural order makes next to no fill.

``evolve`` records only the projections C y of a covector stack C (c rows
over the stacked layout) per sample.  ``Generator.output_covectors`` gives
the rows out_e and a2vec, all a time trace reads, and with ``grid`` also the
singles and the rows of ann, all a correlation grid reads (42 rows on the
default emulate-hbt device, against 176 dimensions).  The projections of an
exponential stretch, and the turn-off scans' c P^k y (k = 1..n) of one block
evolving alone with P = exp(M h) (``decay_steps``), come from
``_projected_powers`` by baby and giant steps (after Paterson and
Stockmeyer, SIAM J. Comput. 2:60, 1973): with k = j m + i + 1, the rows
C P^i (i < m) and the columns P^(j m + 1) y (j < ceil(n/m)) meet in one
(ceil(n/m) x d)(d x m c) product, and the end state is the last column
advanced by at most m - 1 steps.  A turn-off point builds one singles P
and goes on from that end state over each longer horizon it needs, and
stops once the end state's norm bounds every later sample under the half
level: the undriven singles contract (``scenarios._turnoff_point``).

An ``expm`` propagator P, triangular in its basis, gives P^m by log2 m
triangular squarings (``_tri_mul``), and a step is one triangular matvec
(ztrmv); m is the power of two that minimizes the cost in matvecs,
log2(m) d / SQUARE_KAPPA + c m + ceil(n/m), where one squaring costs
d / SQUARE_KAPPA matvecs; SQUARE_KAPPA = 8 (measured 6.1-10.4 for
d = 975-1,625 at one BLAS thread; a dense GEMM against a dense matvec gave
4.4-5.2).  That picks m = 16 for a turn-on point (d ~ 1,001, n = 2,500,
c = 2), and m = 2 for the replica (d = 1,625, n = 490 and 600), where one
squaring, about 200 matvecs, saves 245-300.  A turn-off doubles block above
``DECAY_DENSE_DOUBLES`` (300 slots, the measured crossover over its 5,000
steps), and any operator above ``EXPM_MAX_DIM``, never becomes dense
(``_action_powers``): baby rows and giant columns advance by the action of
the exponential (``_TaylorAction``, a truncated Taylor series after Al-Mohy
and Higham, SIAM J. Sci. Comput. 33:488, 2011), with m chosen from the
planned matvecs of those actions.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import norm as dense_norm, schur, solve as dense_solve
from scipy.linalg.blas import zaxpy, ztrmm, ztrmv, ztrsm
from scipy.sparse.csgraph import connected_components

from .model import (AtomChain, BlockadeConfig, ConfigurationError, ControlSchedule,
                    PhysicalParams, PulseEnvelope, interaction)
from .statespace import ExcitationIndex, build_index

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: Largest stacked dimension for which the exponential is a dense matrix
#: (memory bound; above it ``propagate_segment`` and ``decay_steps`` take the
#: Taylor action).
EXPM_MAX_DIM = 2600

#: The 4th-order commutator-free Magnus step (Blanes and Moan, Appl. Numer.
#: Math. 56:1519, 2006): the Gauss nodes c_1, c_2 of a substep and the
#: weights alpha_1, alpha_2 of its two effective drive levels
MAGNUS_NODES = (0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0)
MAGNUS_ALPHA = ((3.0 - 2.0 * SQRT3) / 12.0, (3.0 + 2.0 * SQRT3) / 12.0)

#: Magnus substeps per gaussian FWHM: against a fine fixed-step reference,
#: the error over each column's maximum went as C (h / FWHM)^4, with
#: C = 7-40 for the output covectors and up to ~160 for the grid columns of
#: a 28-atom power-law device; at 400 that is under 1e-8
MAGNUS_PER_FWHM = 400


class DynamicsError(RuntimeError):
    """Numerical failure during time evolution (NaN/Inf in a state block)."""


# ---------------------------------------------------------------------------
# generator assembly

@dataclass
class Generator:
    """The effective generator on the stacked [ground; singles; doubles]
    layout of a state y = [g; psi1; psi2], length 1 + ``index.dim``:
    A(t) = S + Omega_c(t) W + e(t) F, ``stacked`` = (S, W, F) as CSR, with
    the time dependence only in the control Omega_c(t) and the unit-peak
    probe envelope e(t) = ep(t).  F holds the sources, the ground -> singles
    drive s1 and the singles -> doubles block S21."""

    index: ExcitationIndex
    params: PhysicalParams
    chain: AtomChain
    schedule: ControlSchedule
    envelope: PulseEnvelope
    stacked: tuple              # CSR (S, W, F) over [ground; singles; doubles]
    ann: sp.csr_matrix          # doubles -> singles photon annihilation
    out_e: np.ndarray           # singles -> ground annihilation covector
    a2vec: np.ndarray           # doubles -> ground double-annihilation covector
    v_max: float

    def breakpoints(self) -> tuple:
        return tuple(sorted(set(self.envelope.breakpoints()) | set(self.schedule.breakpoints())))

    def m1(self, omega: float) -> np.ndarray:
        """The singles block of S + omega W, dense."""
        k, (s, w, _) = self.index.singles, self.stacked
        return (s[k, k] + omega * w[k, k]).toarray()

    def m2(self, omega: float) -> sp.csr_matrix:
        """The doubles block of S + omega W."""
        k, (s, w, _) = self.index.doubles, self.stacked
        return s[k, k] + omega * w[k, k]

    def output_covectors(self, grid: bool = False) -> np.ndarray:
        """The stack [[0, out_e, 0], [0, 0, a2vec]] over the stacked layout:
        the one- and two-photon output projections a time trace reads.  With
        ``grid`` it goes on with the n1 rows [0, I, 0] and the n1 rows
        [0, 0, ann]: the singles and ann psi2 a correlation grid reads."""
        idx = self.index
        n1, k1, k2 = idx.dim_singles, idx.singles, idx.doubles
        c = np.zeros((2 + 2 * n1 if grid else 2, 1 + idx.dim), dtype=complex)
        c[0, k1] = self.out_e
        c[1, k2] = self.a2vec
        if grid:
            c[2:2 + n1, k1] = np.eye(n1)
            c[2 + n1:, k2] = self.ann.toarray()
        return c


def _csr(m) -> sp.csr_matrix:
    """Complex CSR copy of a dense or sparse matrix, without stored zeros."""
    m = sp.csr_matrix(m, dtype=complex)
    m.eliminate_zeros()
    return m


def singles_blocks(params: PhysicalParams, chain: AtomChain):
    """Single-excitation matrices (layout [e_0..e_{N-1}, r_0..r_{N-1}]).

    Returns (m1s, m1o, s1, out_e): the Omega-independent generator
    (the e and r rates on the diagonal, the cascaded e <- e exchange
    -Gamma_1D/2 strictly below it), the control coupling -i between e_h
    and r_h (to be scaled by Omega_c(t)), the drive source
    i sqrt(Gamma_1D/2) per unit envelope on every e mode and the output
    covector, the same on every e mode.
    """
    n = chain.n_atoms
    m1s = np.zeros((2 * n, 2 * n), dtype=complex)
    m1s[np.tril_indices(n, -1)] = -0.5 * params.gamma_1d
    m1s[np.diag_indices(2 * n)] = np.repeat([1j * params.delta_e - 0.5 * params.gamma_total,
                                             1j * params.delta_2 - params.gamma_r], n)
    m1o = np.zeros((2 * n, 2 * n), dtype=complex)
    m1o[:n, n:] = m1o[n:, :n] = -1j * np.eye(n)
    s1 = np.zeros(2 * n, dtype=complex)
    s1[:n] = 1j * math.sqrt(0.5 * params.gamma_1d)
    return m1s, m1o, s1, s1.copy()


def steady_transmission_amplitude(params: PhysicalParams, chain: AtomChain,
                                  omega_c: float) -> complex:
    """CW steady-state amplitude transmission of the chain, from the actual
    singles generator (solve, not the analytic per-atom product)."""
    m1s, m1o, s1, out_e = singles_blocks(params, chain)
    psi1 = _solve_singles_steady(params, m1s + omega_c * m1o, s1, omega_c, chain.n_atoms)
    return complex(1.0 + out_e @ psi1)


def _solve_singles_steady(params: PhysicalParams, m1: np.ndarray, s1: np.ndarray,
                          omega_c: float, n: int) -> np.ndarray:
    """Solve m1 psi = -s1; with the control off and an undamped, resonant r
    level the r rows are identically zero (never driven), so solve the closed
    e block and pin r to zero instead of inverting a singular matrix."""
    if omega_c == 0.0 and params.gamma_r == 0.0 and params.delta_2 == 0.0:
        psi = np.zeros(2 * n, dtype=complex)
        psi[:n] = dense_solve(m1[:n, :n], -s1[:n])
        return psi
    return dense_solve(m1, -s1)


def assemble_generator(params: PhysicalParams, chain: AtomChain, blockade: BlockadeConfig,
                       schedule: ControlSchedule, envelope: PulseEnvelope) -> Generator:
    """Build the stacked parts (S, W, F) of the cascaded spin-model
    generator from the singles blocks (``singles_blocks``) and their lift
    onto the doubles slots of every rr pair the blockade allows: S and W
    are block diagonal over [ground; singles; doubles], F holds s1 in the
    ground column and S21 in the doubles <- singles block.

    With (a_k, b_k) the modes of doubles slot k (``mode_pairs``), U
    (``spread``) puts slot k on the (2N)^2 pair tensor at (a_k, b_k) and
    (b_k, a_k) with weight 1, or at (a_k, a_k) with weight sqrt(2), and P
    (``pick``) takes (a_k, b_k) back with weight 1, or 1/sqrt(2) when
    a_k = b_k.  For a singles block M with diagonal m and off-diagonal part
    K, its doubles block is P (K x 1 + 1 x K) U + diag(m_a + m_b), and
    the static one also gets -i V_hj on the rr slots.  Then S21 = P (s1 x 1
    + 1 x s1), ann = (out_e^T x 1) U and a2vec = ann^T out_e.  ``v_max`` is the
    largest |V_hj| of an allowed rr pair."""
    idx = build_index(blockade, chain)
    z = chain.z()
    m1s, m1o, s1, out_e = singles_blocks(params, chain)
    n1, d2 = idx.dim_singles, idx.dim_doubles
    a, b = idx.mode_pairs()
    slots = np.arange(d2)
    distinct = a != b
    spread = sp.csr_matrix((np.r_[np.where(distinct, 1.0, SQRT2), np.ones(distinct.sum())],
                            (np.r_[a * n1 + b, (b * n1 + a)[distinct]],
                             np.r_[slots, slots[distinct]])), shape=(n1 * n1, d2))
    pick = sp.csr_matrix((np.where(distinct, 1.0, 1.0 / SQRT2), (slots, a * n1 + b)),
                         shape=(d2, n1 * n1))

    def lift(m1: np.ndarray, shift=0.0) -> sp.csr_matrix:
        rate = np.diag(m1)
        return _csr(pick @ _kron_eye(m1 - np.diag(rate), n1) @ spread
                    + sp.diags(rate[a] + rate[b] - 1j * shift))

    v = np.array([interaction(blockade, abs(z[j] - z[h])) for h, j in idx.rr_pairs])
    m2s, m2o = lift(m1s, np.r_[np.zeros(idx.n_ee + idx.n_er), v]), lift(m1o)
    s21 = _csr(pick @ _kron_eye(s1[:, None], n1))
    g = sp.csr_matrix((1, 1), dtype=complex)        # the ground slot
    stacked = (sp.block_diag([g, _csr(m1s), m2s]), sp.block_diag([g, _csr(m1o), m2o]),
               sp.bmat([[g, None, None], [_csr(s1[:, None]), None, None],
                        [None, s21, sp.csr_matrix((d2, d2), dtype=complex)]]))
    ann = _csr(_kron_eye(out_e[None, :], n1, both=False) @ spread)
    a2vec = np.asarray(ann.T @ out_e).ravel()
    v_max = float(np.max(np.abs(v), initial=0.0))

    return Generator(index=idx, params=params, chain=chain, schedule=schedule,
                     envelope=envelope, stacked=tuple(_csr(m) for m in stacked), ann=ann,
                     out_e=out_e, a2vec=a2vec, v_max=v_max)


def _kron_eye(k: np.ndarray, n: int, both: bool = True) -> sp.csr_matrix:
    """k x 1_n, plus 1_n x k with ``both``, for a dense r x c matrix k, as
    CSR built from k's nonzero triplets (i, j, k_ij) by index arithmetic:
    (i n + p, j n + p) and (p r + i, p c + j) for p < n (scipy's sp.kron
    costs ~0.4 ms a call at n = 8)."""
    r, c = k.shape
    i, j = np.nonzero(k)
    vals = k[i, j].repeat(n)
    i, j, p = i.repeat(n), j.repeat(n), np.tile(np.arange(n), len(i))
    rows, cols = i * n + p, j * n + p
    if both:
        rows, cols, vals = np.r_[rows, p * r + i], np.r_[cols, p * c + j], np.r_[vals, vals]
    return sp.csr_matrix((vals, (rows, cols)), shape=(r * n, c * n))


# ---------------------------------------------------------------------------
# cascade order and the matrix exponential

def _cascade_order(a) -> tuple:
    """(perm, bounds) that make ``a[perm][:, perm]`` block lower triangular,
    for a dense or sparse square ``a``.  The blocks are the strongly
    connected components of the nonzero pattern, in topological order of
    the dependence a[i, j] != 0 (slot i reads slot j, so the block of j comes
    first), ties going to the block of the smallest slot; each holds its
    slots in ascending order.  On the stacked layout, where the doubles
    never feed the singles nor the singles the ground, that keeps the
    ground, the singles and the doubles contiguous and in that order.
    ``bounds`` are the block starts followed by the dimension."""
    pattern = sp.csr_matrix(a != 0)
    n_blocks, label = connected_components(pattern, directed=True, connection="strong")
    label = label.astype(np.int64)
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    src, dst = label[pattern.indices], label[rows]
    cross = src != dst
    edge = np.sort(src[cross] * n_blocks + dst[cross])
    distinct = np.ones(len(edge), dtype=bool)
    distinct[1:] = edge[1:] != edge[:-1]
    src, dst = np.divmod(edge[distinct], n_blocks)
    first = np.searchsorted(src, np.arange(n_blocks + 1))
    pending = np.bincount(dst, minlength=n_blocks)
    rank = np.empty(n_blocks, dtype=np.int64)
    low = np.full(n_blocks, len(label))
    np.minimum.at(low, label, np.arange(len(label)))
    ready = [(low[c], c) for c in np.flatnonzero(pending == 0)]
    heapq.heapify(ready)
    for k in range(n_blocks):
        c = heapq.heappop(ready)[1]
        rank[c] = k
        succ = dst[first[c]:first[c + 1]]
        pending[succ] -= 1
        for c in succ[pending[succ] == 0]:
            heapq.heappush(ready, (low[c], c))
    slot_rank = rank[label]
    perm = np.argsort(slot_rank, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(slot_rank, minlength=n_blocks))])
    return perm, bounds


#: Coefficients b_0..b_13 of the degree-13 Padé approximant of exp, and the
#: 1-norm theta_13 up to which its backward error stays below 2^-53 (Higham,
#: SIAM J. Matrix Anal. Appl. 26:1179, 2005, table 2.3)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152

#: Edge of the triangular tiles ``_tri_mul`` and ``_tri_solve`` hand to one
#: BLAS call (256 and 384 took 0.18-0.19 s per 1,625-dim product, 128 took
#: 0.20 s, against 0.38 s for one ztrmm, one BLAS thread)
TRI_LEAF = 256


@dataclass
class TriangularExp:
    """exp(a) as ``expm`` leaves it: Q tri^T Q^H with ``tri`` upper
    triangular (Fortran-ordered) and Q = Pi^T conj(Z) unitary, where Pi
    takes y to y[perm] and Z is block diagonal over the strongly connected
    components (``blocks``: (i0, i1, z) for each of more than one slot).  A
    vector maps into this basis as w = Q^H y = Z^T y[perm], a covector
    stack as C Q = (Q^H C^H)^H = C[:, perm] conj(Z), and then
    exp(a) y = Q tri^T w and C exp(a) y = (C Q) tri^T w."""

    tri: np.ndarray
    perm: np.ndarray
    blocks: list

    def to_basis(self, y: np.ndarray) -> np.ndarray:
        """Q^H y = Z^T y[perm] for a vector y or the columns of y."""
        w = np.asarray(y, dtype=complex)[self.perm]
        for i0, i1, z in self.blocks:
            w[i0:i1] = z.T @ w[i0:i1]
        return w

    def from_basis(self, w: np.ndarray) -> np.ndarray:
        """y with Z^T y[perm] = w, for a vector w."""
        v = w.copy()
        for i0, i1, z in self.blocks:
            v[i0:i1] = z.conj() @ v[i0:i1]
        y = np.empty_like(v)
        y[self.perm] = v
        return y

    def dense(self) -> np.ndarray:
        """exp(a) as a dense matrix: Z tri Z^H, transposed and permuted back."""
        x = self.tri.copy(order="F")
        for i0, i1, z in self.blocks:
            x[i0:i1, i0:] = z @ x[i0:i1, i0:]
            x[:i1, i0:i1] = x[:i1, i0:i1] @ z.conj().T
        back = np.argsort(self.perm)
        return x.T[np.ix_(back, back)]


def expm(a) -> TriangularExp:
    """exp(a) of a dense or sparse square matrix, complex, by way of the
    cascade structure of the generators this module builds, returned in the
    basis where it is triangular (``TriangularExp``).  A sparse a becomes
    dense only as its permuted transpose u.

    In ``_cascade_order`` a is block lower triangular, so its transpose u is
    block upper triangular; the complex Schur form Z_I^H u_II Z_I of each
    diagonal block makes t = Z^H u Z upper triangular, Z block diagonal.
    exp(t) is the degree-13 Padé approximant of t / 2^s squared s times,
    with s from the exact 1-norm of t and ``THETA13`` (Higham 2005), and
    its diagonal set to exp(t_ii) at every stage; every product is
    triangular times triangular (``_tri_mul``) and the Padé denominator a
    triangular solve (``_tri_solve``).  Apart from a and the result at most
    five d x d arrays are alive at once, plus tiles of a quarter of that.  A
    matrix of one strongly connected component takes one dense Schur form
    and the same steps."""
    perm, bounds = _cascade_order(a)
    u = a[perm][:, perm]
    u = np.asarray(u.toarray() if sp.issparse(u) else u, dtype=complex).T
    blocks = []
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        if i1 - i0 > 1:
            t, z = schur(u[i0:i1, i0:i1], output="complex", check_finite=False)
            u[i0:i1, i1:] = z.conj().T @ u[i0:i1, i1:]
            u[:i0, i0:i1] = u[:i0, i0:i1] @ z
            u[i0:i1, i0:i1] = t      # LAPACK zeroes it below the diagonal
            blocks.append((i0, i1, z))
    norm = dense_norm(u, 1, check_finite=False)
    s = math.ceil(math.log2(norm / THETA13)) if THETA13 < norm < math.inf else 0
    u *= 0.5 ** s
    rates = u.diagonal().copy()
    a2 = u.copy(order="F")
    _tri_mul(u, a2)
    a4 = a2.copy(order="F")
    _tri_mul(a2, a4)
    a6 = a4.copy(order="F")
    _tri_mul(a2, a6)
    x = _pade_part(PADE13[1::2], a2, a4, a6)
    _tri_mul(u, x)
    del u
    v = _pade_part(PADE13[0::2], a2, a4, a6)
    del a2, a4, a6
    # x = (V - U)^-1 (V + U) with U in x and V in v
    v -= x
    x *= 2.0
    x += v
    _tri_solve(v, x)
    del v
    # the diagonal of exp(2^j t) is exp(2^j t_ii); setting it exactly after
    # the Padé step and each squaring (Al-Mohy and Higham, SIAM J. Matrix
    # Anal. Appl. 31:970, 2009, code fragment 2.1) took the replica's singles
    # block from 1e-15 to 2e-16 off a 40-digit reference
    x.reshape(-1, order="F")[::len(x) + 1] = np.exp(rates)
    return TriangularExp(_tri_squarings(x, s, rates), perm, blocks)


def _tri_squarings(x: np.ndarray, k: int, rates: np.ndarray | None = None) -> np.ndarray:
    """x^(2^k) for an upper triangular, Fortran-ordered x by k squarings
    (``_tri_mul``), in x's memory and one more array; with ``rates`` the
    diagonal is set to exp(2^j rates) after squaring j."""
    if k == 0:
        return x
    v = np.empty_like(x, order="F")
    for j in range(1, k + 1):
        v[...] = x
        _tri_mul(x, v)
        x, v = v, x
        if rates is not None:
            x.reshape(-1, order="F")[::len(x) + 1] = np.exp(rates * 2.0 ** j)
    return x


def _pade_part(c, a2: np.ndarray, a4: np.ndarray, a6: np.ndarray) -> np.ndarray:
    """c_0 I + c_1 A2 + c_2 A4 + c_3 A6 + A6 (c_4 A2 + c_5 A4 + c_6 A6) in
    one new Fortran-ordered array: the even part V of the degree-13 Padé
    numerator for c = b_0, b_2, .., b_12, and U / A for c = b_1, .., b_13."""
    x = np.multiply(a6, c[6], order="F")
    flat = x.reshape(-1, order="F")
    for ci, p in zip(c[4:6], (a2, a4)):
        zaxpy(p.reshape(-1, order="F"), flat, a=ci)
    _tri_mul(a6, x)
    for ci, p in zip(c[1:4], (a2, a4, a6)):
        zaxpy(p.reshape(-1, order="F"), flat, a=ci)
    flat[::len(x) + 1] += c[0]
    return x


def _tri_mul(l: np.ndarray, m: np.ndarray) -> None:
    """m <- l m in place for upper triangular l and m (Fortran-ordered, or
    tiles of such arrays), by recursive 2 x 2 tiles: the off-diagonal tile
    l11 m12 + l12 m22 is two ztrmm calls, the diagonal tiles recurse, and
    only leaves of ``TRI_LEAF`` treat a triangle as full.  That is about
    n^3/6 complex multiplications against n^3/2 for one ztrmm."""
    n = len(l)
    if n <= TRI_LEAF:
        m[...] = ztrmm(1.0, l, m, overwrite_b=1)
        return
    h = n // 2
    tail = ztrmm(1.0, m[h:, h:], l[:h, h:], side=1)
    m[:h, h:] = ztrmm(1.0, l[:h, :h], m[:h, h:], overwrite_b=1)
    m[:h, h:] += tail
    del tail
    _tri_mul(l[:h, :h], m[:h, :h])
    _tri_mul(l[h:, h:], m[h:, h:])


def _tri_solve(l: np.ndarray, m: np.ndarray) -> None:
    """m <- l^-1 m in place for upper triangular l and m, tiled like
    ``_tri_mul``: x22 first, then x12 = l11^-1 (m12 - l12 x22), then x11."""
    n = len(l)
    if n <= TRI_LEAF:
        m[...] = ztrsm(1.0, l, m, overwrite_b=1)
        return
    h = n // 2
    _tri_solve(l[h:, h:], m[h:, h:])
    m[:h, h:] -= ztrmm(1.0, m[h:, h:], l[:h, h:], side=1)
    m[:h, h:] = ztrsm(1.0, l[:h, :h], m[:h, h:], overwrite_b=1)
    _tri_solve(l[:h, :h], m[:h, :h])


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class StateTrajectory:
    """The projections ``covectors @ y``, (n_samples, c), of the stacked
    state y = [g; psi1; psi2] on a near-uniform output grid (breakpoints
    injected so that discontinuities land exactly on samples).
    ``envelope_unit`` and ``omega_c`` hold the right-continuous values at
    the sample times, i.e. the post-jump values exactly at a discontinuity.
    ``segment_starts`` holds the sample index where each segment of the
    evolution starts: a segment runs to the next one's start (the last to
    the final sample) in equal steps at constant Omega_c.
    """

    index: ExcitationIndex
    times: np.ndarray
    covectors: np.ndarray
    projections: np.ndarray
    envelope_unit: np.ndarray
    omega_c: np.ndarray
    segment_starts: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("trajectory time grid must be strictly increasing")
        if self.projections.shape != (len(self.times), len(self.covectors)):
            raise ConfigurationError("projections must be (samples, covectors)")
        s = self.segment_starts
        if (s.ndim != 1 or len(s) == 0 or s[0] != 0 or np.any(np.diff(s) <= 0)
                or s[-1] >= len(self.times) - 1):
            raise ConfigurationError("segment starts must rise from 0 and stay inside the grid")

    @property
    def n_samples(self) -> int:
        return len(self.times)


def _check_finite(y: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(y.view(float))):
        raise DynamicsError(f"non-finite state at t={t:.6g}")


def _check_length(gen: Generator, y: np.ndarray) -> None:
    if len(y) != 1 + gen.index.dim:
        raise ConfigurationError(f"stacked vector of length {len(y)}, "
                                 f"expected {1 + gen.index.dim}")


def _segment_grid(t0: float, t1: float, breakpoints, dt_out: float):
    """Per-segment uniform output grids hitting every breakpoint exactly."""
    eps = 1e-12 * max(1.0, abs(t0), abs(t1))
    cuts = [t0] + [b for b in sorted(breakpoints) if t0 + eps < b < t1 - eps] + [t1]
    segments = []
    for a, b in zip(cuts, cuts[1:]):
        n_out = max(1, math.ceil((b - a) / dt_out - 1e-9))
        segments.append((a, b, n_out))
    return segments


def propagate_segment(gen: Generator, y: np.ndarray, a: float, b: float, n_out: int = 1, *,
                      out: np.ndarray | None = None, cache: dict | None = None,
                      project: np.ndarray | None = None) -> np.ndarray:
    """Advance the stacked vector ``y`` (length 1 + ``index.dim``) from
    ``a`` to ``b`` in ``n_out`` equal output steps and return the state at
    ``b``; row k of ``out``, when given, receives ``project @ y`` (c x d
    covectors) after step k + 1.  A segment may not cross a breakpoint of
    the envelope or the control, so Omega_c is constant on it and the
    envelope one smooth piece.

    The route follows ``PulseEnvelope.affine_on``.  A stretch of constant
    coefficients (slope 0) takes the exact exponential at its drive level:
    the dense unit-drive one under ``EXPM_MAX_DIM``, reused with its
    giant-step power across calls through a ``cache`` dict kept for one
    generator, the Taylor action above it.  So does a drive ramp (a nonzero
    slope), through the clocked generator of ``_ramp_powers``.  The rest, a
    gaussian envelope inside its window, takes the Magnus step
    (``_magnus_powers``)."""
    _check_length(gen, y)
    eps = 1e-12 * max(1.0, abs(a), abs(b))
    if any(a + eps < t < b - eps for t in gen.breakpoints()):
        raise DynamicsError(f"segment [{a:.6g}, {b:.6g}] crosses a breakpoint")
    h_out = (b - a) / n_out
    project = np.empty((0, len(y))) if project is None else project
    cache = {} if cache is None else cache
    om = gen.schedule.value(a)
    ramp = gen.envelope.affine_on(a, b)
    if ramp is None:
        proj, y = _magnus_powers(gen, om, a, h_out, n_out, y, project, cache)
    elif ramp[1] != 0.0:
        proj, z = _ramp_powers(gen, om, ramp, h_out, y, n_out, project)
        y = z[:len(y)]
        proj[-1] = project @ y
    elif len(y) <= EXPM_MAX_DIM:
        m = _giant_step(len(y), n_out, len(project))
        unit, giant = (_unit_exp(cache, gen, om, h_out, p) for p in (1, m))
        with _at_drive([unit] if m == 1 else [unit, giant], gen.index, ramp[0]):
            proj, y = _dense_powers(unit, y, n_out, project, giant=(m, giant.tri))
    else:
        s, w, f = gen.stacked
        proj, y = _action_powers(s + om * w + ramp[0] * f, h_out, y, n_out, project)
    if out is not None:
        out[:] = proj
    return y


def _unit_exp(cache: dict, gen: Generator, omega: float, tau: float,
              m: int = 1) -> TriangularExp:
    """exp(A(1) tau)^m for a power of two m, with exp(A(1) tau) the
    unit-drive exponential of ``gen.stacked`` (S, W, F) at control
    ``omega``, each once per (omega, tau, m) in ``cache``: the power by
    log2 m squarings in the same basis.  At the unit drive one power serves
    every drive level e, since D P^m D^-1 = (D P D^-1)^m."""
    key = (round(omega, 15), round(tau, 15), m)
    if key not in cache:
        if m == 1:
            s, w, f = gen.stacked
            cache[key] = expm(_csr((s + omega * w + f) * tau))
        else:
            unit = _unit_exp(cache, gen, omega, tau)
            cache[key] = TriangularExp(_tri_squarings(unit.tri.copy(order="F"),
                                                      m.bit_length() - 1),
                                       unit.perm, unit.blocks)
    return cache[key]


def _magnus_powers(gen: Generator, omega: float, a: float, h_out: float, n_out: int,
                   y: np.ndarray, project: np.ndarray, cache: dict):
    """The projections ``project @ y`` after each of ``n_out`` steps of
    ``h_out`` from ``a`` at control ``omega`` under a gaussian envelope, and
    the end state, by the 4th-order commutator-free Magnus step.  On the
    stretch A(t) = A0 + e(t) F, and a substep t -> t + h is

        exp((h/2) A(e_b)) exp((h/2) A(e_a)),
        e_a = 2 (alpha_2 e_1 + alpha_1 e_2),  e_b = 2 (alpha_1 e_1 + alpha_2 e_2)

    with e_1, e_2 the envelope at the Gauss nodes t + c_i h (``MAGNUS_NODES``,
    ``MAGNUS_ALPHA``).  An output step takes k = ceil(h_out
    ``MAGNUS_PER_FWHM`` / FWHM) substeps.  Under ``EXPM_MAX_DIM`` both
    factors are the cached unit-drive exponential at h/2 put at their drive
    level in place (``_at_drive``), which holds also where the envelope
    underflows to 0, and a factor is one triangular matvec; above it a
    factor is the Taylor action of the folded CSR at its level."""
    k = max(1, math.ceil(h_out * MAGNUS_PER_FWHM / gen.envelope.gaussian_fwhm - 1e-9))
    h = h_out / k
    (c1, c2), (a1, a2) = MAGNUS_NODES, MAGNUS_ALPHA
    shape = gen.envelope.unit_shape

    def run(factor, v, rows):
        proj = np.empty((n_out, len(rows)), dtype=complex)
        for j in range(n_out):
            for i in range(k):
                t = a + j * h_out + i * h
                e1, e2 = shape(t + c1 * h), shape(t + c2 * h)
                v = factor(2.0 * (a2 * e1 + a1 * e2), v)
                v = factor(2.0 * (a1 * e1 + a2 * e2), v)
            proj[j] = rows @ v
        return proj, v

    if len(y) <= EXPM_MAX_DIM:
        unit = _unit_exp(cache, gen, omega, 0.5 * h)
        with _at_drive([unit], gen.index) as at:
            def factor(e, v):
                at(e)
                return ztrmv(unit.tri, v, trans=1)
            proj, v = run(factor, unit.to_basis(y),
                          unit.to_basis(project.conj().T).conj().T)
        y = unit.from_basis(v)
    else:
        s, w, f = gen.stacked
        proj, y = run(lambda e, v: _TaylorAction(_csr(s + omega * w + e * f))(0.5 * h, v),
                      y, project)
    proj[-1] = project @ y
    return proj, y


def _ramp_powers(gen: Generator, omega: float, ramp: tuple, h_out: float, y: np.ndarray,
                 n_out: int, project: np.ndarray):
    """The projections ``project @ y`` after each of ``n_out`` steps of
    ``h_out`` over a drive ramp e(a + tau) = c0 + c1 tau at control
    ``omega``, and the end state of the clocked layout [y; tau y_K; tau^2 g]:
    g is the ground amplitude of the stacked state y and K its first
    k = 1 + n1 slots, every slot F reads: the ground and the singles.  With
    A0 = S + Omega W, y' = (A0 + c0 F) y + c1 F tau y_K
    closes on these clocks, since the ground is frozen and the rows of
    A0 + e F in K read only K:

        (tau y_K)'  = y_K + (A0 + c0 F)_KK tau y_K + c1 F_K0 tau^2 g
        (tau^2 g)'  = 2 tau g

    (the augmented-matrix idea of Al-Mohy and Higham, SIAM J. Sci. Comput.
    33:488, 2011, section 2).  So the ramp is the constant CSR generator B
    of d + k + 1 rows: the clocks start at zero, the covectors are padded
    with zeros, and the steps are Taylor actions of B (``_action_powers``)."""
    c0, c1 = ramp
    d, k = len(y), gen.index.singles.stop
    s, w, f = gen.stacked
    a0 = s + omega * w + c0 * f
    b = _csr(sp.bmat([[a0, c1 * f[:, :k], None],
                      [sp.eye(k, d, dtype=complex), a0[:k, :k], c1 * f[:k, :1]],
                      [None, 2.0 * sp.eye(1, k, dtype=complex), None]]))
    z = np.concatenate([y, np.zeros(k + 1, dtype=complex)])
    rows = np.hstack([project, np.zeros((len(project), k + 1), dtype=complex)])
    return _action_powers(b, h_out, z, n_out, rows)


@contextmanager
def _at_drive(props: list, index: ExcitationIndex, e: float = 1.0):
    """Puts ``props``, unit-drive propagators of the stacked layout in one
    basis, at drive level ``e`` for the body of the ``with``, and yields the
    setter of that level: D exp(A(1) h) D^-1 with D = diag(1, e, e^2) over
    [ground; singles; doubles].  Z keeps to one strongly connected
    component, none mixes the three levels, and ``_cascade_order`` keeps
    each level contiguous, so ``tri`` is triangular over the level blocks
    and block (k, l) scales by e^(l - k), in place: no level is ever divided
    by e, and at e = 0 only the blocks within one level are left.  The
    unit-drive blocks are put back on exit."""
    level = np.searchsorted([index.singles.start, index.doubles.start], props[0].perm,
                            side="right")
    if np.any(np.diff(level) < 0):
        raise DynamicsError("the cascade order mixes the ground, singles and doubles")
    i1, i2 = np.searchsorted(level, [1, 2])
    cells = [((slice(0, i1), slice(i1, i2)), 1), ((slice(0, i1), slice(i2, None)), 2),
             ((slice(i1, i2), slice(i2, None)), 1)]
    units = [[p.tri[c].copy() for c, _ in cells] for p in props]

    def set_drive(e: float) -> None:
        for p, unit in zip(props, units):
            for (c, power), u in zip(cells, unit):
                np.multiply(u, e ** power, out=p.tri[c])

    try:
        if e != 1.0:
            set_drive(e)
        yield set_drive
    finally:
        for p, unit in zip(props, units):
            for (c, _), u in zip(cells, unit):
                p.tri[c] = u


#: Largest doubles block whose free decay takes the dense exponential; a
#: larger one stays CSR and takes the Taylor action.  Over the turn-off
#: scan's 5,000 steps (horizon 45, Omega_c = 0.05 and 0.5, one BLAS thread)
#: dense against action took 0.027-0.038 s against 0.050-0.060 s at d = 222,
#: 0.046-0.048 s against 0.052-0.065 s at d = 260, about even at d = 301
#: (0.060-0.069 s against 0.055-0.067 s), 0.077-0.091 s against 0.049-0.059 s
#: at d = 345 and 0.74-0.81 s against 0.13 s at d = 950.  The singles block
#: is dense up to ``EXPM_MAX_DIM``: its e block is dense lower triangular, so
#: one sparse matvec of an action costs about what a dense triangular step
#: does, and an action step takes several.
DECAY_DENSE_DOUBLES = 300


def decay_steps(gen: Generator, omega: float, h: float, doubles: bool = False):
    """The steps of P = exp(M h) for the singles block M, or with ``doubles``
    the doubles block, evolving alone: the probe is off, so no block is
    sourced, and the control stays at ``omega``.  The result maps
    (y, n_out, project), ``project`` a c x d covector stack, to
    (``project @ P^k @ y`` for k = 1..n_out, shape (n_out, c), and the end
    state P^n_out y, from which a later call goes on).  These are projected
    powers by baby and giant steps
    (``_projected_powers``).  The singles block under ``EXPM_MAX_DIM``, and a
    doubles block up to ``DECAY_DENSE_DOUBLES``, take P once from ``expm``
    (``_dense_powers``); a larger block stays CSR and takes the actions of P
    and P^m (``_action_powers``)."""
    m = gen.m2(omega) if doubles else gen.m1(omega)
    d = m.shape[0]
    if d <= EXPM_MAX_DIM and (not doubles or d <= DECAY_DENSE_DOUBLES):
        return partial(_dense_powers, expm(m * h))
    return partial(_action_powers, _csr(m), h)


#: theta_m for the degree-m Taylor polynomial of exp(X): over ||X||_1 <= theta_m
#: its backward error stays below 2^-53 (Higham, Functions of Matrices, 2008,
#: table A.3; Al-Mohy and Higham 2011, table 3.1).  The table stops at m = 30:
#: the terms of one substep grow to about exp(theta_m) times its result, and
#: at theta_55 = 9.9 their rounding reached 8e-13 relative on a power-law
#: doubles block, against 4e-15 with m <= 30
TAYLOR_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
                6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
                11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
                16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
                22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86,
                28: 3.08, 29: 3.31, 30: 3.54}


class _TaylorAction:
    """exp(tau A) X for a CSR matrix A and a vector or column stack X, by the
    truncated Taylor series of Al-Mohy and Higham (2011, algorithm 3.2) with
    the trace shift mu = tr(A)/d: s substeps of degree m, both chosen from
    the exact 1-norm of tau (A - mu I) and ``TAYLOR_THETA`` to minimize the
    matvecs m s.  A substep stops early once two consecutive terms fall
    below 2^-53 of the sum.  No norm is estimated and nothing is random, so
    a repeated call is bit-identical (scipy's ``expm_multiply`` draws its
    norm estimates from numpy's global generator)."""

    def __init__(self, a: sp.csr_matrix):
        d = a.shape[0]
        self.mu = a.diagonal().sum() / d
        self.shifted = _csr(a - self.mu * sp.identity(d, dtype=complex, format="csr"))
        self.norm = float(abs(self.shifted).sum(axis=0).max())

    def plan(self, tau: float) -> tuple:
        """(m, s), degree and substeps, for exp(tau A)."""
        x = tau * self.norm
        if x == 0.0:
            return 0, 1
        return min((m * max(1, math.ceil(x / th)), m, max(1, math.ceil(x / th)))
                   for m, th in TAYLOR_THETA.items())[1:]

    def matvecs(self, tau: float) -> int:
        """The planned matvecs of one action over tau."""
        m, s = self.plan(tau)
        return m * s

    def __call__(self, tau: float, x: np.ndarray) -> np.ndarray:
        m, s = self.plan(tau)
        eta = np.exp(tau * self.mu / s)
        f = x
        for _ in range(s):
            c1 = np.max(np.abs(x))
            for j in range(1, m + 1):
                x = (tau / (s * j)) * (self.shifted @ x)
                c2 = np.max(np.abs(x))
                f = f + x
                if c1 + c2 <= 2.0 ** -53 * np.max(np.abs(f)):
                    break
                c1 = c2
            f = eta * f
            x = f
        return f


#: Squaring-to-matvec cost ratio over the dimension d: one triangular d x d
#: squaring (``_tri_mul``) costs d / SQUARE_KAPPA triangular matvecs (ztrmv)
#: (measured 6.1-10.4 at d = 975-1,625, one BLAS thread; any value in
#: 7.5-9.7 makes the same choices on the default runs)
SQUARE_KAPPA = 8.0


def _cheapest_power(n: int, cost) -> int:
    """The power of two m = 2^k <= n whose ``cost(k)`` is least (the smaller
    m on a tie)."""
    return 1 << min(range(n.bit_length()), key=cost)


def _giant_step(d: int, n: int, c: int) -> int:
    """The power of two m that minimizes the cost, in matvecs, of ``n``
    projected powers of a triangular d x d propagator onto ``c`` covectors:
    log2(m) squarings at d / SQUARE_KAPPA each, c m baby rows and
    ceil(n / m) giant columns (m = 1 is the plain step loop)."""
    return _cheapest_power(n, lambda k: k * d / SQUARE_KAPPA + c * (1 << k) + -(-n // (1 << k)))


def _dense_powers(prop: TriangularExp, y: np.ndarray, n_out: int, project: np.ndarray,
                  giant: tuple | None = None):
    """``_projected_powers`` of an ``expm`` propagator in its triangular
    basis: y and the covectors map in once, a step is one triangular matvec
    (ztrmv with tri^T), P^m takes log2 m triangular squarings (m from
    ``_giant_step``) unless ``giant`` gives (m, P^m), and only the end state
    maps back.  The last row is then ``project`` times that end state, so
    the two agree to the bit."""
    tri = prop.tri
    if giant is None:
        m = _giant_step(len(y), n_out, len(project))
        giant = m, _tri_squarings(tri.copy(order="F"), m.bit_length() - 1) if m > 1 else tri
    m, tri_m = giant
    proj, w = _projected_powers(lambda v: ztrmv(tri, v, trans=1),
                                lambda r: ztrmm(1.0, tri, r.T).T,
                                lambda v: ztrmv(tri_m, v, trans=1),
                                m, prop.to_basis(y), n_out,
                                prop.to_basis(project.conj().T).conj().T)
    y = prop.from_basis(w)
    proj[-1] = project @ y
    return proj, y


def _action_powers(a: sp.csr_matrix, h: float, y: np.ndarray, n_out: int,
                   project: np.ndarray):
    """``_projected_powers`` of P = exp(a h) for a CSR ``a`` that never
    becomes dense, by Taylor actions (``_TaylorAction``): the baby rows
    C P^i advance by the action of a^T over h, the giant columns by that of
    a over m h, with m the power of two that minimizes the planned matvecs
    ceil(n/m) mv(m h) + c m mv(h)."""
    right, left = _TaylorAction(a), _TaylorAction(a.T.tocsr())
    c = len(project)
    m = _cheapest_power(n_out, lambda k: (-(-n_out // (1 << k)) * right.matvecs((1 << k) * h)
                                          + c * (1 << k) * left.matvecs(h)))
    return _projected_powers(lambda v: right(h, v), lambda r: left(h, r.T).T,
                             lambda v: right(m * h, v), m, y, n_out, project)


def _projected_powers(step, step_rows, giant, m: int, y: np.ndarray, n_out: int,
                      project: np.ndarray):
    """``project @ P^k @ y`` for k = 1..n_out by baby and giant steps, P given
    by its actions ``step(v)`` = P v, ``step_rows(r)`` = r P on a row stack
    and ``giant(v)`` = P^m v: with k = j m + i + 1, the rows ``project @ P^i``
    (i = 0..m-1) and the columns P^(j m + 1) y (j = 0..J-1, J = ceil(n_out /
    m)) meet in one (J x d)(d x m c) product (at m = 1, the step loop
    y <- P y projected).  Returns that, shape (n_out, c) for the c x d stack
    ``project`` (c may be 0), and the end state P^n_out y, the last column
    advanced by at most m - 1 steps."""
    c, d = project.shape
    n_giant = -(-n_out // m)
    baby = np.empty((m, c, d), dtype=complex)
    baby[0] = project
    for i in range(1, m if c else 1):
        baby[i] = step_rows(baby[i - 1])
    cols = np.empty((n_giant, d), dtype=complex)
    cols[0] = step(y)
    for j in range(1, n_giant):
        cols[j] = giant(cols[j - 1])
    proj = (cols @ baby.reshape(m * c, d).T).reshape(n_giant * m, c)[:n_out]
    y = cols[-1]
    for _ in range(n_out - (n_giant - 1) * m - 1):
        y = step(y)
    return proj, y


def evolve(generator: Generator, t_span, dt_out: float, initial: np.ndarray | None = None,
           project: np.ndarray | None = None) -> StateTrajectory:
    """Integrate the stacked state y = [g; psi1; psi2] from ``initial`` (by
    default the vacuum e_0, g = 1) over ``t_span`` and sample it at output
    steps of at most ``dt_out``, every envelope and control breakpoint
    landing on a sample; each segment between breakpoints goes through
    ``propagate_segment``, and the trajectory records where it starts.  An
    ``initial`` vector of another length than 1 + ``index.dim`` is refused.

    The trajectory holds the projections ``project @ y`` of a covector
    stack (c x (1 + dim) over [ground; singles; doubles]), by default
    ``Generator.output_covectors(grid=True)``: what a trace and a
    correlation grid read.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ConfigurationError("need t_span with t1 > t0")
    idx = generator.index
    y = (np.eye(1, 1 + idx.dim, dtype=complex)[0] if initial is None
         else np.asarray(initial, dtype=complex))
    _check_length(generator, y)
    if project is None:
        project = generator.output_covectors(grid=True)
    segments = _segment_grid(t0, t1, generator.breakpoints(), dt_out)
    n_samples = 1 + sum(n for _, _, n in segments)
    record = np.empty((n_samples, len(project)), dtype=complex)
    record[0] = project @ y
    times = [t0]
    starts = []
    cache: dict = {}
    for (a, b, n_out) in segments:
        i = len(times)
        starts.append(i - 1)
        y = propagate_segment(generator, y, a, b, n_out, out=record[i:i + n_out],
                              cache=cache, project=project)
        h_out = (b - a) / n_out
        # the last sample is the breakpoint itself, so the next segment's
        # start reads the post-jump envelope and control
        times.extend([*(a + k * h_out for k in range(1, n_out)), b])
        _check_finite(y, b)

    return StateTrajectory(index=idx, times=np.array(times), covectors=project,
                           projections=record,
                           envelope_unit=np.array([generator.envelope.unit_shape(t)
                                                   for t in times]),
                           omega_c=np.array([generator.schedule.value(t) for t in times]),
                           segment_starts=np.array(starts))


# ---------------------------------------------------------------------------
# steady state (CW drive at the given control amplitude)

def steady_state(generator: Generator, omega_c: float) -> np.ndarray:
    """The stacked steady state y = [1; psi1; psi2] at unit drive and
    control ``omega_c`` (the exact long-pulse limit): rows 1: of
    (S + omega_c W + F) y = 0, solved by direct linear solves with s1 and
    S21 read from F.

    The doubles system is solved in ``_cascade_order``, block lower
    triangular with blocks of at most 4 slots, so LU in the natural order
    is block forward substitution and makes next to no fill."""
    idx = generator.index
    p = generator.params
    k1, k2 = idx.singles, idx.doubles
    f = generator.stacked[2]
    y = np.eye(1, 1 + idx.dim, dtype=complex)[0]
    y[k1] = _solve_singles_steady(p, generator.m1(omega_c),
                                  f[k1, 0].toarray().ravel(), omega_c, idx.n_atoms)
    rhs2 = -(f[k2, k1] @ y[k1])
    if idx.dim_doubles > 0:
        m2 = generator.m2(omega_c)
        if omega_c == 0.0 and p.gamma_r == 0.0 and p.delta_2 == 0.0:
            # rr rows are undriven and undamped with the control off; keep them
            # at zero and solve the damped ee/er sector only
            n_keep = idx.n_ee + idx.n_er
            m2 = m2[:n_keep, :n_keep]
        perm, _ = _cascade_order(m2)
        y[k2][perm] = spla.spsolve(m2[perm][:, perm].tocsc(), rhs2[perm],
                                   permc_spec="NATURAL")
    return y


# ---------------------------------------------------------------------------
# the undriven singles propagator

class SinglesPropagator:
    """The undriven singles propagator of a correlation grid's segments,
    d x/dt = M1(Omega_c) x at the segment's constant Omega_c, blind to the
    envelope: one dense exp(M1 h) per (Omega_c, h) for the grid."""

    def __init__(self, generator: Generator):
        self.gen = generator
        self._cache: dict = {}

    def step(self, omega: float, h: float) -> np.ndarray:
        """exp(M1(``omega``) ``h``), one sample step of a segment."""
        key = (round(omega, 15), round(h, 15))
        prop = self._cache.get(key)
        if prop is None:
            prop = self._cache[key] = expm(self.gen.m1(omega) * h).dense()
        return prop
