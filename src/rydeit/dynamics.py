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
enter only through the blockade.  A second gauge, e_h -> i e_h, makes the
control coupling -1 (e <- r) and +1 (r <- e), the drive sqrt(Gamma_1D/2)
and f1 = ep - sqrt(Gamma_1D/2) sum_h e_h: the generator is assembled so,
and is real when d_e = d_2 = 0 and no allowed rr pair carries a shift
(full blockade, or none); then it and every run's buffers are float64.

Every evolution of the full state goes through ``evolve``, which advances
a stacked [ground; singles; doubles] vector across each segment in equal
output steps.  ``Generator.stacked`` holds the generator on that
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

``Generator.operator`` alone sums S + Omega_c W + e F, on the stacked
layout or its singles or doubles block.  ``SinglesPropagator``, the one
cache of exponentials, holds one such block; on the stacked layout its
E = exp(A(1) h), at unit drive once per (Omega_c, step h), is split at
the levels [ground; singles; doubles] into its level-diagonal and
level-crossing blocks, read-only (``TriangularExp.split``).  With
D = diag(1, e, e^2) over the levels, exp(A(e) h) = D E D^-1: a step
(``_tri_apply``) is the level-diagonal blocks of E, then the blocks one
level apart times e and the block two apart times e^2, nothing divided by
e, which may underflow to 0.  So a square pulse's plateau (e = 1) and
tail (e = 0), each one ``decay`` at its level, share one exponential and
its giant-step power.  The singles and doubles decay undriven: after
turn-off, and in a correlation grid, which steps the singles by
exp(M1 h) at each segment's Omega_c and sample step h
(``StateTrajectory.segment_starts``).  One ``dense`` rule picks the route:
a block of at most ``EXPM_MAX_DIM`` slots, a doubles block of at most
``DECAY_DENSE_DOUBLES``, steps its dense exponential, in a stretch or a
Magnus factor; any other takes Taylor actions (``_action_powers``).

Each exponential is this module's ``expm``.  The model is cascaded
(Gardiner, PRL 70:2269, 1993): a slot is driven only by slots upstream of
it, so the strongly connected components of the generator's nonzero
pattern, in the order scipy labels them, each after those it reads
(``_cascade_order``), make it block lower triangular, with blocks of at
most 2 slots in the singles, (e_h, r_h), and 4 in the doubles, the ee,
er, re and rr amplitudes of one pair.  Padé
scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005)
keeps that structure.  Its degree comes from the norm: 3, 5, 7 or 9 below
their theta_m, else 13 with squarings.  Products by the generator stay
sparse; the higher powers and the squarings are block triangular products
on tile trees split at block starts (``_Tiles``), which store no lower-left
rectangle, about n^3/6 multiplications each against n^3 for a dense GEMM.
Degree 13 takes four such products and at most four tile trees at once,
0.56 d^2 entries each at the replica's d = 1,625 (at one BLAS thread
1.4-1.6 s for its complex propagator and 0.11-0.22 s for a real 1,001-dim
turn-on one, degree 7 to 13, against 5.3-7.1 s and 0.3-0.5 s for
scipy.linalg.expm, agreeing to 5e-15 of the largest entry).  A stretch
permutes y and the covectors into cascade order once (``TriangularExp``)
and only its end state back; no block mixes the levels, and the order
keeps each contiguous, so they start where they do in the stacked layout.
``steady_state`` solves the doubles system in the same order, where LU in
the natural order makes next to no fill.

``evolve`` records only the projections C y of a covector stack C (c rows
over the stacked layout) per sample.  ``Generator.output_covectors`` gives
the rows out_e and a2vec, all a time trace reads, and with ``grid`` also the
singles and the rows of ann, all a correlation grid reads (42 rows on the
default emulate-hbt device, against 176 dimensions).  The projections
C P^k y (k = 1..n) of a constant stretch with P = exp(A h) (``decay``), on
the stacked layout or one block, come from ``_projected_powers`` by baby
and giant steps (after Paterson and Stockmeyer, SIAM J. Comput. 2:60,
1973): with k = j m + i + 1, the rows
C P^i (i < m) and the columns P^(j m + 1) y (j < ceil(n/m)) meet in one
(ceil(n/m) x d)(d x m c) product, and the end state is the last column
advanced by at most m - 1 steps, from which a turn-off point goes on over
each longer horizon it needs (``scenarios._turnoff_point``).

An ``expm`` propagator P keeps P^m, log2 m squarings (``_tri_mul``) once per
m (``TriangularExp.power``), and a step is one triangular matvec
(``_tri_apply``); m is the power of two that minimizes the cost in matvecs
(``_giant_step``, ``SQUARE_KAPPA``): m = 16 for a turn-on point (d ~ 1,001,
n = 2,500, c = 2) and m = 2 for the replica (d = 1,625, n = 490 and 600).
A propagator that is not ``dense`` never builds the matrix
(``_action_powers``): baby rows and giant columns advance by the action of
the exponential
(``_TaylorAction``, a truncated Taylor series after Al-Mohy and Higham, SIAM
J. Sci. Comput. 33:488, 2011), with m chosen from the planned matvecs of
those actions.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm as scipy_expm, solve as dense_solve
from scipy.linalg.blas import get_blas_funcs
from scipy.sparse.csgraph import connected_components

from .model import (AtomChain, BlockadeConfig, ConfigurationError, ControlSchedule,
                    PhysicalParams, PulseEnvelope, interaction, interior)
from .statespace import ExcitationIndex, build_index

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: Largest block, in slots, whose exponential is a dense matrix (memory
#: bound; above it ``SinglesPropagator.dense`` is false, and ``decay`` and
#: the Magnus step take the Taylor action).  At 2,600 complex slots an
#: ``expm`` holds four tile trees of 0.53 d^2 entries, about 230 MB (433 MB
#: as four d x d arrays)
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

    @property
    def dtype(self) -> np.dtype:    # float64 when every part is real, else complex
        return self.stacked[0].dtype

    def breakpoints(self) -> tuple:
        return tuple(sorted(set(self.envelope.breakpoints()) | set(self.schedule.breakpoints())))

    def operator(self, omega: float, e: float = 0.0, slots: slice | None = None) -> sp.csr_matrix:
        """S + omega W + e F as CSR, at control ``omega`` and drive level ``e``,
        on the stacked layout or its block ``slots`` (``index.singles`` or
        ``index.doubles``, where F is 0): the one place the parts are summed."""
        s, w, f = self.stacked if slots is None else (m[slots, slots] for m in self.stacked)
        return s + omega * w + e * f

    def output_covectors(self, grid: bool = False) -> np.ndarray:
        """The stack [[0, out_e, 0], [0, 0, a2vec]] over the stacked layout:
        the one- and two-photon output projections a time trace reads.  With
        ``grid`` it goes on with the n1 rows [0, I, 0] and the n1 rows
        [0, 0, ann]: the singles and ann psi2 a correlation grid reads."""
        idx = self.index
        n1, k1, k2 = idx.dim_singles, idx.singles, idx.doubles
        c = np.zeros((2 + 2 * n1 if grid else 2, 1 + idx.dim), dtype=self.dtype)
        c[0, k1] = self.out_e
        c[1, k2] = self.a2vec
        if grid:
            c[2:2 + n1, k1] = np.eye(n1)
            c[2 + n1:, k2] = self.ann.toarray()
        return c


def _csr(m) -> sp.csr_matrix:
    """CSR copy without stored zeros, float64 when its imaginary part is 0."""
    m = sp.csr_matrix(m, dtype=np.result_type(m.dtype, float))
    if m.dtype.kind == "c" and not np.any(m.data.imag):
        m = m.real
    m.eliminate_zeros()
    return m


def singles_blocks(params: PhysicalParams, chain: AtomChain):
    """Single-excitation matrices (layout [e_0..e_{N-1}, r_0..r_{N-1}]).

    Returns (m1s, m1o, s1, out_e) in the gauge e_h -> i e_h: the
    Omega-independent generator (the e and r rates on the diagonal, the
    cascaded e <- e exchange -Gamma_1D/2 strictly below it), the control
    coupling, -1 for e_h <- r_h and +1 for r_h <- e_h (to be scaled by
    Omega_c(t)), the drive source sqrt(Gamma_1D/2) per unit envelope on
    every e mode and the output covector, -sqrt(Gamma_1D/2) on every e mode.
    """
    n = chain.n_atoms
    m1s = np.zeros((2 * n, 2 * n), dtype=complex)
    m1s[np.tril_indices(n, -1)] = -0.5 * params.gamma_1d
    m1s[np.diag_indices(2 * n)] = np.repeat([1j * params.delta_e - 0.5 * params.gamma_total,
                                             1j * params.delta_2 - params.gamma_r], n)
    m1o = np.zeros((2 * n, 2 * n))
    m1o[:n, n:], m1o[n:, :n] = -np.eye(n), np.eye(n)
    s1 = np.zeros(2 * n)
    s1[:n] = math.sqrt(0.5 * params.gamma_1d)
    return m1s, m1o, s1, -s1


def steady_transmission_amplitude(params: PhysicalParams, chain: AtomChain,
                                  omega_c: float) -> complex:
    """CW steady-state amplitude transmission of the chain, from the actual
    singles generator (solve, not the analytic per-atom product)."""
    m1s, m1o, s1, out_e = singles_blocks(params, chain)
    psi1 = _solve_singles_steady(m1s + omega_c * m1o, s1)
    return complex(1.0 + out_e @ psi1)


def _unpinned(m) -> np.ndarray:
    """The slots whose row of a dense or sparse S + Omega_c W block is nonzero;
    a steady solve pins the rest to 0, as no source reaches them: F feeds
    only slots that hold an e mode, whose diagonal carries -Gamma/2."""
    return np.flatnonzero(np.asarray(abs(m).sum(axis=1)).ravel())


def _solve_singles_steady(m1: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Solve m1 psi = -s1 over the ``_unpinned`` slots, the rest pinned to 0."""
    keep = _unpinned(m1)
    psi = np.zeros(len(s1), dtype=np.result_type(m1, s1))
    psi[keep] = dense_solve(m1[np.ix_(keep, keep)], -s1[keep])
    return psi


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
    stacked = [_csr(m) for m in stacked]
    dtype = np.result_type(*(m.dtype for m in stacked))   # real unless one part is complex
    return Generator(index=idx, params=params, chain=chain, schedule=schedule,
                     envelope=envelope, stacked=tuple(m.astype(dtype) for m in stacked),
                     ann=ann.astype(dtype), out_e=out_e.astype(dtype),
                     a2vec=a2vec.astype(dtype), v_max=v_max)


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
    for a dense or sparse square ``a``: the strongly connected components
    of the nonzero pattern (slot i reads slot j where a[i, j] != 0) in the
    order scipy labels them, each with its slots ascending, and ``bounds``
    the block starts followed by the dimension.  scipy's search (Tarjan,
    SIAM J. Comput. 1:146, 1972) labels a component only after every
    component it reads; an entry that reads a later block raises
    ``DynamicsError``.  The search starts at slot 0, then at the lowest
    unlabelled slot, and on the stacked layout one from a ground or singles
    slot never reaches a doubles slot: the ground, the singles and the
    doubles stay contiguous and in that order."""
    pattern = sp.csr_matrix(a != 0)
    label = connected_components(pattern, directed=True, connection="strong")[1]
    reader = np.repeat(label, np.diff(pattern.indptr))
    if np.any(label[pattern.indices] > reader):
        raise DynamicsError("the strongly connected components are not in cascade order")
    return np.argsort(label, kind="stable"), np.concatenate([[0], np.cumsum(np.bincount(label))])


#: Coefficients b_0..b_m of the degree-m Padé approximant of exp, and the
#: 1-norm theta_m up to which its backward error stays below 2^-53 (Higham,
#: SIAM J. Matrix Anal. Appl. 26:1179, 2005, tables 2.2 and 2.3)
PADE = {3: (120.0, 60.0, 12.0, 1.0),
        5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
        7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
        9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0),
        13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
             1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
             33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)}
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
              9: 2.097847961257068, 13: 5.371920351148152}

#: Edge of the leaves of the tile tree (``_Tiles``): a node of at most
#: ``TRI_LEAF`` slots, or of one block, is one full square that ``_tri_mul``
#: and ``_tri_solve`` hand whole to BLAS, and a product's temporary holds at
#: most TRI_LEAF^2 entries (``_mul_into``).  With triangular ztrmm tiles 256
#: and 384 took 0.18-0.19 s per 1,625-dim product
TRI_LEAF = 256


def _halves(bounds: np.ndarray) -> tuple:
    """(h, bounds of the tile above h, of the tile below) at the middlemost block start h."""
    inner = bounds[1:-1]
    h = int(inner[np.argmin(np.abs(2 * inner - bounds[-1]))])
    return h, bounds[bounds <= h], bounds[bounds >= h] - h


def _is_leaf(bounds: np.ndarray) -> bool:
    """Whether a tile tree node over ``bounds`` is one full square."""
    return len(bounds) == 2 or bounds[-1] <= TRI_LEAF


def _overlap(at: int, size: int, lo: int, hi: int) -> tuple:
    """The part of [at, at + size) inside [lo, hi), as a slice from at and one from lo."""
    a, b = max(at, lo), min(at + size, hi)
    return slice(a - at, b - at), slice(a - lo, b - lo)


class _Tiles:
    """A block upper triangular matrix, blocks at ``bounds`` (from 0), kept
    as its ``_halves`` tree (after the recursive blocked layouts of Elmroth,
    Gustavson, Jonsson and Kågström, SIAM Review 46:3, 2004): a leaf
    (``_is_leaf``) is one full square ``full``, any other node the halves
    [[tl, tr], [0, br]], ``tr`` one Fortran-ordered rectangle.  Every array is
    a view into one flat buffer ``buf``, which whole-matrix sums and scalings
    run over, and the lower-left rectangles are not stored: 0.56-0.63 of the
    d^2 entries at d = 530-1,625.  ``start`` is the node's first slot."""

    def __init__(self, bounds: np.ndarray, buf: np.ndarray, start: int = 0, at: int = 0):
        self.bounds, self.buf, self.start = bounds, buf, start
        n = self.n = int(bounds[-1])
        self.full = self.tl = self.tr = self.br = None
        if _is_leaf(bounds):
            self.at, self.end = at, at + n * n      # the place of the node's own array in buf
            self.full = buf[at:self.end].reshape((n, n), order="F")
        else:
            h, lo, hi = _halves(bounds)
            self.tl = _Tiles(lo, buf, start, at)
            self.at = self.tl.end
            self.tr = buf[self.at:self.at + h * (n - h)].reshape((h, n - h), order="F")
            self.br = _Tiles(hi, buf, start + h, self.at + h * (n - h))
            self.end = self.br.end

    @staticmethod
    def size(bounds: np.ndarray) -> int:
        """The stored entries."""
        n = int(bounds[-1])
        if _is_leaf(bounds):
            return n * n
        h, lo, hi = _halves(bounds)
        return _Tiles.size(lo) + h * (n - h) + _Tiles.size(hi)

    @classmethod
    def zeros(cls, bounds: np.ndarray, dtype) -> _Tiles:
        """New tiles of zeros, in an anonymous memory map: its pages go back
        to the system when it is freed, where glibc keeps a freed heap
        buffer under its 32 MB mmap ceiling (a replica tree is 24 MB)."""
        n, dtype = cls.size(bounds), np.dtype(dtype)
        return cls(bounds, np.frombuffer(mmap.mmap(-1, max(n * dtype.itemsize, 1)), dtype, n))

    @classmethod
    def of_sparse(cls, bounds: np.ndarray, m: sp.spmatrix) -> _Tiles:
        """The tiles of a sparse block upper triangular m."""
        x = cls.zeros(bounds, m.dtype)
        m = m.tocoo()
        x.buf[x.positions(m.row, m.col)] = m.data
        return x

    def scaled(self, c: float) -> _Tiles:
        """c times this matrix, as new tiles."""
        x = _Tiles.zeros(self.bounds, self.buf.dtype)
        np.multiply(self.buf, c, out=x.buf)
        return x

    def copy(self) -> _Tiles:
        x = _Tiles.zeros(self.bounds, self.buf.dtype)
        x.buf[...] = self.buf
        return x

    def __len__(self) -> int:
        return self.n

    def leaves(self):
        if self.full is not None:
            yield self
        else:
            yield from self.tl.leaves()
            yield from self.br.leaves()

    def _meeting(self, r0: int, r1: int, c0: int, c1: int):
        """(first row, first column, array) of each stored array that meets
        rows r0:r1 and columns c0:c1."""
        s, e = self.start, self.start + self.n
        if r0 >= e or r1 <= s or c0 >= e or c1 <= s:
            return
        if self.full is not None:
            yield s, s, self.full
            return
        yield from self.tl._meeting(r0, r1, c0, c1)
        if r0 < self.br.start < c1:
            yield s, self.br.start, self.tr
        yield from self.br._meeting(r0, r1, c0, c1)

    def pieces(self, rows: slice, cols: slice):
        """(view, index into the block ``rows`` x ``cols``) of the stored
        part of that block, one per stored array it meets, left to right
        along a row."""
        for r, c, t in self._meeting(rows.start, rows.stop, cols.start, cols.stop):
            (tr, qr), (tc, qc) = (_overlap(r, t.shape[0], rows.start, rows.stop),
                                  _overlap(c, t.shape[1], cols.start, cols.stop))
            yield t[tr, tc], (qr, qc)

    def get(self, rows: slice, cols: slice, order: str = "F") -> np.ndarray:
        """The block ``rows`` x ``cols`` as a new array, 0 where nothing is stored."""
        out = np.zeros((rows.stop - rows.start, cols.stop - cols.start), self.buf.dtype,
                       order=order)
        for t, q in self.pieces(rows, cols):
            out[q] = t
        return out

    def put(self, rows: slice, cols: slice, block: np.ndarray) -> None:
        """Write the stored part of the block ``rows`` x ``cols``."""
        for t, q in self.pieces(rows, cols):
            t[...] = block[q]

    def positions(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The places in ``buf`` of the stored entries (r, c)."""
        if self.full is not None:
            return self.at + (r - self.start) + (c - self.start) * self.n
        out = np.empty(len(r), dtype=np.intp)
        h = self.br.start
        tl, br = c < h, r >= h
        rect = ~(tl | br)
        out[tl] = self.tl.positions(r[tl], c[tl])
        out[br] = self.br.positions(r[br], c[br])
        out[rect] = self.at + (r[rect] - self.start) + (c[rect] - h) * (h - self.start)
        return out

    @cached_property
    def diag(self) -> np.ndarray:
        """The places in ``buf`` of the diagonal."""
        i = np.arange(self.start, self.start + self.n)
        return self.positions(i, i)


@dataclass
class TriangularExp:
    """exp(a) = Pi^T T^T Pi, Pi y = y[perm], with T block upper triangular
    over the cascade blocks that start at ``bounds`` (then the dimension),
    at most ``reach`` rows below its diagonal, held by levels: ``tri`` has
    T's diagonal block on each level (full squares, Fortran order), the
    levels starting at 0 and ``levels``, and ``lift`` the blocks of T that
    cross them.  A whole propagator has one level, tri = (T,); a stacked one
    split at the starts of its singles and doubles has three, and its tri is
    the propagator at drive level 0.  ``split`` copies the level blocks out
    of T's tiles (``_Tiles``) and ``joined`` back into new ones."""

    tri: tuple                  # T's diagonal block on each level
    perm: np.ndarray
    bounds: np.ndarray
    levels: tuple = ()
    lift: tuple = ()            # (rows, cols, power of e, block) per level-crossing block
    powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # m: P^m

    @cached_property
    def reach(self) -> int:
        return int(np.max(np.diff(self.bounds))) - 1

    @cached_property
    def below(self) -> tuple:
        """T's subdiagonals j = 1..``reach``, T[i + j, i] at i, over all
        levels (0 where i + j lies on the next level)."""
        return tuple(np.concatenate([np.r_[np.diagonal(t, -j), np.zeros(min(j, len(t)), t.dtype)]
                                     for t in self.tri])[:-j]
                     for j in range(1, self.reach + 1))

    @cached_property
    def spans(self) -> tuple:
        """The slots of each level."""
        return _spans(self.levels, len(self.perm))

    @classmethod
    def split(cls, x: _Tiles, perm: np.ndarray, bounds: np.ndarray,
              levels: tuple = ()) -> TriangularExp:
        """The propagator with T's tiles ``x`` split at the starts
        ``levels`` = (i1, i2) of the stacked layout's singles and doubles,
        which its cascade order must keep contiguous: T's diagonal blocks on
        the levels and the blocks that cross them, copied out of x (T whole
        at ()), read-only."""
        if np.any(np.diff(np.searchsorted(levels, perm, side="right")) < 0):
            raise DynamicsError("the cascade order mixes the ground, singles and doubles")
        k = _spans(levels, len(perm))
        tri = tuple(x.get(r, r) for r in k)
        lift = tuple((k[i], k[j], j - i, x.get(k[i], k[j], order="C"))
                     for i, j in ((0, 1), (0, 2), (1, 2))) if levels else ()
        for t in (*tri, *(block for *_, block in lift)):
            t.flags.writeable = False
        return cls(tri, perm, bounds, levels, lift)

    def joined(self) -> _Tiles:
        """T as new tiles, its level blocks and lift put together: P at unit drive."""
        x = _Tiles.zeros(self.bounds, self.tri[0].dtype)
        for k, t in zip(self.spans, self.tri):
            x.put(k, k, t)
        for r, c, _, block in self.lift:
            x.put(r, c, block)
        return x

    def power(self, m: int) -> TriangularExp:
        """P^m for a power of two m: log2 m squarings (``_tri_squarings``) of
        the joined P, split like P, once per m (``powers``).  At unit drive
        one power serves every drive level e, since D P^m D^-1 = (D P D^-1)^m."""
        if m == 1:
            return self
        if m not in self.powers:
            x = self.joined()
            x = _tri_squarings(x, _Tiles.zeros(self.bounds, x.buf.dtype), m.bit_length() - 1)
            self.powers[m] = TriangularExp.split(x, self.perm, self.bounds, self.levels)
        return self.powers[m]

    def dense(self) -> np.ndarray:
        """exp(a) as a dense matrix: T joined, transposed and permuted back."""
        back, d = np.argsort(self.perm), slice(0, len(self.perm))
        return self.joined().get(d, d).T[np.ix_(back, back)]


def _spans(levels: tuple, d: int) -> tuple:
    """The slots of each level of a d-slot propagator split at ``levels``."""
    edges = (0, *levels, d)
    return tuple(slice(i, j) for i, j in zip(edges, edges[1:]))


def expm(a, levels: tuple = ()) -> TriangularExp:
    """exp(a) of a dense or sparse square matrix, float64 for a real a and
    complex otherwise, in cascade order, split at ``levels``
    (``TriangularExp.split``); its permuted transpose u, block upper
    triangular, stays sparse.  exp(u) is the degree-m Padé approximant of
    u / 2^s squared s times (Higham 2005): m is the least of 3, 5, 7 and 9
    whose theta_m (``PADE_THETA``) bounds the exact 1-norm of u, with s = 0,
    or else 13, with the least s that brings the norm of u / 2^s to
    theta_13.  Every work matrix is a tile tree (``_Tiles``): the sparse
    product u^2 is scattered into one, the higher even powers are block
    triangular products (``_tri_mul``), and U = (U / u) u, as the two
    commute, comes by sparse products a leaf's column at a time, from the
    last.  The Padé denominator, each block row scaled by the inverse of its
    diagonal block, is unit triangular (``_tri_solve``).  The approximant's
    diagonal blocks of up to 4 slots are set to scipy's exponential of u's
    (exp(u_ii) on one slot), and the one-slot diagonal again after each
    squaring (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31:970, 2009,
    code fragment 2.1).  At most four tile trees are alive at once, plus
    temporaries of at most TRI_LEAF^2 entries (``_mul_into``) and the row of
    leaves a sparse product reads."""
    perm, bounds = _cascade_order(a)
    d, back = len(perm), np.argsort(perm)
    a = sp.coo_matrix(a, dtype=np.result_type(a.dtype, float))
    u = sp.csc_matrix((a.data, (back[a.col], back[a.row])), shape=(d, d))    # a[perm][:, perm].T
    u.eliminate_zeros()
    norm = float(np.max(np.bincount(back[a.row], np.abs(a.data), d)))
    m = next((k for k in (3, 5, 7, 9) if norm <= PADE_THETA[k]), 13)
    s = math.ceil(math.log2(norm / PADE_THETA[13])) if PADE_THETA[13] < norm < math.inf else 0
    u.data *= 0.5 ** s
    # u's diagonal blocks of up to 4 slots, scattered from its entries
    size, c = np.diff(bounds), u.tocoo()
    k = np.repeat(np.arange(len(size)), size)[c.row]
    i, j, inside = c.row - bounds[k], c.col - bounds[k], size[k] <= 4
    inside &= (j >= 0) & (j < size[k])
    diag = np.zeros((len(size), 4, 4), dtype=u.dtype)
    diag[k[inside], i[inside], j[inside]] = c.data[inside]
    small = [diag[size == n, :n, :n] for n in (1, 2, 3, 4)]
    blocks = [bounds[:-1][size == n][:, None] + np.arange(n) for n in (1, 2, 3, 4)]
    x, v = (_pade13 if m == 13 else _pade_low)(PADE[m], _Tiles.of_sparse(bounds, u @ u))
    # U = x u a leaf's column at a time, from the last: that column of x u
    # reads the columns of x up to its end only, a row of leaves at a time
    leaves = [(t.start, t.start + t.n) for t in x.leaves()]
    for k, (c0, c1) in reversed(list(enumerate(leaves))):
        uc = u[:, c0:c1]
        for r0, r1 in leaves[:k + 1]:
            x.put(slice(r0, r1), slice(c0, c1), x.get(slice(r0, r1), slice(r0, c1)) @ uc[r0:c1])
    # x = (V - U)^-1 (V + U) with U in x and V in v
    v.buf -= x.buf
    x.buf *= 2.0
    x.buf += v.buf
    # each block row scaled by the inverse of V's diagonal block, over the
    # stored tiles of its row of leaves: the leaf itself, then rectangles
    for leaf in x.leaves():
        rows = slice(leaf.start, leaf.start + leaf.n)
        (xl, *xr), (vl, *vr) = ([t for t, _ in y.pieces(rows, slice(leaf.start, d))]
                                for y in (x, v))
        for i0, i1 in zip(leaf.bounds[:-1], leaf.bounds[1:]):
            q = np.linalg.inv(vl[i0:i1, i0:i1])
            xl[i0:i1, i0:] = q @ xl[i0:i1, i0:]
            vl[i0:i1, i1:] = q @ vl[i0:i1, i1:]
            vl[i0:i1, i0:i1] = np.eye(i1 - i0)
            for t in (*xr, *vr):
                t[i0:i1] = q @ t[i0:i1]
    _tri_solve(v, x)
    for r, b in zip(blocks, small):
        rows, cols = np.broadcast_arrays(r[:, :, None], r[:, None, :])
        x.buf[x.positions(rows.ravel(), cols.ravel())] = scipy_expm(b).ravel()
    x = _tri_squarings(x, v, s, (x.diag[blocks[0][:, 0]], small[0][:, 0, 0]))
    del v
    return TriangularExp.split(x, perm, bounds, levels)


def _pade_low(b: tuple, a2: _Tiles) -> tuple:
    """(U / u, V) of the Padé approximant of degree m = len(b) - 1 < 13, as
    new tiles, from a2 = u^2: b_1 I + b_3 A2 + .. and b_0 I + b_2 A2 + ..,
    each power A^2k (k >= 2) in one buffer, advanced by a2 (``_tri_mul``)
    and added to both."""
    x, v = a2.scaled(b[3]), a2.scaled(b[2])
    x.buf[x.diag] += b[1]
    v.buf[v.diag] += b[0]
    axpy = get_blas_funcs("axpy", (a2.buf,))
    p = a2.copy()
    for k in range(4, len(b), 2):
        _tri_mul(a2, p)
        axpy(p.buf, x.buf, a=b[k + 1])
        axpy(p.buf, v.buf, a=b[k])
    return x, v


def _pade13(b: tuple, a2: _Tiles) -> tuple:
    """(U / u, V) of the degree-13 Padé approximant from a2 = u^2, in a2's
    memory and three more tile trees:

        U / u = A6 (b13 A6 + b11 A4 + b9 A2 + b7 I) + b5 A4 + b3 A2 + b1 I
        V     = A6 (b12 A6 + b10 A4 + b8 A2 + b6 I) + b4 A4 + b2 A2 + b0 I

    A2 and A4 turn into V's outer and inner parts in place, by BLAS axpy
    and rotm on the real view of the (A2, A4) pairs (the b are real): no
    whole-matrix temporary."""
    axpy = get_blas_funcs("axpy", (a2.buf,))
    a4 = a2.copy()
    _tri_mul(a2, a4)
    a6 = a4.copy()
    _tri_mul(a2, a6)
    x = a6.scaled(b[13])
    axpy(a4.buf, x.buf, a=b[11])
    axpy(a2.buf, x.buf, a=b[9])
    x.buf[x.diag] += b[7]
    _tri_mul(a6, x)
    axpy(a4.buf, x.buf, a=b[5])
    axpy(a2.buf, x.buf, a=b[3])
    get_blas_funcs("rotm", dtype=np.float64)(
        a2.buf.view(float), a4.buf.view(float), np.array([-1.0, b[2], b[8], b[4], b[10]]),
        overwrite_x=1, overwrite_y=1)
    axpy(a6.buf, a4.buf, a=b[12])
    for p, c in ((x, b[1]), (a2, b[0]), (a4, b[6])):
        p.buf[p.diag] += c
    _tri_mul(a6, a4)
    del a6
    axpy(a4.buf, a2.buf, a=1.0)
    return x, a2


def _tri_squarings(x: _Tiles, v: _Tiles, k: int, exact: tuple | None = None) -> _Tiles:
    """x^(2^k) by k squarings (``_tri_mul``), in the memory of x and of
    the spare tiles v; ``exact`` = (places in ``buf``, rates) sets those
    diagonal entries to exp(2^j rates) after squaring j."""
    for j in range(1, k + 1):
        v.buf[...] = x.buf
        _tri_mul(x, v)
        x, v = v, x
        if exact is not None:
            x.buf[exact[0]] = np.exp(exact[1] * 2.0 ** j)
    return x


def _mul_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, op=None) -> None:
    """out <- a b, or op(out, a b) in place (``op`` np.add or np.subtract),
    by chunks of out of at most TRI_LEAF^2 entries: its columns where b may
    be out or out is no taller than wide (the chunks share a), else its rows
    (they share b, which BLAS packs again for each)."""
    rows, cols = out.shape
    by_cols = rows <= cols or np.may_share_memory(out, b)
    w = max(1, TRI_LEAF ** 2 // max(rows if by_cols else cols, 1))
    for i in range(0, cols if by_cols else rows, w):
        k = (slice(None), slice(i, i + w)) if by_cols else slice(i, i + w)
        p = a @ b[k] if by_cols else a[k] @ b
        if op is None:
            out[k] = p
        else:
            op(out[k], p, out=out[k])


def _tri_mul(l: _Tiles, m: _Tiles) -> None:
    """m <- l m in place for tiles l and m of one tree: m12 <- l11 m12 +
    l12 m22, then the diagonal halves recurse; a leaf is one dense product."""
    if m.full is not None:
        _mul_into(m.full, l.full, m.full)
        return
    _left_mul(l.tl, m.tr)
    _add_right_mul(m.tr, l.tr, m.br)
    _tri_mul(l.tl, m.tl)
    _tri_mul(l.br, m.br)


def _left_mul(t: _Tiles, x: np.ndarray) -> None:
    """x <- t x in place for tiles t and an array x."""
    if t.full is not None:
        _mul_into(x, t.full, x)
        return
    h = len(t.tl)
    _left_mul(t.tl, x[:h])
    _mul_into(x[:h], t.tr, x[h:], np.add)
    _left_mul(t.br, x[h:])


def _add_right_mul(out: np.ndarray, x: np.ndarray, t: _Tiles, op=np.add) -> None:
    """out <- op(out, x t) in place (``op`` np.add or np.subtract) for
    tiles t and arrays x and out."""
    if t.full is not None:
        _mul_into(out, x, t.full, op)
        return
    h = len(t.tl)
    _add_right_mul(out[:, :h], x[:, :h], t.tl, op)
    _mul_into(out[:, h:], x[:, :h], t.tr, op)
    _add_right_mul(out[:, h:], x[:, h:], t.br, op)


def _left_solve(t: _Tiles, x: np.ndarray) -> None:
    """x <- t^-1 x in place for tiles t, unit upper triangular (identity on
    its diagonal blocks), and an array x."""
    if len(t.bounds) == 2:
        return
    if t.full is not None:
        trsm = get_blas_funcs("trsm", (t.full, x))
        w = max(1, TRI_LEAF ** 2 // max(len(x), 1))
        for i in range(0, x.shape[1], w):
            x[:, i:i + w] = trsm(1.0, t.full, x[:, i:i + w], diag=1, overwrite_b=1)
        return
    h = len(t.tl)
    _left_solve(t.br, x[h:])
    _mul_into(x[:h], t.tr, x[h:], np.subtract)
    _left_solve(t.tl, x[:h])


def _tri_solve(l: _Tiles, m: _Tiles) -> None:
    """m <- l^-1 m in place for tiles l, unit upper triangular, and m of one tree."""
    if m.full is not None:
        _left_solve(l, m.full)
        return
    _tri_solve(l.br, m.br)
    _add_right_mul(m.tr, l.tr, m.br, np.subtract)
    _left_solve(l.tl, m.tr)
    _tri_solve(l.tl, m.tl)


def _tri_apply(prop: TriangularExp, v: np.ndarray, e: float) -> np.ndarray:
    """P v for a vector v, or v P for a row stack v, with P = T^T at drive
    level ``e``: trmv or trmm read the upper triangle of T's diagonal block
    on each level, the loop adds the ``reach`` subdiagonals inside the
    cascade blocks (``below``), and a split propagator adds its lift times
    e, or e^2 two levels apart (e^2 may underflow to 0)."""
    vector = v.ndim == 1
    mul = get_blas_funcs("trmv" if vector else "trmm", (prop.tri[0],))
    w = [mul(t, v[k], trans=1) if vector else mul(1.0, t, v[:, k].T).T
         for k, t in zip(prop.spans, prop.tri)]
    w = w[0] if len(w) == 1 else np.concatenate(w, axis=-1)
    for j, sub in enumerate(prop.below, 1):
        if vector:
            w[:-j] += v[j:] * sub
        else:
            w[:, j:] += v[:, :-j] * sub
    for r, c, k, block in prop.lift if e != 0.0 else ():
        if vector:
            w[c] += e ** k * (v[r] @ block)
        else:
            w[:, r] += e ** k * (v[:, c] @ block.T)
    return w


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


def _segment_grid(t0: float, t1: float, breakpoints, dt_out: float):
    """Per-segment uniform output grids hitting every breakpoint exactly."""
    cuts = [t0] + interior(sorted(breakpoints), t0, t1) + [t1]
    segments = []
    for a, b in zip(cuts, cuts[1:]):
        n_out = max(1, math.ceil((b - a) / dt_out - 1e-9))
        segments.append((a, b, n_out))
    return segments


def _magnus_powers(prop: SinglesPropagator, omega: float, a: float, h_out: float,
                   n_out: int, y: np.ndarray, project: np.ndarray):
    """The projections ``project @ y`` after each of ``n_out`` steps of
    ``h_out`` from ``a`` at control ``omega`` under a gaussian envelope, and
    the end state, by the 4th-order commutator-free Magnus step.  On the
    stretch A(t) = A0 + e(t) F, and a substep t -> t + h is

        exp((h/2) A(e_b)) exp((h/2) A(e_a)),
        e_a = 2 (alpha_2 e_1 + alpha_1 e_2),  e_b = 2 (alpha_1 e_1 + alpha_2 e_2)

    with e_1, e_2 the envelope at the Gauss nodes t + c_i h (``MAGNUS_NODES``,
    ``MAGNUS_ALPHA``).  An output step takes k = ceil(h_out
    ``MAGNUS_PER_FWHM`` / FWHM) substeps.  On a ``dense`` stacked
    propagator ``prop`` both factors are its unit-drive exponential at h/2,
    and a factor is one triangular matvec at its level (``_tri_apply``),
    which holds also where the envelope underflows to 0; otherwise a factor
    is the Taylor action of the generator at its level."""
    gen = prop.gen
    k = max(1, math.ceil(h_out * MAGNUS_PER_FWHM / gen.envelope.gaussian_fwhm - 1e-9))
    h = h_out / k
    (c1, c2), (a1, a2) = MAGNUS_NODES, MAGNUS_ALPHA
    shape = gen.envelope.unit_shape

    def run(factor, v, rows):
        proj = np.empty((n_out, len(rows)), dtype=y.dtype)
        for j in range(n_out):
            for i in range(k):
                t = a + j * h_out + i * h
                e1, e2 = shape(t + c1 * h), shape(t + c2 * h)
                v = factor(v, 2.0 * (a2 * e1 + a1 * e2))
                v = factor(v, 2.0 * (a1 * e1 + a2 * e2))
            proj[j] = rows @ v
        return proj, v

    if prop.dense:
        unit = prop.step(omega, 0.5 * h, y.dtype)
        proj, v = run(partial(_tri_apply, unit), y[unit.perm], project[:, unit.perm])
        y = v[np.argsort(unit.perm)]
    else:
        proj, y = run(lambda v, e: _TaylorAction(_csr(gen.operator(omega, e)))(0.5 * h, v),
                      y, project)
    proj[-1] = project @ y
    return proj, y


def _ramp_powers(gen: Generator, omega: float, ramp: tuple, h_out: float, y: np.ndarray,
                 n_out: int, project: np.ndarray):
    """The projections ``project @ y`` after each of ``n_out`` steps of
    ``h_out`` over a drive ramp e(a + tau) = c0 + c1 tau at control
    ``omega``, and the end state, its clocks dropped from [y; tau y_K; tau^2 g]:
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
    a0, f = gen.operator(omega, c0), gen.stacked[2]
    b = _csr(sp.bmat([[a0, c1 * f[:, :k], None],
                      [sp.eye(k, d), a0[:k, :k], c1 * f[:k, :1]],
                      [None, 2.0 * sp.eye(1, k), None]]))
    z = np.concatenate([y, np.zeros(k + 1, dtype=y.dtype)])
    rows = np.hstack([project, np.zeros((len(project), k + 1), dtype=project.dtype)])
    proj, z = _action_powers(b, h_out, z, n_out, rows)
    y = z[:d]
    proj[-1] = project @ y
    return proj, y


#: Largest doubles block whose free decay takes the dense exponential; a
#: larger one stays CSR and takes the Taylor action.  Over the turn-off
#: scan's 5,000 steps (one BLAS thread, full blockade) dense against action
#: took 0.008 s against 0.024 s at d = 155, 0.019 s against 0.028 s at
#: d = 301, about even at d = 392 and 0.18-0.20 s against 0.045 s at d = 950.
#: The singles are dense up to ``EXPM_MAX_DIM``: their e block is dense lower
#: triangular, so one sparse matvec costs about a dense triangular step, and
#: an action step takes several.
DECAY_DENSE_DOUBLES = 300


@dataclass
class SinglesPropagator:
    """The one cache of exponentials: exp(A(1) h) of one block (``kind``) of
    the generator at unit drive, once per (Omega_c, h, dtype), read-only,
    with its giant-step powers.  The "stacked" layout's is split at the
    levels to serve every drive level (``evolve``); "singles"
    (the default) and "doubles" evolve undriven (F is 0 on them)."""

    gen: Generator
    kind: str = "singles"
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def slots(self) -> slice | None:
        """The block's slots in the stacked layout (None: all of it)."""
        idx = self.gen.index
        return {"stacked": None, "singles": idx.singles, "doubles": idx.doubles}[self.kind]

    @property
    def dense(self) -> bool:
        """Whether ``decay`` steps ``step``, not Taylor actions: at most
        ``EXPM_MAX_DIM`` slots, and ``DECAY_DENSE_DOUBLES`` for the doubles."""
        k = self.slots
        d = 1 + self.gen.index.dim if k is None else k.stop - k.start
        return d <= EXPM_MAX_DIM and (self.kind != "doubles" or d <= DECAY_DENSE_DOUBLES)

    def step(self, omega: float, h: float, dtype=None) -> TriangularExp:
        """exp(A(1) ``h``) of the block at control ``omega``, in ``dtype``
        (the generator's by default)."""
        dtype = np.dtype(self.gen.dtype if dtype is None else dtype)
        key = (round(omega, 15), round(h, 15), dtype)
        if key not in self.cache:
            idx = self.gen.index
            levels = (idx.singles.start, idx.doubles.start) if self.slots is None else ()
            self.cache[key] = expm((self.gen.operator(omega, 1.0, self.slots) * h)
                                   .astype(dtype, copy=False), levels)
        return self.cache[key]


def decay(prop: SinglesPropagator, omega: float, h: float, y: np.ndarray, n_out: int,
          project: np.ndarray, e: float = 0.0):
    """(``project @ P^k @ y`` for k = 1..n_out, shape (n_out, c) for a c x d
    stack ``project``, and the end state P^n_out y, from which a later call
    goes on), P = exp(A h) of ``prop``'s block at control ``omega`` and drive
    level ``e``: the one stepper of a constant stretch.  A ``dense`` ``prop``
    steps its ``step`` in the dtype of the generator, y and ``project``
    (``_dense_powers``), any other Taylor actions (``_action_powers``); on
    either route the last row is ``project`` times the end state, to the bit."""
    if prop.dense:
        dtype = np.result_type(prop.gen.dtype, y, project)
        return _dense_powers(prop.step(omega, h, dtype), y, n_out, project, e)
    proj, y = _action_powers(_csr(prop.gen.operator(omega, e, prop.slots)), h, y, n_out, project)
    proj[-1] = project @ y
    return proj, y


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
        self.shifted = _csr(a - self.mu * sp.identity(d, format="csr"))
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
#: squaring (``_tri_mul``) costs d / SQUARE_KAPPA triangular matvecs
#: (measured 6.1-10.4 at d = 975-1,625, complex, one BLAS thread; any value in
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
                  e: float):
    """``_projected_powers`` of an ``expm`` propagator P, in the dtype of y
    and ``project`` or wider, at drive level ``e`` in its cascade order: y and
    the covectors are permuted once, P^m (m from ``_giant_step``) is
    ``prop.power(m)``, the end state is permuted back and the last row is
    ``project`` times it, to the bit."""
    dtype = np.result_type(prop.tri[0], y, project)
    m = _giant_step(len(y), n_out, len(project))
    step = partial(_tri_apply, prop, e=e)
    proj, w = _projected_powers(step, step, partial(_tri_apply, prop.power(m), e=e),
                                m, y.astype(dtype, copy=False)[prop.perm], n_out,
                                project[:, prop.perm].astype(dtype, copy=False))
    y = w[np.argsort(prop.perm)]
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
    dtype = np.result_type(a.dtype, y, project)
    y, project = y.astype(dtype, copy=False), project.astype(dtype, copy=False)
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
    advanced by at most m - 1 steps, in the dtype of y and ``project``."""
    c, d = project.shape
    n_giant = -(-n_out // m)
    dtype = np.result_type(y, project)
    baby = np.empty((m, c, d), dtype=dtype)
    baby[0] = project
    for i in range(1, m if c else 1):
        baby[i] = step_rows(baby[i - 1])
    cols = np.empty((n_giant, d), dtype=dtype)
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
    landing on a sample; the trajectory records where each segment between
    breakpoints starts.  An ``initial`` vector of another length than
    1 + ``index.dim`` is refused.

    On a segment Omega_c is constant, and its route follows
    ``PulseEnvelope.affine_on``: a stretch of constant coefficients (slope
    0), a plateau or a tail, is a ``decay`` at its drive level on the run's
    one stacked ``SinglesPropagator``; a drive ramp takes the clocked
    generator of ``_ramp_powers``; a gaussian window the Magnus step
    (``_magnus_powers``).  Each returns the projections and the end state.

    The trajectory holds the projections ``project @ y`` of a covector
    stack (c x (1 + dim) over [ground; singles; doubles]), by default
    ``Generator.output_covectors(grid=True)``: what a trace and a
    correlation grid read, in the dtype of the generator, ``initial`` and
    ``project``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ConfigurationError("need t_span with t1 > t0")
    y = np.eye(1, 1 + generator.index.dim)[0] if initial is None else initial
    if len(y) != 1 + generator.index.dim:
        raise ConfigurationError(f"stacked vector of length {len(y)}, "
                                 f"expected {1 + generator.index.dim}")
    project = generator.output_covectors(grid=True) if project is None else project
    dtype = np.result_type(generator.dtype, y, project)
    y, project = np.asarray(y, dtype=dtype), np.asarray(project, dtype=dtype)
    segments = _segment_grid(t0, t1, generator.breakpoints(), dt_out)
    n_samples = 1 + sum(n for _, _, n in segments)
    record = np.empty((n_samples, len(project)), dtype=dtype)
    record[0] = project @ y
    times = [t0]
    starts = []
    prop = SinglesPropagator(generator, "stacked")
    for (a, b, n_out) in segments:
        i = len(times)
        starts.append(i - 1)
        h_out = (b - a) / n_out
        om, ramp = generator.schedule.value(a), generator.envelope.affine_on(a, b)
        if ramp is None:
            record[i:i + n_out], y = _magnus_powers(prop, om, a, h_out, n_out, y, project)
        elif ramp[1] != 0.0:
            record[i:i + n_out], y = _ramp_powers(generator, om, ramp, h_out, y, n_out, project)
        else:
            record[i:i + n_out], y = decay(prop, om, h_out, y, n_out, project, ramp[0])
        # the last sample is the breakpoint itself, so the next segment's
        # start reads the post-jump envelope and control
        times.extend([*(a + k * h_out for k in range(1, n_out)), b])
        _check_finite(y, b)

    return StateTrajectory(times=np.array(times), covectors=project,
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
    S21 read from F, the ``_unpinned`` slots only.

    The doubles system is solved in ``_cascade_order``, block lower
    triangular with blocks of at most 4 slots, so LU in the natural order
    is block forward substitution and makes next to no fill."""
    idx = generator.index
    k1, k2 = idx.singles, idx.doubles
    f = generator.stacked[2]
    y = np.eye(1, 1 + idx.dim, dtype=generator.dtype)[0]
    y[k1] = _solve_singles_steady(generator.operator(omega_c, slots=k1).toarray(),
                                  f[k1, 0].toarray().ravel())
    rhs2 = -(f[k2, k1] @ y[k1])
    if idx.dim_doubles > 0:
        m2 = generator.operator(omega_c, slots=k2)
        keep = _unpinned(m2)
        keep = keep[_cascade_order(m2[keep][:, keep])[0]]
        y[k2][keep] = spla.spsolve(m2[keep][:, keep].tocsc(), rhs2[keep], permc_spec="NATURAL")
    return y
