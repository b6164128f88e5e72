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
output steps, at a constant control.  ``Generator.stacked`` holds the
generator on that layout as three CSR parts, A(t) = S + Omega_c(t) W +
e(t) F at drive level e = ep(t), and ``Generator.operator`` alone sums
them.  ``SinglesPropagator`` alone knows how a block of it is stepped: the
route, the cascade order and the dtype.  The README's bullets on the one
propagator describe it, with the drive-level trick, the Magnus step and
the projected powers, and its bullets on the exponential describe
``expm``.  ``steady_state`` solves the doubles system in the cascade order
(``_cascade_order``), where LU in the natural order makes next to no fill.
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
#: the Magnus step take the Taylor action): at 2,600 complex slots ``expm``
#: holds two sets of row strips, 0.53 d^2 entries each, about 115 MB in all
#: (four d x d arrays would take 433 MB)
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

#: Edge of the leaves of the row strips (``_Tiles``): a leaf block is at
#: most ``TRI_LEAF`` slots on a side, unless one cascade block is wider, and
#: ``_tri_mul`` and ``_tri_solve`` hand leaf blocks whole to BLAS, so a
#: product's temporary, a solve's trsm chunk and a Padé strip's work arrays
#: hold at most TRI_LEAF^2 entries (``_pade_strips``)
TRI_LEAF = 256


class _Tiles:
    """A block upper triangular matrix, blocks at ``bounds`` (from 0), kept
    as row strips: its leaves start at block starts, ``starts`` (then the
    dimension d), the least power of two n of them with d / n <=
    ``TRI_LEAF``, as even as the block starts allow, each at most
    ``TRI_LEAF`` wide unless one block is wider.  Strip i holds the rows of
    leaf i and every column from its first one on, a Fortran-ordered view
    into the flat buffer ``buf``, an anonymous memory map: its pages go back
    to the system when it is freed, where glibc keeps a freed heap buffer
    under its 32 MB mmap ceiling (a replica's strips take 24 MB).  The map
    starts zero-filled, and ``_pade_strips`` relies on that: it writes each
    column strip only down to the end of the cascade block of its last
    column, so the stored entries below it are never written and must be
    0.  A reused buffer must be zeroed first."""

    def __init__(self, bounds: np.ndarray, dtype):
        self.bounds, d, s = bounds, int(bounds[-1]), [0]
        n = 1 << max(0, math.ceil(math.log2(max(d, 1) / TRI_LEAF)))
        while s[-1] < d:
            rest = d - s[-1]
            width = -(-rest // max(n + 1 - len(s), -(-rest // TRI_LEAF)))
            # the last block start within the width, or else the next one
            i = np.searchsorted(bounds, [s[-1], s[-1] + width], side="right")
            s.append(int(bounds[max(i[0], i[1] - 1)]))
        self.starts = s = np.array(s)
        sizes = np.diff(s) * (d - s[:-1])
        self.at = np.concatenate([[0], np.cumsum(sizes)])
        total, dtype = int(self.at[-1]), np.dtype(dtype)
        self.buf = np.frombuffer(mmap.mmap(-1, max(total * dtype.itemsize, 1)), dtype, total)
        self.strips = [self.buf[a:a + k].reshape((e - b, d - b), order="F")
                       for a, k, b, e in zip(self.at, sizes, s, s[1:])]

    def block(self, i: int, j: int) -> np.ndarray:
        """The leaf block (i, j), i <= j, a view into strip i."""
        s = self.starts
        return self.strips[i][:, s[j] - s[i]:s[j + 1] - s[i]]

    def copy(self) -> _Tiles:
        x = _Tiles(self.bounds, self.buf.dtype)
        x.buf[...] = self.buf
        return x

    def freeze(self) -> None:
        """Make ``buf`` and every strip read-only."""
        for t in (*self.strips, self.buf):
            t.flags.writeable = False

    def arrays(self):
        """(first row, strip) of every strip; its first column is its first row."""
        return zip(self.starts, self.strips)

    def put(self, rows: slice, cols: slice, block: np.ndarray) -> None:
        """Write the stored part of the block ``rows`` x ``cols``."""
        for r, t in self.arrays():
            r0, r1 = max(rows.start, r), min(rows.stop, r + len(t))
            c0 = max(cols.start, r)
            if r0 < r1 and c0 < cols.stop:
                t[r0 - r:r1 - r, c0 - r:cols.stop - r] = block[r0 - rows.start:r1 - rows.start,
                                                                c0 - cols.start:]

    def positions(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The places in ``buf`` of the stored entries (r, c)."""
        i = np.searchsorted(self.starts, r, side="right") - 1
        s = self.starts[i]
        return self.at[i] + (r - s) + (c - s) * (self.starts[i + 1] - s)


@dataclass
class TriangularExp:
    """exp(a) = Pi^T T^T Pi, Pi y = y[perm], with T block upper triangular
    over the cascade blocks that start at ``bounds`` (then the dimension),
    held as its row strips ``tiles`` (``_Tiles``), read-only.  The slots
    fall in levels that start at 0 and ``levels``: one for a whole
    propagator, and three for a stacked one, [ground; singles; doubles],
    which its cascade order must keep contiguous, and whose T is then the
    propagator at drive level 1."""

    tiles: _Tiles
    perm: np.ndarray
    bounds: np.ndarray
    levels: tuple = ()
    powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # m: P^m

    def __post_init__(self) -> None:
        if np.any(np.diff(np.searchsorted(self.levels, self.perm, side="right")) < 0):
            raise DynamicsError("the cascade order mixes the ground, singles and doubles")
        self.tiles.freeze()

    @property
    def dtype(self) -> np.dtype:
        return self.tiles.buf.dtype

    @cached_property
    def views(self) -> tuple:
        """(rows, cols, k, view) for each strip of T, cut where it meets a
        level start into views by (row level, column level): k is
        the column level less the row level.  Views below the level
        diagonal, k < 0, hold only zeros and are left out."""
        edges = np.array([0, *self.levels, len(self.perm)])

        def cuts(at, size):
            e = np.clip(edges, at, at + size)
            return [(i, int(lo), int(hi)) for i, (lo, hi) in enumerate(zip(e, e[1:])) if lo < hi]

        return tuple((slice(r0, r1), slice(c0, c1), j - i, t[r0 - r:r1 - r, c0 - r:c1 - r])
                     for r, t in self.tiles.arrays()
                     for i, r0, r1 in cuts(r, t.shape[0])
                     for j, c0, c1 in cuts(r, t.shape[1]) if j >= i)

    def power(self, m: int) -> TriangularExp:
        """P^m for a power of two m, once per m (``powers``): P^2 is P times
        a copy of P (``_tri_mul``), new strips, and each further squaring
        (``_tri_squarings``) takes one more.  At drive level 1 one power
        serves every drive level e, since D P^m D^-1 = (D P D^-1)^m."""
        if m == 1:
            return self
        if m not in self.powers:
            x = self.tiles.copy()
            _tri_mul(self.tiles, x)
            x = _tri_squarings(x, _Tiles(self.bounds, x.buf.dtype), m.bit_length() - 2)
            self.powers[m] = TriangularExp(x, self.perm, self.bounds, self.levels)
        return self.powers[m]

    @cached_property
    def back(self) -> np.ndarray:
        """The inverse of ``perm``: Pi^T y = y[back]."""
        return np.argsort(self.perm)

    def dense(self) -> np.ndarray:
        """exp(a) as a dense matrix: T read from its strips, transposed and permuted back."""
        t = np.zeros((len(self.back), len(self.back)), self.dtype)
        for r, a in self.tiles.arrays():
            t[r:r + len(a), r:] = a
        return t.T[np.ix_(self.back, self.back)]

    def apply(self, v: np.ndarray, e: float) -> np.ndarray:
        """P v for a state vector v, or v P for a row stack v, both in the
        natural order, with P = Pi^T T^T Pi at drive level ``e``: v is
        permuted into the cascade order, each strip of T, cut at the levels
        (``views``), adds its product, times e^k k levels apart (none at
        e = 0, and e^2 may underflow to 0: nothing is divided by e), and
        the result is permuted back."""
        vector = v.ndim == 1
        v = v[..., self.perm]
        w = np.zeros(v.shape, np.result_type(self.dtype, v))
        for r, c, k, t in self.views:
            if k and e == 0.0:
                continue
            p = v[r] @ t if vector else v[:, c] @ t.T
            if k:
                p *= e ** k
            if vector:
                w[c] += p
            else:
                w[:, r] += p
        return w[..., self.back]


def expm(a, levels: tuple = ()) -> TriangularExp:
    """exp(a) of a dense or sparse square matrix, float64 for a real a and
    complex otherwise, in cascade order, with the level starts ``levels``
    (``TriangularExp``): the degree-m Padé approximant of u / 2^s squared s
    times (Higham 2005), u the permuted transpose, block upper triangular
    and kept sparse.  m is the least of 3, 5, 7 and 9 whose theta_m
    (``PADE_THETA``) bounds the exact 1-norm of u, with s = 0, or else 13,
    with the least s that brings the norm of u / 2^s to theta_13.  The Padé
    numerator and denominator (``_pade_strips``) are the only row strips
    alive; the denominator, each block row scaled by the inverse of its
    diagonal block, is unit triangular (``_tri_solve``), and then the
    squarings' second buffer.  The diagonal blocks of up to 4 slots are set
    to scipy's exponential of u's (exp(u_ii) on one slot), and the one-slot
    diagonal again after each squaring (``_tri_squarings``; Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31:970, 2009, code fragment 2.1)."""
    perm, bounds = _cascade_order(a)
    d, back = len(perm), np.argsort(perm)
    a = sp.coo_matrix(a, dtype=np.result_type(a.dtype, float))
    row, col = back[a.col], back[a.row]                 # of u = a[perm][:, perm].T
    norm = float(np.max(np.bincount(col, np.abs(a.data), d)))
    m = next((k for k in (3, 5, 7, 9) if norm <= PADE_THETA[k]), 13)
    s = math.ceil(math.log2(norm / PADE_THETA[13])) if PADE_THETA[13] < norm < math.inf else 0
    data = a.data * 0.5 ** s
    u = sp.csr_matrix((data, (row, col)), shape=(d, d))
    u.eliminate_zeros()
    # u's diagonal blocks of up to 4 slots, scattered from its entries
    size = np.diff(bounds)
    k = np.repeat(np.arange(len(size)), size)[row]
    i, j, inside = row - bounds[k], col - bounds[k], size[k] <= 4
    inside &= (j >= 0) & (j < size[k])
    diag = np.zeros((len(size), 4, 4), dtype=u.dtype)
    diag[k[inside], i[inside], j[inside]] = data[inside]
    small = [diag[size == n, :n, :n] for n in (1, 2, 3, 4)]
    blocks = [bounds[:-1][size == n][:, None] + np.arange(n) for n in (1, 2, 3, 4)]
    # x = (V - U)^-1 (V + U) with V + U in x and V - U in v
    x, v = _pade_strips(PADE[m], u, bounds)
    # each block row scaled by the inverse of V's diagonal block, along its strip
    for (r, xs), (_, vs) in zip(x.arrays(), v.arrays()):
        edges = bounds[(bounds >= r) & (bounds <= r + len(xs))] - r
        for i0, i1 in zip(edges[:-1], edges[1:]):
            q = np.linalg.inv(vs[i0:i1, i0:i1])
            xs[i0:i1, i0:] = q @ xs[i0:i1, i0:]
            vs[i0:i1, i1:] = q @ vs[i0:i1, i1:]
            vs[i0:i1, i0:i1] = np.eye(i1 - i0)
    _tri_solve(v, x)
    for r, b in zip(blocks, small):
        rows, cols = np.broadcast_arrays(r[:, :, None], r[:, None, :])
        x.buf[x.positions(rows.ravel(), cols.ravel())] = scipy_expm(b).ravel()
    one = blocks[0][:, 0]
    x = _tri_squarings(x, v, s, (x.positions(one, one), small[0][:, 0, 0]))
    del v
    return TriangularExp(x, perm, bounds, levels)


def _pade_strips(b: tuple, u: sp.csr_matrix, bounds: np.ndarray) -> tuple:
    """(V + U, V - U) of the Padé approximant of degree m = len(b) - 1 as
    new tiles, for a block upper triangular u with blocks at ``bounds``:
    V = b0 I + b2 u^2 + b4 u^4 + .. and U = b1 u + b3 u^3 + .., a strip of
    columns c0:c1 at a time, from the identity's columns p, each sparse
    product p <- u p adding the next term.  A strip keeps the rows up to
    the end of the cascade block of its last column only, where every power
    of u is 0 below, and it is at most TRI_LEAF^2 / (4 d) columns wide, so
    its four work arrays (V, U, p and the next p) hold at most TRI_LEAF^2
    entries together."""
    d = u.shape[0]
    x, v = _Tiles(bounds, u.dtype), _Tiles(bounds, u.dtype)
    axpy = get_blas_funcs("axpy", dtype=u.dtype)
    w = max(1, TRI_LEAF ** 2 // (4 * d))
    for c0 in range(0, d, w):
        c1 = min(c0 + w, d)
        r1 = int(bounds[np.searchsorted(bounds, c1 - 1, side="right")])
        ur = u[:r1, :r1] if r1 < d else u
        p = np.zeros((r1, c1 - c0), u.dtype)
        p[np.arange(c0, c1), np.arange(c1 - c0)] = 1.0
        vs, us = b[0] * p, np.zeros_like(p)
        for k in range(1, len(b)):
            p = ur @ p
            axpy(p.ravel(), (us if k % 2 else vs).ravel(), a=b[k])
        del p
        rows, cols = slice(0, r1), slice(c0, c1)
        x.put(rows, cols, vs + us)
        vs -= us
        v.put(rows, cols, vs)
    return x, v


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


def _tri_mul(l: _Tiles, m: _Tiles) -> None:
    """m <- l m in place for tiles l and m of one layout, top-down over the
    leaf blocks: block (i, j) <- sum_{k=i..j} l_ik m_kj reads rows k >= i of
    m, which are not yet overwritten."""
    gemm = get_blas_funcs("gemm", dtype=m.buf.dtype)
    n = len(m.strips)
    for i in range(n):
        for j in range(i, n):
            out = gemm(1.0, l.block(i, i), m.block(i, j))
            for k in range(i + 1, j + 1):
                out = gemm(1.0, l.block(i, k), m.block(k, j), 1.0, out, overwrite_c=1)
            m.block(i, j)[...] = out


def _tri_solve(l: _Tiles, m: _Tiles) -> None:
    """m <- l^-1 m in place for tiles l, unit upper triangular (identity on
    its cascade blocks), and m of one layout, bottom-up over the strips:
    strip i less l_ik m_kj for each leaf block k > i, then one trsm on l's
    leaf i, in column chunks of at most TRI_LEAF^2 entries."""
    gemm, trsm = get_blas_funcs(("gemm", "trsm"), dtype=m.buf.dtype)
    n = len(m.strips)
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            b = m.block(i, j)
            for k in range(i + 1, j + 1):
                b[...] = gemm(-1.0, l.block(i, k), m.block(k, j), 1.0, b, overwrite_c=1)
        a, x = l.block(i, i), m.strips[i]
        w = max(1, TRI_LEAF ** 2 // len(a))
        for c in range(0, x.shape[1], w):
            x[:, c:c + w] = trsm(1.0, a, x[:, c:c + w], diag=1, overwrite_b=1)


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
    ``MAGNUS_PER_FWHM`` / FWHM) substeps, and both factors are
    ``prop.factor`` at h/2, each at its own level."""
    gen = prop.gen
    k = max(1, math.ceil(h_out * MAGNUS_PER_FWHM / gen.envelope.gaussian_fwhm - 1e-9))
    h = h_out / k
    (c1, c2), (a1, a2) = MAGNUS_NODES, MAGNUS_ALPHA
    shape = gen.envelope.unit_shape
    factor = prop.factor(omega, 0.5 * h)
    proj = np.empty((n_out, len(project)), dtype=y.dtype)
    for j in range(n_out):
        for i in range(k):
            t = a + j * h_out + i * h
            e1, e2 = shape(t + c1 * h), shape(t + c2 * h)
            y = factor(y, 2.0 * (a2 * e1 + a1 * e2))
            y = factor(y, 2.0 * (a1 * e1 + a2 * e2))
        proj[j] = project @ y
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
#: scan's 5,000 steps (one BLAS thread, full blockade, best of 5 at each
#: default Omega_c) dense against action took 0.018-0.028 s against
#: 0.032-0.052 s at d = 301, 0.024-0.038 s against 0.035-0.046 s at d = 345,
#: 0.028-0.039 s against 0.036-0.047 s at d = 392 (dense won 5 of 6), and
#: 0.039-0.046 s against 0.033-0.051 s at d = 442 (action won 5 of 6).
#: The singles are dense up to ``EXPM_MAX_DIM``: their e block is dense lower
#: triangular, so one sparse matvec costs about a dense triangular step, and
#: an action step takes several.
DECAY_DENSE_DOUBLES = 392


@dataclass
class SinglesPropagator:
    """The only code that knows how a block (``kind``) of the generator is
    stepped: its ``dense`` rule picks the route, and on the dense route it
    is the one cache of exponentials, exp(A(1) h) at unit drive in the
    generator's dtype, once per (Omega_c, h), read-only, with its
    giant-step powers (``step``); each takes and returns the natural order
    and permutes into its cascade order itself (``TriangularExp.apply``).
    ``factor`` is the one-step map on either route.  The "stacked"
    layout's keeps the level starts to serve every drive level
    (``evolve``); "singles" (the default) and "doubles" evolve undriven
    (F is 0 on them)."""

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
        """Whether ``decay`` and ``factor`` step ``step``, not Taylor
        actions: at most ``EXPM_MAX_DIM`` slots, and
        ``DECAY_DENSE_DOUBLES`` for the doubles."""
        k = self.slots
        d = 1 + self.gen.index.dim if k is None else k.stop - k.start
        return d <= EXPM_MAX_DIM and (self.kind != "doubles" or d <= DECAY_DENSE_DOUBLES)

    def step(self, omega: float, h: float) -> TriangularExp:
        """exp(A(1) ``h``) of the block at control ``omega``, in the
        generator's dtype, once per (``omega``, ``h``)."""
        key = (round(omega, 15), round(h, 15))
        if key not in self.cache:
            idx = self.gen.index
            levels = (idx.singles.start, idx.doubles.start) if self.slots is None else ()
            self.cache[key] = expm(self.gen.operator(omega, 1.0, self.slots) * h, levels)
        return self.cache[key]

    def factor(self, omega: float, h: float):
        """The one-step map (v, e) -> exp(A(e) ``h``) v of the block at
        control ``omega``: ``step``'s ``apply`` if ``dense``, else the
        Taylor action of the block at drive level e."""
        if self.dense:
            return self.step(omega, h).apply
        return lambda v, e: _TaylorAction(_csr(self.gen.operator(omega, e, self.slots)))(h, v)


def decay(prop: SinglesPropagator, omega: float, h: float, y: np.ndarray, n_out: int,
          project: np.ndarray, e: float = 0.0):
    """(``project @ P^k @ y`` for k = 1..n_out, shape (n_out, c) for a c x d
    stack ``project``, and the end state P^n_out y, from which a later call
    goes on), P = exp(A h) of ``prop``'s block at control ``omega`` and drive
    level ``e``: the one stepper of a constant stretch, by baby and giant
    steps (``_projected_powers``).  A ``dense`` ``prop`` steps its ``step``
    and the power of it that ``_giant_step`` picks, any other Taylor actions
    (``_action_powers``)."""
    if not prop.dense:
        return _action_powers(_csr(prop.gen.operator(omega, e, prop.slots)), h, y, n_out,
                              project)
    p = prop.step(omega, h)
    m = _giant_step(len(y), n_out, len(project))
    step = partial(p.apply, e=e)
    return _projected_powers(step, step, partial(p.power(m).apply, e=e), m, y, n_out, project)


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
    advanced by at most m - 1 steps, in the dtype of P, y and ``project``;
    the last row is ``project`` times the end state, to the bit."""
    c, d = project.shape
    n_giant = -(-n_out // m)
    y = step(y)
    baby = np.empty((m, c, d), dtype=np.result_type(y, project))
    baby[0] = project
    for i in range(1, m if c else 1):
        baby[i] = step_rows(baby[i - 1])
    cols = np.empty((n_giant, d), dtype=baby.dtype)
    cols[0] = y
    for j in range(1, n_giant):
        cols[j] = giant(cols[j - 1])
    proj = (cols @ baby.reshape(m * c, d).T).reshape(n_giant * m, c)[:n_out]
    y = cols[-1]
    for _ in range(n_out - (n_giant - 1) * m - 1):
        y = step(y)
    proj[-1] = project @ y
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
    0), a plateau or a tail, is a ``decay`` at its drive level, and a
    gaussian window takes the Magnus step (``_magnus_powers``), both on the
    run's one stacked ``SinglesPropagator``, which picks their route; a
    drive ramp takes the clocked generator of ``_ramp_powers``.  Each
    returns the projections and the end state.

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
