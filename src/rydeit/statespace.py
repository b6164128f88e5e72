"""Indexing of the truncated amplitude vector.

The state keeps the weak-drive hierarchy at leading order: single-excitation
amplitudes are defined per unit peak drive and two-excitation amplitudes per
unit peak drive squared.  Within this hierarchy each atom behaves as a pair
of oscillator modes (one for the e coherence, one for the r coherence), so
the two-excitation manifold carries same-atom slots ee[h,h] and er[h,h]
alongside the distinct-atom pairs; unordered doubly-occupied slots store the
amplitude of the normalized two-quantum ket (the sqrt(2) bookkeeping lives
in the generator and field operators, not in the layout).  ``mode_pairs``
gives the two singles modes of each doubles slot, through which the
generator lifts the singles operators onto the doubles.  rr pairs exist
only where the blockade allows them; the same-atom rr slot exists only when
the interaction is disabled entirely.

Slots: [e_h (N)] [r_h (N)] [ee_{h<=j}] [er_{h,j} (N*N, ordered)] [rr_allowed].
A state is the stacked vector y = [g; psi1; psi2] of ``dynamics``, the
ground amplitude g ahead of these slots, so slot s is y[1 + s].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AtomChain, BlockadeConfig, ConfigurationError, interaction, BLOCKED

KIND_E = "e"
KIND_R = "r"
KIND_EE = "ee"
KIND_ER = "er"
KIND_RR = "rr"


def _triangle_slot(h: int, j: int, n: int) -> int:
    """Flat slot of the unordered pair (h <= j) in row-major upper-triangle
    order including the diagonal."""
    return h * n - (h * (h - 1)) // 2 + (j - h)


@dataclass(frozen=True)
class ExcitationIndex:
    """Bijection between (manifold, atom indices) labels and flat slots."""

    n_atoms: int
    rr_pairs: tuple  # allowed (h, j) with h <= j, lexicographic

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ConfigurationError("need at least one atom")
        lookup = {}
        for slot, (h, j) in enumerate(self.rr_pairs):
            if not (0 <= h <= j < self.n_atoms):
                raise ConfigurationError(f"bad rr pair {(h, j)}")
            lookup[(h, j)] = slot
        object.__setattr__(self, "_rr_lookup", lookup)

    # --- block sizes -------------------------------------------------------
    @property
    def n_ee(self) -> int:
        return self.n_atoms * (self.n_atoms + 1) // 2

    @property
    def n_er(self) -> int:
        return self.n_atoms * self.n_atoms

    @property
    def n_rr(self) -> int:
        return len(self.rr_pairs)

    @property
    def dim_singles(self) -> int:
        return 2 * self.n_atoms

    @property
    def dim_doubles(self) -> int:
        return self.n_ee + self.n_er + self.n_rr

    @property
    def dim(self) -> int:
        return self.dim_singles + self.dim_doubles

    # --- offsets (within the full vector) ----------------------------------
    @property
    def off_e(self) -> int:
        return 0

    @property
    def off_r(self) -> int:
        return self.n_atoms

    @property
    def off_ee(self) -> int:
        return 2 * self.n_atoms

    @property
    def off_er(self) -> int:
        return self.off_ee + self.n_ee

    @property
    def off_rr(self) -> int:
        return self.off_er + self.n_er

    # --- label -> slot ------------------------------------------------------
    def e_slot(self, h: int) -> int:
        return self.off_e + h

    def r_slot(self, h: int) -> int:
        return self.off_r + h

    def ee_slot(self, h: int, j: int) -> int:
        if h > j:
            h, j = j, h
        return self.off_ee + _triangle_slot(h, j, self.n_atoms)

    def er_slot(self, h: int, j: int) -> int:
        """Ordered: atom h carries e, atom j carries r (h == j allowed)."""
        return self.off_er + h * self.n_atoms + j

    def rr_slot(self, h: int, j: int) -> int | None:
        """Slot of the allowed rr pair, or None when the pair is blockaded."""
        if h > j:
            h, j = j, h
        slot = self._rr_lookup.get((h, j))
        return None if slot is None else self.off_rr + slot

    # --- slot -> label ------------------------------------------------------
    def unpack(self, slot: int):
        """Inverse of the *_slot maps; returns (kind, atoms...)."""
        n = self.n_atoms
        if slot < 0 or slot >= self.dim:
            raise IndexError(f"slot {slot} outside state of dim {self.dim}")
        if slot < self.off_r:
            return (KIND_E, slot)
        if slot < self.off_ee:
            return (KIND_R, slot - self.off_r)
        if slot < self.off_er:
            k = slot - self.off_ee
            h = 0
            row = n
            while k >= row:
                k -= row
                row -= 1
                h += 1
            return (KIND_EE, h, h + k)
        if slot < self.off_rr:
            k = slot - self.off_er
            return (KIND_ER, k // n, k % n)
        return (KIND_RR,) + self.rr_pairs[slot - self.off_rr]

    def mode_pairs(self) -> tuple:
        """The two singles modes (a_k <= b_k) excited in each doubles slot k,
        as arrays over the doubles block: ee(h, j) -> (h, j), er(h, j) ->
        (h, N + j) and rr(h, j) -> (N + h, N + j), modes numbered as the
        singles slots."""
        n = self.n_atoms
        ee_a, ee_b = np.triu_indices(n)
        er_a, er_b = np.divmod(np.arange(n * n), n)
        rr = np.array(self.rr_pairs, dtype=np.int64).reshape(-1, 2)
        return (np.concatenate([ee_a, er_a, n + rr[:, 0]]),
                np.concatenate([ee_b, n + er_b, n + rr[:, 1]]))


def build_index(n_atoms: int, blockade: BlockadeConfig, chain: AtomChain) -> ExcitationIndex:
    """Index over the <=2 excitation manifolds; rr pairs are excluded exactly
    when the pair interaction evaluates to BLOCKED."""
    if n_atoms != chain.n_atoms:
        raise ConfigurationError("n_atoms does not match the chain")
    z = chain.z()
    pairs = []
    for h in range(n_atoms):
        for j in range(h, n_atoms):
            r = abs(z[j] - z[h])
            if interaction(blockade, r) != BLOCKED:
                pairs.append((h, j))
    return ExcitationIndex(n_atoms=n_atoms, rr_pairs=tuple(pairs))
