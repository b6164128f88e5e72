"""Layout of the truncated amplitude vector.

The state keeps the weak-drive hierarchy at leading order: single-excitation
amplitudes are defined per unit peak drive and two-excitation amplitudes per
unit peak drive squared.  Within this hierarchy each atom behaves as a pair
of oscillator modes (one for the e coherence, one for the r coherence), so
the two-excitation manifold carries same-atom slots ee[h,h] and er[h,h]
alongside the distinct-atom pairs; unordered doubly-occupied slots store the
amplitude of the normalized two-quantum ket (the sqrt(2) bookkeeping lives
in the generator and field operators, not in the layout).  rr pairs exist
only where the blockade allows them; the same-atom rr slot exists only when
the interaction is disabled entirely.

A state is the stacked vector y = [g; psi1; psi2] of ``dynamics``: the
ground amplitude g, the singles [e_h (N)] [r_h (N)] at ``singles`` and the
doubles [ee_{h<=j}] [er_{h,j} (N*N, ordered)] [rr_allowed] at ``doubles``.
``ExcitationIndex`` keeps the block sizes and ``mode_pairs``, the two
singles modes of each doubles slot, through which the generator lifts the
singles operators onto the doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AtomChain, BlockadeConfig, ConfigurationError, interaction, BLOCKED


@dataclass(frozen=True)
class ExcitationIndex:
    """The stacked layout [g; psi1; psi2] of N atoms with the allowed rr
    pairs: its block sizes, the slices of the singles and the doubles, and
    the singles modes of each doubles slot (``mode_pairs``)."""

    n_atoms: int
    rr_pairs: tuple  # allowed (h, j) with h <= j, lexicographic

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ConfigurationError("need at least one atom")
        for h, j in self.rr_pairs:
            if not (0 <= h <= j < self.n_atoms):
                raise ConfigurationError(f"bad rr pair {(h, j)}")

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

    @property
    def singles(self) -> slice:
        """psi1 in the stacked vector y = [g; psi1; psi2]."""
        return slice(1, 1 + self.dim_singles)

    @property
    def doubles(self) -> slice:
        """psi2 in the stacked vector y = [g; psi1; psi2]."""
        return slice(1 + self.dim_singles, 1 + self.dim)

    def mode_pairs(self) -> tuple:
        """The two singles modes (a_k <= b_k) excited in each doubles slot k,
        as arrays over the doubles block: ee(h, j) -> (h, j), er(h, j) ->
        (h, N + j) and rr(h, j) -> (N + h, N + j), with e_h mode h and r_h
        mode N + h of the singles."""
        n = self.n_atoms
        ee_a, ee_b = np.triu_indices(n)
        er_a, er_b = np.divmod(np.arange(n * n), n)
        rr = np.array(self.rr_pairs, dtype=np.int64).reshape(-1, 2)
        return (np.concatenate([ee_a, er_a, n + rr[:, 0]]),
                np.concatenate([ee_b, n + er_b, n + rr[:, 1]]))


def build_index(blockade: BlockadeConfig, chain: AtomChain) -> ExcitationIndex:
    """Index over the <=2 excitation manifolds of the chain's atoms; rr
    pairs are excluded exactly when the pair interaction evaluates to
    BLOCKED."""
    n, z = chain.n_atoms, chain.z()
    pairs = tuple((h, j) for h in range(n) for j in range(h, n)
                  if interaction(blockade, abs(z[j] - z[h])) != BLOCKED)
    return ExcitationIndex(n_atoms=n, rr_pairs=pairs)
