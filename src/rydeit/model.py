"""Declarative description of a simulation: rates, geometry, drives, blockade.

Internal unit system: the total excited-state decay rate is the unit of rate
(Gamma = 1) and time is measured in 1/Gamma.  ``gamma_mhz`` records what Gamma
corresponds to physically (Gamma = 2*pi*gamma_mhz MHz) and is used only for
unit conversion at the I/O boundary; the core never sees MHz or ns.

All objects here are frozen dataclasses and safe to share across workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

#: Sentinel returned by :func:`interaction` for atom pairs that can never
#: doubly occupy the Rydberg state.  Infinite shift == pair removed from the
#: state space, so ``math.inf`` is both the sentinel and the physics.
BLOCKED = math.inf


class ConfigurationError(ValueError):
    """A model object was built from inconsistent or non-physical inputs."""


# ---------------------------------------------------------------------------
# unit conversion helpers (CLI/config boundary only)

def rate_from_mhz(freq_mhz: float, gamma_mhz: float = 6.0) -> float:
    """Convert a frequency given in MHz (as f, meaning 2*pi*f rad/s) to Gamma units."""
    return freq_mhz / gamma_mhz


def time_from_ns(t_ns: float, gamma_mhz: float = 6.0) -> float:
    """Convert nanoseconds to units of 1/Gamma."""
    return t_ns * TWO_PI * gamma_mhz * 1e-3


def ns_from_time(t: float, gamma_mhz: float = 6.0) -> float:
    return t * 1e3 / (TWO_PI * gamma_mhz)


# ---------------------------------------------------------------------------
# physical parameters

@dataclass(frozen=True)
class PhysicalParams:
    """Scalar constants of the medium, in Gamma = 1 units.

    ``gamma_1d`` is the emission rate into the collected (probe) mode and
    ``gamma_prime`` the loss into all other directions; their sum is the total
    excited-state decay rate and must equal 1 unless a rescaled unit system is
    wanted on purpose.  ``gamma_r`` damps every r slot through the jump
    sqrt(2 gamma_r)|g><r|: Rydberg decay to the ground state, for which the
    weak-drive model is exact.  Pure dephasing of r, sqrt(2 gamma_r)|r><r|,
    is a different model that this code does not implement; a cascaded
    master equation at Gamma_1D/Gamma' = 1, gamma_r = 0.05, Omega_c = 0.5
    and full blockade gives g2_ss 1.047 under dephasing against 0.995 under
    decay at N = 1, and 0.607 against 0.583 at N = 2.
    """

    gamma_1d: float = 1.0 / 6.0
    gamma_prime: float = 5.0 / 6.0
    omega_c_peak: float = 0.5
    gamma_r: float = 0.0
    delta_e: float = 0.0
    delta_2: float = 0.0
    gamma_mhz: float = 6.0  # Gamma in physical units: Gamma = 2*pi*gamma_mhz MHz

    def __post_init__(self) -> None:
        for name in ("gamma_1d", "gamma_prime", "gamma_r", "omega_c_peak"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.gamma_1d + self.gamma_prime <= 0.0:
            raise ConfigurationError("total decay rate must be positive")

    @property
    def gamma_total(self) -> float:
        """Total e-state decay rate; by construction exactly gamma_1d + gamma_prime."""
        return self.gamma_1d + self.gamma_prime

    @classmethod
    def from_ratio(cls, ratio: float = 0.2, **kwargs) -> "PhysicalParams":
        """Build from the collected/lost branching ratio Gamma_1D/Gamma', at
        Gamma = 1."""
        if ratio < 0:
            raise ConfigurationError("need ratio >= 0")
        gamma_prime = 1.0 / (1.0 + ratio)
        return cls(gamma_1d=1.0 - gamma_prime, gamma_prime=gamma_prime, **kwargs)


# ---------------------------------------------------------------------------
# atom chain

@dataclass(frozen=True)
class AtomChain:
    """Ordered atom positions along the probe axis, in units of the chain length."""

    positions: tuple

    def __post_init__(self) -> None:
        z = np.asarray(self.positions, dtype=float)
        if z.size < 1:
            raise ConfigurationError("need at least one atom")
        if np.any(np.diff(z) <= 0):
            raise ConfigurationError("positions must be strictly increasing")
        if z[0] < 0 or z[-1] > 1:
            raise ConfigurationError("positions must lie in [0, 1]")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def z(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=float)


def build_chain(n_atoms: int, placement: str = "uniform", seed: int | None = None) -> AtomChain:
    """Place ``n_atoms`` on [0, 1].

    ``uniform`` puts atom h at the center of its cell, z_h = (h - 1/2) / N.
    ``jittered`` adds seeded uniform offsets within +-1/(4N), which keeps the
    ordering strictly increasing; it needs a ``seed``, so that a manifest
    re-runs the same positions.
    """
    if n_atoms < 1:
        raise ConfigurationError("need n_atoms >= 1")
    z = (np.arange(n_atoms) + 0.5) / n_atoms
    if placement == "jittered":
        if seed is None:
            raise ConfigurationError("jittered placement needs a seed")
        rng = np.random.default_rng(seed)
        z = z + rng.uniform(-0.25, 0.25, size=n_atoms) / n_atoms
    elif placement != "uniform":
        raise ConfigurationError(f"unknown placement {placement!r}")
    return AtomChain(positions=tuple(z))


def optical_depth(chain: AtomChain, params: PhysicalParams) -> float:
    """Resonant optical depth of the chain, 2 N ln((Gamma_1D + Gamma') / Gamma')."""
    return optical_depth_for(chain.n_atoms, params)


def optical_depth_for(n_atoms: int, params: PhysicalParams) -> float:
    if params.gamma_prime <= 0:
        raise ConfigurationError("optical depth undefined for gamma_prime = 0")
    return 2.0 * n_atoms * math.log(params.gamma_total / params.gamma_prime)


def atoms_for_depth(d_target: float, params: PhysicalParams) -> int:
    """Atom count whose optical depth is closest to ``d_target`` > 0 (at least 1)."""
    if not d_target > 0:
        raise ConfigurationError(f"out of range: need an optical depth > 0, got {d_target!r}")
    per_atom = optical_depth_for(1, params)
    return max(1, round(d_target / per_atom))


# ---------------------------------------------------------------------------
# blockade

class BlockadeMode(str, Enum):
    FULL = "fully_blockaded"
    POWER_LAW = "power_law"
    NONE = "none"


@dataclass(frozen=True)
class BlockadeConfig:
    """Rydberg pair-interaction model.

    ``power_law`` uses V(r) = v0 (r_b / r)^6; pairs whose |V| exceeds ``v_cap``
    are promoted to fully blockaded (removed from the state space) to avoid
    stiffness from the r^-6 divergence.  ``fully_blockaded`` removes every rr
    pair; ``none`` disables the interaction entirely (exact linear medium).
    """

    mode: BlockadeMode = BlockadeMode.FULL
    r_b: float = 0.0
    v0: float = 0.0
    v_cap: float = 1e3

    def __post_init__(self) -> None:
        if self.mode is BlockadeMode.POWER_LAW and self.r_b <= 0:
            raise ConfigurationError("power_law blockade needs r_b > 0")
        if self.v_cap <= 0:
            raise ConfigurationError("v_cap must be positive")

    @classmethod
    def fully_blockaded(cls) -> "BlockadeConfig":
        return cls(mode=BlockadeMode.FULL)

    @classmethod
    def none(cls) -> "BlockadeConfig":
        return cls(mode=BlockadeMode.NONE)

    @classmethod
    def power_law_from_db(cls, d_b: float, chain: AtomChain, params: PhysicalParams,
                          v_cap: float = 1e3) -> "BlockadeConfig":
        """Power-law config with blockade radius fixed by the optical depth per
        blockade radius d_b = D r_b (r_b in units of the chain length) and v0
        set to the single-atom bandwidth."""
        r_b = d_b / optical_depth(chain, params)
        return cls(mode=BlockadeMode.POWER_LAW, r_b=r_b, v0=single_atom_bandwidth(params),
                   v_cap=v_cap)


def single_atom_bandwidth(params: PhysicalParams) -> float:
    """V0 = 2 Omega_c^2 [Gamma_1D (2 Gamma' + Gamma_1D)]^(-1/2) at the peak
    control ``params.omega_c_peak``."""
    om = params.omega_c_peak
    denom = math.sqrt(params.gamma_1d * (2.0 * params.gamma_prime + params.gamma_1d))
    if denom == 0:
        raise ConfigurationError("single-atom bandwidth undefined for gamma_1d = 0")
    return 2.0 * om * om / denom


def interaction(blockade: BlockadeConfig, r: float) -> float:
    """Pair interaction at separation ``r``; returns BLOCKED when the pair
    cannot doubly occupy the Rydberg state (two atoms cannot coincide in r)."""
    if blockade.mode is BlockadeMode.NONE:
        return 0.0
    if blockade.mode is BlockadeMode.FULL:
        return BLOCKED
    if r <= 0.0:
        return BLOCKED
    v = blockade.v0 * (blockade.r_b / r) ** 6
    if abs(v) > blockade.v_cap:
        return BLOCKED
    return v


# ---------------------------------------------------------------------------
# probe pulse envelope

class PulseShape(str, Enum):
    SQUARE = "square"
    TRIANGULAR_NEG = "triangular_neg"
    TRIANGULAR_POS = "triangular_pos"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PulseEnvelope:
    """Probe envelope on [t_on, t_on + duration], zero outside.

    ``unit_shape`` is normalized to unit peak.  The physical amplitude is
    E0 unit_shape(t), with E0 fixed by the run's mean input photon number
    n_in = E0^2 times the integral of unit_shape^2
    (``ObservableTrace.input_energy`` takes that integral on a trace).
    Evaluation is right-continuous at the discontinuous edges, so the value
    recorded exactly at a jump is the post-jump one.
    """

    shape: PulseShape = PulseShape.SQUARE
    duration: float = 37.699111843077517  # 1 us at Gamma = 2*pi*6 MHz
    rise_time: float = 0.0  # square only; both edges
    t_on: float = 0.0
    fwhm: float | None = None  # gaussian only; default 0.4 * duration

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("need duration > 0")
        if self.rise_time < 0 or 2 * self.rise_time > self.duration:
            raise ConfigurationError("rise_time must satisfy 0 <= 2*rise_time <= duration")
        if self.fwhm is not None and self.fwhm <= 0:
            raise ConfigurationError("fwhm must be positive")

    @property
    def t_end(self) -> float:
        return self.t_on + self.duration

    @property
    def gaussian_fwhm(self) -> float:
        return self.fwhm if self.fwhm is not None else 0.4 * self.duration

    @cached_property
    def pieces(self) -> tuple:
        """The window [t_on, t_end) cut where the envelope or its slope is
        discontinuous: (start, end, c0, c1), the envelope c0 + c1 (t - start)
        on [start, end), or the gaussian (c0 and c1 None).  A square pulse's
        ramps need their ends inside the window by more than rounding
        (``interior``); a shorter rise time is a hard edge, as for
        ``evolve``, not a slope 1/r that may overflow."""
        t0, t1, r = self.t_on, self.t_end, self.rise_time
        if self.shape is PulseShape.SQUARE and interior([t0 + r], t0, t1):
            return ((t0, t0 + r, 0.0, 1.0 / r), (t0 + r, t1 - r, 1.0, 0.0),
                    (t1 - r, t1, 1.0, -1.0 / r))
        return ((t0, t1) + {PulseShape.SQUARE: (1.0, 0.0),
                            PulseShape.TRIANGULAR_NEG: (1.0, -1.0 / self.duration),
                            PulseShape.TRIANGULAR_POS: (0.0, 1.0 / self.duration),
                            PulseShape.GAUSSIAN: (None, None)}[self.shape],)

    def _piece(self, t: float) -> tuple:
        """The piece holding t; outside the window the zero line."""
        if not 0.0 <= t - self.t_on < self.duration:
            return t, t, 0.0, 0.0
        for piece in reversed(self.pieces):
            if t >= piece[0]:
                return piece

    def unit_shape(self, t: float) -> float:
        """Envelope normalized to unit peak (dimensionless, >= 0)."""
        start, _, c0, c1 = self._piece(t)
        if c1 is not None:
            return c0 + c1 * (t - start)
        w, x = self.gaussian_fwhm, t - self.t_on - 0.5 * self.duration
        return math.exp(-4.0 * math.log(2.0) * x * x / (w * w))

    def affine_on(self, a: float, b: float) -> tuple | None:
        """(c0, c1) with unit_shape(a + tau) = c0 + c1 tau for a <= a + tau < b,
        from the piece holding (a, b) ((0, 0) outside the window): None on a
        gaussian window or across a breakpoint (``interior``)."""
        if interior(self.breakpoints(), a, b):
            return None
        start, _, c0, c1 = self._piece(0.5 * (a + b))
        return None if c1 is None else (c0 + c1 * (a - start), c1)

    def breakpoints(self) -> tuple:
        """Times where the envelope or its slope is discontinuous: the
        bounds of the pieces."""
        return tuple(p[0] for p in self.pieces) + (self.pieces[-1][1],)


def interior(points, a: float, b: float) -> list:
    """The points strictly inside (a, b) by more than rounding (1e-12
    relative to the larger of 1, |a| and |b|)."""
    eps = 1e-12 * max(1.0, abs(a), abs(b))
    return [t for t in points if a + eps < t < b - eps]


# ---------------------------------------------------------------------------
# control field schedule

@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control Rabi amplitude Omega_c(t): ``levels[k]``
    holds from ``jumps[k - 1]`` up to ``jumps[k]``, the first and last levels
    hold outside the jumps, and the value at a jump is the one after it."""

    levels: tuple
    jumps: tuple = ()

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.jumps) + 1:
            raise ConfigurationError("schedule needs exactly one more level than jumps")
        if any(om < 0 for om in self.levels):
            raise ConfigurationError("control amplitude must be >= 0")
        if any(b <= a for a, b in zip(self.jumps, self.jumps[1:])):
            raise ConfigurationError("jumps must be strictly increasing")

    @classmethod
    def constant(cls, omega_c: float) -> "ControlSchedule":
        return cls((omega_c,))

    @classmethod
    def storage(cls, omega_c: float, t_off: float, t_store: float) -> "ControlSchedule":
        """Constant control, switched off during [t_off, t_off + t_store]."""
        if t_off <= 0 or t_store <= 0:
            raise ConfigurationError("need t_off > 0 and t_store > 0")
        return cls((omega_c, 0.0, omega_c), (t_off, t_off + t_store))

    def value(self, t: float) -> float:
        return self.levels[bisect_right(self.jumps, t)]

    def breakpoints(self) -> tuple:
        """Times where Omega_c jumps."""
        return self.jumps
