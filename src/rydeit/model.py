"""Declarative description of a simulation: rates, geometry, drives, blockade.

Internal unit system: the total excited-state decay rate is the unit of rate
(Gamma = 1) and time is measured in 1/Gamma.  ``gamma_mhz`` records what Gamma
corresponds to physically (Gamma = 2*pi*gamma_mhz MHz) and is used only for
unit conversion at the I/O boundary; the core never sees MHz or ns.

All objects here are frozen dataclasses and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import erf

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


def mhz_from_rate(rate: float, gamma_mhz: float = 6.0) -> float:
    return rate * gamma_mhz


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
    wanted on purpose.  ``gamma_r`` is the Rydberg coherence decay (amplitude
    damping of every r slot).
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

    @property
    def coupling_ratio(self) -> float:
        return self.gamma_1d / self.gamma_prime

    @classmethod
    def from_ratio(cls, ratio: float = 0.2, gamma_total: float = 1.0, **kwargs) -> "PhysicalParams":
        """Build from the collected/lost branching ratio Gamma_1D/Gamma'."""
        if ratio < 0 or gamma_total <= 0:
            raise ConfigurationError("need ratio >= 0 and gamma_total > 0")
        gamma_prime = gamma_total / (1.0 + ratio)
        return cls(gamma_1d=gamma_total - gamma_prime, gamma_prime=gamma_prime, **kwargs)

    def with_omega_c(self, omega_c: float) -> "PhysicalParams":
        return replace(self, omega_c_peak=omega_c)


# ---------------------------------------------------------------------------
# atom chain

@dataclass(frozen=True)
class AtomChain:
    """Ordered quasi-1D chain of atom positions along the probe axis."""

    positions: tuple
    length: float
    k_p: float = 1.0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError("chain length must be positive")
        z = np.asarray(self.positions, dtype=float)
        if z.size < 1:
            raise ConfigurationError("need at least one atom")
        if np.any(np.diff(z) <= 0):
            raise ConfigurationError("positions must be strictly increasing")
        if z[0] < 0 or z[-1] > self.length:
            raise ConfigurationError("positions must lie in [0, length]")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def z(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=float)


def build_chain(n_atoms: int, length: float = 1.0, k_p: float = 1.0,
                placement: str = "uniform", seed: int | None = None) -> AtomChain:
    """Place ``n_atoms`` on [0, length].

    ``uniform`` puts atom h at the center of its cell, z_h = (h - 1/2) L / N.
    ``jittered`` adds seeded uniform offsets within +-L/(4N), which keeps the
    ordering strictly increasing.
    """
    if n_atoms < 1 or length <= 0:
        raise ConfigurationError("need n_atoms >= 1 and length > 0")
    z = (np.arange(n_atoms) + 0.5) * length / n_atoms
    if placement == "jittered":
        rng = np.random.default_rng(seed)
        z = z + rng.uniform(-0.25, 0.25, size=n_atoms) * length / n_atoms
    elif placement != "uniform":
        raise ConfigurationError(f"unknown placement {placement!r}")
    return AtomChain(positions=tuple(z), length=length, k_p=k_p)


def optical_depth(chain: AtomChain, params: PhysicalParams) -> float:
    """Resonant optical depth of the chain, 2 N ln((Gamma_1D + Gamma') / Gamma')."""
    return optical_depth_for(chain.n_atoms, params)


def optical_depth_for(n_atoms: int, params: PhysicalParams) -> float:
    if params.gamma_prime <= 0:
        raise ConfigurationError("optical depth undefined for gamma_prime = 0")
    return 2.0 * n_atoms * math.log(params.gamma_total / params.gamma_prime)


def atoms_for_depth(d_target: float, params: PhysicalParams) -> int:
    """Atom count whose optical depth is closest to ``d_target`` (at least 1)."""
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
                          omega_c: float | None = None, v_cap: float = 1e3) -> "BlockadeConfig":
        """Power-law config with blockade radius fixed by the optical depth per
        blockade radius d_b = D * r_b / L and v0 set to the single-atom bandwidth."""
        d = optical_depth(chain, params)
        r_b = d_b * chain.length / d
        v0 = single_atom_bandwidth(params, omega_c)
        return cls(mode=BlockadeMode.POWER_LAW, r_b=r_b, v0=v0, v_cap=v_cap)

    def optical_depth_per_blockade(self, chain: AtomChain, params: PhysicalParams) -> float:
        return optical_depth(chain, params) * self.r_b / chain.length


def single_atom_bandwidth(params: PhysicalParams, omega_c: float | None = None) -> float:
    """V0 = 2 Omega_c^2 [Gamma_1D (2 Gamma' + Gamma_1D)]^(-1/2)."""
    om = params.omega_c_peak if omega_c is None else omega_c
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

    ``unit_shape`` is normalized to unit peak; the physical amplitude is
    ``peak_amplitude * unit_shape(t)`` with the peak fixed so that the
    integral of |E_p|^2 equals the mean input photon number ``n_in``.
    Evaluation is right-continuous at the discontinuous edges, so the value
    recorded exactly at a jump is the post-jump one.
    """

    shape: PulseShape = PulseShape.SQUARE
    duration: float = 37.699111843077517  # 1 us at Gamma = 2*pi*6 MHz
    n_in: float = 1.5
    rise_time: float = 0.0  # square only; both edges
    t_on: float = 0.0
    fwhm: float | None = None  # gaussian only; default 0.4 * duration

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.n_in <= 0:
            raise ConfigurationError("need duration > 0 and n_in > 0")
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

    def unit_shape(self, t: float) -> float:
        """Envelope normalized to unit peak (dimensionless, >= 0)."""
        u = t - self.t_on
        if u < 0.0 or u >= self.duration:
            return 0.0
        if self.shape is PulseShape.SQUARE:
            r = self.rise_time
            if r == 0.0:
                return 1.0
            if u < r:
                return u / r
            if u > self.duration - r:
                return (self.duration - u) / r
            return 1.0
        if self.shape is PulseShape.TRIANGULAR_NEG:
            return 1.0 - u / self.duration
        if self.shape is PulseShape.TRIANGULAR_POS:
            return u / self.duration
        # gaussian, truncated to the window
        w = self.gaussian_fwhm
        x = u - 0.5 * self.duration
        return math.exp(-4.0 * math.log(2.0) * x * x / (w * w))

    def unit_shape_array(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.unit_shape(float(t)) for t in np.asarray(ts).ravel()])

    @property
    def norm_integral(self) -> float:
        """Analytic integral of |unit_shape|^2 over all time."""
        if self.shape is PulseShape.SQUARE:
            return self.duration - 4.0 * self.rise_time / 3.0
        if self.shape in (PulseShape.TRIANGULAR_NEG, PulseShape.TRIANGULAR_POS):
            return self.duration / 3.0
        a = 8.0 * math.log(2.0) / self.gaussian_fwhm ** 2  # |shape|^2 = exp(-a x^2)
        half = 0.5 * self.duration
        return math.sqrt(math.pi / a) * float(erf(math.sqrt(a) * half))

    @property
    def peak_amplitude(self) -> float:
        """Peak field amplitude, sqrt(photons/time), such that int |E_p|^2 dt = n_in."""
        return math.sqrt(self.n_in / self.norm_integral)

    def breakpoints(self) -> tuple:
        """Times where the envelope or its slope is discontinuous."""
        if self.shape is PulseShape.SQUARE and self.rise_time > 0.0:
            r = self.rise_time
            return (self.t_on, self.t_on + r, self.t_end - r, self.t_end)
        return (self.t_on, self.t_end)


def eval_envelope(pulse: PulseEnvelope, t: float) -> complex:
    """Physical probe amplitude at time t (real and non-negative for all
    built-in shapes, returned as complex for interface uniformity)."""
    return complex(pulse.peak_amplitude * pulse.unit_shape(t))


# ---------------------------------------------------------------------------
# control field schedule

@dataclass(frozen=True)
class ControlSegment:
    t_start: float
    t_end: float
    omega_start: float
    omega_end: float

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ConfigurationError("segment must have t_end > t_start")
        if min(self.omega_start, self.omega_end) < 0:
            raise ConfigurationError("control amplitude must be >= 0")

    def value(self, t: float) -> float:
        if self.omega_start == self.omega_end:
            return self.omega_start
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        return self.omega_start + frac * (self.omega_end - self.omega_start)

    @property
    def is_constant(self) -> bool:
        return self.omega_start == self.omega_end


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-linear control Rabi amplitude Omega_c(t).

    Segments are contiguous and non-overlapping; evaluation clamps to the
    first/last segment value outside the covered range and is
    right-continuous at internal jumps.
    """

    segments: tuple

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("schedule needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if not math.isclose(a.t_end, b.t_start, rel_tol=0, abs_tol=1e-12 * max(1.0, abs(a.t_end))):
                raise ConfigurationError("segments must be contiguous")

    @classmethod
    def constant(cls, omega_c: float) -> "ControlSchedule":
        return cls(segments=(ControlSegment(0.0, 1.0, omega_c, omega_c),))

    @classmethod
    def storage(cls, omega_c: float, t_off: float, t_store: float,
                t_start: float = 0.0) -> "ControlSchedule":
        """Constant control, switched off during [t_off, t_off + t_store]."""
        if t_off <= t_start or t_store <= 0:
            raise ConfigurationError("need t_off > t_start and t_store > 0")
        return cls(segments=(
            ControlSegment(t_start, t_off, omega_c, omega_c),
            ControlSegment(t_off, t_off + t_store, 0.0, 0.0),
            ControlSegment(t_off + t_store, t_off + t_store + 1.0, omega_c, omega_c),
        ))

    def value(self, t: float) -> float:
        segs = self.segments
        if t < segs[0].t_start:
            return segs[0].value(segs[0].t_start)
        if t >= segs[-1].t_end:
            return segs[-1].value(segs[-1].t_end)
        for seg in segs:
            if seg.t_start <= t < seg.t_end:
                return seg.value(t)
        return segs[-1].value(t)  # t == last t_end, unreachable via loop

    @property
    def max_omega(self) -> float:
        return max(max(s.omega_start, s.omega_end) for s in self.segments)

    def is_constant_between(self, a: float, b: float) -> bool:
        """True when Omega_c is constant on [a, b] (used to pick the exact
        piecewise-constant propagator)."""
        va = self.value(a)
        mid = self.value(0.5 * (a + b))
        vb = self.value(max(a, b - 1e-12 * max(1.0, abs(b))))
        return va == mid == vb

    def breakpoints(self) -> tuple:
        """Times where Omega_c or its slope may jump: every inner segment
        boundary, and an outer end only when its segment is a ramp (the
        schedule is clamped flat outside its segments)."""
        segs = self.segments
        inner = [s.t_start for s in segs[1:]]
        first = [] if segs[0].is_constant else [segs[0].t_start]
        last = [] if segs[-1].is_constant else [segs[-1].t_end]
        return tuple(first + inner + last)


def eval_control(schedule: ControlSchedule, t: float) -> float:
    """Control Rabi amplitude at time t (clamped outside the schedule)."""
    return schedule.value(t)
