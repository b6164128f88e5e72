"""Output-field quantities reconstructed from trajectories.

Normalization convention: the trace quantities are per unit peak drive, so
for a unit-peak input the output intensity I(t) = |f1(t)|^2 is directly the
normalized transmission, G2(t) = |A2(t)|^2 is the normalized two-photon
intensity, and g2 = G2 / I^2 wherever the intensity is above a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np
from .model import AtomChain, ConfigurationError, PhysicalParams
from .dynamics import (Generator, SinglesPropagator, StateTrajectory,
                       steady_transmission_amplitude)


class ExtractionError(RuntimeError):
    """A transient-time or fit criterion could not be evaluated on the trace."""


class UndefinedResultError(RuntimeError):
    """A windowed estimator was requested where the intensity is below floor."""


DEFAULT_INTENSITY_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# time traces

@dataclass
class ObservableTrace:
    """Time series of the normalized intensity, two-photon intensity and g2.

    ``g2`` is NaN wherever the intensity is at or below
    ``DEFAULT_INTENSITY_FLOOR`` (division noise after pulse extinction).
    """

    times: np.ndarray
    envelope_unit: np.ndarray
    omega_c: np.ndarray
    intensity: np.ndarray
    g2tilde: np.ndarray
    g2: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("envelope_unit", "omega_c", "intensity", "g2tilde", "g2"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"trace column {name} does not match the grid")

    def window_energy(self, t_start: float, width: float) -> float:
        """The trapezoid of the intensity over the window's samples, those
        ``windowed_g2`` reads (``_window_slice``): 0.0 on fewer than two."""
        a, b = _window_slice(self.times, t_start, width)
        return float(np.trapezoid(self.intensity[a:b], self.times[a:b]))

    def input_energy(self) -> float:
        """The integral of the unit-peak envelope squared over the grid
        (trapezoid rule), which n_in normalizes: the peak input intensity is
        n_in over it.  A trace with no input pulse is refused."""
        env2 = np.trapezoid(self.envelope_unit ** 2, self.times)
        if env2 <= 0:
            raise ConfigurationError("trace carries no input pulse")
        return env2


def trace_from_trajectory(traj: StateTrajectory, generator: Generator) -> ObservableTrace:
    """Intensity |f1|^2 with f1 = ep + out_e . psi1, and two-photon intensity
    |A2|^2 with A2 = ep^2 + 2 ep (out_e . psi1) + a2vec . psi2, on the
    trajectory grid, from the first two columns of its record, whose
    covectors must begin with ``Generator.output_covectors()``.

    A2 is ill-conditioned at low intensity: its terms cancel by about four
    orders of magnitude there, so ``g2tilde`` and ``g2`` below ~1e-2 of the
    peak intensity hold only to ~1e-11 relative (reordering one dot product
    moves them that much).  Compare them scaled by each column's maximum."""
    if not np.array_equal(traj.covectors[:2], generator.output_covectors()):
        raise ConfigurationError("trajectory did not record the output covectors")
    f_single, f_double = traj.projections[:, :2].T
    env = traj.envelope_unit
    intensity = np.abs(env + f_single) ** 2
    g2tilde = np.abs(env ** 2 + 2.0 * env * f_single + f_double) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = np.where(intensity > DEFAULT_INTENSITY_FLOOR, g2tilde / intensity ** 2, np.nan)
    return ObservableTrace(times=traj.times.copy(), envelope_unit=traj.envelope_unit.copy(),
                           omega_c=traj.omega_c.copy(), intensity=intensity,
                           g2tilde=g2tilde, g2=g2)


# ---------------------------------------------------------------------------
# two-time correlations

@dataclass
class CorrelationGrid(ObservableTrace):
    """A trace with its G2(t1, t2) on the trace's own square time grid."""

    g2_matrix: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        m = len(self.times)
        if self.g2_matrix.shape != (m, m):
            raise ConfigurationError("correlation matrix does not match the grid")


#: columns of the Toeplitz products ``correlation_grid`` holds at once
GRID_BLOCK = 128


def _row_blocks(shape: tuple, entries: int):
    """Consecutive slices of the rows of a matrix of ``shape``, about
    ``entries`` entries each (one row at least)."""
    n, m = shape
    step = max(1, entries // max(m, 1))
    return (slice(a, min(a + step, n)) for a in range(0, n, step))


def correlation_grid(traj: StateTrajectory, generator: Generator) -> CorrelationGrid:
    """G2(t_i, t_j) over the trajectory's grid, in closed form from its
    record, whose covectors must begin with
    ``Generator.output_covectors(grid=True)``.

    A photon taken at t_i leaves the ground f1_i and the singles
    ep_i psi1 + ann psi2, which evolve under the trajectory's own singles
    generator with the ground frozen, so their difference from f1_i psi1(t)
    evolves undriven (Duhamel splitting): for t_i <= t_j,
    G2(t_i, t_j) = |f1_i f1_j + out_e Phi(t_j, t_i) x'_i|^2 with
    x'_i = ann psi2(t_i) - (out_e psi1(t_i)) psi1(t_i) and Phi the undriven
    singles propagator.  The runs are the trajectory's recorded segments:
    on each, the samples are equally spaced at one constant Omega_c, so
    Phi(t_j, t_i) = P^(j - i) with P = ``SinglesPropagator.step`` at the
    segment's Omega_c and mean step h, a Toeplitz product of the rows
    out_e P^k with the columns x'_i, ``GRID_BLOCK`` columns at a time.
    Earlier columns are carried to each segment's start by binary powers
    of P.
    """
    n1 = generator.index.dim_singles
    if not np.array_equal(traj.covectors[:2 + 2 * n1], generator.output_covectors(grid=True)):
        raise ConfigurationError("trajectory did not record the correlation-grid covectors")
    rec, times, n = traj.projections, traj.times, traj.n_samples
    f1 = traj.envelope_unit + rec[:, 0]
    x = (rec[:, 2 + n1:2 + 2 * n1] - rec[:, :1] * rec[:, 2:2 + n1]).T
    g2 = np.empty((n, n))
    phi = SinglesPropagator(generator)
    bounds = [*traj.segment_starts, n - 1]
    cols = np.empty((n1, 0), dtype=x.dtype)
    for s, e in zip(bounds, bounds[1:]):
        # columns born at i < stop are filled at t_j, j in [max(i, s), stop)
        last = e == n - 1
        stop = e + 1 if last else e
        p = phi.step(traj.omega_c[s], (times[e] - times[s]) / (e - s)).dense()
        rows = np.empty((stop - s, n1), dtype=np.result_type(generator.out_e, p))
        rows[0] = generator.out_e
        for k in range(1, stop - s):
            rows[k] = rows[k - 1] @ p
        cols = np.hstack([cols, x[:, s:stop]])
        _fill_run(g2, f1, rows, cols, s)
        if not last:
            _carry(p, cols, e - np.maximum(np.arange(e), s))
    return CorrelationGrid(**vars(trace_from_trajectory(traj, generator)), g2_matrix=g2)


def _fill_run(g2: np.ndarray, f1: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              s: int) -> None:
    """G2(t_i, t_j) and G2(t_j, t_i) for j in [s, s + len(rows)) and each
    column i, which holds x'_i carried to t_max(i, s); rows[k] is out_e P^k."""
    stop = s + len(rows)
    for c0 in range(0, stop, GRID_BLOCK):
        c1 = min(c0 + GRID_BLOCK, stop)
        amp = rows @ cols[:, c0:c1]
        old = min(c1, s + 1)        # columns born by t_s fill the whole run
        if old > c0:
            a = np.abs(np.outer(f1[c0:old], f1[s:stop]) + amp[:, :old - c0].T) ** 2
            g2[c0:old, s:stop] = a
            g2[s:stop, c0:old] = a.T
        for i in range(max(c0, s + 1), c1):
            a = np.abs(f1[i] * f1[i:stop] + amp[:stop - i, i - c0]) ** 2
            g2[i, i:stop] = a
            g2[i:stop, i] = a


def _carry(p: np.ndarray, cols: np.ndarray, powers: np.ndarray) -> None:
    """cols[:, i] <- p^powers[i] cols[:, i] in place, by binary powers of p."""
    q = p
    for b in range(int(powers.max()).bit_length()):
        hit = (powers >> b) & 1 == 1
        cols[:, hit] = q @ cols[:, hit]
        q = q @ q


def _window_slice(times: np.ndarray, t_start: float, width: float):
    """The samples [a, b) of the window [t_start, t_start + width], to 1e-9;
    a window reaching outside the grid is refused."""
    if t_start < times[0] - 1e-9 or t_start + width > times[-1] + 1e-9:
        raise UndefinedResultError(f"window [{t_start}, {t_start + width}] reaches outside "
                                   f"the simulated [{times[0]}, {times[-1]}]")
    return (int(np.searchsorted(times, t_start - 1e-9)),
            int(np.searchsorted(times, t_start + width + 1e-9)))


def windowed_g2(grid: CorrelationGrid, w1, w2) -> float:
    """Windowed correlation: coincidence mass over the product of the windowed
    intensities, trapezoidal quadrature on the grid.  Exactly 1 for coherent
    light.  ``w1``/``w2`` are (start_time, width) pairs; a window of fewer
    than two samples, or whose mean intensity is at or below
    ``DEFAULT_INTENSITY_FLOOR``, has none."""
    (a1, b1), (a2, b2) = _window_slice(grid.times, *w1), _window_slice(grid.times, *w2)
    if min(b1 - a1, b2 - a2) < 2:
        raise UndefinedResultError("a window holds fewer than two grid samples")
    t1 = grid.times[a1:b1]
    t2 = grid.times[a2:b2]
    g2 = grid.g2_matrix[a1:b1, a2:b2]
    # the inner trapezoid by row blocks of about GRID_BLOCK grid rows, the
    # working set of correlation_grid: each row's is the whole matrix's
    inner = np.concatenate([np.trapezoid(g2[s], t2, axis=1)
                            for s in _row_blocks(g2.shape, GRID_BLOCK * len(grid.times))])
    num = np.trapezoid(inner, t1)
    p1 = np.trapezoid(grid.intensity[a1:b1], t1)
    p2 = np.trapezoid(grid.intensity[a2:b2], t2)
    floor = DEFAULT_INTENSITY_FLOOR
    if p1 <= floor * (t1[-1] - t1[0]) or p2 <= floor * (t2[-1] - t2[0]):
        raise UndefinedResultError("windowed intensity below floor; g2 undefined")
    return float(num / (p1 * p2))


# ---------------------------------------------------------------------------
# CW transmission spectrum

def transmission_spectrum(params: PhysicalParams, chain: AtomChain, omega_c: float,
                          deltas) -> list:
    """CW intensity transmission versus probe detuning (two-photon detuning
    scans along with the probe; the control stays on resonance)."""
    out = []
    for d in np.asarray(deltas, dtype=float):
        p = dc_replace(params, delta_e=float(d), delta_2=float(d))
        out.append((float(d), abs(steady_transmission_amplitude(p, chain, omega_c)) ** 2))
    return out


def eit_peak(spectrum):
    """(delta, T, index) of the transparency peak: the local transmission
    maximum nearest zero detuning (the wings recover toward 1 far outside
    the absorption dips, so the global maximum is not the EIT window)."""
    d = np.array([p[0] for p in spectrum])
    t = np.array([p[1] for p in spectrum])
    i = int(np.argmin(np.abs(d)))
    while 0 < i < len(t) - 1:
        if t[i + 1] > t[i]:
            i += 1
        elif t[i - 1] > t[i]:
            i -= 1
        else:
            break
    return float(d[i]), float(t[i]), i


def spectrum_fwhm(spectrum) -> float:
    """Full width at half maximum of the EIT transparency window given as
    (delta, T) pairs: the first half crossing (``_first_half_crossing``) on
    each side, run from the peak outward."""
    d = np.array([p[0] for p in spectrum])
    t = np.array([p[1] for p in spectrum])
    _, t_peak, i0 = eit_peak(spectrum)
    lo = _first_half_crossing(d[i0::-1], t[i0::-1], 0.5 * t_peak, falling_only=True)
    hi = _first_half_crossing(d[i0:], t[i0:], 0.5 * t_peak, falling_only=True)
    return float(hi - lo)


# ---------------------------------------------------------------------------
# steady-state measurement and transient extraction

@dataclass
class SteadyStateStats:
    i_ss: float
    g2tilde_ss: float
    g2_ss: float
    flat: bool


def _samples_in(times: np.ndarray, a: float, b: float) -> np.ndarray:
    """Samples in [a, b) up to rounding: [a - eps, b - eps), eps = 1e-9 max(1, |b|)."""
    eps = 1e-9 * max(1.0, abs(b))
    return (times >= a - eps) & (times < b - eps)


def measure_steady_state(trace: ObservableTrace, t_on: float, t_off: float) -> SteadyStateStats:
    """Average over the final tenth of the on-interval, with a flatness
    check on the intensity (max fractional deviation under 0.005)."""
    mask = _samples_in(trace.times, t_off - 0.1 * (t_off - t_on), t_off)
    if not np.any(mask):
        raise ExtractionError("no samples in the steady-state window")
    i_win = trace.intensity[mask]
    g_win = trace.g2tilde[mask]
    i_ss = float(np.mean(i_win))
    g2t_ss = float(np.mean(g_win))
    dev = float(np.max(np.abs(i_win - i_ss)) / i_ss) if i_ss > 0 else math.inf
    g2_ss = g2t_ss / i_ss ** 2 if i_ss > 0 else math.nan
    return SteadyStateStats(i_ss=i_ss, g2tilde_ss=g2t_ss, g2_ss=g2_ss, flat=dev < 0.005)


def tau_eit(d: float, gamma_prime: float, omega_c: float) -> float:
    """EIT traversal time 4 D Gamma' / Omega_c^2."""
    return 4.0 * d * gamma_prime / omega_c ** 2


def extract_tau0(trace: ObservableTrace, t_on: float, t_off: float, g2_ss: float,
                 rel_tol: float = 0.005) -> float:
    """First time after turn-on from which |g2 - g2_ss|/g2_ss stays below
    ``rel_tol`` at every later sample up to t_off (no false early crossings
    during ringing).  NaN samples count as violations."""
    mask = _samples_in(trace.times, t_on, t_off)
    if g2_ss <= 0 or not np.any(mask):
        raise ExtractionError("turn-on window empty or g2_ss invalid")
    t = trace.times[mask]
    rel = np.abs(trace.g2[mask] - g2_ss) / g2_ss
    bad = ~(rel < rel_tol)  # NaN -> True
    if bad[-1]:
        raise ExtractionError("g2 never settles to the steady value before t_off")
    last_bad = int(np.max(np.nonzero(bad)[0])) if np.any(bad) else -1
    return float(t[last_bad + 1] - t_on)


def _first_half_crossing(t: np.ndarray, y: np.ndarray, level: float,
                         falling_only: bool = False) -> float:
    """First time (or detuning) ``t`` at which the signal ``y`` drops to
    ``level``; with ``falling_only`` the crossing must follow a sample above
    the level (the retrieved intensity starts at zero right after shutoff,
    flashes up, then falls)."""
    below = y <= level
    if falling_only:
        seen_above = np.concatenate([[False], np.maximum.accumulate(~below)[:-1]])
        below = below & seen_above
    if not np.any(below):
        raise ExtractionError("signal never drops to the half level in the trace")
    i = int(np.argmax(below))
    if i == 0:
        return float(t[0])
    # linear interpolation between the bracketing samples
    frac = (y[i - 1] - level) / (y[i - 1] - y[i])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def fit_exponential_envelope(t: np.ndarray, y: np.ndarray) -> float:
    """Decay rate of the upper envelope of the positive samples ``y`` (a
    two-photon intensity) at times ``t``.

    The envelope is the set of samples not exceeded by any later sample (for
    a monotone decay that is every sample; for an oscillating decay it is the
    descending crests).  Least squares on the log of those points; fewer
    than 3 samples or envelope points is a fit error.
    """
    if len(t) < 3:
        raise ExtractionError("fit range holds fewer than 3 samples")
    if np.any(y <= 0):
        raise ExtractionError("two-photon intensity not positive on the fit range")
    run_max = np.maximum.accumulate(y[::-1])[::-1]
    on_env = np.zeros(len(y), dtype=bool)
    on_env[:-1] = y[:-1] >= run_max[1:]
    on_env[-1] = True
    if int(np.sum(on_env)) < 3:
        raise ExtractionError("fewer than 3 envelope maxima in the fit range")
    slope, _ = np.polyfit(t[on_env], np.log(y[on_env]), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(v) -> str:
    """A value as every output file and printed result writes it: a bool as 0/1,
    a float (numpy's too) via repr, a tuple or list comma-joined, else str."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def write_csv(path, columns: list, rows, units_note: str = "") -> None:
    """Plain CSV with a '#' units/meta header; floats via repr (byte-stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        if units_note:
            fh.write(f"# {units_note}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
