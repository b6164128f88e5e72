"""Monte Carlo emulation of the Hanbury Brown-Twiss detection pipeline and the
coincidence-counting estimator with inter-trial normalization.

Generative model (weak-drive leading order): each trial emits at most one
event, either a photon pair with probability P2 = (E0^4/2) * double integral
of G2, with times drawn from G2, or a single photon with probability
P1 = E0^2 * int I - 2 P2, with times drawn from the intensity-weighted density
minus the pair marginal; P1 + P2 above 1 has no such distribution and is
refused.  Photons are then routed by the splitting ratio and thinned by the
efficiency budget.  With this construction the coincidence estimator
converges to the quadrature value (double integral of G2 over the product of
windowed intensities) for any photon statistics, sub-Poissonian included.

Pair times are drawn exactly from the bilinear interpolant of the gridded G2
by composition, with three uniforms per pair and no rejection: one picks a
grid cell in proportion to its mass, one the t1 fraction from the cell's
linear marginal, one the t2 fraction from the linear conditional at that t1.
The pair marginal is subtracted from the singles density at every trace
sample: the G2 grid is the trace's own grid.

The record is a function of the seed through the order of the draws, which
is the reproducibility contract: the trial uniforms, the pair sampler's cell,
t1 and t2 uniforms, the lone-photon times, then one routing uniform per
photon (pairs' first photons, their second photons, lone photons).  Every
stage takes its draws in blocks of ``_BLOCK`` (consecutive slices of a draw
are the draw) and each photon group is thinned as it is routed, so no
temporary spans every photon: the working set is a few numbers per pair or
lone-photon trial and the kept events, 16 bytes per trial on a scene of 0.32
pairs and 0.16 lone photons per trial, where whole-size arrays took 53.  A
thin-first emulation, which draws detected clicks directly, can reuse this
structure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, ns_from_time
from .observables import CorrelationGrid, ObservableTrace, _row_blocks


class EstimateError(RuntimeError):
    """The estimator is undefined on the given stream (e.g. empty baseline)."""


@dataclass(frozen=True)
class EfficiencyBudget:
    """Collection path and detector efficiencies of the HBT setup."""

    eta_path: float = 0.46   # ensemble -> beamsplitter input
    eta1: float = 0.43
    eta2: float = 0.43
    split: float = 0.5       # fraction of the light sent to detector 1

    def __post_init__(self) -> None:
        for name in ("eta_path", "eta1", "eta2", "split"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")

    @property
    def p_detect_1(self) -> float:
        return self.eta_path * self.split * self.eta1

    @property
    def p_detect_2(self) -> float:
        return self.eta_path * (1.0 - self.split) * self.eta2


@dataclass
class DetectionStream:
    """Trial-tagged detection timestamps (times relative to the trial trigger)."""

    trials: np.ndarray        # int trial index per event
    detectors: np.ndarray     # 1 or 2
    times_ns: np.ndarray
    n_trials: int
    trial_period_ns: float = 16000.0
    seed: int | None = None
    # what the emulation drew from (NaN for a stream read from a file): the
    # pair and lone-photon probabilities per trial, and the singles mass per
    # trial added where the pair marginal rho exceeds the photon rate lam,
    # the integral of max(rho - lam, 0)
    pairs_per_trial: float = math.nan
    singles_per_trial: float = math.nan
    singles_clip_per_trial: float = math.nan

    def __post_init__(self) -> None:
        if not (len(self.trials) == len(self.detectors) == len(self.times_ns)):
            raise ConfigurationError("stream arrays must have equal length")
        if not np.all((self.trials >= 0) & (self.trials < self.n_trials)):
            raise ConfigurationError(f"trial indices must lie in [0, {self.n_trials})")
        if not np.all((self.detectors == 1) | (self.detectors == 2)):
            raise ConfigurationError("detector ids must be 1 or 2")

    @property
    def n_events(self) -> int:
        return len(self.trials)

    def in_window(self, detector: int, window_ns) -> np.ndarray:
        """Mask of the events of the given detector inside [t, t + dt] (ns)."""
        t0, width = window_ns
        return (self.detectors == detector) & (self.times_ns >= t0 - 1e-9) \
            & (self.times_ns <= t0 + width + 1e-9)

    def counts_in_window(self, detector: int, window_ns) -> np.ndarray:
        """Per-trial counts of the given detector inside [t, t + dt] (ns)."""
        return np.bincount(self.trials[self.in_window(detector, window_ns)],
                           minlength=self.n_trials)


# ---------------------------------------------------------------------------
# timestamp file format

#: events formatted per write; one list of every line would add a second copy
#: of the text to the peak memory
_WRITE_CHUNK = 4096


def save_stream(stream: DetectionStream, path) -> None:
    """Write ``stream`` to the file ``path``, one line per event:
    'trial_index detector_id time_ns'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# rydeit timestamps n_trials={stream.n_trials} "
                 f"trial_period_ns={stream.trial_period_ns!r} seed={stream.seed}\n")
        fh.write("# columns: trial_index detector_id time_ns\n")
        for i in range(0, stream.n_events, _WRITE_CHUNK):
            part = slice(i, i + _WRITE_CHUNK)
            fh.write("".join(f"{tr} {det} {t!r}\n" for tr, det, t in zip(
                np.asarray(stream.trials[part], dtype=np.int64).tolist(),
                np.asarray(stream.detectors[part], dtype=np.int64).tolist(),
                np.asarray(stream.times_ns[part], dtype=float).tolist())))


#: one parsed event line: trial index, detector id, time in ns
_EVENT_DTYPE = np.dtype([("trial", int), ("detector", int), ("time_ns", float)])


def load_stream(path) -> DetectionStream:
    """Read a stream that ``save_stream`` wrote, or an external file of the
    same format.  The ``#`` lines before the first event give n_trials (else
    the largest trial index plus one), the trial period and the seed; the
    event lines are parsed in one numpy pass."""
    n_trials = None
    period = DetectionStream.trial_period_ns
    seed = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                break
            for tok in line[1:].split():
                if tok.startswith("n_trials="):
                    n_trials = int(tok.split("=", 1)[1])
                elif tok.startswith("trial_period_ns="):
                    period = float(tok.split("=", 1)[1])
                elif tok.startswith("seed="):
                    s = tok.split("=", 1)[1]
                    seed = None if s == "None" else int(s)
    with warnings.catch_warnings():
        # a file of headers only holds no events, which is a valid stream
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        events = np.loadtxt(path, dtype=_EVENT_DTYPE, comments="#", ndmin=1,
                            encoding="utf-8")
    if n_trials is None:
        n_trials = int(events["trial"].max()) + 1 if len(events) else 0
    return DetectionStream(trials=events["trial"], detectors=events["detector"],
                           times_ns=events["time_ns"], n_trials=n_trials,
                           trial_period_ns=period, seed=seed)


# ---------------------------------------------------------------------------
# trial emulation

#: draws per block (trials, pairs, lone photons or routed photons), and about
#: the entries per row block of the pair density: no temporary outgrows a
#: block.  On the benchmark's gaussian scene (10^6 trials, 1101 samples)
#: 2^15 ran fastest, 0.17 s against 0.19 s at 2^13 and 2^16 and 0.24 s at
#: 2^20, and traced 23.5 MB against 28 MB at 2^16 and 22 MB at 2^13
_BLOCK = 1 << 15


def _blocks(k: int):
    """Consecutive slices of at most ``_BLOCK`` items that cover ``range(k)``."""
    return (slice(a, min(a + _BLOCK, k)) for a in range(0, k, _BLOCK))


def _linear_fraction(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF on [0, 1] of the linear density a(1 - x) + b x, a, b >= 0,
    at the uniforms ``u``.

    The root of (b - a) x^2 / 2 + a x = (a + b) u / 2 is taken in the form
    x = u / (p + sqrt(p^2 (1 - u) + (1 - p)^2 u)), p = a / (a + b), which has
    no cancellation, a radicand that cannot round below zero and no overflow
    for any scale of a and b.  Where the density vanishes (a = b = 0) the
    fraction is uniform, p = 1/2: any point has zero weight there.
    """
    s = a + b
    p = np.divide(a, s, out=np.full_like(s, 0.5), where=s > 0)
    den = p + np.sqrt(p * p * (1.0 - u) + (1.0 - p) ** 2 * u)
    x = np.divide(u, den, out=np.zeros_like(u), where=den > 0)
    return np.minimum(x, 1.0)


def _cell_mass_cumsum(dt: np.ndarray, density: np.ndarray, scale: float) -> np.ndarray:
    """Cumulative masses of the cells of the bilinear density ``scale *
    density`` (corner mean times cell area) in row-major order, a row block at
    a time: the running total enters each block's first cell, so the sums are
    those of one cumsum over every cell."""
    n = len(dt)
    cum = np.empty(n * n)
    total = 0.0
    for s in _row_blocks((n, n), _BLOCK):
        d = scale * density[s.start:s.stop + 1]
        part = cum[s.start * n:s.stop * n].reshape(-1, n)
        np.add(d[:-1, :-1], d[:-1, 1:], out=part)
        part += d[1:, :-1]
        part += d[1:, 1:]
        part *= 0.25 * dt[s, None]
        part *= dt
        part = part.reshape(-1)
        part[0] += total
        np.cumsum(part, out=part)
        total = part[-1]
    return cum


def _sample_pair_times(rng: np.random.Generator, times: np.ndarray,
                       density: np.ndarray, k: int, scale: float = 1.0):
    """``k`` time pairs drawn exactly from the bilinear interpolant of the
    gridded pair density ``scale * density``, by composition with three
    uniforms per pair.

    A cell is picked with probability proportional to its mass (corner mean
    times cell area); the t1 fraction follows the cell's linear marginal and
    the t2 fraction the linear conditional at that t1.  The density must be
    nonnegative, as G2 is.  The draws come as ``k`` cell uniforms, then ``k``
    t1 and ``k`` t2 uniforms, each taken in blocks; besides the cumulative
    cell masses, which are freed before the fractions are drawn, the working
    set is three numbers per pair.
    """
    if np.fmin.reduce(density, axis=None) < 0:     # NaNs aside, no temporary
        raise ConfigurationError("pair density must be nonnegative")
    if k == 0:
        return np.empty(0), np.empty(0)
    n = len(times) - 1
    dt = np.diff(times)
    cum = _cell_mass_cumsum(dt, density, scale)
    total = cum[-1]
    if not total > 0:
        return np.empty(0), np.empty(0)
    # searching the keys in ascending order keeps the binary search in cache;
    # u * total can round up to total, and the clip keeps such a draw in the
    # last cell of nonzero mass, where cum first reaches total
    last = np.searchsorted(cum, total)
    c = np.empty(k, dtype=np.intp)
    for s in _blocks(k):
        r = rng.random(s.stop - s.start) * total
        order = np.argsort(r)
        c[s][order] = np.minimum(np.searchsorted(cum, r[order], side="right"), last)
    del cum

    def corners(s):
        i, j = np.divmod(c[s], n)
        return i, j, (scale * density[i, j], scale * density[i, j + 1],
                      scale * density[i + 1, j], scale * density[i + 1, j + 1])

    x = np.empty(k)
    for s in _blocks(k):
        _, _, (w00, w01, w10, w11) = corners(s)
        x[s] = _linear_fraction(w00 + w01, w10 + w11, rng.random(s.stop - s.start))
    t2 = np.empty(k)
    for s in _blocks(k):
        i, j, (w00, w01, w10, w11) = corners(s)
        xs = x[s]
        y = _linear_fraction((1.0 - xs) * w00 + xs * w10, (1.0 - xs) * w01 + xs * w11,
                             rng.random(s.stop - s.start))
        t2[s] = times[j] + y * dt[j]
        x[s] = times[i] + xs * dt[i]                # x becomes t1
    return x, t2


def _route(rng: np.random.Generator, trials: np.ndarray, times: np.ndarray,
           p1: float, p12: float):
    """Route and thin one photon group, one uniform per photon in blocks:
    detector 1 below ``p1``, detector 2 below ``p12``, lost above.  Returns
    the kept (trials, detectors, times), in the group's order."""
    kept = [(trials[:0], np.empty(0, dtype=int), times[:0])]
    for s in _blocks(len(times)):
        r = rng.random(s.stop - s.start)
        keep = np.nonzero(r < p12)[0]
        kept.append((trials[s][keep], np.where(r[keep] < p1, 1, 2), times[s][keep]))
    return tuple(np.concatenate(col) for col in zip(*kept))


def emulate_trials(grid: CorrelationGrid, n_in: float, budget: EfficiencyBudget,
                   n_trials: int, seed: int,
                   trial_period_ns: float = DetectionStream.trial_period_ns,
                   gamma_mhz: float = 6.0) -> DetectionStream:
    """Synthesize the detection record of ``n_trials`` identical trials from
    a trace with its correlation grid.

    Draws, in this order (the reproducibility contract; see the module
    notes): ``n_trials`` trial uniforms, then for ``k`` pairs ``k`` cell,
    ``k`` t1 and ``k`` t2 uniforms, one uniform per lone photon, and one
    routing uniform per photon, for the pairs' first photons, then their
    second photons, then the lone photons.  The working set is 8 bytes per
    pair or lone-photon trial, 24 per pair while the pairs are drawn, 8 per
    photon until it is routed, the kept events and a block of draws, plus
    the sampler's cumulative cell masses, 8 bytes per cell of the grid, while
    the cells are drawn: 23.6 MB at 10^6 trials on the 1101-sample gaussian
    scene of ``emulate-hbt`` (whole-size arrays took 90.5 MB there).
    """
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    e0sq = n_in / grid.input_energy()
    scale = e0sq ** 2                                  # pair density: scale * G2

    lam = e0sq * grid.intensity                        # output photon rate
    mu1 = float(np.trapezoid(lam, grid.times))

    # the pair marginal, a row block of the pair density at a time
    n = len(grid.times)
    rho = np.concatenate([np.trapezoid(scale * grid.g2_matrix[s], grid.times, axis=1)
                          for s in _row_blocks((n, n), _BLOCK)])
    p_pair = 0.5 * float(np.trapezoid(rho, grid.times))

    # subtract the pair marginal from the singles density
    lam_single = np.clip(lam - rho, 0.0, None)
    p_single = float(np.trapezoid(lam_single, grid.times))
    clip = float(np.trapezoid(np.maximum(rho - lam, 0.0), grid.times))

    if p_pair + p_single > 1.0:
        raise ConfigurationError(f"pair and single probabilities per trial sum to "
                                 f"{p_pair + p_single!r} > 1: no at-most-one-event draw")
    p_detect_mean = (mu1) * max(budget.p_detect_1, budget.p_detect_2)
    if p_single + p_pair > 0.5 or p_detect_mean > 0.5:
        warnings.warn("mean photons per trial above 0.5; the at-most-one-event "
                      "emulation is outside its validity range", RuntimeWarning)

    rng = np.random.default_rng(seed)
    parts = []
    for s in _blocks(n_trials):
        u = rng.random(s.stop - s.start)
        parts.append((s.start + np.nonzero(u < p_pair)[0],
                      s.start + np.nonzero((u >= p_pair) & (u < p_pair + p_single))[0]))
    pair_trials, single_trials = (np.concatenate(col) for col in zip(*parts))
    del parts

    acc1, acc2 = _sample_pair_times(rng, grid.times, grid.g2_matrix, len(pair_trials),
                                    scale=scale)

    # single times by inverse CDF of the subtracted density
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid.times)
                                           * 0.5 * (lam_single[1:] + lam_single[:-1]))])
    if cdf[-1] > 0:
        t_single = np.empty(len(single_trials))
        for s in _blocks(len(single_trials)):
            t_single[s] = np.interp(rng.random(s.stop - s.start) * cdf[-1], cdf, grid.times)
    else:
        t_single = np.empty(0)
        single_trials = single_trials[:0]

    # route and thin every photon group as it is drawn, in the order pairs'
    # first photons, their second photons, lone photons
    p1 = budget.p_detect_1
    p12 = budget.p_detect_1 + budget.p_detect_2
    first = _route(rng, pair_trials, acc1, p1, p12)
    del acc1                                        # each group freed once routed
    second = _route(rng, pair_trials, acc2, p1, p12)
    del acc2, pair_trials
    lone = _route(rng, single_trials, t_single, p1, p12)
    del t_single, single_trials

    # each group is in trial order and a trial holds a pair or a lone photon,
    # so a stable sort on the trial leaves only a pair's two kept photons to
    # put in (detector, time) order
    cols = [np.concatenate(col) for col in zip(first, second, lone)]
    del first, second, lone
    order = np.argsort(cols[0], kind="stable")
    trials, dets, times = (col[order] for col in cols)
    p = np.nonzero(trials[1:] == trials[:-1])[0]
    p = p[(dets[p] > dets[p + 1]) | ((dets[p] == dets[p + 1]) & (times[p] > times[p + 1]))]
    dets[p], dets[p + 1] = dets[p + 1], dets[p]
    times[p], times[p + 1] = times[p + 1], times[p]
    times *= ns_from_time(1.0, gamma_mhz)
    return DetectionStream(trials=trials, detectors=dets, times_ns=times,
                           n_trials=n_trials, trial_period_ns=trial_period_ns, seed=seed,
                           pairs_per_trial=p_pair, singles_per_trial=p_single,
                           singles_clip_per_trial=clip)


# ---------------------------------------------------------------------------
# coincidence estimator

def _lagged_coincidences(x1: np.ndarray, x2: np.ndarray, n_trials: int, lags) -> list:
    """sum_i n1[i] n2[i + k] over i + k < ``n_trials`` for each lag k, where
    n1, n2 count the trial indices ``x1``, ``x2``.

    The counts are taken ``_BLOCK`` trials at a time, so no temporary spans
    every trial: per-trial count arrays of 10^6 trials took 16 MB, and
    whether the allocator handed them pages it already held moved the
    process peak by 7 MB from one run to the next.  The sums are of
    integers, so they equal the whole-array dot products.
    """
    x1, x2 = np.sort(x1, kind="stable"), np.sort(x2, kind="stable")
    k_max = max(lags)
    dots = [0] * len(lags)
    for a in range(0, n_trials, _BLOCK):
        b = min(a + _BLOCK, n_trials)
        c = min(b + k_max, n_trials)
        n1 = np.bincount(x1[np.searchsorted(x1, a):np.searchsorted(x1, b)] - a,
                         minlength=b - a)
        n2 = np.bincount(x2[np.searchsorted(x2, a):np.searchsorted(x2, c)] - a,
                         minlength=c - a)
        for j, k in enumerate(lags):
            m = max(0, min(b, c - k) - a)
            dots[j] += int(np.dot(n1[:m], n2[k:k + m]))
    return [float(d) for d in dots]


def estimate_g2(stream: DetectionStream, w1_ns, w2_ns):
    """Windowed g2 from same-trial cross-detector coincidences, normalized by
    the mean coincidences against the trials 5 to 20 later.

    Returns (value, standard_error); Poisson counting errors propagated from
    the coincidence and baseline counts.
    """
    k_lo, k_hi = 5, 20
    if stream.n_trials <= k_hi:
        raise EstimateError("need more trials than the largest baseline offset")
    t = stream.n_trials
    lags = [0, *range(k_lo, k_hi + 1)]
    dots = _lagged_coincidences(stream.trials[stream.in_window(1, w1_ns)],
                                stream.trials[stream.in_window(2, w2_ns)], t, lags)
    same = dots[0]

    b_rates = []
    b_total = 0.0
    for k, bk in zip(lags[1:], dots[1:]):
        b_total += bk
        b_rates.append(bk / (t - k))
    baseline = float(np.mean(b_rates))
    if baseline <= 0.0:
        raise EstimateError("zero baseline coincidences; estimate undefined")

    value = (same / t) / baseline
    if same > 0:
        se = value * math.sqrt(1.0 / same + 1.0 / b_total)
    else:
        se = (1.0 / t) / baseline
    return value, se


def generation_probability_from_trace(trace: ObservableTrace, window, n_in: float) -> float:
    """Photons per trial at the cloud output inside the window (Gamma units);
    none in fewer than two samples, and a window outside the trace is refused."""
    e0sq = n_in / trace.input_energy()
    return float(e0sq * trace.window_energy(*window))


def generation_probability_from_stream(stream: DetectionStream, window_ns,
                                       budget: EfficiencyBudget) -> float:
    """Counts per trial at detector 1 divided by the detection budget."""
    eta = budget.p_detect_1
    if eta <= 0:
        raise ConfigurationError("detector-1 budget is zero; cannot infer generation")
    if stream.n_trials == 0:
        return math.nan
    # the mean of the per-trial counts, without an array of them
    return float(np.count_nonzero(stream.in_window(1, window_ns)) / stream.n_trials / eta)


def dlcz_compare(p: float, eta_d: float = 1.0, eta_r: float = 1.0):
    """Reference probabilistic pair source: retrieved-photon autocorrelation
    4p and generation probability p * eta_D * eta_R."""
    if p < 0:
        raise ConfigurationError("pair probability must be >= 0")
    if not (0.0 <= eta_d <= 1.0 and 0.0 <= eta_r <= 1.0):
        raise ConfigurationError("efficiencies must be in [0, 1]")
    if p > 0.1:
        warnings.warn("pair probability above 0.1; 4p approximation degrades",
                      RuntimeWarning)
    return 4.0 * p, p * eta_d * eta_r
