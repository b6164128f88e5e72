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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, ns_from_time
from .observables import CorrelationGrid, ObservableTrace


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

    @property
    def n_events(self) -> int:
        return len(self.trials)

    def counts_in_window(self, detector: int, window_ns) -> np.ndarray:
        """Per-trial counts of the given detector inside [t, t + dt] (ns)."""
        t0, width = window_ns
        mask = (self.detectors == detector) & (self.times_ns >= t0 - 1e-9) \
            & (self.times_ns <= t0 + width + 1e-9)
        return np.bincount(self.trials[mask], minlength=self.n_trials)


# ---------------------------------------------------------------------------
# timestamp file format

#: events formatted per write; one list of every line would add a second copy
#: of the text to the peak memory
_WRITE_CHUNK = 4096


def _write_stream(stream: DetectionStream, fh) -> None:
    fh.write(f"# rydeit timestamps n_trials={stream.n_trials} "
             f"trial_period_ns={stream.trial_period_ns!r} seed={stream.seed}\n")
    fh.write("# columns: trial_index detector_id time_ns\n")
    for i in range(0, stream.n_events, _WRITE_CHUNK):
        part = slice(i, i + _WRITE_CHUNK)
        fh.write("".join(f"{tr} {det} {t!r}\n" for tr, det, t in zip(
            np.asarray(stream.trials[part], dtype=np.int64).tolist(),
            np.asarray(stream.detectors[part], dtype=np.int64).tolist(),
            np.asarray(stream.times_ns[part], dtype=float).tolist())))


def save_stream(stream: DetectionStream, path_or_file) -> None:
    """One line per event: 'trial_index detector_id time_ns'; accepts a path
    or any writable text handle."""
    if hasattr(path_or_file, "write"):
        _write_stream(stream, path_or_file)
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        _write_stream(stream, fh)


def load_stream(path) -> DetectionStream:
    trials, dets, times = [], [], []
    n_trials = None
    period = DetectionStream.trial_period_ns
    seed = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("n_trials="):
                        n_trials = int(tok.split("=", 1)[1])
                    elif tok.startswith("trial_period_ns="):
                        period = float(tok.split("=", 1)[1])
                    elif tok.startswith("seed="):
                        s = tok.split("=", 1)[1]
                        seed = None if s == "None" else int(s)
                continue
            if not line:
                continue
            tr, det, t = line.split()
            trials.append(int(tr))
            dets.append(int(det))
            times.append(float(t))
    if n_trials is None:
        n_trials = (max(trials) + 1) if trials else 0
    return DetectionStream(trials=np.array(trials, dtype=int),
                           detectors=np.array(dets, dtype=int),
                           times_ns=np.array(times, dtype=float),
                           n_trials=n_trials, trial_period_ns=period, seed=seed)


# ---------------------------------------------------------------------------
# trial emulation

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


def _sample_pair_times(rng: np.random.Generator, times: np.ndarray,
                       density: np.ndarray, k: int):
    """``k`` time pairs drawn exactly from the bilinear interpolant of the
    gridded pair density, by composition with three uniforms per pair.

    A cell is picked with probability proportional to its mass (corner mean
    times cell area); the t1 fraction follows the cell's linear marginal and
    the t2 fraction the linear conditional at that t1.  The density must be
    nonnegative, as G2 is.
    """
    if np.any(density < 0):
        raise ConfigurationError("pair density must be nonnegative")
    if k == 0:
        return np.empty(0), np.empty(0)
    n = len(times) - 1
    dt = np.diff(times)
    cum = density[:-1, :-1] + density[:-1, 1:]
    cum += density[1:, :-1]
    cum += density[1:, 1:]
    cum *= 0.25 * dt[:, None]
    cum *= dt
    cum = np.cumsum(cum, axis=None)
    total = cum[-1]
    if not total > 0:
        return np.empty(0), np.empty(0)
    # searching the keys in ascending order keeps the binary search in cache;
    # u * total can round up to total, and the clip keeps such a draw in the
    # last cell of nonzero mass, where cum first reaches total
    r = rng.random(k) * total
    order = np.argsort(r)
    c = np.empty(k, dtype=np.intp)
    c[order] = np.minimum(np.searchsorted(cum, r[order], side="right"),
                          np.searchsorted(cum, total))
    del cum, r, order
    i, j = np.divmod(c, n)
    w00, w01 = density[i, j], density[i, j + 1]
    w10, w11 = density[i + 1, j], density[i + 1, j + 1]
    x = _linear_fraction(w00 + w01, w10 + w11, rng.random(k))
    y = _linear_fraction((1.0 - x) * w00 + x * w10, (1.0 - x) * w01 + x * w11,
                         rng.random(k))
    return times[i] + x * dt[i], times[j] + y * dt[j]


def emulate_trials(trace: ObservableTrace, grid: CorrelationGrid, n_in: float,
                   budget: EfficiencyBudget, n_trials: int, seed: int,
                   trial_period_ns: float = DetectionStream.trial_period_ns,
                   gamma_mhz: float = 6.0) -> DetectionStream:
    """Synthesize the detection record of ``n_trials`` identical trials,
    from a trace and a correlation grid on the same time grid."""
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    if not np.array_equal(grid.times, trace.times):
        raise ConfigurationError("correlation grid is not on the trace's time grid")
    e0sq = n_in / trace.input_energy()

    lam = e0sq * trace.intensity                       # output photon rate
    mu1 = float(np.trapezoid(lam, trace.times))

    # pair sector on the correlation grid
    pair_density = e0sq ** 2 * grid.g2_matrix
    mu2 = float(np.trapezoid(np.trapezoid(pair_density, grid.times, axis=1), grid.times))
    p_pair = 0.5 * mu2

    # subtract the pair marginal from the singles density
    rho = np.trapezoid(pair_density, grid.times, axis=1)
    lam_single = np.clip(lam - rho, 0.0, None)
    p_single = float(np.trapezoid(lam_single, trace.times))
    clip = float(np.trapezoid(np.maximum(rho - lam, 0.0), trace.times))

    if p_pair + p_single > 1.0:
        raise ConfigurationError(f"pair and single probabilities per trial sum to "
                                 f"{p_pair + p_single!r} > 1: no at-most-one-event draw")
    p_detect_mean = (mu1) * max(budget.p_detect_1, budget.p_detect_2)
    if p_single + p_pair > 0.5 or p_detect_mean > 0.5:
        warnings.warn("mean photons per trial above 0.5; the at-most-one-event "
                      "emulation is outside its validity range", RuntimeWarning)

    rng = np.random.default_rng(seed)
    u = rng.random(n_trials)
    pair_trials = np.nonzero(u < p_pair)[0]
    single_trials = np.nonzero((u >= p_pair) & (u < p_pair + p_single))[0]

    acc1, acc2 = _sample_pair_times(rng, grid.times, pair_density, len(pair_trials))

    # single times by inverse CDF of the subtracted density
    k1 = len(single_trials)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(trace.times)
                                           * 0.5 * (lam_single[1:] + lam_single[:-1]))])
    if cdf[-1] > 0:
        t_single = np.interp(rng.random(k1) * cdf[-1], cdf, trace.times)
    else:
        t_single = np.empty(0)
        single_trials = single_trials[:0]

    # route and thin every photon
    def route(times_gamma: np.ndarray, trial_ids: np.ndarray):
        r = rng.random(len(times_gamma))
        det1 = r < budget.p_detect_1
        det2 = (~det1) & (r < budget.p_detect_1 + budget.p_detect_2)
        trials_out = np.concatenate([trial_ids[det1], trial_ids[det2]])
        dets_out = np.concatenate([np.ones(int(det1.sum()), dtype=int),
                                   np.full(int(det2.sum()), 2, dtype=int)])
        times_out = np.concatenate([times_gamma[det1], times_gamma[det2]])
        return trials_out, dets_out, times_out

    ta, da, za = route(acc1, pair_trials)
    tb, db, zb = route(acc2, pair_trials)
    tc, dc, zc = route(t_single, single_trials)

    trials = np.concatenate([ta, tb, tc])
    dets = np.concatenate([da, db, dc])
    times = np.concatenate([za, zb, zc])
    order = np.lexsort((times, dets, trials))
    return DetectionStream(trials=trials[order].astype(int), detectors=dets[order],
                           times_ns=times[order] * ns_from_time(1.0, gamma_mhz),
                           n_trials=n_trials, trial_period_ns=trial_period_ns, seed=seed,
                           pairs_per_trial=p_pair, singles_per_trial=p_single,
                           singles_clip_per_trial=clip)


# ---------------------------------------------------------------------------
# coincidence estimator

def estimate_g2(stream: DetectionStream, w1_ns, w2_ns):
    """Windowed g2 from same-trial cross-detector coincidences, normalized by
    the mean coincidences against the trials 5 to 20 later.

    Returns (value, standard_error); Poisson counting errors propagated from
    the coincidence and baseline counts.
    """
    k_lo, k_hi = 5, 20
    if stream.n_trials <= k_hi:
        raise EstimateError("need more trials than the largest baseline offset")
    n1 = stream.counts_in_window(1, w1_ns)
    n2 = stream.counts_in_window(2, w2_ns)
    t = stream.n_trials
    same = float(np.dot(n1, n2))

    b_rates = []
    b_total = 0.0
    for k in range(k_lo, k_hi + 1):
        bk = float(np.dot(n1[: t - k], n2[k:]))
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
    """Photons per trial at the cloud output inside the window (Gamma
    units); a window of fewer than two samples holds none."""
    e0sq = n_in / trace.input_energy()
    t0, width = window
    mask = trace.window_mask(t0, t0 + width)
    if int(np.sum(mask)) < 2:
        return 0.0
    return float(e0sq * np.trapezoid(trace.intensity[mask], trace.times[mask]))


def generation_probability_from_stream(stream: DetectionStream, window_ns,
                                       budget: EfficiencyBudget) -> float:
    """Counts per trial at detector 1 divided by the detection budget."""
    n1 = stream.counts_in_window(1, window_ns)
    eta = budget.p_detect_1
    if eta <= 0:
        raise ConfigurationError("detector-1 budget is zero; cannot infer generation")
    return float(np.mean(n1) / eta)


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
