"""Monte Carlo emulation of the Hanbury Brown-Twiss detection pipeline and the
coincidence-counting estimator with inter-trial normalization.

Generative model (weak-drive leading order): each trial emits at most one
event, either a photon pair with probability P2 = (E0^4/2) * double integral
of G2, with times drawn from G2 by acceptance-rejection, or a single photon
with probability P1 = E0^2 * int I - 2 P2, with times drawn from the
intensity-weighted density minus the pair marginal.  Photons are then routed
by the splitting ratio and thinned by the efficiency budget.  With this
construction the coincidence estimator converges to the quadrature value
(double integral of G2 over the product of windowed intensities) for any
photon statistics, sub-Poissonian included.

Pair times are drawn against the global maximum of the gridded pair density.
Most candidates fall where the density is far below that maximum, so each
one is first compared with a precomputed upper bound of the bilinear
interpolant on its block of a coarse uniform partition; only candidates
under the bound get the exact interpolated test.  The bound is never below
the interpolant, so the pre-filter rejects only candidates the exact test
would reject: the accepted set, the random draws and hence the stream are
exactly those of testing every candidate.
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

def _write_stream(stream: DetectionStream, fh) -> None:
    fh.write(f"# rydeit timestamps n_trials={stream.n_trials} "
             f"trial_period_ns={stream.trial_period_ns!r} seed={stream.seed}\n")
    fh.write("# columns: trial_index detector_id time_ns\n")
    for tr, det, t in zip(stream.trials, stream.detectors, stream.times_ns):
        fh.write(f"{int(tr)} {int(det)} {float(t)!r}\n")


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
    period = 16000.0
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

def _grid_interp2(times: np.ndarray, values: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a square grid at points (t1, t2)."""
    i = np.clip(np.searchsorted(times, t1) - 1, 0, len(times) - 2)
    j = np.clip(np.searchsorted(times, t2) - 1, 0, len(times) - 2)
    fx = (t1 - times[i]) / (times[i + 1] - times[i])
    fy = (t2 - times[j]) / (times[j + 1] - times[j])
    v00 = values[i, j]
    v10 = values[i + 1, j]
    v01 = values[i, j + 1]
    v11 = values[i + 1, j + 1]
    return (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy + v11 * fx * fy)


#: blocks per axis of the pair-density bound table
_BOUND_BLOCKS = 64


def _block_bounds(times: np.ndarray, values: np.ndarray, n_blocks: int) -> np.ndarray:
    """Upper bounds of the bilinear interpolant of ``values`` on ``n_blocks``
    uniform blocks per axis of [times[0], times[-1]]^2.

    Block (a, b) holds the maximum over every grid corner that a point in
    blocks a-1..a+1 x b-1..b+1 interpolates from, so a point whose floored
    block index is off by one through rounding is still covered.  The bilinear
    value is a convex combination of its four corners; the relative pad
    absorbs the few ulps its floating-point evaluation can overshoot by.
    """
    t_lo, t_hi = float(times[0]), float(times[-1])
    edges = t_lo + (t_hi - t_lo) * np.arange(-1, n_blocks + 2) / n_blocks
    cell = np.clip(np.searchsorted(times, np.clip(edges, t_lo, t_hi)) - 1,
                   0, len(times) - 2)
    slices = list(zip(cell[:-3], cell[3:] + 2))   # corner range of each block

    def block_max(v: np.ndarray) -> np.ndarray:
        rows = np.stack([v[a:b].max(axis=0) for a, b in slices])
        return np.stack([rows[:, a:b].max(axis=1) for a, b in slices], axis=1)

    return block_max(values) + 1e-12 * block_max(np.abs(values))


def _sample_pair_times(rng: np.random.Generator, times: np.ndarray,
                       density: np.ndarray, k: int):
    """``k`` time pairs drawn from the gridded pair density by
    acceptance-rejection against its global maximum.

    Candidates at or above the block bound of their block are rejected
    before the exact bilinear test; the bound is never below the
    interpolant, so the accepted set, and every RNG draw, is exactly that of
    testing all candidates.
    """
    g2max = float(np.max(density)) if density.size else 0.0
    if k == 0 or not g2max > 0:
        return np.empty(0), np.empty(0)
    t_lo, t_hi = float(times[0]), float(times[-1])
    bound = _block_bounds(times, density, _BOUND_BLOCKS)
    scale = _BOUND_BLOCKS / (t_hi - t_lo)
    acc1, acc2 = [], []
    n_acc = 0
    while n_acc < k:
        batch = max(256, 4 * (k - n_acc))
        c1 = rng.uniform(t_lo, t_hi, batch)
        c2 = rng.uniform(t_lo, t_hi, batch)
        lim = rng.random(batch) * g2max
        b1 = np.minimum(((c1 - t_lo) * scale).astype(np.intp), _BOUND_BLOCKS - 1)
        b2 = np.minimum(((c2 - t_lo) * scale).astype(np.intp), _BOUND_BLOCKS - 1)
        live = np.nonzero(lim < bound[b1, b2])[0]
        keep = live[lim[live] < _grid_interp2(times, density, c1[live], c2[live])]
        acc1.append(c1[keep])
        acc2.append(c2[keep])
        n_acc += len(keep)
    return np.concatenate(acc1)[:k], np.concatenate(acc2)[:k]


def emulate_trials(trace: ObservableTrace, grid: CorrelationGrid, n_in: float,
                   budget: EfficiencyBudget, n_trials: int, seed: int,
                   trial_period_ns: float = 16000.0, gamma_mhz: float = 6.0) -> DetectionStream:
    """Synthesize the detection record of ``n_trials`` identical trials."""
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    env2 = np.trapezoid(trace.envelope_unit ** 2, trace.times)
    if env2 <= 0:
        raise ConfigurationError("trace carries no input pulse")
    e0sq = n_in / env2

    lam = e0sq * trace.intensity                       # output photon rate
    mu1 = float(np.trapezoid(lam, trace.times))

    # pair sector on the correlation grid
    pair_density = e0sq ** 2 * grid.g2_matrix
    mu2 = float(np.trapezoid(np.trapezoid(pair_density, grid.times, axis=1), grid.times))
    p_pair = 0.5 * mu2

    # subtract the pair marginal from the singles density
    rho_grid = np.trapezoid(pair_density, grid.times, axis=1)
    rho = np.zeros_like(lam)
    gi = np.clip(np.searchsorted(trace.times, grid.times), 0, len(lam) - 1)
    if not np.allclose(trace.times[gi], grid.times, rtol=0, atol=1e-9):
        raise ConfigurationError("correlation grid times are not trace samples")
    rho[gi] = rho_grid
    lam_single = np.clip(lam - rho, 0.0, None)
    p_single = float(np.trapezoid(lam_single, trace.times))

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
                           n_trials=n_trials, trial_period_ns=trial_period_ns, seed=seed)


# ---------------------------------------------------------------------------
# coincidence estimator

def estimate_g2(stream: DetectionStream, w1_ns, w2_ns,
                baseline_trials=(5, 20)):
    """Windowed g2 from same-trial cross-detector coincidences, normalized by
    the mean coincidences against the ``baseline_trials`` offset range.

    Returns (value, standard_error); Poisson counting errors propagated from
    the coincidence and baseline counts.
    """
    if stream.n_trials <= baseline_trials[1]:
        raise EstimateError("need more trials than the largest baseline offset")
    n1 = stream.counts_in_window(1, w1_ns)
    n2 = stream.counts_in_window(2, w2_ns)
    t = stream.n_trials
    same = float(np.dot(n1, n2))

    k_lo, k_hi = baseline_trials
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
    """Photons per trial at the cloud output inside the window (Gamma units)."""
    env2 = np.trapezoid(trace.envelope_unit ** 2, trace.times)
    if env2 <= 0:
        return 0.0
    e0sq = n_in / env2
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
