"""End-to-end scenario runners: spectra, propagation traces, turn-on/turn-off
parameter scans, the experiment replica, single-photon window studies, storage
and the detection emulator.

Scan points run independently (optionally across processes) and results are
gathered in grid order; failed points become flagged rows, never dropped.
Runners return an in-memory ResultBundle; nothing touches the filesystem
until ``ResultBundle.write`` so a failed run leaves no partial output.
"""

from __future__ import annotations

import math
import os
import time as _time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial

import numpy as np

from . import __version__ as _version
from .model import (BlockadeConfig, ConfigurationError, ControlSchedule,
                    PulseEnvelope, PulseShape, atoms_for_depth,
                    build_chain, ns_from_time, optical_depth, time_from_ns)
from .configio import ScenarioConfig, manifest_text
from .counting import (EstimateError, emulate_trials, estimate_g2,
                       generation_probability_from_stream, generation_probability_from_trace,
                       dlcz_compare, save_stream)
from .dynamics import (DynamicsError, SinglesPropagator, assemble_generator, decay, evolve,
                       steady_state)
from .observables import (ExtractionError, UndefinedResultError, _first_half_crossing,
                          correlation_grid, eit_peak, extract_tau0, fit_exponential_envelope,
                          measure_steady_state, spectrum_fwhm, tau_eit,
                          trace_from_trajectory, transmission_spectrum, windowed_g2,
                          write_csv)


@dataclass
class ResultBundle:
    """Everything one scenario produced; written to disk in one shot."""

    config: ScenarioConfig
    tables: list = field(default_factory=list)   # (filename, columns, rows, note)
    scalars: dict = field(default_factory=dict)
    streams: dict = field(default_factory=dict)  # filename -> DetectionStream
    wall_time_s: float = 0.0

    def write(self, out_dir) -> list:
        """Write the tables, the streams and the manifest into ``out_dir``;
        returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for fname, cols, rows, note in self.tables:
            paths.append(os.path.join(out_dir, fname))
            write_csv(paths[-1], cols, rows, note)
        for fname, stream in self.streams.items():
            paths.append(os.path.join(out_dir, fname))
            save_stream(stream, paths[-1])
        paths.append(os.path.join(out_dir, "manifest.ini"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(manifest_text(self.config, self.scalars, {
                "version": _version, "wall_time_s": round(self.wall_time_s, 3)}))
        return paths


def _timed(fn):
    def wrapper(cfg: ScenarioConfig) -> ResultBundle:
        t0 = _time.perf_counter()
        bundle = fn(cfg)
        bundle.wall_time_s = _time.perf_counter() - t0
        return bundle
    return wrapper


def _csv_time_cols(gamma_mhz: float) -> str:
    return f"times in 1/Gamma and ns; Gamma = 2*pi*{gamma_mhz!r} MHz"


# ---------------------------------------------------------------------------
# spectrum

@_timed
def run_spectrum(cfg: ScenarioConfig) -> ResultBundle:
    chain = cfg.chain()
    deltas = np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_points)
    spec = transmission_spectrum(cfg.params, chain, cfg.params.omega_c_peak, deltas)
    g = cfg.params.gamma_mhz
    rows = [(d, d * g, t) for d, t in spec]
    pk_delta, pk_t, _ = eit_peak(spec)
    scalars = {"eit_peak_transmission": pk_t, "eit_peak_delta_gamma": pk_delta,
               "optical_depth": optical_depth(chain, cfg.params)}
    try:
        fw = spectrum_fwhm(spec)
        scalars["fwhm_gamma"] = fw
        scalars["fwhm_mhz"] = fw * g
    except ExtractionError:
        scalars["fwhm_gamma"] = scalars["fwhm_mhz"] = math.nan
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "spectrum.csv", ["delta_gamma", "delta_mhz", "transmission"], rows,
        f"CW intensity transmission vs probe detuning; Gamma = 2*pi*{g!r} MHz")])


# ---------------------------------------------------------------------------
# plain propagation

def _propagate(cfg: ScenarioConfig, grid: bool = False):
    """Generator and output record of the configured run: its trace, or with
    ``grid`` its correlation grid."""
    gen = assemble_generator(cfg.params, cfg.chain(), cfg.blockade(),
                             cfg.schedule(), cfg.envelope())
    traj = evolve(gen, cfg.horizon(), time_from_ns(cfg.dt_out_ns, cfg.params.gamma_mhz),
                  project=gen.output_covectors(grid))
    return gen, (correlation_grid if grid else trace_from_trajectory)(traj, gen)


def _trace_rows(trace, g: float):
    return [(float(t), ns_from_time(float(t), g), float(e), float(o), float(i),
             float(g2t), float(g2))
            for t, e, o, i, g2t, g2 in zip(trace.times, trace.envelope_unit,
                                           trace.omega_c, trace.intensity,
                                           trace.g2tilde, trace.g2)]

_TRACE_COLS = ["t_gamma", "t_ns", "envelope_unit", "omega_c_gamma",
               "intensity_norm", "g2tilde", "g2"]


def _flat_interval(envelope: PulseEnvelope) -> tuple:
    """(start, end) of the square pulse's plateau, its constant piece."""
    return next(p[:2] for p in envelope.pieces if p[3] == 0.0)


@_timed
def run_propagate(cfg: ScenarioConfig) -> ResultBundle:
    gen, trace = _propagate(cfg)
    g = cfg.params.gamma_mhz
    scalars = {"optical_depth": optical_depth(gen.chain, cfg.params)}
    scalars["pulse_transmission"] = float(
        np.trapezoid(trace.intensity, trace.times) / trace.input_energy())
    if cfg.pulse_shape == "square":
        try:
            stats = measure_steady_state(trace, *_flat_interval(gen.envelope))
            scalars.update(i_ss=stats.i_ss, g2tilde_ss=stats.g2tilde_ss,
                           g2_ss=stats.g2_ss, steady_flat=int(stats.flat))
        except ExtractionError:
            pass
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "trace.csv", _TRACE_COLS, _trace_rows(trace, g), _csv_time_cols(g))])


# ---------------------------------------------------------------------------
# turn-on and turn-off scans

#: Longest turn-on horizon, in units of tau_eit; a point whose g2 has not
#: settled by then is flagged ``no_settling_before_cap``
TURNON_CAP = 100.0


def _device(params, d_target: float, omega_c: float) -> tuple:
    """One scan point's device: the fully blockaded chain of optical depth
    about ``d_target``, its generator at constant ``omega_c`` (the
    configured ``params`` with the control set to it) and the driven steady
    state ss = [1; psi1; psi2].  The square probe stays on over every
    horizon a turn-on point can reach, up to max(50, ``TURNON_CAP``
    tau_eit).  Returns (gen, ss, f, a2, row): the steady output amplitudes
    f = out_e psi1 and a2 = a2vec psi2, and the start of the point's row."""
    params = dc_replace(params, omega_c_peak=omega_c)
    n = atoms_for_depth(d_target, params)
    chain = build_chain(n)
    d = optical_depth(chain, params)
    teit = tau_eit(d, params.gamma_prime, omega_c)
    envelope = PulseEnvelope(PulseShape.SQUARE, duration=2.0 * max(50.0, TURNON_CAP * teit))
    gen = assemble_generator(params, chain, BlockadeConfig.fully_blockaded(),
                             ControlSchedule.constant(omega_c), envelope)
    ss = steady_state(gen, omega_c=omega_c)
    row = {"d_target": d_target, "omega_c": omega_c, "n_atoms": n, "d": d,
           "tau_eit_gamma": teit, "status": "ok"}
    return (gen, ss, complex(gen.out_e @ ss[gen.index.singles]),
            complex(gen.a2vec @ ss[gen.index.doubles]), row)


def _turnon_point(cfg: ScenarioConfig, d_target: float, omega_c: float) -> dict:
    """One (D, Omega_c) turn-on point of ``_device``: evolve from vacuum under
    the square probe over max(1.2 tau_eit, 50), and over doubled horizons up
    to ``TURNON_CAP`` tau_eit until g2 settles to its steady value within
    ``cfg.rel_tol`` well inside the horizon, and extract tau_0."""
    gen, ss, f, a2, out = _device(cfg.params, d_target, omega_c)
    teit = out["tau_eit_gamma"]
    i_ss = abs(1.0 + f) ** 2
    g2_ss = out["g2_ss"] = abs(1.0 + 2.0 * f + a2) ** 2 / i_ss ** 2
    cap = TURNON_CAP * teit
    horizon = max(1.2 * teit, 50.0)
    while True:
        traj = evolve(gen, (0.0, horizon), horizon / 2500.0, project=gen.output_covectors())
        try:
            tau0 = extract_tau0(trace_from_trajectory(traj, gen), 0.0, horizon, g2_ss,
                                cfg.rel_tol)
        except ExtractionError:
            tau0 = math.nan
        # settled well inside the horizon, or give up at the cap
        if tau0 < 0.8 * horizon:
            out.update(tau0_gamma=tau0, tau0_ns=ns_from_time(tau0, cfg.params.gamma_mhz),
                       tau0_over_tau_eit=tau0 / teit)
            return out
        if horizon >= cap:
            out["status"] = "no_settling_before_cap"
            return out
        horizon = min(2.0 * horizon, cap)


_TURNON_COLS = ["d_target", "d", "n_atoms", "omega_c", "tau0_gamma", "tau0_ns",
                "tau_eit_gamma", "tau0_over_tau_eit", "g2_ss", "status"]


@_timed
def run_turnon_scan(cfg: ScenarioConfig) -> ResultBundle:
    ok, rows, scalars = _scan(cfg, _turnon_point, _TURNON_COLS)
    if ok:
        scalars["median_tau0_over_tau_eit"] = float(np.median(
            [r["tau0_over_tau_eit"] for r in ok]))
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "turnon.csv", _TURNON_COLS, rows, "turn-on transient times; tau_eit = "
        "4 D Gamma' / Omega_c^2; " + _csv_time_cols(cfg.params.gamma_mhz))])


def _turnoff_point(cfg: ScenarioConfig, d_target: float, omega_c: float) -> dict:
    """One (D, Omega_c) turn-off point, starting from the exact driven steady
    state of ``_device`` (the long-pulse limit): singles give tau_I and the
    retrieval peak, the shutoff jump of the intensity is |f|^2 (0 where f is
    rounding) and that of G2 is |a2|^2.  With
    ``cfg.turnoff_doubles`` the doubles decay over 5,000 steps and give tau_II,
    where G2 first falls to half its jump, and the decay rate of its upper
    envelope over [``cfg.tail_fit_start``, ``cfg.tail_fit_end``].

    The singles decay takes one propagator, at the step h of 6,000 samples
    over the first horizon max(0.4 tau_eit, 40), and goes on from its end
    state over each doubled horizon that finds no falling half crossing, up
    to 128 times the first.  The undriven singles contract: the Hermitian
    part of M1 = M1(Omega_c) is block diagonal, with the e block
    -(Gamma/2) I - (Gamma_1D/4)(u u^H - I), u = (1, ..., 1) (the cascaded
    exchange is -Gamma_1D/2 below the diagonal), the r block -gamma_r I,
    and the control coupling and the detunings anti-Hermitian.  Since
    u u^H - I has the eigenvalues N - 1 and -1, its top eigenvalue is
    max(-Gamma/2 + Gamma_1D/4, -gamma_r) <= 0 (-Gamma/2 in place of the
    first term at N = 1), so ||exp(M1 t)|| <= 1 and after a
    horizon's end t_h every sample obeys |out_e psi1(t)|^2 <=
    ||out_e||^2 ||psi1(t_h)||^2.  Once that bound is under both i_ss / 2 and
    the peak so far, no later sample can cross or raise the peak, and the
    point stops as ``no_half_crossing``."""
    gen, ss, f, a2, out = _device(cfg.params, d_target, omega_c)
    teit = out["tau_eit_gamma"]
    i_ss = out["i_ss"] = abs(1.0 + f) ** 2
    y = ss[gen.index.singles]
    out_e2 = float(np.vdot(gen.out_e, gen.out_e).real)
    # a dark steady state (gamma_r = 0) leaves only rounding in f = out_e psi1,
    # measured at under 0.1 eps ||out_e|| ||psi1||: that jump is 0
    rounding = 16.0 * np.finfo(float).eps * math.sqrt(out_e2 * np.vdot(y, y).real)
    out["i_jump"] = abs(f) ** 2 if abs(f) > rounding else 0.0

    # singles retrieval over doubled horizons of one propagator, stopped by
    # the contraction bound once no crossing can follow
    h0 = max(0.4 * teit, 40.0)
    singles = SinglesPropagator(gen)
    intens, tau_i = np.array([out["i_jump"]]), math.nan
    for attempt in range(8):
        proj, y = decay(singles, omega_c, h0 / 6000, y, 6000 << max(attempt - 1, 0),
                        gen.out_e[None])
        intens = np.concatenate([intens, np.abs(proj[:, 0]) ** 2])
        ts = np.linspace(0.0, h0 * 2 ** attempt, len(intens))
        try:
            tau_i = _first_half_crossing(ts, intens, 0.5 * i_ss, falling_only=True)
            break
        except ExtractionError:
            if out_e2 * np.vdot(y, y).real < min(0.5 * i_ss, float(np.max(intens))):
                break
    out.update(peak_intensity=float(np.max(intens)), tau_i_gamma=tau_i,
               tau_i_ns=ns_from_time(tau_i, cfg.params.gamma_mhz),
               tau_i_over_tau_eit=tau_i / teit)
    if math.isnan(tau_i):
        out["status"] = "no_half_crossing"

    out["g2tilde_jump"] = abs(a2) ** 2
    if cfg.turnoff_doubles:
        horizon = max(40.0, cfg.tail_fit_end + 5.0)
        ts = np.linspace(0.0, horizon, 5001)
        mask = (ts >= cfg.tail_fit_start) & (ts <= cfg.tail_fit_end)
        try:
            proj, _ = decay(SinglesPropagator(gen, "doubles"), omega_c, horizon / 5000,
                            ss[gen.index.doubles], 5000, gen.a2vec[None])
            g2t = np.concatenate([[out["g2tilde_jump"]], np.abs(proj[:, 0]) ** 2])
            out.update(tau_ii_gamma=_first_half_crossing(ts, g2t, 0.5 * g2t[0]),
                       tail_rate_gamma=fit_exponential_envelope(ts[mask], g2t[mask]))
        except (ExtractionError, DynamicsError) as exc:
            out.update(g2tilde_jump=math.nan, status=f"doubles_failed:{type(exc).__name__}")
    return out


_TURNOFF_COLS = ["d_target", "d", "n_atoms", "omega_c", "i_ss", "i_jump",
                 "peak_intensity", "tau_i_gamma", "tau_i_ns", "tau_eit_gamma",
                 "tau_i_over_tau_eit", "g2tilde_jump", "tau_ii_gamma",
                 "tail_rate_gamma", "status"]


@_timed
def run_turnoff_scan(cfg: ScenarioConfig) -> ResultBundle:
    ok, rows, scalars = _scan(cfg, _turnoff_point, _TURNOFF_COLS)
    # power-law fit of tau_II against D across the whole grid
    ok = [r for r in ok if np.isfinite(r.get("tau_ii_gamma", math.nan))]
    if len({r["d"] for r in ok}) >= 2:
        slope, _ = np.polyfit(np.log([r["d"] for r in ok]),
                              np.log([r["tau_ii_gamma"] for r in ok]), 1)
        scalars["tau_ii_vs_d_exponent"] = float(slope)
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "turnoff.csv", _TURNOFF_COLS, rows, "turn-off transients from the exact driven "
        "steady state; " + _csv_time_cols(cfg.params.gamma_mhz))])


def _scan(cfg: ScenarioConfig, point, columns: list) -> tuple:
    """Run ``point(cfg, d_target, omega_c)`` over the configured (D, Omega_c)
    grid (``_map_points``).  Returns the results with status ``ok``, the
    rows of every result in grid order over ``columns`` (NaN where a result
    holds no value: a raising point keeps only d_target, omega_c and its
    status), and the n_points and n_failed scalars."""
    results = _map_points(partial(point, cfg),
                          [(d, om) for d in cfg.d_list for om in cfg.omega_c_list],
                          cfg.threads)
    ok = [r for r in results if r["status"] == "ok"]
    rows = [tuple(r.get(c, math.nan) for c in columns) for r in results]
    return ok, rows, {"n_points": len(results), "n_failed": len(results) - len(ok)}


def _guarded_point(fn, point: tuple) -> dict:
    """``fn(d_target, omega_c)`` for one (D, Omega_c) point; any failure
    becomes a flagged row so the rest of the scan survives."""
    try:
        return fn(*point)
    except Exception as exc:  # per-point boundary: one point must not end the scan
        warnings.warn(f"scan point {point!r} failed:\n{traceback.format_exc()}",
                      RuntimeWarning)
        return {"d_target": point[0], "omega_c": point[1],
                "status": f"failed:{type(exc).__name__}"}


def _map_points(fn, points, threads: int) -> list:
    """``_guarded_point`` of ``fn`` over the (D, Omega_c) ``points``, in order,
    across ``threads`` worker processes when more than one."""
    run = partial(_guarded_point, fn)
    if threads > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, points))
    return [run(p) for p in points]


# ---------------------------------------------------------------------------
# experiment replica

@_timed
def run_experiment_replica(cfg: ScenarioConfig) -> ResultBundle:
    """``run_spectrum`` and ``run_propagate`` of the measured device: their
    scalars, plus g2 at the trace sample nearest 400 ns after the shutoff;
    the trace is written as ``pulse.csv`` and its g2 column as ``g2.csv``."""
    spectrum, pulse = run_spectrum(cfg), run_propagate(cfg)
    (_, cols, rows, note), = pulse.tables
    g = cfg.params.gamma_mhz
    t_bar = cfg.envelope().t_end
    times = np.array([r[0] for r in rows])
    i400 = int(np.argmin(np.abs(times - (t_bar + time_from_ns(400.0, g)))))
    # rows are (t_gamma, t_ns, ..., g2): _TRACE_COLS
    scalars = {**spectrum.scalars, **pulse.scalars,
               "g2_at_400ns_after_shutoff": rows[i400][-1]}
    return ResultBundle(config=cfg, scalars=scalars, tables=spectrum.tables + [
        ("pulse.csv", cols, rows, note),
        ("g2.csv", ["t_gamma", "t_ns", "g2"], [(r[0], r[1], r[-1]) for r in rows], note)])


# ---------------------------------------------------------------------------
# single-photon window scan

_WINDOW_COLS = ["pulse_shape", "delta_t_ns", "t_start_ns", "inv_delta_t_mhz",
                "g2_windowed", "generation_probability", "status"]


def _window_scan_rows(cfg: ScenarioConfig, shape: str):
    g = cfg.params.gamma_mhz
    shape_cfg = dc_replace(cfg, pulse_shape=shape)
    if shape == "gaussian":
        # match the measured comparison: longer pulse, stated default width
        shape_cfg = dc_replace(shape_cfg, duration_ns=1500.0, fwhm_ns=cfg.fwhm_ns or 600.0)
    _, grid = _propagate(shape_cfg, grid=True)
    rows = []
    end = time_from_ns(cfg.end_time_ns, g)
    for dt_ns in cfg.delta_t_list_ns:
        width = time_from_ns(dt_ns, g)
        w = (end - width, width)
        pg = val = math.nan
        try:
            pg = generation_probability_from_trace(grid, w, shape_cfg.n_in)
            val = windowed_g2(grid, w, w)
            status = "ok"
        except (UndefinedResultError, ExtractionError) as exc:
            status = type(exc).__name__
        rows.append((shape, dt_ns, cfg.end_time_ns - dt_ns, 1e3 / dt_ns,
                     val, pg, status))
    return rows


@_timed
def run_window_scan(cfg: ScenarioConfig) -> ResultBundle:
    rows = []
    for shape in cfg.window_shapes:
        rows.extend(_window_scan_rows(cfg, shape))
    scalars = {"n_points": len(rows),
               "n_failed": sum(1 for r in rows if r[-1] != "ok")}
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "window_scan.csv", _WINDOW_COLS, rows,
        "windows end at end_time_ns; g2 windowed by trapezoidal quadrature")])


# ---------------------------------------------------------------------------
# storage and retrieval

@_timed
def run_storage(cfg: ScenarioConfig) -> ResultBundle:
    if cfg.schedule_kind != "storage":
        raise ConfigurationError("storage scenario needs a storage schedule: pass --t-off-ns, "
                                 "or set [schedule] kind = storage with t_off_ns")
    release_ns = cfg.t_off_ns + cfg.t_store_ns
    end_ns = cfg.t_on_ns + cfg.duration_ns + cfg.tail_ns
    if release_ns >= end_ns:
        raise ConfigurationError(f"the release at t_off_ns + t_store_ns = {release_ns!r} ns is "
                                 f"not before the simulated horizon's end at {end_ns!r} ns")
    g = cfg.params.gamma_mhz
    _, grid = _propagate(cfg, grid=True)
    t_release = time_from_ns(release_ns, g)
    w = (t_release, grid.times[-1] - t_release)
    try:
        g2_ret = windowed_g2(grid, w, w)
    except (UndefinedResultError, ExtractionError):
        g2_ret = math.nan
    pg = generation_probability_from_trace(grid, w, cfg.n_in)
    eff = float(grid.window_energy(*w) / grid.input_energy())
    scalars = {"g2_retrieved": g2_ret, "generation_probability": pg,
               "retrieval_efficiency": eff,
               "t_release_ns": release_ns}
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "trace.csv", _TRACE_COLS, _trace_rows(grid, g), _csv_time_cols(g))])


# ---------------------------------------------------------------------------
# DLCZ reference calculator

@_timed
def run_dlcz(cfg: ScenarioConfig) -> ResultBundle:
    rows = []
    for p in cfg.p_list:
        g2, pgen = dlcz_compare(p, cfg.eta_d, cfg.eta_r)
        rows.append((p, cfg.eta_d, cfg.eta_r, g2, pgen))
    scalars = {}
    if len(cfg.p_list) == 1:
        scalars = {"g2": rows[0][3], "p_dlcz": rows[0][4]}
    return ResultBundle(config=cfg, scalars=scalars, tables=[(
        "dlcz.csv", ["p", "eta_d", "eta_r", "g2", "p_dlcz"], rows,
        "probabilistic pair-source reference: g2 = 4p, P = p*eta_D*eta_R")])


# ---------------------------------------------------------------------------
# HBT emulation

@_timed
def run_emulate_hbt(cfg: ScenarioConfig) -> ResultBundle:
    g = cfg.params.gamma_mhz
    _, grid = _propagate(cfg, grid=True)
    budget = cfg.budget()
    stream = emulate_trials(grid, cfg.n_in, budget, cfg.n_trials, cfg.seed,
                            trial_period_ns=cfg.trial_period_ns, gamma_mhz=g)
    # whole-output window comparison estimator vs quadrature
    t0_ns = ns_from_time(float(grid.times[0]), g)
    t1_ns = ns_from_time(float(grid.times[-1]), g)
    w_ns = (t0_ns, t1_ns - t0_ns)
    w = (float(grid.times[0]), float(grid.times[-1] - grid.times[0]))
    rows = []
    try:
        est, se = estimate_g2(stream, w_ns, w_ns)
        quad = windowed_g2(grid, w, w)
        rows.append(("full_output", w_ns[0], w_ns[1], est, se, quad,
                     (est - quad) / se if se > 0 else math.nan, "ok"))
    except (EstimateError, UndefinedResultError) as exc:  # undefined on the data
        rows.append(("full_output", w_ns[0], w_ns[1], math.nan, math.nan,
                     math.nan, math.nan, type(exc).__name__))
    scalars = {"n_events": stream.n_events,
               "pg_stream_full": generation_probability_from_stream(stream, w_ns, budget),
               "pg_trace_full": generation_probability_from_trace(grid, w, cfg.n_in),
               "pairs_per_trial": stream.pairs_per_trial,
               "singles_per_trial": stream.singles_per_trial,
               "singles_clip_per_trial": stream.singles_clip_per_trial}
    return ResultBundle(config=cfg, scalars=scalars,
                        tables=[("estimates.csv",
                                 ["window", "t_start_ns", "width_ns", "g2_mc",
                                  "stderr", "g2_quadrature", "z_score", "status"],
                                 rows, "Monte Carlo HBT estimate vs quadrature")],
                        streams={"timestamps.txt": stream})


RUNNERS = {
    "spectrum": run_spectrum,
    "propagate": run_propagate,
    "turnon_scan": run_turnon_scan,
    "turnoff_scan": run_turnoff_scan,
    "experiment_replica": run_experiment_replica,
    "window_scan": run_window_scan,
    "storage": run_storage,
    "dlcz": run_dlcz,
    "emulate_hbt": run_emulate_hbt,
}
