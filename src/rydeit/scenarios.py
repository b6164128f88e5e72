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
import time as _time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial

import numpy as np
from scipy.linalg import expm

from . import __version__ as _version
from .model import (BlockadeConfig, ConfigurationError, ControlSchedule,
                    PhysicalParams, PulseEnvelope, PulseShape, atoms_for_depth,
                    build_chain, ns_from_time, optical_depth, time_from_ns)
from .configio import ScenarioConfig, manifest_text
from .counting import (EfficiencyBudget, emulate_trials, estimate_g2,
                       generation_probability_from_stream,
                       generation_probability_from_trace, dlcz_compare, save_stream)
from .dynamics import (DynamicsError, assemble_generator, evolve, one_photon_amplitude,
                       steady_state, two_photon_amplitude)
from .observables import (ExtractionError, UndefinedResultError, correlation_grid,
                          eit_peak, extract_tau0, measure_steady_state, spectrum_fwhm,
                          tau_eit, trace_from_trajectory, transmission_spectrum,
                          write_csv)

#: doubles blocks larger than this propagate with sparse RK4 instead of the
#: dense matrix exponential during turn-off evolutions
_DENSE_DOUBLES_LIMIT = 2500


@dataclass
class ResultBundle:
    """Everything one scenario produced; written to disk in one shot."""

    name: str
    config: ScenarioConfig
    tables: list = field(default_factory=list)   # (filename, columns, rows, note)
    scalars: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)    # filename -> raw text payload
    wall_time_s: float = 0.0

    def write(self, out_dir) -> list:
        import os
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for fname, cols, rows, note in self.tables:
            path = os.path.join(out_dir, fname)
            write_csv(path, cols, rows, note)
            paths.append(path)
        for fname, text in self.texts.items():
            path = os.path.join(out_dir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(path)
        manifest = manifest_text(self.config, self.scalars, {
            "version": _version, "wall_time_s": round(self.wall_time_s, 3)})
        path = os.path.join(out_dir, "manifest.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(manifest)
        paths.append(path)
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
        scalars["fwhm_gamma"] = math.nan
    return ResultBundle(name="spectrum", config=cfg, scalars=scalars, tables=[(
        "spectrum.csv", ["delta_gamma", "delta_mhz", "transmission"], rows,
        f"CW intensity transmission vs probe detuning; Gamma = 2*pi*{g!r} MHz")])


# ---------------------------------------------------------------------------
# plain propagation

def relaxed_dt(gen) -> float | None:
    """Step for smooth-envelope runs with deeply blockaded (capped) pairs:
    accuracy-bound for the physical rates, stability-bound (|V| dt < 0.7) for
    the nearly removed stiff rr phases, whose observable weight is ~Omega/V."""
    if gen.v_max <= 20.0:
        return None
    p = gen.params
    nonstiff = max(p.gamma_total, p.gamma_r, abs(p.delta_e), abs(p.delta_2),
                   gen.schedule.max_omega, 0.5 * p.gamma_1d * gen.index.n_atoms, 1.0)
    return min(0.05 / nonstiff, 0.7 / gen.v_max)


def _propagate(cfg: ScenarioConfig, relax_stiff: bool = False):
    gen = assemble_generator(cfg.params, cfg.chain(), cfg.blockade(),
                             cfg.schedule(), cfg.envelope())
    g = cfg.params.gamma_mhz
    dt = cfg.dt
    if dt is None and relax_stiff:
        dt = relaxed_dt(gen)
    traj = evolve(gen, cfg.horizon(), dt=dt,
                  dt_out=time_from_ns(cfg.dt_out_ns, g), method=cfg.method)
    return gen, traj, trace_from_trajectory(traj, gen)


def _trace_rows(trace, g: float):
    return [(float(t), ns_from_time(float(t), g), float(e), float(o), float(i),
             float(g2t), float(g2))
            for t, e, o, i, g2t, g2 in zip(trace.times, trace.envelope_unit,
                                           trace.omega_c, trace.intensity,
                                           trace.g2tilde, trace.g2)]

_TRACE_COLS = ["t_gamma", "t_ns", "envelope_unit", "omega_c_gamma",
               "intensity_norm", "g2tilde", "g2"]


def _flat_interval(cfg: ScenarioConfig) -> tuple:
    """On-interval of the square pulse excluding the edge ramps (Gamma units)."""
    g = cfg.params.gamma_mhz
    t_on = time_from_ns(cfg.t_on_ns + cfg.rise_time_ns, g)
    t_off = time_from_ns(cfg.t_on_ns + cfg.duration_ns - cfg.rise_time_ns, g)
    return t_on, t_off


@_timed
def run_propagate(cfg: ScenarioConfig) -> ResultBundle:
    gen, traj, trace = _propagate(cfg)
    g = cfg.params.gamma_mhz
    scalars = {"optical_depth": optical_depth(gen.chain, cfg.params)}
    env2 = np.trapezoid(trace.envelope_unit ** 2, trace.times)
    scalars["pulse_transmission"] = float(
        np.trapezoid(trace.intensity, trace.times) / env2)
    if cfg.pulse_shape == "square":
        try:
            stats = measure_steady_state(trace, *_flat_interval(cfg))
            scalars.update(i_ss=stats.i_ss, g2tilde_ss=stats.g2tilde_ss,
                           g2_ss=stats.g2_ss, steady_flat=int(stats.flat))
        except ExtractionError:
            pass
    return ResultBundle(name="propagate", config=cfg, scalars=scalars, tables=[(
        "trace.csv", _TRACE_COLS, _trace_rows(trace, g), _csv_time_cols(g))])


# ---------------------------------------------------------------------------
# turn-on scan

def _turnon_point(args) -> dict:
    """One (D, Omega_c) turn-on point: evolve from vacuum under a long square
    drive, auto-extended until g2 settles, and extract tau_0."""
    (d_target, om, ratio, rel_tol, cap_mult) = args
    params = PhysicalParams.from_ratio(ratio=ratio, omega_c_peak=om)
    n = atoms_for_depth(d_target, params)
    chain = build_chain(n, 1.0)
    d = optical_depth(chain, params)
    teit = tau_eit(d, params.gamma_prime, om)
    out = {"d_target": d_target, "omega_c": om, "n_atoms": n, "d": d,
           "tau_eit": teit, "status": "ok"}
    schedule = ControlSchedule.constant(om)
    horizon = max(1.2 * teit, 50.0)
    while True:
        envelope = PulseEnvelope(shape=PulseShape.SQUARE, duration=4.0 * horizon,
                                 n_in=1.0)
        gen = assemble_generator(params, chain, BlockadeConfig.fully_blockaded(),
                                 schedule, envelope)
        ss = steady_state(gen, omega_c=om)
        i_ss = abs(one_photon_amplitude(ss, 1.0, gen)) ** 2
        g2_ss = abs(two_photon_amplitude(ss, 1.0, gen)) ** 2 / i_ss ** 2
        traj = evolve(gen, (0.0, horizon), dt_out=horizon / 2500.0, method="auto")
        trace = trace_from_trajectory(traj, gen)
        try:
            tau0 = extract_tau0(trace, 0.0, horizon, g2_ss, rel_tol)
        except ExtractionError:
            tau0 = None
        # settled well inside the horizon, or give up at the cap
        if tau0 is not None and tau0 < 0.8 * horizon:
            out.update(tau_0=tau0, ratio_tau0=tau0 / teit, g2_ss=g2_ss)
            return out
        if horizon >= cap_mult * teit:
            out.update(tau_0=math.nan, ratio_tau0=math.nan, g2_ss=g2_ss,
                       status="no_settling_before_cap")
            return out
        horizon = min(2.0 * horizon, cap_mult * teit)


_TURNON_COLS = ["d_target", "d", "n_atoms", "omega_c", "tau0_gamma", "tau0_ns",
                "tau_eit_gamma", "tau0_over_tau_eit", "g2_ss", "status"]


@_timed
def run_turnon_scan(cfg: ScenarioConfig) -> ResultBundle:
    points = [(d, om, cfg.params.coupling_ratio, cfg.rel_tol, 100.0)
              for d in cfg.d_list for om in cfg.omega_c_list]
    results = _map_points(_turnon_point, points, cfg.threads)
    g = cfg.params.gamma_mhz
    rows = []
    for r in results:
        rows.append((r["d_target"], r.get("d", math.nan), r.get("n_atoms", math.nan),
                     r["omega_c"], r.get("tau_0", math.nan),
                     ns_from_time(r.get("tau_0", math.nan), g),
                     r.get("tau_eit", math.nan), r.get("ratio_tau0", math.nan),
                     r.get("g2_ss", math.nan), r["status"]))
    ratios = [r["ratio_tau0"] for r in results if r["status"] == "ok"]
    scalars = {"n_points": len(results),
               "n_failed": sum(1 for r in results if r["status"] != "ok")}
    if ratios:
        scalars["median_tau0_over_tau_eit"] = float(np.median(ratios))
    return ResultBundle(name="turnon_scan", config=cfg, scalars=scalars, tables=[(
        "turnon.csv", _TURNON_COLS, rows,
        "turn-on transient times; tau_eit = 4 D Gamma' / Omega_c^2; " + _csv_time_cols(g))])


# ---------------------------------------------------------------------------
# turn-off scan

def _turnoff_point(args) -> dict:
    """One (D, Omega_c) turn-off point, starting from the exact driven steady
    state (the long-pulse limit): singles give tau_I and the retrieval peak,
    doubles give the shutoff jump, tau_II and the late decay rate."""
    (d_target, om, ratio, want_doubles, fit_lo, fit_hi) = args
    params = PhysicalParams.from_ratio(ratio=ratio, omega_c_peak=om)
    n = atoms_for_depth(d_target, params)
    chain = build_chain(n, 1.0)
    d = optical_depth(chain, params)
    teit = tau_eit(d, params.gamma_prime, om)
    out = {"d_target": d_target, "omega_c": om, "n_atoms": n, "d": d,
           "tau_eit": teit, "status": "ok"}
    envelope = PulseEnvelope(shape=PulseShape.SQUARE, duration=10.0, n_in=1.0)
    gen = assemble_generator(params, chain, BlockadeConfig.fully_blockaded(),
                             ControlSchedule.constant(om), envelope)
    ss = steady_state(gen, omega_c=om)
    i_ss = abs(one_photon_amplitude(ss, 1.0, gen)) ** 2
    out["i_ss"] = i_ss
    out["i_jump"] = abs(complex(gen.out_e @ ss.singles)) ** 2

    # singles retrieval on a horizon extended until the half crossing appears
    m1 = gen.m1(om)
    horizon = max(0.4 * teit, 40.0)
    for _attempt in range(8):
        n_steps = 6000
        h = horizon / n_steps
        prop = expm(m1 * h)
        y = ss.singles.copy()
        intens = np.empty(n_steps + 1)
        intens[0] = out["i_jump"]
        for k in range(1, n_steps + 1):
            y = prop @ y
            intens[k] = abs(complex(gen.out_e @ y)) ** 2
        ts = np.linspace(0.0, horizon, n_steps + 1)
        half = 0.5 * i_ss
        below = intens <= half
        seen = np.concatenate([[False], np.maximum.accumulate(~below)[:-1]])
        hit = below & seen
        if np.any(hit):
            i = int(np.argmax(hit))
            frac = (intens[i - 1] - half) / (intens[i - 1] - intens[i])
            out["tau_i"] = float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))
            out["ratio_tau_i"] = out["tau_i"] / teit
            out["peak_intensity"] = float(np.max(intens))
            break
        horizon *= 2.0
    else:
        out.update(tau_i=math.nan, ratio_tau_i=math.nan,
                   peak_intensity=float(np.max(intens)), status="no_half_crossing")

    if want_doubles:
        try:
            out.update(_turnoff_doubles(gen, ss, om, fit_lo, fit_hi))
        except (ExtractionError, DynamicsError) as exc:
            out["status"] = f"doubles_failed:{type(exc).__name__}"
            out.update(g2tilde_jump=math.nan, tau_ii=math.nan, tail_rate=math.nan)
    else:
        out.update(g2tilde_jump=abs(complex(gen.a2vec @ ss.doubles)) ** 2,
                   tau_ii=math.nan, tail_rate=math.nan)
    return out


def _turnoff_doubles(gen, ss, om: float, fit_lo: float, fit_hi: float) -> dict:
    horizon = max(40.0, fit_hi + 5.0)
    d2 = gen.index.dim_doubles
    n_steps = 5000
    ts = np.linspace(0.0, horizon, n_steps + 1)
    g2t = np.empty(n_steps + 1)
    y = ss.doubles.copy()
    g2t[0] = abs(complex(gen.a2vec @ y)) ** 2
    if d2 <= _DENSE_DOUBLES_LIMIT:
        prop = expm(gen.m2(om).toarray() * (horizon / n_steps))
        for k in range(1, n_steps + 1):
            y = prop @ y
            g2t[k] = abs(complex(gen.a2vec @ y)) ** 2
    else:
        m2 = gen.m2(om)
        h_out = horizon / n_steps
        n_sub = max(1, math.ceil(h_out / gen.suggest_dt()))
        h = h_out / n_sub
        for k in range(1, n_steps + 1):
            for _ in range(n_sub):
                k1 = m2 @ y
                k2 = m2 @ (y + 0.5 * h * k1)
                k3 = m2 @ (y + 0.5 * h * k2)
                k4 = m2 @ (y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            g2t[k] = abs(complex(gen.a2vec @ y)) ** 2
    half = 0.5 * g2t[0]
    below = g2t <= half
    if not np.any(below):
        raise ExtractionError("two-photon intensity never drops to half")
    i = int(np.argmax(below))
    frac = 1.0 if i == 0 else (g2t[i - 1] - half) / (g2t[i - 1] - g2t[i])
    tau_ii = float(ts[max(i - 1, 0)] + (frac * (ts[i] - ts[i - 1]) if i > 0 else 0.0))

    mask = (ts >= fit_lo) & (ts <= fit_hi)
    tt, yy = ts[mask], g2t[mask]
    if len(tt) < 3 or np.any(yy <= 0):
        raise ExtractionError("tail fit range unusable")
    run_max = np.maximum.accumulate(yy[::-1])[::-1]
    on_env = np.zeros(len(yy), dtype=bool)
    on_env[:-1] = yy[:-1] >= run_max[1:]
    on_env[-1] = True
    if int(np.sum(on_env)) < 3:
        raise ExtractionError("fewer than 3 envelope points in the tail fit")
    slope, _ = np.polyfit(tt[on_env], np.log(yy[on_env]), 1)
    return {"g2tilde_jump": float(g2t[0]), "tau_ii": tau_ii,
            "tail_rate": float(-slope)}


_TURNOFF_COLS = ["d_target", "d", "n_atoms", "omega_c", "i_ss", "i_jump",
                 "peak_intensity", "tau_i_gamma", "tau_i_ns", "tau_eit_gamma",
                 "tau_i_over_tau_eit", "g2tilde_jump", "tau_ii_gamma",
                 "tail_rate_gamma", "status"]


@_timed
def run_turnoff_scan(cfg: ScenarioConfig) -> ResultBundle:
    points = [(d, om, cfg.params.coupling_ratio, cfg.turnoff_doubles,
               cfg.tail_fit_start, cfg.tail_fit_end)
              for d in cfg.d_list for om in cfg.omega_c_list]
    results = _map_points(_turnoff_point, points, cfg.threads)
    g = cfg.params.gamma_mhz
    rows = [(r["d_target"], r.get("d", math.nan), r.get("n_atoms", math.nan),
             r["omega_c"], r.get("i_ss", math.nan), r.get("i_jump", math.nan),
             r.get("peak_intensity", math.nan),
             r.get("tau_i", math.nan), ns_from_time(r.get("tau_i", math.nan), g),
             r.get("tau_eit", math.nan), r.get("ratio_tau_i", math.nan),
             r.get("g2tilde_jump", math.nan), r.get("tau_ii", math.nan),
             r.get("tail_rate", math.nan), r["status"]) for r in results]
    # power-law fit of tau_II against D across the whole grid
    ok = [r for r in results if r["status"] == "ok" and np.isfinite(r.get("tau_ii", math.nan))]
    scalars = {"n_points": len(results),
               "n_failed": sum(1 for r in results if r["status"] != "ok")}
    if len({r["d"] for r in ok}) >= 2:
        slope, _ = np.polyfit(np.log([r["d"] for r in ok]),
                              np.log([r["tau_ii"] for r in ok]), 1)
        scalars["tau_ii_vs_d_exponent"] = float(slope)
    return ResultBundle(name="turnoff_scan", config=cfg, scalars=scalars, tables=[(
        "turnoff.csv", _TURNOFF_COLS, rows,
        "turn-off transients from the exact driven steady state; " + _csv_time_cols(g))])


def _guarded_point(fn, point) -> dict:
    """Run one scan point; any failure becomes a flagged row so the rest of
    the scan survives.  Rows carry ``d_target`` and ``omega_c`` from the point
    (every scan point starts with them) and NaN for everything else."""
    try:
        return fn(point)
    except Exception as exc:  # per-point boundary: one point must not end the scan
        warnings.warn(f"scan point {point!r} failed:\n{traceback.format_exc()}",
                      RuntimeWarning)
        return {"d_target": point[0], "omega_c": point[1],
                "status": f"failed:{type(exc).__name__}"}


def _map_points(fn, points, threads: int):
    run = partial(_guarded_point, fn)
    if threads > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, points))
    return [run(p) for p in points]


# ---------------------------------------------------------------------------
# experiment replica

def replica_config(**overrides) -> ScenarioConfig:
    """Measured-device configuration: D ~ 10, 2 Omega_c = 2pi x 6.4 MHz,
    gamma_r = 2pi x 0.8 MHz, finite blockade with d_b ~ 0.9, 1 us square pulse
    with ~1.5 photons and 10 ns edges."""
    from .configio import default_config
    base = {"kind": "experiment_replica", "omega_c_mhz": 3.2, "gamma_r_mhz": 0.8,
            "n_atoms": 28, "mode": "power_law", "d_b": 0.9,
            "shape": "square", "duration_ns": 1000.0, "n_in": 1.5,
            "rise_time_ns": 10.0, "dt_out_ns": 2.0, "tail_ns": 1200.0}
    base.update(overrides)
    kind = base.pop("kind")
    return default_config(kind, base)


@_timed
def run_experiment_replica(cfg: ScenarioConfig) -> ResultBundle:
    g = cfg.params.gamma_mhz
    chain = cfg.chain()
    deltas = np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_points)
    spec = transmission_spectrum(cfg.params, chain, cfg.params.omega_c_peak, deltas)
    _, pk_t, _ = eit_peak(spec)
    fw = spectrum_fwhm(spec)

    gen, traj, trace = _propagate(cfg)
    env2 = float(np.trapezoid(trace.envelope_unit ** 2, trace.times))
    eta = float(np.trapezoid(trace.intensity, trace.times) / env2)
    stats = measure_steady_state(trace, *_flat_interval(cfg))

    t_bar = time_from_ns(cfg.t_on_ns + cfg.duration_ns, g)
    i400 = int(np.argmin(np.abs(trace.times - (t_bar + time_from_ns(400.0, g)))))
    g2_tail = float(trace.g2[i400])

    scalars = {"optical_depth": optical_depth(chain, cfg.params),
               "eit_peak_transmission": pk_t,
               "fwhm_gamma": fw, "fwhm_mhz": fw * g,
               "pulse_transmission": eta,
               "i_ss": stats.i_ss, "g2_ss": stats.g2_ss,
               "steady_flat": int(stats.flat),
               "g2_at_400ns_after_shutoff": g2_tail}
    tables = [
        ("spectrum.csv", ["delta_gamma", "delta_mhz", "transmission"],
         [(d, d * g, t) for d, t in spec],
         f"CW transmission spectrum; Gamma = 2*pi*{g!r} MHz"),
        ("pulse.csv", _TRACE_COLS, _trace_rows(trace, g), _csv_time_cols(g)),
        ("g2.csv", ["t_gamma", "t_ns", "g2"],
         [(float(t), ns_from_time(float(t), g), float(v))
          for t, v in zip(trace.times, trace.g2)], _csv_time_cols(g)),
    ]
    return ResultBundle(name="experiment_replica", config=cfg, scalars=scalars,
                        tables=tables)


# ---------------------------------------------------------------------------
# single-photon window scan

_WINDOW_COLS = ["pulse_shape", "delta_t_ns", "t_start_ns", "inv_delta_t_mhz",
                "g2_windowed", "generation_probability", "status"]


def _window_scan_rows(cfg: ScenarioConfig, shape: str):
    g = cfg.params.gamma_mhz
    shape_cfg = dc_replace(cfg, pulse_shape=shape)
    if shape == "gaussian":
        # match the measured comparison: longer pulse, stated default width
        shape_cfg = dc_replace(shape_cfg, duration_ns=1500.0,
                               fwhm_ns=cfg.fwhm_ns or 600.0,
                               rise_time_ns=0.0)
    gen, traj, trace = _propagate(shape_cfg, relax_stiff=(shape == "gaussian"))
    grid = correlation_grid(traj, gen)
    rows = []
    end = time_from_ns(cfg.end_time_ns, g)
    for dt_ns in cfg.delta_t_list_ns:
        width = time_from_ns(dt_ns, g)
        w = (end - width, width)
        pg = generation_probability_from_trace(trace, w, shape_cfg.n_in)
        try:
            val = windowed_g2_from(grid, w)
            status = "ok"
        except (UndefinedResultError, ExtractionError) as exc:
            val = math.nan
            status = type(exc).__name__
        rows.append((shape, dt_ns, cfg.end_time_ns - dt_ns, 1e3 / dt_ns,
                     val, pg, status))
    return rows


def windowed_g2_from(grid, w):
    from .observables import windowed_g2
    return windowed_g2(grid, w, w)


@_timed
def run_window_scan(cfg: ScenarioConfig) -> ResultBundle:
    rows = []
    for shape in cfg.window_shapes:
        rows.extend(_window_scan_rows(cfg, shape))
    scalars = {"n_points": len(rows),
               "n_failed": sum(1 for r in rows if r[-1] != "ok")}
    return ResultBundle(name="window_scan", config=cfg, scalars=scalars, tables=[(
        "window_scan.csv", _WINDOW_COLS, rows,
        "windows end at end_time_ns; g2 windowed by trapezoidal quadrature")])


# ---------------------------------------------------------------------------
# storage and retrieval

@_timed
def run_storage(cfg: ScenarioConfig) -> ResultBundle:
    if cfg.schedule_kind != "storage":
        raise ConfigurationError("storage scenario needs a storage schedule (t_off_ns)")
    g = cfg.params.gamma_mhz
    gen, traj, trace = _propagate(cfg, relax_stiff=True)
    grid = correlation_grid(traj, gen)
    t_release = time_from_ns(cfg.t_off_ns + cfg.t_store_ns, g)
    t_end = trace.times[-1]
    w = (t_release, t_end - t_release)
    try:
        g2_ret = windowed_g2_from(grid, w)
    except (UndefinedResultError, ExtractionError):
        g2_ret = math.nan
    pg = generation_probability_from_trace(trace, w, cfg.n_in)
    env2 = float(np.trapezoid(trace.envelope_unit ** 2, trace.times))
    mask = trace.window_mask(*[w[0], w[0] + w[1]])
    eff = float(np.trapezoid(trace.intensity[mask], trace.times[mask]) / env2)
    scalars = {"g2_retrieved": g2_ret, "generation_probability": pg,
               "retrieval_efficiency": eff,
               "t_release_ns": cfg.t_off_ns + cfg.t_store_ns}
    return ResultBundle(name="storage", config=cfg, scalars=scalars, tables=[(
        "trace.csv", _TRACE_COLS, _trace_rows(trace, g), _csv_time_cols(g))])


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
    return ResultBundle(name="dlcz", config=cfg, scalars=scalars, tables=[(
        "dlcz.csv", ["p", "eta_d", "eta_r", "g2", "p_dlcz"], rows,
        "probabilistic pair-source reference: g2 = 4p, P = p*eta_D*eta_R")])


# ---------------------------------------------------------------------------
# HBT emulation

@_timed
def run_emulate_hbt(cfg: ScenarioConfig) -> ResultBundle:
    g = cfg.params.gamma_mhz
    gen, traj, trace = _propagate(cfg)
    grid = correlation_grid(traj, gen)
    budget = EfficiencyBudget(eta_path=cfg.eta_path, eta1=cfg.eta1, eta2=cfg.eta2,
                              split=cfg.split)
    stream = emulate_trials(trace, grid, cfg.n_in, budget, cfg.n_trials, cfg.seed,
                            trial_period_ns=cfg.trial_period_ns, gamma_mhz=g)
    # whole-output window comparison estimator vs quadrature
    t0_ns = ns_from_time(float(trace.times[0]), g)
    t1_ns = ns_from_time(float(trace.times[-1]), g)
    w_ns = (t0_ns, t1_ns - t0_ns)
    w = (float(trace.times[0]), float(trace.times[-1] - trace.times[0]))
    rows = []
    try:
        est, se = estimate_g2(stream, w_ns, w_ns)
        quad = windowed_g2_from(grid, w)
        rows.append(("full_output", w_ns[0], w_ns[1], est, se, quad,
                     (est - quad) / se if se > 0 else math.nan, "ok"))
    except Exception as exc:  # per-window failures are data, not crashes
        rows.append(("full_output", w_ns[0], w_ns[1], math.nan, math.nan,
                     math.nan, math.nan, type(exc).__name__))
    import io
    buf = io.StringIO()
    save_stream(stream, buf)
    scalars = {"n_events": stream.n_events,
               "pg_stream_full": generation_probability_from_stream(stream, w_ns, budget),
               "pg_trace_full": generation_probability_from_trace(trace, w, cfg.n_in)}
    return ResultBundle(name="emulate_hbt", config=cfg, scalars=scalars,
                        tables=[("estimates.csv",
                                 ["window", "t_start_ns", "width_ns", "g2_mc",
                                  "stderr", "g2_quadrature", "z_score", "status"],
                                 rows, "Monte Carlo HBT estimate vs quadrature")],
                        texts={"timestamps.txt": buf.getvalue()})


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
