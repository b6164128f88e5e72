"""Plain-text configuration (INI sections) for scenarios, and the manifest
format that makes any run reproducible bit-for-bit.

Times in config files are physical (ns), rates either in Gamma units
(omega_c, gamma_r, ...) or MHz via the *_mhz variants; the loader converts
everything to internal Gamma = 1 units.  A manifest is the same format with
every default resolved plus a [results] section, so `--config manifest.ini`
re-runs the scenario identically.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .model import (AtomChain, BlockadeConfig, BlockadeMode, ConfigurationError,
                    ControlSchedule, PhysicalParams, PulseEnvelope, PulseShape,
                    atoms_for_depth, build_chain, rate_from_mhz, time_from_ns)

SCENARIO_KINDS = ("spectrum", "propagate", "turnon_scan", "turnoff_scan",
                  "experiment_replica", "window_scan", "storage", "dlcz",
                  "emulate_hbt")


@dataclass
class ScenarioConfig:
    """Fully resolved description of one scenario run."""

    kind: str
    params: PhysicalParams
    n_atoms: int
    length: float = 1.0
    k_p: float = 1.0
    placement: str = "uniform"
    chain_seed: int | None = None
    blockade_mode: str = "fully_blockaded"
    d_b: float | None = None
    r_b: float | None = None
    v0: float | None = None
    v_cap: float = 1e3
    pulse_shape: str = "square"
    duration_ns: float = 1000.0
    n_in: float = 1.5
    rise_time_ns: float = 0.0
    t_on_ns: float = 0.0
    fwhm_ns: float | None = None
    schedule_kind: str = "constant"
    t_off_ns: float | None = None
    t_store_ns: float = 500.0
    dt: float | None = None
    dt_out_ns: float = 2.0
    method: str = "auto"
    tail_ns: float = 1200.0
    rel_tol: float = 0.005
    d_list: tuple = (1.8, 3.6, 9.1)
    omega_c_list: tuple = (0.05, 0.25, 0.5)
    tail_fit_start: float = 8.0
    tail_fit_end: float = 25.0
    turnoff_doubles: bool = True
    end_time_ns: float = 1700.0
    delta_t_list_ns: tuple = (1000.0, 800.0, 680.0, 560.0, 450.0, 300.0, 200.0)
    window_shapes: tuple = ("square", "gaussian")
    n_trials: int = 100000
    seed: int = 12345
    eta_path: float = 0.46
    eta1: float = 0.43
    eta2: float = 0.43
    split: float = 0.5
    trial_period_ns: float = 16000.0
    delta_min: float = -1.5
    delta_max: float = 1.5
    delta_points: int = 241
    p_list: tuple = (0.025,)
    eta_d: float = 1.0
    eta_r: float = 1.0
    threads: int = 1

    # --- derived model objects ----------------------------------------------
    def chain(self) -> AtomChain:
        return build_chain(self.n_atoms, self.length, self.k_p,
                           placement=self.placement, seed=self.chain_seed)

    def blockade(self) -> BlockadeConfig:
        mode = BlockadeMode(self.blockade_mode)
        if mode is BlockadeMode.POWER_LAW:
            if self.r_b is not None and self.v0 is not None:
                return BlockadeConfig(mode=mode, r_b=self.r_b, v0=self.v0,
                                      v_cap=self.v_cap)
            if self.d_b is None:
                raise ConfigurationError("power_law blockade needs d_b or (r_b, v0)")
            return BlockadeConfig.power_law_from_db(self.d_b, self.chain(), self.params,
                                                    v_cap=self.v_cap)
        return BlockadeConfig(mode=mode, v_cap=self.v_cap)

    def envelope(self) -> PulseEnvelope:
        g = self.params.gamma_mhz
        return PulseEnvelope(shape=PulseShape(self.pulse_shape),
                             duration=time_from_ns(self.duration_ns, g),
                             n_in=self.n_in,
                             rise_time=time_from_ns(self.rise_time_ns, g),
                             t_on=time_from_ns(self.t_on_ns, g),
                             fwhm=None if self.fwhm_ns is None else time_from_ns(self.fwhm_ns, g))

    def schedule(self) -> ControlSchedule:
        om = self.params.omega_c_peak
        if self.schedule_kind == "constant":
            return ControlSchedule.constant(om)
        if self.schedule_kind == "storage":
            if self.t_off_ns is None:
                raise ConfigurationError("storage schedule needs t_off_ns")
            g = self.params.gamma_mhz
            return ControlSchedule.storage(om, time_from_ns(self.t_off_ns, g),
                                           time_from_ns(self.t_store_ns, g))
        raise ConfigurationError(f"unknown schedule kind {self.schedule_kind!r}")

    def horizon(self) -> tuple:
        g = self.params.gamma_mhz
        t0 = time_from_ns(self.t_on_ns, g)
        t1 = time_from_ns(self.t_on_ns + self.duration_ns + self.tail_ns, g)
        return (t0, t1)


def _get(cp: configparser.ConfigParser, section: str, key: str, fallback=None):
    if cp.has_option(section, key):
        v = cp.get(section, key).strip()
        return v if v != "" else fallback
    return fallback


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(";", ",").split(",") if x.strip())


def load_config(path, kind: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Load a ScenarioConfig from an INI file; CLI overrides win over the file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    try:
        return _build(cp, kind, overrides or {})
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc


def default_config(kind: str, overrides: dict | None = None) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    return _build(cp, kind, overrides or {})


def _build(cp: configparser.ConfigParser, kind: str | None, ov: dict) -> ScenarioConfig:

    def get(section, key, cast=str, fallback=None, ov_key=None):
        # override keys are flat; qualify the two that collide across sections
        name = ov_key or key
        if name in ov and ov[name] is not None:
            return ov[name]
        raw = _get(cp, section, key)
        if raw is None:
            return fallback
        return cast(raw)

    kind = kind or get("scenario", "kind", str, None, ov_key="scenario_kind")
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(f"unknown or missing scenario kind {kind!r}")

    gamma_mhz = get("params", "gamma_mhz", float, 6.0)
    ratio = get("params", "ratio", float, None)
    gamma_1d = get("params", "gamma_1d", float, None)
    gamma_prime = get("params", "gamma_prime", float, None)
    omega_c = get("params", "omega_c", float, None)
    omega_c_mhz = get("params", "omega_c_mhz", float, None)
    if omega_c is None:
        omega_c = rate_from_mhz(omega_c_mhz, gamma_mhz) if omega_c_mhz is not None else 0.5
    gamma_r = get("params", "gamma_r", float, None)
    gamma_r_mhz = get("params", "gamma_r_mhz", float, None)
    if gamma_r is None:
        gamma_r = rate_from_mhz(gamma_r_mhz, gamma_mhz) if gamma_r_mhz is not None else 0.0
    rates = dict(omega_c_peak=omega_c, gamma_r=gamma_r,
                 delta_e=get("params", "delta_e", float, 0.0),
                 delta_2=get("params", "delta_2", float, 0.0),
                 gamma_mhz=gamma_mhz)
    # a manifest stores the two decay rates exactly; the ratio they imply
    # need not rebuild them bit for bit
    if gamma_1d is None and gamma_prime is None:
        params = PhysicalParams.from_ratio(ratio=0.2 if ratio is None else ratio,
                                           gamma_total=1.0, **rates)
    elif gamma_1d is None or gamma_prime is None or ratio is not None:
        raise ConfigurationError("[params] takes ratio, or gamma_1d with gamma_prime")
    elif abs(gamma_1d + gamma_prime - 1.0) > 1e-12:
        raise ConfigurationError("gamma_1d + gamma_prime must be 1 (the unit of rate)")
    else:
        params = PhysicalParams(gamma_1d=gamma_1d, gamma_prime=gamma_prime, **rates)

    n_atoms = get("chain", "n_atoms", int, None)
    d_target = get("chain", "d_target", float, None)
    if n_atoms is None:
        n_atoms = atoms_for_depth(d_target, params) if d_target is not None else 10

    seed_raw = get("chain", "seed", int, None, ov_key="chain_seed")
    cfg = ScenarioConfig(
        kind=kind, params=params, n_atoms=n_atoms,
        length=get("chain", "length", float, 1.0),
        k_p=get("chain", "k_p", float, 1.0),
        placement=get("chain", "placement", str, "uniform"),
        chain_seed=seed_raw,
        blockade_mode=get("blockade", "mode", str, "fully_blockaded"),
        d_b=get("blockade", "d_b", float, None),
        r_b=get("blockade", "r_b", float, None),
        v0=get("blockade", "v0", float, None),
        v_cap=get("blockade", "v_cap", float, 1e3),
        pulse_shape=get("pulse", "shape", str, "square"),
        duration_ns=get("pulse", "duration_ns", float, 1000.0),
        n_in=get("pulse", "n_in", float, 1.5),
        rise_time_ns=get("pulse", "rise_time_ns", float, 0.0),
        t_on_ns=get("pulse", "t_on_ns", float, 0.0),
        fwhm_ns=get("pulse", "fwhm_ns", float, None),
        schedule_kind=get("schedule", "kind", str, "constant", ov_key="schedule_kind"),
        t_off_ns=get("schedule", "t_off_ns", float, None),
        t_store_ns=get("schedule", "t_store_ns", float, 500.0),
        dt=get("integration", "dt", float, None),
        dt_out_ns=get("integration", "dt_out_ns", float, 2.0),
        method=get("integration", "method", str, "auto"),
        tail_ns=get("integration", "tail_ns", float, 1200.0),
        rel_tol=get("integration", "rel_tol", float, 0.005),
        d_list=get("scan", "d_list", _floats, (1.8, 3.6, 9.1)),
        omega_c_list=get("scan", "omega_c_list", _floats, (0.05, 0.25, 0.5)),
        tail_fit_start=get("scan", "tail_fit_start", float, 8.0),
        tail_fit_end=get("scan", "tail_fit_end", float, 25.0),
        turnoff_doubles=bool(int(get("scan", "turnoff_doubles", int, 1))),
        end_time_ns=get("windows", "end_time_ns", float, 1700.0),
        delta_t_list_ns=get("windows", "delta_t_list_ns", _floats,
                            (1000.0, 800.0, 680.0, 560.0, 450.0, 300.0, 200.0)),
        window_shapes=tuple(get("windows", "shapes", lambda s: tuple(
            x.strip() for x in s.split(",") if x.strip()), ("square", "gaussian"))),
        n_trials=get("counting", "n_trials", int, 100000),
        seed=get("counting", "seed", int, 12345),
        eta_path=get("counting", "eta_path", float, 0.46),
        eta1=get("counting", "eta1", float, 0.43),
        eta2=get("counting", "eta2", float, 0.43),
        split=get("counting", "split", float, 0.5),
        trial_period_ns=get("counting", "trial_period_ns", float, 16000.0),
        delta_min=get("spectrum", "delta_min", float, -1.5),
        delta_max=get("spectrum", "delta_max", float, 1.5),
        delta_points=get("spectrum", "n_points", int, 241),
        p_list=get("dlcz", "p_list", _floats, (0.025,)),
        eta_d=get("dlcz", "eta_d", float, 1.0),
        eta_r=get("dlcz", "eta_r", float, 1.0),
        threads=get("run", "threads", int, 1),
    )
    # fail fast on inconsistent sections
    cfg.chain()
    cfg.blockade()
    cfg.envelope()
    cfg.schedule()
    return cfg


def manifest_text(cfg: ScenarioConfig, results: dict, run_info: dict) -> str:
    """Render the fully resolved configuration as a re-runnable INI manifest."""
    p = cfg.params

    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, (tuple, list)):
            return ",".join(fmt(x) for x in v)
        return str(v)

    lines = ["[scenario]", f"kind = {cfg.kind}", ""]
    lines += ["[params]",
              f"gamma_1d = {fmt(p.gamma_1d)}",
              f"gamma_prime = {fmt(p.gamma_prime)}",
              f"omega_c = {fmt(p.omega_c_peak)}",
              f"gamma_r = {fmt(p.gamma_r)}",
              f"delta_e = {fmt(p.delta_e)}",
              f"delta_2 = {fmt(p.delta_2)}",
              f"gamma_mhz = {fmt(p.gamma_mhz)}", ""]
    lines += ["[chain]",
              f"n_atoms = {cfg.n_atoms}",
              f"length = {fmt(cfg.length)}",
              f"k_p = {fmt(cfg.k_p)}",
              f"placement = {cfg.placement}"]
    if cfg.chain_seed is not None:
        lines.append(f"seed = {cfg.chain_seed}")
    lines.append("")
    lines += ["[blockade]", f"mode = {cfg.blockade_mode}", f"v_cap = {fmt(cfg.v_cap)}"]
    blk = cfg.blockade()
    if blk.mode is BlockadeMode.POWER_LAW:
        lines += [f"r_b = {fmt(blk.r_b)}", f"v0 = {fmt(blk.v0)}"]
    lines.append("")
    lines += ["[pulse]",
              f"shape = {cfg.pulse_shape}",
              f"duration_ns = {fmt(cfg.duration_ns)}",
              f"n_in = {fmt(cfg.n_in)}",
              f"rise_time_ns = {fmt(cfg.rise_time_ns)}",
              f"t_on_ns = {fmt(cfg.t_on_ns)}"]
    if cfg.fwhm_ns is not None:
        lines.append(f"fwhm_ns = {fmt(cfg.fwhm_ns)}")
    lines.append("")
    lines += ["[schedule]", f"kind = {cfg.schedule_kind}"]
    if cfg.t_off_ns is not None:
        lines += [f"t_off_ns = {fmt(cfg.t_off_ns)}", f"t_store_ns = {fmt(cfg.t_store_ns)}"]
    lines.append("")
    lines += ["[integration]",
              f"dt_out_ns = {fmt(cfg.dt_out_ns)}",
              f"method = {cfg.method}",
              f"tail_ns = {fmt(cfg.tail_ns)}",
              f"rel_tol = {fmt(cfg.rel_tol)}"]
    if cfg.dt is not None:
        lines.append(f"dt = {fmt(cfg.dt)}")
    lines.append("")
    lines += ["[scan]",
              f"d_list = {fmt(cfg.d_list)}",
              f"omega_c_list = {fmt(cfg.omega_c_list)}",
              f"tail_fit_start = {fmt(cfg.tail_fit_start)}",
              f"tail_fit_end = {fmt(cfg.tail_fit_end)}",
              f"turnoff_doubles = {int(cfg.turnoff_doubles)}", ""]
    lines += ["[windows]",
              f"end_time_ns = {fmt(cfg.end_time_ns)}",
              f"delta_t_list_ns = {fmt(cfg.delta_t_list_ns)}",
              f"shapes = {','.join(cfg.window_shapes)}", ""]
    lines += ["[counting]",
              f"n_trials = {cfg.n_trials}",
              f"seed = {cfg.seed}",
              f"eta_path = {fmt(cfg.eta_path)}",
              f"eta1 = {fmt(cfg.eta1)}",
              f"eta2 = {fmt(cfg.eta2)}",
              f"split = {fmt(cfg.split)}",
              f"trial_period_ns = {fmt(cfg.trial_period_ns)}", ""]
    lines += ["[spectrum]",
              f"delta_min = {fmt(cfg.delta_min)}",
              f"delta_max = {fmt(cfg.delta_max)}",
              f"n_points = {cfg.delta_points}", ""]
    lines += ["[dlcz]",
              f"p_list = {fmt(cfg.p_list)}",
              f"eta_d = {fmt(cfg.eta_d)}",
              f"eta_r = {fmt(cfg.eta_r)}", ""]
    if results:
        lines.append("[results]")
        lines += [f"{k} = {fmt(v)}" for k, v in results.items()]
        lines.append("")
    if run_info:
        lines.append("[run]")
        lines += [f"{k} = {fmt(v)}" for k, v in run_info.items()]
        lines.append("")
    return "\n".join(lines)
