"""Plain-text configuration (INI sections) for scenarios, and the manifest
format that makes any run reproducible bit-for-bit.

The fields of ScenarioConfig are the one schema: each names its INI section,
and its key where that differs from the attribute. Override keys (the CLI
flags' dests) are the file keys, qualified as ``scenario_kind``,
``chain_seed`` and ``schedule_kind`` where two sections share a key. Each
input takes its value from four sources, in rising precedence: the field
default, the kind's preset (``PRESETS``: the measured device for
experiment_replica), the config file, then the overrides.

Five inputs have two spellings: omega_c | omega_c_mhz, gamma_r | gamma_r_mhz,
n_atoms | d_target, ratio | gamma_1d + gamma_prime and d_b | r_b + v0. Each
is resolved as a unit from the highest source naming any of its keys, so a
flag in one spelling displaces the file's other one. A source naming both
spellings or half a pair, an unknown section or key in a file, an
unknown override key, an override of the wrong type and an input out of
its range (n_in, dt_out_ns, n_points, delta_min < delta_max, seed,
threads, delta_t_list_ns, n_trials, rel_tol, d_target, d_list,
omega_c_list, tail_fit_start and tail_fit_end, the efficiencies) are
ConfigurationErrors. Manifests of earlier versions hold ``[integration]
method = auto`` and ``[chain] length = 1.0`` and ``k_p = 1.0``, which the
loader accepts and ignores; any other value of these keys and any ``dt``
(retired with the fixed-step integrator) are ConfigurationErrors.

Times are in ns, rates in Gamma units or MHz (the *_mhz spellings); the
loader converts everything to internal Gamma = 1 units. A manifest is the
same format with every input resolved (the decay rates exactly, a d_b
blockade as its r_b and v0, and the inputs the run does not read at their
defaults, see ``_READ_UNDER``) plus [results] and [run] records, which the
loader skips, so ``--config manifest.ini`` re-runs the scenario identically.
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from .counting import DetectionStream, EfficiencyBudget
from .model import (AtomChain, BlockadeConfig, BlockadeMode, ConfigurationError,
                    ControlSchedule, PhysicalParams, PulseEnvelope, PulseShape,
                    atoms_for_depth, build_chain, rate_from_mhz, time_from_ns)
from .observables import _fmt

SCENARIO_KINDS = ("spectrum", "propagate", "turnon_scan", "turnoff_scan",
                  "experiment_replica", "window_scan", "storage", "dlcz",
                  "emulate_hbt")

#: per-kind values above the field defaults and below the file, by override
#: key: the measured device has D ~ 10, 2 Omega_c = 2pi x 6.4 MHz, gamma_r =
#: 2pi x 0.8 MHz, a finite blockade with d_b ~ 0.9 and 10 ns pulse edges; the
#: storage scenario runs the storage schedule
PRESETS = {
    "experiment_replica": {"omega_c_mhz": 3.2, "gamma_r_mhz": 0.8, "n_atoms": 28,
                           "mode": "power_law", "d_b": 0.9, "rise_time_ns": 10.0},
    "storage": {"schedule_kind": "storage"},
}


def _words(text: str) -> tuple:
    return tuple(x.strip() for x in text.replace(";", ",").split(",") if x.strip())


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in _words(text))


#: (input, setting, the inputs a run reads only under that setting)
_READ_UNDER = (("pulse_shape", "square", ("rise_time_ns",)),
               ("pulse_shape", "gaussian", ("fwhm_ns",)),
               ("blockade_mode", "power_law", ("d_b", "r_b", "v0", "v_cap")),
               ("schedule_kind", "storage", ("t_off_ns", "t_store_ns")),
               ("placement", "jittered", ("chain_seed",)))


def _opt(section: str, default=None, *, key: str | None = None,
         name: str | None = None, cast=None):
    """A field read from ``[section] key`` (``key`` defaults to the attribute
    name); ``name`` is its override key where it is not ``key``; ``cast``
    parses its text where the annotation does not say how."""
    return field(default=default, metadata={"section": section, "key": key,
                                            "name": name, "cast": cast})


@dataclass
class ScenarioConfig:
    """Fully resolved description of one scenario run; its fields are the
    config schema (see the module docstring)."""

    kind: str = _opt("scenario", name="scenario_kind")
    params: PhysicalParams = _opt("params", PhysicalParams.from_ratio())
    n_atoms: int = _opt("chain", 10)
    placement: str = _opt("chain", "uniform")
    chain_seed: int | None = _opt("chain", key="seed", name="chain_seed")
    blockade_mode: str = _opt("blockade", "fully_blockaded", key="mode")
    d_b: float | None = _opt("blockade")
    r_b: float | None = _opt("blockade")
    v0: float | None = _opt("blockade")
    v_cap: float = _opt("blockade", 1e3)
    pulse_shape: str = _opt("pulse", "square", key="shape")
    duration_ns: float = _opt("pulse", 1000.0)
    n_in: float = _opt("pulse", 1.5)
    rise_time_ns: float = _opt("pulse", 0.0)
    t_on_ns: float = _opt("pulse", 0.0)
    fwhm_ns: float | None = _opt("pulse")
    schedule_kind: str = _opt("schedule", "constant", key="kind", name="schedule_kind")
    t_off_ns: float | None = _opt("schedule")
    t_store_ns: float = _opt("schedule", 500.0)
    dt_out_ns: float = _opt("integration", 2.0)
    tail_ns: float = _opt("integration", 1200.0)
    rel_tol: float = _opt("integration", 0.005)
    d_list: tuple = _opt("scan", (1.8, 3.6, 9.1))
    omega_c_list: tuple = _opt("scan", (0.05, 0.25, 0.5))
    tail_fit_start: float = _opt("scan", 8.0)
    tail_fit_end: float = _opt("scan", 25.0)
    turnoff_doubles: bool = _opt("scan", True)
    end_time_ns: float = _opt("windows", 1700.0)
    delta_t_list_ns: tuple = _opt("windows", (1000.0, 800.0, 680.0, 560.0, 450.0, 300.0, 200.0))
    window_shapes: tuple = _opt("windows", ("square", "gaussian"), key="shapes", cast=_words)
    n_trials: int = _opt("counting", 100000)
    seed: int = _opt("counting", 12345)
    eta_path: float = _opt("counting", EfficiencyBudget.eta_path)
    eta1: float = _opt("counting", EfficiencyBudget.eta1)
    eta2: float = _opt("counting", EfficiencyBudget.eta2)
    split: float = _opt("counting", EfficiencyBudget.split)
    trial_period_ns: float = _opt("counting", DetectionStream.trial_period_ns)
    delta_min: float = _opt("spectrum", -1.5)
    delta_max: float = _opt("spectrum", 1.5)
    delta_points: int = _opt("spectrum", 241, key="n_points")
    p_list: tuple = _opt("dlcz", (0.025,))
    eta_d: float = _opt("dlcz", 1.0)
    eta_r: float = _opt("dlcz", 1.0)
    threads: int = _opt("run", 1)

    # --- derived model objects ----------------------------------------------
    def chain(self) -> AtomChain:
        return build_chain(self.n_atoms, self.placement, self.chain_seed)

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
        g, cfg = self.params.gamma_mhz, self._read_by((self.pulse_shape,))
        return PulseEnvelope(shape=PulseShape(self.pulse_shape),
                             duration=time_from_ns(self.duration_ns, g),
                             rise_time=time_from_ns(cfg.rise_time_ns, g),
                             t_on=time_from_ns(self.t_on_ns, g),
                             fwhm=None if cfg.fwhm_ns is None else time_from_ns(cfg.fwhm_ns, g))

    def schedule(self) -> ControlSchedule:
        om = self.params.omega_c_peak
        if self.schedule_kind == "constant":
            return ControlSchedule.constant(om)
        if self.schedule_kind == "storage":
            if self.t_off_ns is None:
                raise ConfigurationError("storage schedule needs t_off_ns (--t-off-ns)")
            g = self.params.gamma_mhz
            return ControlSchedule.storage(om, time_from_ns(self.t_off_ns, g),
                                           time_from_ns(self.t_store_ns, g))
        raise ConfigurationError(f"unknown schedule kind {self.schedule_kind!r}")

    def budget(self) -> EfficiencyBudget:
        return EfficiencyBudget(eta_path=self.eta_path, eta1=self.eta1, eta2=self.eta2,
                                split=self.split)

    def horizon(self) -> tuple:
        g = self.params.gamma_mhz
        t0 = time_from_ns(self.t_on_ns, g)
        t1 = time_from_ns(self.t_on_ns + self.duration_ns + self.tail_ns, g)
        return (t0, t1)

    def _read_by(self, shapes=tuple(PulseShape)) -> "ScenarioConfig":
        """This config with the inputs of ``_READ_UNDER`` that a run of the pulse
        ``shapes`` (by default every shape) does not read at their defaults."""
        def taken(key):
            return shapes if key == "pulse_shape" else (getattr(self, key),)
        return replace(self, **{name: getattr(ScenarioConfig, name)
                                for key, setting, names in _READ_UNDER
                                if setting not in taken(key) for name in names})

    def resolved(self) -> "ScenarioConfig":
        """This config as manifests write it: ``_read_by`` the run's shapes (a
        window scan's ``window_shapes``), a d_b blockade as its r_b and v0."""
        cfg = self._read_by(self.window_shapes if self.kind == "window_scan"
                            else (self.pulse_shape,))
        if cfg.blockade_mode != BlockadeMode.POWER_LAW.value or cfg.d_b is None:
            return cfg
        blk = cfg.blockade()
        return replace(cfg, d_b=None, r_b=blk.r_b, v0=blk.v0)


class _Input(NamedTuple):
    """One input of the schema: a ScenarioConfig field, or a PhysicalParams
    field (``in_params``) standing in for ``params``."""

    name: str        # override key
    section: str
    key: str         # file key
    attr: str
    in_params: bool
    default: object
    type: str        # annotation: a key of _CASTS
    cast: object


_CASTS = {"str": str, "int": int, "float": float, "tuple": _floats,
          "bool": lambda text: bool(int(text))}
#: the values an override of each annotation may hold
_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real,
          "tuple": (tuple, list), "bool": numbers.Integral}
#: the PhysicalParams fields whose file key is not their name
_PARAM_KEYS = {"omega_c_peak": "omega_c"}


def _inputs():
    for f in fields(ScenarioConfig):
        section = f.metadata["section"]
        if f.name == "params":
            for p in fields(PhysicalParams):
                key = _PARAM_KEYS.get(p.name, p.name)
                yield _Input(key, section, key, p.name, True, getattr(f.default, p.name),
                             p.type, _CASTS[p.type])
        else:
            key = f.metadata["key"] or f.name
            kind = f.type.split()[0]
            yield _Input(f.metadata["name"] or key, section, key, f.name, False, f.default,
                         kind, f.metadata["cast"] or _CASTS[kind])


#: every input, in manifest order
_INPUTS = tuple(_inputs())
#: inputs with two spellings, each resolved as a unit: (the spelling manifests
#: write, the other spelling, the section of the other spelling's float keys)
_SPELLINGS = ((("gamma_1d", "gamma_prime"), ("ratio",), "params"),
              (("omega_c",), ("omega_c_mhz",), "params"),
              (("gamma_r",), ("gamma_r_mhz",), "params"),
              (("n_atoms",), ("d_target",), "chain"),
              (("r_b", "v0"), ("d_b",), "blockade"))
#: the keys resolved together: the spelling pairs, then every other input alone
_GROUPS = tuple((a, b) for a, b, _ in _SPELLINGS) + tuple(
    ((i.name,), ()) for i in _INPUTS
    if not any(i.name in a + b for a, b, _ in _SPELLINGS))
#: (section, key) -> (override key, cast) of every key a file may hold
_FILE_KEYS = {(i.section, i.key): (i.name, i.cast) for i in _INPUTS}
_FILE_KEYS.update({(section, key): (key, float)
                   for _, other, section in _SPELLINGS for key in other})
#: override key -> the values it may hold
_OVERRIDES = {i.name: _TYPES[i.type] for i in _INPUTS}
_OVERRIDES.update({key: numbers.Real for _, other, _ in _SPELLINGS for key in other})
#: what a manifest records about the run rather than its inputs
_RECORDS = {("run", "version"), ("run", "wall_time_s")}
#: retired keys: the one value a file may still hold (None: none; a number read
#: as one); no output depends on the chain length (the unit of z) or k_p (a gauge)
_RETIRED = {("integration", "method"): "auto", ("integration", "dt"): None,
            ("chain", "length"): 1.0, ("chain", "k_p"): 1.0}


def _read(cp: configparser.ConfigParser) -> dict:
    """The inputs a parsed file names, by override key, cast to their types."""
    given = {}
    for section in cp.sections():
        if section == "results":
            continue
        for key, raw in cp[section].items():
            if (section, key) in _RECORDS:
                continue
            if (section, key) in _RETIRED:
                kept = _RETIRED[section, key]
                try:
                    holds = float(raw) == kept if isinstance(kept, float) else raw.strip() == kept
                except ValueError:
                    holds = False
                if not holds:
                    raise ConfigurationError(
                        f"[{section}] {key} is retired"
                        + (f"; it may only read {kept}" if kept else ""))
                continue
            if (section, key) not in _FILE_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            name, cast = _FILE_KEYS[(section, key)]
            if raw.strip():
                given[name] = cast(raw.strip())
    return given


def load_config(path, kind: str | None = None, overrides: dict | None = None) -> ScenarioConfig:
    """Load a ScenarioConfig from an INI file; overrides win over the file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    try:
        return _build(_read(cp), kind, overrides or {})
    except ValueError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc


def default_config(kind: str, overrides: dict | None = None) -> ScenarioConfig:
    return _build({}, kind, overrides or {})


def _build(file: dict, kind: str | None, ov: dict) -> ScenarioConfig:
    """Resolve every input from the field default, the kind's preset, the
    file's values (``file``) and the overrides (``ov``), highest last; an
    explicit ``kind`` wins over any source's scenario kind."""
    unknown = sorted(set(ov) - set(_OVERRIDES))
    if unknown:
        raise ConfigurationError(f"unknown override key(s): {', '.join(unknown)}")
    for key, value in ov.items():
        if value is not None and not isinstance(value, _OVERRIDES[key]):
            raise ConfigurationError(f"override {key} = {value!r} has the wrong type")
    kind = kind or ov.get("scenario_kind") or file.get("scenario_kind")
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(f"unknown or missing scenario kind {kind!r}")
    sources = (ov, file, PRESETS.get(kind, {}))

    given = {}
    for first, other in _GROUPS:
        got = {}
        for src in sources:
            got = {k: src[k] for k in first + other if src.get(k) is not None}
            if got:
                break
        if got and set(got) not in (set(first), set(other)):
            raise ConfigurationError(
                f"give {' with '.join(first)} or {' with '.join(other)}, "
                f"not {', '.join(sorted(got))} from one source")
        given.update(got)

    # the second spellings, in terms of the first
    gamma_mhz = given.get("gamma_mhz", ScenarioConfig.params.gamma_mhz)
    for rate in ("omega_c", "gamma_r"):
        if rate + "_mhz" in given:
            given[rate] = rate_from_mhz(given.pop(rate + "_mhz"), gamma_mhz)
    if "ratio" in given:
        decay = PhysicalParams.from_ratio(given.pop("ratio"))
        given.update(gamma_1d=decay.gamma_1d, gamma_prime=decay.gamma_prime)
    elif "gamma_1d" in given and abs(given["gamma_1d"] + given["gamma_prime"] - 1.0) > 1e-12:
        raise ConfigurationError("gamma_1d + gamma_prime must be 1 (the unit of rate)")

    values, rates = {}, {}
    for i in _INPUTS:
        (rates if i.in_params else values)[i.attr] = given.get(i.name, i.default)
    values.update(kind=kind, params=PhysicalParams(**rates))
    if "d_target" in given:
        values["n_atoms"] = atoms_for_depth(given["d_target"], values["params"])
    # every shape's pulse inputs stay: a window scan runs two
    cfg = ScenarioConfig(**values)._read_by()
    for rule, ok in (("n_in > 0", cfg.n_in > 0), ("dt_out_ns > 0", cfg.dt_out_ns > 0),
                     ("n_points >= 1", cfg.delta_points >= 1),
                     ("delta_min < delta_max", cfg.delta_min < cfg.delta_max),
                     ("seed >= 0", cfg.seed >= 0), ("threads >= 1", cfg.threads >= 1),
                     ("delta_t_list_ns > 0", all(t > 0 for t in cfg.delta_t_list_ns)),
                     ("n_trials >= 1", cfg.n_trials >= 1), ("rel_tol > 0", cfg.rel_tol > 0),
                     ("d_list > 0", all(d > 0 for d in cfg.d_list)),
                     ("omega_c_list > 0", all(om > 0 for om in cfg.omega_c_list)),
                     ("0 <= tail_fit_start < tail_fit_end",
                      0 <= cfg.tail_fit_start < cfg.tail_fit_end),
                     ("window shapes in PulseShape",
                      set(cfg.window_shapes) <= {s.value for s in PulseShape})):
        if not ok:
            raise ConfigurationError(f"out of range: need {rule}")
    for build in (cfg.chain, cfg.blockade, cfg.envelope, cfg.schedule, cfg.budget):
        try:        # fail fast on inconsistent sections, or a name no enum member holds
            build()
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    return cfg


def manifest_text(cfg: ScenarioConfig, results: dict, run_info: dict) -> str:
    """Render the fully resolved configuration as a re-runnable INI manifest,
    with the run's ``results`` and ``run_info`` records."""
    cfg = cfg.resolved()
    sections: dict = {}
    for i in _INPUTS:
        value = getattr(cfg.params if i.in_params else cfg, i.attr)
        if value is not None:
            sections.setdefault(i.section, []).append(f"{i.key} = {_fmt(value)}")
    run = sections.pop("run")
    sections["results"] = [f"{k} = {_fmt(v)}" for k, v in results.items()]
    sections["run"] = run + [f"{k} = {_fmt(v)}" for k, v in run_info.items()]
    return "\n\n".join(f"[{name}]\n" + "\n".join(lines)
                       for name, lines in sections.items() if lines) + "\n"
