import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydeit.cli import main
from rydeit.configio import SCENARIO_KINDS, default_config, load_config, manifest_text
from rydeit.model import ConfigurationError, PhysicalParams, atoms_for_depth, optical_depth
from rydeit.scenarios import (run_dlcz, run_propagate, run_spectrum,
                              run_window_scan)


def _read_csv(path):
    with open(path) as fh:
        return fh.read()


def _outputs(out_dir):
    """Every file a run wrote, by name, the manifest without its wall time."""
    return {p.name: re.sub(r"\nwall_time_s = .*\n", "\n", p.read_text())
            for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# config plumbing

def test_default_config_builds_model_objects():
    cfg = default_config("propagate", {"d_target": 3.6})
    assert cfg.n_atoms == 10
    assert cfg.chain().n_atoms == 10
    assert cfg.n_in == 1.5


def test_replica_config_matches_measured_device():
    cfg = default_config("experiment_replica")
    assert cfg.n_atoms == 28
    assert cfg.params.omega_c_peak == pytest.approx(3.2 / 6.0)
    assert cfg.params.gamma_r == pytest.approx(0.8 / 6.0)
    assert cfg.blockade_mode == "power_law"
    chain = cfg.chain()
    d_b = optical_depth(chain, cfg.params) * cfg.blockade().r_b
    assert d_b == pytest.approx(0.9)


def test_manifest_round_trip(tmp_path):
    cfg = default_config("propagate", {"d_target": 1.8, "duration_ns": 200.0})
    text = manifest_text(cfg, {"some_scalar": 1.25}, {"version": "x"})
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    back = load_config(path, kind="propagate")
    assert back.n_atoms == cfg.n_atoms
    assert back.duration_ns == cfg.duration_ns
    assert back.params.omega_c_peak == cfg.params.omega_c_peak


def test_numpy_floats_write_a_manifest_that_reloads_and_reruns(tmp_path):
    # numpy floats in the overrides and the results write as the floats they
    # hold, not as their repr np.float64(1.5), which the loader cannot read
    cfg = default_config("propagate", {"n_in": np.float64(1.5), "n_atoms": 4,
                                       "duration_ns": np.float64(300.0),
                                       "d_list": (np.float64(1.8), 3.6)})
    results = {"g2_ss": np.float64(0.25), "n_events": np.int64(3), "flat": True}
    text = manifest_text(cfg, results, {"wall_time_s": np.float64(0.5)})
    assert "np." not in text and "n_in = 1.5\n" in text and "flat = 1\n" in text
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    back = load_config(path)
    assert back == cfg.resolved()
    assert manifest_text(back, results, {"wall_time_s": np.float64(0.5)}) == text
    assert main(["propagate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("ratio", [0.405, 1 / 3, 0.1 + 0.2, 0.7, 0.2])
def test_manifest_keeps_decay_rates_exactly(tmp_path, ratio):
    # Gamma_1D / Gamma' does not rebuild the two rates bit for bit (0.405
    # reads back as 0.4049999999999999), so a re-run would not be identical
    cfg = default_config("propagate", {"ratio": ratio, "d_target": 1.8})
    text = manifest_text(cfg, {}, {})
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    back = load_config(path, kind="propagate")
    assert back.params.gamma_1d == cfg.params.gamma_1d
    assert back.params.gamma_prime == cfg.params.gamma_prime
    assert manifest_text(back, {}, {}) == text


@pytest.mark.parametrize("params", ["ratio = 0.2\ngamma_1d = 0.2\ngamma_prime = 0.8",
                                    "gamma_1d = 0.2",
                                    "gamma_1d = 0.2\ngamma_prime = 0.9"])
def test_inconsistent_decay_rates_raise(tmp_path, params):
    path = tmp_path / "bad.ini"
    path.write_text(f"[params]\n{params}\n")
    with pytest.raises(ConfigurationError):
        load_config(path, kind="propagate")


def test_malformed_config_raises():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write("[pulse]\nduration_ns = not_a_number\n")
        path = fh.name
    with pytest.raises(ConfigurationError):
        load_config(path, kind="propagate")


def _replica_manifest(tmp_path):
    path = tmp_path / "replica.ini"
    path.write_text(manifest_text(default_config("experiment_replica"), {}, {}))
    return path


@pytest.mark.parametrize("key, value, check", [
    ("omega_c_mhz", 1.0, lambda c: c.params.omega_c_peak == 1.0 / 6.0),
    ("gamma_r_mhz", 0.3, lambda c: c.params.gamma_r == 0.3 / 6.0),
    ("d_target", 5.0, lambda c: c.n_atoms == atoms_for_depth(5.0, c.params) != 28),
    ("d_b", 0.5, lambda c: c.r_b is None and optical_depth(c.chain(), c.params)
     * c.blockade().r_b == pytest.approx(0.5)),
])
def test_override_displaces_the_other_spelling_in_a_manifest(tmp_path, key, value, check):
    # the manifest spells these as omega_c, gamma_r, n_atoms and r_b + v0
    cfg = load_config(_replica_manifest(tmp_path), kind="experiment_replica",
                      overrides={key: value})
    assert check(cfg)


def test_replica_preset_yields_to_a_depth_override():
    # the depth picks the atom number; the rest of the measured device stays
    cfg = default_config("experiment_replica", {"d_target": 5.0})
    assert cfg.n_atoms == atoms_for_depth(5.0, cfg.params) != 28
    assert cfg.params.omega_c_peak == 3.2 / 6.0
    assert cfg.blockade_mode == "power_law"


def test_partial_config_keeps_the_replica_preset(tmp_path, monkeypatch):
    import rydeit.cli as cli
    from rydeit.scenarios import ResultBundle
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return ResultBundle(config=cfg)

    monkeypatch.setitem(cli.RUNNERS, "experiment_replica", capture)
    partial = tmp_path / "partial.ini"
    partial.write_text("[counting]\nseed = 7\n")
    assert main(["replica", "--config", str(partial), "--out", str(tmp_path / "r")]) == 0
    cfg, device = seen[0], default_config("experiment_replica")
    assert cfg.seed == 7
    assert cfg.n_atoms == device.n_atoms == 28
    assert cfg.blockade() == device.blockade()
    assert cfg.params == device.params
    assert cfg.rise_time_ns == device.rise_time_ns == 10.0


@pytest.mark.parametrize("overrides", [
    {"omega_c": 0.5, "omega_c_mhz": 3.2},
    {"gamma_r": 0.1, "gamma_r_mhz": 0.8},
    {"n_atoms": 10, "d_target": 3.6},
    {"ratio": 0.2, "gamma_1d": 0.2, "gamma_prime": 0.8},
    {"mode": "power_law", "d_b": 0.9, "r_b": 0.1, "v0": 1.0},
    {"mode": "power_law", "r_b": 0.1},
])
def test_two_spellings_in_one_source_raise(tmp_path, overrides):
    with pytest.raises(ConfigurationError, match="give"):
        default_config("propagate", overrides)
    section_of = {"n_atoms": "chain", "d_target": "chain", "mode": "blockade",
                  "d_b": "blockade", "r_b": "blockade", "v0": "blockade"}
    sections = {}
    for key, value in overrides.items():
        sections.setdefault(section_of.get(key, "params"), []).append(f"{key} = {value}")
    path = tmp_path / "both.ini"
    path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                            for name, lines in sections.items()))
    with pytest.raises(ConfigurationError, match="give"):
        load_config(path, kind="propagate")


@pytest.mark.parametrize("text", ["[pulse]\nduraton_ns = 300\n",
                                  "[puls]\nduration_ns = 300\n",
                                  "[counting]\nkind = propagate\n"])
def test_unknown_file_keys_raise(tmp_path, text):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    with pytest.raises(ConfigurationError):
        load_config(path, kind="propagate")


def test_unknown_override_key_raises():
    with pytest.raises(ConfigurationError, match="duraton_ns"):
        default_config("propagate", {"duraton_ns": 300.0})


def test_cli_unknown_key_exits_3_and_writes_nothing(tmp_path):
    bad = tmp_path / "typo.ini"
    bad.write_text("[pulse]\nduraton_ns = 300\n")
    out_dir = tmp_path / "out"
    assert main(["propagate", "--config", str(bad), "--out", str(out_dir)]) == 3
    assert not out_dir.exists()


@pytest.mark.parametrize("command, ini, flags, in_runner", [
    ("propagate", "[integration]\ndt_out_ns = 0\n", [], False),
    ("propagate", "[integration]\ndt_out_ns = -1\n", [], False),
    ("spectrum", "[spectrum]\nn_points = 0\n", [], False),
    ("emulate-hbt", "", ["--seed", "-1"], False),
    ("window-scan", "[windows]\ndelta_t_list_ns = 1000, 0, 300\n", [], False),
    ("scan-turnon", "", ["--threads", "0"], False),
    ("scan-turnon", "", ["--threads", "-2"], False),
    ("propagate", "[pulse]\nn_in = 0\n", [], False),
    ("storage", "", ["--t-off-ns", "2000"], True),
    ("storage", "", ["--t-off-ns", "5000"], True),
    ("emulate-hbt", "", ["--n-in", "1.8", "--n-trials", "1000"], True),
    ("emulate-hbt", "", ["--n-trials", "0"], False),
    ("emulate-hbt", "[counting]\neta1 = 1.5\n", [], False),
    ("scan-turnon", "[integration]\nrel_tol = 0\n", [], False),
    ("scan-turnoff", "[scan]\ntail_fit_start = 30\ntail_fit_end = 20\n", [], False),
    ("scan-turnoff", "[scan]\ntail_fit_start = -1\n", [], False),
    ("spectrum", "", ["--d", "-3"], False),
    ("scan-turnoff", "[scan]\nd_list = -5, 0\n", [], False),
    ("scan-turnon", "[scan]\nomega_c_list = 0, 0.5\n", [], False),
    ("spectrum", "[spectrum]\ndelta_min = 1.5\ndelta_max = -1.5\n", [], False),
    ("window-scan", "[windows]\nshapes = square, sqaure\n", ["--n-atoms", "3"], False)],
    ids=["dt_out_zero", "dt_out_negative", "n_points_zero", "seed_negative",
         "delta_t_zero", "threads_zero", "threads_negative", "n_in_zero",
         "storage_release_after_horizon", "storage_release_far_after_horizon",
         "hbt_probabilities_above_one", "n_trials_zero", "eta1_above_one",
         "rel_tol_zero", "tail_fit_reversed", "tail_fit_negative", "depth_negative",
         "d_list_not_positive", "omega_c_list_zero", "delta_range_reversed",
         "window_shape_misspelled"])
def test_out_of_range_input_exits_3_and_writes_nothing(tmp_path, tmp_path_factory,
                                                       monkeypatch, command, ini, flags,
                                                       in_runner):
    # each is refused before anything is written, and all but three before
    # the runner is entered.  A storage release at t_off_ns + 500 ns falls
    # after the default horizon's end at 2200 ns (the storage runner checks
    # it first).  At n_in = 1.8 the default square scene's pair and single
    # probabilities per trial sum above 1, where the at-most-one-event draw
    # has no distribution (known only once the scene is evolved)
    from rydeit import cli
    entered = []
    kind = cli._SUBCOMMANDS[command][0]
    runner = cli.RUNNERS[kind]
    monkeypatch.setitem(cli.RUNNERS, kind, lambda cfg: entered.append(kind) or runner(cfg))
    cfg = tmp_path_factory.mktemp("cfg") / "range.ini"
    cfg.write_text(ini)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")] + flags) == 3
    assert list(tmp_path.iterdir()) == []
    assert entered == ([kind] if in_runner else [])


@pytest.mark.parametrize("overrides", [
    {"schedule_kind": "storage", "t_off_ns": "600"}, {"n_atoms": 2.5},
    {"p_list": 0.1}, {"ratio": "0.2"}, {"shape": 1}])
def test_wrong_typed_override_raises(overrides):
    with pytest.raises(ConfigurationError, match="wrong type"):
        default_config("storage", overrides)


@pytest.mark.parametrize("kind, overrides, names", [
    ("window_scan", {"shapes": ("square", "sqaure")}, "window shapes"),
    ("propagate", {"shape": "sqaure"}, "sqaure"), ("propagate", {"mode": "powerlaw"}, "powerlaw")],
    ids=["window_shapes", "shape", "mode"])
def test_misspelled_name_raises_a_configuration_error(kind, overrides, names):
    # a name no PulseShape or BlockadeMode holds is refused as a
    # configuration, as a file holding it is, not as a bare ValueError
    with pytest.raises(ConfigurationError, match=names):
        default_config(kind, overrides)


def test_jittered_placement_needs_a_seed(tmp_path):
    # unseeded jitter would draw positions no manifest records
    with pytest.raises(ConfigurationError, match="seed"):
        default_config("propagate", {"placement": "jittered"})
    cfg = default_config("propagate", {"placement": "jittered", "chain_seed": 4})
    assert cfg.chain() == cfg.chain()
    bad = tmp_path / "jitter.ini"
    bad.write_text("[chain]\nplacement = jittered\n")
    out_dir = tmp_path / "out"
    assert main(["propagate", "--config", str(bad), "--out", str(out_dir)]) == 3
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["spectrum", "propagate"])
def test_unknown_integration_method_exits_3_and_writes_nothing(tmp_path, command):
    # the method is checked when the config loads, also for a scenario that
    # never integrates, so no manifest records a method no run accepts
    bad = tmp_path / "method.ini"
    bad.write_text("[integration]\nmethod = rk5\n")
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out", str(out_dir)]) == 3
    assert not out_dir.exists()


@pytest.mark.parametrize("line", ["method = rk4", "method = expm", "dt = 0.01"])
def test_retired_integration_keys_exit_3_and_write_nothing(tmp_path, line):
    # the fixed-step integrator and its knobs are gone: only method = auto,
    # which every manifest so far holds, still loads
    bad = tmp_path / "retired.ini"
    bad.write_text(f"[integration]\n{line}\n")
    with pytest.raises(ConfigurationError, match="retired"):
        load_config(bad, kind="propagate")
    out_dir = tmp_path / "out"
    assert main(["propagate", "--config", str(bad), "--out", str(out_dir)]) == 3
    assert not out_dir.exists()
    with pytest.raises(ConfigurationError):
        default_config("propagate", {line.split()[0]: line.split()[-1]})


def test_earlier_manifest_with_method_auto_reruns_byte_identically(tmp_path):
    # a manifest of an earlier version is this version's with
    # "method = auto" after dt_out_ns; a gaussian run re-runs from it to the
    # byte, and the re-run's manifest no longer names the method
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["propagate", "--shape", "gaussian", "--d", "1.8", "--duration-ns", "300",
                 "--out", str(a)]) == 0
    text = (a / "manifest.ini").read_text()
    assert "method" not in text
    earlier = tmp_path / "earlier.ini"
    earlier.write_text(re.sub(r"(\ndt_out_ns = .*\n)", r"\1method = auto\n", text))
    assert "\nmethod = auto\n" in earlier.read_text()
    assert main(["propagate", "--config", str(earlier), "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def inputs(path):
        return path.read_text().split("\n[run]")[0]

    assert inputs(b / "manifest.ini") == inputs(a / "manifest.ini")


@pytest.mark.parametrize("line, code", [("length = 1.0\nk_p = 1.0", 0), ("length = 2.0", 3),
                                        ("k_p = 2.0", 3), ("length = 1\nk_p = 1.00", 0),
                                        ("length = 2", 3), ("k_p = one", 3)])
def test_earlier_manifest_chain_length_and_k_p(tmp_path, line, code):
    # manifests of earlier versions hold [chain] length = 1.0 and k_p = 1.0,
    # which change no output and load as before, as does any spelling of
    # the number 1 in a hand-written file; any other value is refused
    cfg = default_config("propagate", {"d_target": 1.8, "duration_ns": 300.0})
    text = manifest_text(cfg, {}, {})
    earlier = tmp_path / "earlier.ini"
    earlier.write_text(text.replace("[chain]\n", f"[chain]\n{line}\n"))
    if code == 0:
        assert load_config(earlier) == cfg
    else:
        with pytest.raises(ConfigurationError, match="retired"):
            load_config(earlier)
    out_dir = tmp_path / "out"
    assert main(["propagate", "--config", str(earlier), "--out", str(out_dir)]) == code
    assert out_dir.exists() == (code == 0)


def test_older_manifest_without_the_newer_keys_loads(tmp_path):
    # manifests of earlier versions hold no [run] threads, and no t_store_ns
    # without a storage schedule; the [results] and [run] records are skipped
    cfg = default_config("experiment_replica")
    text = manifest_text(cfg, {"g2_ss": 0.35}, {"version": "0.1.0", "wall_time_s": 6.09})
    path = tmp_path / "older.ini"
    path.write_text("\n".join(line for line in text.splitlines()
                              if not line.startswith(("threads", "t_store_ns"))))
    assert load_config(path) == cfg.resolved()


_SHAPES = ("square", "triangular_neg", "triangular_pos", "gaussian")


@st.composite
def _overrides(draw):
    """Random valid overrides across the spellings, placements, pulse shapes,
    schedules and blockade modes."""
    ov = {}
    ratio = draw(st.sampled_from([None, 0.405, 1 / 3]) | st.floats(0.01, 3.0))
    if ratio is not None:
        ov["ratio"] = ratio
    ov.update(draw(st.sampled_from([{}, {"omega_c": 0.3}, {"omega_c_mhz": 2.5}])))
    ov.update(draw(st.sampled_from([{}, {"gamma_r": 0.01}, {"gamma_r_mhz": 0.8}])))
    ov.update(draw(st.sampled_from([{}, {"n_atoms": 7}]) | st.builds(
        lambda d: {"d_target": d}, st.floats(0.5, 12.0))))
    if draw(st.booleans()):
        ov.update(placement="jittered", chain_seed=draw(st.integers(0, 2 ** 31)))
    ov["shape"] = draw(st.sampled_from(_SHAPES))
    duration = draw(st.floats(200.0, 2000.0))
    ov["duration_ns"] = duration
    if draw(st.booleans()):
        ov["fwhm_ns"] = draw(st.floats(50.0, 900.0))
    if ov["shape"] == "square":
        ov["rise_time_ns"] = draw(st.floats(0.0, 0.5 * duration))
    if draw(st.booleans()):
        ov.update(schedule_kind="storage", t_off_ns=draw(st.floats(10.0, 900.0)),
                  t_store_ns=draw(st.floats(1.0, 800.0)))
    ov.update(draw(st.sampled_from([{}, {"mode": "none"},
                                    {"mode": "power_law", "d_b": 0.9}])))
    ov["d_list"] = tuple(draw(st.lists(st.floats(0.5, 30.0), min_size=1, max_size=3)))
    ov["turnoff_doubles"] = draw(st.booleans())
    ov["shapes"] = tuple(draw(st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=2)))
    return ov


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(SCENARIO_KINDS), overrides=_overrides())
def test_manifest_round_trips_any_valid_config(tmp_path_factory, kind, overrides):
    if kind == "storage" and "t_off_ns" not in overrides:
        # the storage scenario presets the storage schedule, which needs t_off_ns
        with pytest.raises(ConfigurationError, match="t_off_ns"):
            default_config(kind, overrides)
        return
    cfg = default_config(kind, overrides)
    text = manifest_text(cfg, {}, {})
    path = tmp_path_factory.mktemp("manifest") / "manifest.ini"
    path.write_text(text)
    back = load_config(path)
    assert back == cfg.resolved()
    assert manifest_text(back, {}, {}) == text


def test_example_config_loads_and_names_every_key():
    import re
    from pathlib import Path
    from rydeit.configio import _FILE_KEYS
    path = Path(__file__).resolve().parent.parent / "configs" / "example.ini"
    # its values are the defaults of the kind it names
    assert load_config(path) == default_config("propagate")
    blocks, section = {}, None      # None: the comment header
    for line in path.read_text().splitlines():
        header = re.match(r"\[(\w+)\]", line)
        section = header.group(1) if header else section
        blocks[section] = blocks.get(section, "") + line + "\n"
    missing = [f"[{section}] {key}" for section, key in _FILE_KEYS
               if not re.search(rf"\b{key}\b", blocks.get(section, ""))]
    assert not missing


# ---------------------------------------------------------------------------
# runners

def test_dlcz_runner_values():
    bundle = run_dlcz(default_config("dlcz", {"p_list": (0.025,)}))
    assert bundle.scalars["g2"] == 0.1
    assert bundle.scalars["p_dlcz"] == 0.025


def test_spectrum_runner_smoke(tmp_path):
    cfg = default_config("spectrum", {"d_target": 1.8, "n_points": 41})
    bundle = run_spectrum(cfg)
    paths = bundle.write(tmp_path)
    assert any(p.endswith("spectrum.csv") for p in paths)
    assert any(p.endswith("manifest.ini") for p in paths)
    assert 0.0 < bundle.scalars["eit_peak_transmission"] <= 1.0


def test_propagate_runner_scalars():
    cfg = default_config("propagate", {"d_target": 1.8, "duration_ns": 600.0,
                                       "tail_ns": 300.0, "dt_out_ns": 8.0})
    bundle = run_propagate(cfg)
    assert 0.0 < bundle.scalars["pulse_transmission"] <= 1.2
    assert bundle.tables[0][0] == "trace.csv"


def test_replica_is_the_spectrum_and_propagate_runners(monkeypatch):
    # a lowered intensity floor keeps the tail's g2 finite, so the +400 ns
    # sample is a number the index has to hit
    import rydeit.observables as observables
    from rydeit.scenarios import run_experiment_replica
    monkeypatch.setattr(observables, "DEFAULT_INTENSITY_FLOOR", 1e-30)
    cfg = default_config("experiment_replica", {"d_target": 1.8, "duration_ns": 600.0,
                                                 "tail_ns": 500.0, "dt_out_ns": 8.0,
                                                 "n_points": 41})
    replica = run_experiment_replica(cfg)
    spectrum, pulse = run_spectrum(cfg), run_propagate(cfg)
    parts = {**spectrum.scalars, **pulse.scalars}
    assert {"eit_peak_delta_gamma", "g2tilde_ss", "g2_ss", "fwhm_mhz"} <= set(parts)
    assert set(replica.scalars) == set(parts) | {"g2_at_400ns_after_shutoff"}
    for key, value in parts.items():
        assert replica.scalars[key] == value, key

    # rows as arrays: the g2 column holds NaN below the intensity floor
    tables = {name: (cols, np.array(rows)) for name, cols, rows, _ in replica.tables}
    cols, rows = pulse.tables[0][1:3]
    picked = [cols.index(c) for c in ("t_gamma", "t_ns", "g2")]
    expected = {"spectrum.csv": spectrum.tables[0][1:3], "pulse.csv": (cols, rows),
                "g2.csv": (["t_gamma", "t_ns", "g2"], np.array(rows)[:, picked])}
    assert tables.keys() == expected.keys()
    for name, (want_cols, want_rows) in expected.items():
        assert tables[name][0] == want_cols, name
        np.testing.assert_array_equal(tables[name][1], np.array(want_rows), err_msg=name)
    t_ns = np.array([r[1] for r in rows])
    tail = rows[int(np.argmin(np.abs(t_ns - (cfg.t_on_ns + cfg.duration_ns + 400.0))))]
    assert np.isfinite(tail[-1])
    assert replica.scalars["g2_at_400ns_after_shutoff"] == tail[-1]


def test_gaussian_replica_writes_no_steady_state_keys(tmp_path):
    import configparser
    out = tmp_path / "replica"
    assert main(["replica", "--shape", "gaussian", "--d", "1.8", "--duration-ns", "600",
                 "--out", str(out)]) == 0
    cp = configparser.ConfigParser()
    cp.read(out / "manifest.ini")
    results = set(cp["results"])
    assert "pulse_transmission" in results and "g2_at_400ns_after_shutoff" in results
    assert not results & {"i_ss", "g2tilde_ss", "g2_ss", "steady_flat"}


def test_window_scan_keeps_failed_points(tmp_path):
    cfg = default_config("window_scan", {
        "d_target": 3.6, "duration_ns": 1000.0, "dt_out_ns": 8.0,
        "delta_t_list_ns": (800.0, 200.0), "shapes": ("square",),
    })
    # replace shapes tuple field name used by configio
    from dataclasses import replace
    cfg = replace(cfg, window_shapes=("square",), delta_t_list_ns=(800.0, 200.0))
    bundle = run_window_scan(cfg)
    rows = bundle.tables[0][2]
    assert len(rows) == 2  # one row per grid point, failures included
    statuses = {r[-1] for r in rows}
    assert "ok" in statuses


def test_window_scan_refuses_windows_outside_the_horizon():
    # windows end at 2600 ns; the square trace ends at 2200 ns and the
    # gaussian one later: a window reaching outside its run's trace writes
    # NaN for both values, and a below-floor window inside it keeps its
    # generation probability
    cfg = default_config("window_scan", {"n_atoms": 4, "end_time_ns": 2600.0,
                                         "delta_t_list_ns": (1000.0, 3000.0)})
    rows = {(r[0], r[1]): r[4:] for r in run_window_scan(cfg).tables[0][2]}
    for key in (("square", 1000.0), ("square", 3000.0), ("gaussian", 3000.0)):
        g2, pg, status = rows[key]
        assert math.isnan(g2) and math.isnan(pg) and status == "UndefinedResultError"
    g2, pg, status = rows[("gaussian", 1000.0)]
    assert math.isnan(g2) and pg > 0.0 and status == "UndefinedResultError"


def test_storage_preserves_coherence_in_linear_medium():
    # no interaction, no dephasing: store and retrieve a coherent pulse and
    # the retrieved light stays exactly coherent
    from rydeit.scenarios import run_storage
    from dataclasses import replace
    cfg = default_config("storage", {
        "n_atoms": 6, "shape": "gaussian", "duration_ns": 900.0,
        "t_off_ns": 500.0, "t_store_ns": 300.0, "schedule_kind": "storage",
        "mode": "none", "dt_out_ns": 8.0, "tail_ns": 700.0,
    })
    bundle = run_storage(cfg)
    assert bundle.scalars["retrieval_efficiency"] > 0.01
    assert bundle.scalars["g2_retrieved"] == pytest.approx(1.0, abs=1e-6)


def test_storage_efficiency_decreases_with_dephasing():
    from rydeit.scenarios import run_storage
    effs = []
    for gamma_r in (0.01, 0.02, 0.04):
        cfg = default_config("storage", {
            "n_atoms": 6, "shape": "gaussian", "duration_ns": 900.0,
            "t_off_ns": 500.0, "t_store_ns": 300.0, "schedule_kind": "storage",
            "mode": "none", "dt_out_ns": 8.0, "tail_ns": 700.0,
            "gamma_r": gamma_r,
        })
        effs.append(run_storage(cfg).scalars["retrieval_efficiency"])
    assert effs[0] > effs[1] > effs[2]


def _scan_config(kind, **fields):
    # a scan config with the default device, PhysicalParams.from_ratio(0.2)
    from dataclasses import replace
    cfg = replace(default_config(kind, {}), **fields)
    assert cfg.params == PhysicalParams.from_ratio(0.2)
    return cfg


_TURNOFF_CFG = _scan_config("turnoff_scan", turnoff_doubles=True, tail_fit_start=8.0,
                            tail_fit_end=25.0)
_SINGLES_CFG = _scan_config("turnoff_scan", turnoff_doubles=False)


def test_turnon_point_auto_extends_and_caps(monkeypatch):
    import rydeit.scenarios as scenarios
    # a very tight settling tolerance outruns the initial horizon and forces
    # the doubling path; an absurd tolerance with a tiny cap must flag the row
    out = scenarios._turnon_point(_scan_config("turnon_scan", rel_tol=1e-9), 1.8, 0.5)
    assert out["status"] == "ok"
    assert out["tau0_gamma"] > 50.0  # beyond the first horizon
    monkeypatch.setattr(scenarios, "TURNON_CAP", 4.0)
    capped = scenarios._turnon_point(_scan_config("turnon_scan", rel_tol=1e-13), 1.8, 0.5)
    assert capped["status"] == "no_settling_before_cap"
    assert "tau0_gamma" not in capped and capped["g2_ss"] == out["g2_ss"]


def test_turnon_point_builds_one_device(monkeypatch):
    # the doubling path evolves one generator from one steady state, under a
    # square probe that stays on over every horizon up to the cap
    import rydeit.scenarios as scenarios
    devices = _record_calls(monkeypatch, scenarios, "steady_state", 0)
    horizons = []
    real = scenarios.evolve

    def evolve(gen, span, *args, **kwargs):
        horizons.append(span[1])
        assert gen.envelope.t_end > span[1]
        return real(gen, span, *args, **kwargs)

    monkeypatch.setattr(scenarios, "evolve", evolve)
    out = scenarios._turnon_point(_scan_config("turnon_scan", rel_tol=1e-9), 1.8, 0.5)
    assert len(devices) == 1 and len(horizons) > 1
    assert horizons == [50.0 * 2 ** k for k in range(len(horizons))]
    assert out["status"] == "ok"


def test_scan_point_fingerprints():
    # criteria 4, 5 and 6 fail on their bounds, so their printed values cannot
    # catch a refactor that moves the numbers; pin points of each scan, the
    # turn-on scan at a short and at a long output step
    from rydeit.scenarios import _turnoff_point, _turnon_point
    on_cfg = _scan_config("turnon_scan", rel_tol=0.005)
    on = _turnon_point(on_cfg, 3.6, 0.25)
    assert on["status"] == "ok"
    assert on["tau0_gamma"] == pytest.approx(64.59725685832528, rel=1e-12)
    assert on["g2_ss"] == pytest.approx(0.1043612635729166, rel=1e-12)
    # Omega_c = 0.05: a far longer horizon and output step
    on = _turnon_point(on_cfg, 3.6, 0.05)
    assert on["status"] == "ok"
    assert on["tau0_gamma"] == pytest.approx(1864.639025643132, rel=1e-12)
    assert on["g2_ss"] == pytest.approx(0.0887863478133944, rel=1e-12)
    off = _turnoff_point(_TURNOFF_CFG, 3.6, 0.25)
    assert off["status"] == "ok"
    expected = {"tau_i_gamma": 4.874427894176789, "peak_intensity": 0.5931312619453503,
                "g2tilde_jump": 0.45826138407156086, "tau_ii_gamma": 0.7273525589201222,
                "tail_rate_gamma": 1.0804656981356617}
    for key, value in expected.items():
        assert off[key] == pytest.approx(value, rel=1e-12), key


def test_scan_points_keep_the_configured_params(monkeypatch):
    # a scan point runs with the configured parameters, the control set to
    # its Omega_c: gamma_r survives, and the rates of ratio 0.405, which do
    # not survive a round trip through the ratio, are used as given
    import rydeit.scenarios as scenarios
    from dataclasses import replace
    params = PhysicalParams.from_ratio(0.405, gamma_r=0.05)
    ratio = params.gamma_1d / params.gamma_prime
    assert PhysicalParams.from_ratio(ratio).gamma_1d != params.gamma_1d
    seen = []
    real = scenarios.assemble_generator

    def spy(p, *args, **kwargs):
        seen.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(scenarios, "assemble_generator", spy)
    cfg = replace(default_config("turnon_scan", {}), params=params, d_list=(1.8,),
                  omega_c_list=(0.5,), threads=1)
    assert scenarios.run_turnon_scan(cfg).tables[0][2][0][-1] == "ok"
    scenarios._turnoff_point(replace(cfg, turnoff_doubles=False), 1.8, 0.25)
    assert seen[0] == replace(params, omega_c_peak=0.5)
    assert seen[-1] == replace(params, omega_c_peak=0.25)


def test_turnoff_intensity_jump_drops_only_rounding():
    # gamma_r = 0: the steady state is dark, out_e psi1 is rounding and the
    # jump is written as 0; gamma_r > 0: the jump is |out_e psi1|^2 as computed
    from dataclasses import replace
    from rydeit.scenarios import _device, _turnoff_point
    dark = _turnoff_point(_SINGLES_CFG, 3.6, 0.25)
    assert dark["i_jump"] == 0.0
    lossy = replace(_SINGLES_CFG, params=replace(_SINGLES_CFG.params, gamma_r=0.8 / 6.0))
    _, _, f, _, _ = _device(lossy.params, 3.6, 0.25)
    out = _turnoff_point(lossy, 3.6, 0.25)
    assert out["i_jump"] == abs(f) ** 2 > 0.1


def test_turnoff_doubles_above_expm_cap(monkeypatch):
    # above the dense cap both turn-off blocks decay by the Taylor action,
    # with no dense exponential; it must reproduce the dense path's numbers
    import rydeit.dynamics as dynamics
    from rydeit.scenarios import _turnoff_point
    dense = _turnoff_point(_TURNOFF_CFG, 3.6, 0.25)

    def no_expm(_a):
        raise AssertionError("dense propagator used above the cap")

    monkeypatch.setattr(dynamics, "EXPM_MAX_DIM", 1)
    monkeypatch.setattr(dynamics, "expm", no_expm)
    action = _turnoff_point(_TURNOFF_CFG, 3.6, 0.25)
    assert action["status"] == "ok"
    for key in ("tau_i_gamma", "peak_intensity", "tau_ii_gamma", "tail_rate_gamma"):
        assert action[key] == pytest.approx(dense[key], rel=1e-12), key


def test_turnoff_doubles_decay_takes_no_dense_exponential(monkeypatch):
    # the doubles block stays sparse at any size: the deepest default point
    # (D ~ 9.1, 950 doubles dims) decays by the Taylor action, and its one
    # dense exponential is the singles block's
    import rydeit.dynamics as dynamics
    from rydeit.scenarios import _turnoff_point
    dense = _record_calls(monkeypatch, dynamics, "expm", 0)
    action = _record_calls(monkeypatch, dynamics, "_action_powers", 0)
    got = _turnoff_point(_TURNOFF_CFG, 9.1, 0.5)
    assert dense == [2 * got["n_atoms"]]
    assert action == [950]
    assert got["tau_ii_gamma"] == pytest.approx(0.3288512313452058, rel=1e-12)
    assert got["tail_rate_gamma"] == pytest.approx(1.428061768360669, rel=1e-12)


def test_turnoff_scan_ignores_numpy_global_seed(tmp_path):
    # nothing in a turn-off point may draw from numpy's global generator
    # (scipy's expm_multiply estimates norms from it): two runs after
    # different global seeds write byte-identical tables
    from dataclasses import replace
    from rydeit.scenarios import run_turnoff_scan
    cfg = replace(default_config("turnoff_scan", {}), d_list=(1.8, 3.6), omega_c_list=(0.25,),
                  turnoff_doubles=True, threads=1)
    tables = []
    for seed in (1, 2):
        np.random.seed(seed)
        run_turnoff_scan(cfg).write(tmp_path / str(seed))
        tables.append((tmp_path / str(seed) / "turnoff.csv").read_bytes())
    assert tables[0] == tables[1]


def test_turnoff_scan_flags_failed_points():
    # tau_I is undefined at shallow depth (the retrieved flash never reaches
    # half of the steady intensity); the row must survive with a status flag
    from rydeit.scenarios import run_turnoff_scan
    from dataclasses import replace
    cfg = default_config("turnoff_scan", {"turnoff_doubles": False})
    cfg = replace(cfg, d_list=(1.8, 9.1), omega_c_list=(0.5,), turnoff_doubles=False)
    bundle = run_turnoff_scan(cfg)
    rows = bundle.tables[0][2]
    assert len(rows) == 2
    statuses = [r[-1] for r in rows]
    assert statuses[0] != "ok"      # D ~ 1.8 cannot cross half
    assert statuses[1] == "ok"      # D ~ 9.1 can


def test_turnoff_retries_keep_the_output_step():
    # a point without a half crossing stops once the contraction bound shows
    # no later sample can cross or raise the peak (here after the first
    # horizon); its peak must still be that of the whole capped horizon, 128
    # times the first, at the first horizon's step: the reference steps
    # y <- P y over all of it
    from scipy.linalg import expm
    from rydeit.dynamics import steady_state
    from rydeit.scenarios import _turnoff_point
    from conftest import make_generator
    out = _turnoff_point(_SINGLES_CFG, 1.8, 0.5)
    assert out["status"] == "no_half_crossing"
    gen = make_generator(n_atoms=out["n_atoms"], omega_c=0.5, duration=10.0)
    y = steady_state(gen, omega_c=0.5)[1:1 + gen.index.dim_singles]
    n_steps = 6000 * 128
    m1 = gen.operator(0.5, slots=gen.index.singles).toarray()
    prop = expm(m1 * (max(0.4 * out["tau_eit_gamma"], 40.0) * 128 / n_steps))
    amps = np.empty(n_steps + 1, dtype=complex)
    amps[0] = gen.out_e @ y
    for k in range(1, n_steps + 1):
        y = prop @ y
        amps[k] = gen.out_e @ y
    assert out["peak_intensity"] == pytest.approx(np.max(np.abs(amps) ** 2), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 16), ratio=st.floats(0.0, 10.0),
       gamma_r=st.floats(0.0, 2.0), delta_e=st.floats(-5.0, 5.0),
       delta_2=st.floats(-5.0, 5.0), omega=st.floats(0.0, 3.0))
def test_undriven_singles_contract(n, seed, ratio, gamma_r, delta_e, delta_2, omega):
    # the turn-off stop bounds every later sample by the end state's norm:
    # the top eigenvalue of M1's Hermitian part is max(-Gamma/2 +
    # Gamma_1D/4, -gamma_r) (-Gamma/2 in place of the first at N = 1), never
    # above 0, on jittered chains at any detuning and control
    from rydeit.dynamics import singles_blocks
    from rydeit.model import build_chain
    params = PhysicalParams.from_ratio(ratio, gamma_r=gamma_r, delta_e=delta_e,
                                       delta_2=delta_2)
    chain = build_chain(n, placement="jittered", seed=seed)
    m1s, m1o, _, _ = singles_blocks(params, chain)
    m1 = m1s + omega * m1o
    top = np.linalg.eigvalsh(0.5 * (m1 + m1.conj().T))[-1]
    e_top = -0.5 * params.gamma_total + (0.25 * params.gamma_1d if n > 1 else 0.0)
    assert abs(top - max(e_top, -gamma_r)) <= 1e-12
    assert top <= 0.0


def _record_calls(monkeypatch, module, name, arg):
    # wraps module.name to record its positional argument ``arg`` (the
    # matrix's dimension when it has one) on each call, then run it
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        a = args[arg]
        calls.append(a.shape[0] if hasattr(a, "shape") else a)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_turnoff_points_take_one_singles_exponential(monkeypatch):
    # each default point builds one singles propagator; the four points
    # without a half crossing stop after the first horizon's 6,000 steps
    import rydeit.dynamics as dynamics
    import rydeit.scenarios as scenarios
    from dataclasses import replace
    from rydeit.scenarios import run_turnoff_scan
    dims = _record_calls(monkeypatch, dynamics, "expm", 0)
    steps = _record_calls(monkeypatch, scenarios, "decay", 4)
    cfg = replace(default_config("turnoff_scan", {}), turnoff_doubles=False, threads=1)
    rows = run_turnoff_scan(cfg).tables[0][2]
    assert [r[-1] for r in rows].count("no_half_crossing") == 4
    assert dims == [2 * r[2] for r in rows]
    assert steps == [6000] * 9


def test_turnoff_continuation_matches_the_stop(monkeypatch):
    # a one-atom point without a crossing goes on from the end state over
    # three horizons of one singles exponential before the contraction bound
    # stops it; its peak is that of the whole capped horizon, 128 times the
    # first, against the step loop y <- P y over all 768,000 steps
    from scipy.linalg import expm
    import rydeit.dynamics as dynamics
    import rydeit.scenarios as scenarios
    from rydeit.scenarios import _device, _turnoff_point
    dims = _record_calls(monkeypatch, dynamics, "expm", 0)
    steps = _record_calls(monkeypatch, scenarios, "decay", 4)
    out = _turnoff_point(_SINGLES_CFG, 0.5, 0.05)
    assert dims == [2] and out["n_atoms"] == 1
    assert steps == [6000, 6000, 12000]
    assert out["status"] == "no_half_crossing"
    gen, ss, _, _, _ = _device(_SINGLES_CFG.params, 0.5, 0.05)
    n_steps = 6000 * 128
    m1 = gen.operator(0.05, slots=gen.index.singles).toarray()
    prop = expm(m1 * (max(0.4 * out["tau_eit_gamma"], 40.0) * 128 / n_steps))
    y = ss[1:1 + gen.index.dim_singles]
    peak = abs(gen.out_e @ y) ** 2
    for _ in range(n_steps):
        y = prop @ y
        peak = max(peak, abs(gen.out_e @ y) ** 2)
    assert out["peak_intensity"] == pytest.approx(peak, rel=1e-12)


@pytest.mark.filterwarnings("ignore:scan point")
@pytest.mark.parametrize("threads", [1, 2])
def test_map_points_flags_a_raising_point(threads):
    # the second point has a negative control
    from functools import partial
    from rydeit.scenarios import _map_points, _turnoff_point
    good, bad = _map_points(partial(_turnoff_point, _SINGLES_CFG), [(1.8, 0.5), (1.8, -0.25)],
                            threads)
    assert good["status"] == "no_half_crossing"
    assert bad == {"d_target": 1.8, "omega_c": -0.25,
                   "status": "failed:ConfigurationError"}


def test_turnoff_scan_survives_a_raising_point(monkeypatch, tmp_path):
    import rydeit.scenarios as scenarios
    from dataclasses import replace
    from rydeit.dynamics import DynamicsError
    real = scenarios.steady_state

    def steady_state(gen, omega_c=None, **kw):
        if omega_c == 0.25:
            raise DynamicsError("forced failure")
        return real(gen, omega_c=omega_c, **kw)

    monkeypatch.setattr(scenarios, "steady_state", steady_state)
    cfg = default_config("turnoff_scan", {"turnoff_doubles": False})
    cfg = replace(cfg, d_list=(1.8,), omega_c_list=(0.25, 0.5), turnoff_doubles=False)
    with pytest.warns(RuntimeWarning, match="forced failure"):
        bundle = scenarios.run_turnoff_scan(cfg)
    bundle.write(tmp_path)
    failed, kept = bundle.tables[0][2]
    assert failed[0] == 1.8 and failed[3] == 0.25
    assert failed[-1] == "failed:DynamicsError"
    assert all(math.isnan(v) for v in failed[1:3] + failed[4:-1])
    assert math.isfinite(kept[4])       # i_ss of the surviving point
    assert kept[-1] == "no_half_crossing"
    assert bundle.scalars["n_failed"] == 2


# ---------------------------------------------------------------------------
# CLI behavior

def test_cli_dlcz_reference_point(tmp_path, capsys):
    rc = main(["dlcz", "--p", "0.025", "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "g2 = 0.1" in out
    assert "p_dlcz = 0.025" in out
    text = _read_csv(tmp_path / "d" / "dlcz.csv")
    assert "0.025,1.0,1.0,0.1,0.025" in text


def test_cli_malformed_config_no_partial_output(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[pulse]\nduration_ns = banana\n")
    out_dir = tmp_path / "out"
    rc = main(["propagate", "--config", str(bad), "--out", str(out_dir)])
    assert rc == 3
    assert not out_dir.exists()


def test_cli_unwritable_output(tmp_path):
    # the nearest existing ancestor of the output directory is a file: the
    # run exits 4 before it starts and writes nothing
    (tmp_path / "file").write_text("")
    rc = main(["dlcz", "--p", "0.01", "--out", str(tmp_path / "file" / "x" / "y")])
    assert rc == 4
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_cli_default_output_location(tmp_path, monkeypatch):
    # results/ need not exist: a successful run makes results/<command>/
    monkeypatch.chdir(tmp_path)
    assert main(["dlcz"]) == 0
    assert (tmp_path / "results" / "dlcz" / "dlcz.csv").exists()
    assert (tmp_path / "results" / "dlcz" / "manifest.ini").exists()


def test_cli_manifest_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    rc = main(["propagate", "--d", "1.8", "--duration-ns", "300", "--out", str(a)])
    assert rc == 0
    rc = main(["propagate", "--config", str(a / "manifest.ini"), "--out", str(b)])
    assert rc == 0
    assert _read_csv(a / "trace.csv") == _read_csv(b / "trace.csv")


_SHORT = ["--n-atoms", "4", "--duration-ns", "300"]
#: one short run of each subcommand (``point.ini`` is a one-point scan)
_RERUNS = [["spectrum", "--n-atoms", "4"], ["propagate", *_SHORT],
           ["scan-turnon", "--config", "point.ini"], ["scan-turnoff", "--config", "point.ini"],
           ["replica", *_SHORT], ["window-scan", *_SHORT],
           ["storage", *_SHORT, "--t-off-ns", "200"], ["dlcz"],
           ["emulate-hbt", *_SHORT, "--n-trials", "2000"]]


def test_every_subcommand_is_rerun_below():
    from rydeit.cli import _SUBCOMMANDS
    assert sorted(argv[0] for argv in _RERUNS) == sorted(_SUBCOMMANDS)


@pytest.mark.parametrize("argv", _RERUNS, ids=[argv[0] for argv in _RERUNS])
def test_every_subcommand_reruns_byte_identically_from_its_manifest(tmp_path, monkeypatch,
                                                                     argv):
    # every file the run writes, the manifest up to its wall time
    monkeypatch.chdir(tmp_path)
    (tmp_path / "point.ini").write_text("[scan]\nd_list = 1.8\nomega_c_list = 0.5\n")
    assert main(argv + ["--out", "a"]) == 0
    assert main([argv[0], "--config", "a/manifest.ini", "--out", "b"]) == 0
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")


def test_pulse_inputs_a_shape_does_not_read_are_neither_checked_nor_recorded(tmp_path):
    # the replica preset's 10 ns edges are a square's: a 15 ns gaussian
    # replica never reads them, so its config builds and its manifest
    # writes the default edge; a triangle reads neither the edges nor a
    # fwhm, and a window scan reads both for the shapes it runs
    cfg = default_config("experiment_replica", {"shape": "gaussian", "duration_ns": 15.0})
    assert cfg.rise_time_ns == 10.0 and cfg.envelope().rise_time == 0.0
    text = manifest_text(cfg, {}, {})
    assert "rise_time_ns = 10.0" not in text and "rise_time_ns = 0.0" in text
    tri = default_config("propagate", {"shape": "triangular_neg", "rise_time_ns": 100.0,
                                       "fwhm_ns": 300.0})
    assert (tri.resolved().rise_time_ns, tri.resolved().fwhm_ns) == (0.0, None)
    assert tri.envelope().fwhm is None
    win = default_config("window_scan", {"rise_time_ns": 5.0, "fwhm_ns": 500.0})
    assert win.resolved() == win
    square_only = default_config("window_scan", {"fwhm_ns": 500.0, "shapes": ("square",)})
    assert square_only.resolved().fwhm_ns is None
    # and a re-run from the gaussian replica's manifest writes the same bytes
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["replica", "--shape", "gaussian", "--duration-ns", "15", "--n-atoms", "4",
                 "--out", str(a)]) == 0
    assert "rise_time_ns = 10.0" not in (a / "manifest.ini").read_text()
    assert main(["replica", "--config", str(a / "manifest.ini"), "--out", str(b)]) == 0
    for name in ("spectrum.csv", "pulse.csv", "g2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_blockade_schedule_and_chain_inputs_the_run_does_not_read_are_not_recorded(tmp_path):
    # only a power_law blockade reads d_b, r_b, v0 and v_cap, only a storage
    # schedule the schedule times and only jittered placement the chain
    # seed: elsewhere a config holds them at their defaults, unchecked, and
    # its manifest writes those defaults
    none = default_config("experiment_replica", {"mode": "none"})
    assert (none.d_b, none.r_b, none.v0, none.v_cap) == (None, None, None, 1e3)
    blocked = default_config("propagate", {"d_b": -3.0, "v_cap": -1.0})
    assert (blocked.d_b, blocked.v_cap) == (None, 1e3)
    assert "d_b" not in manifest_text(blocked, {}, {})
    with pytest.raises(ConfigurationError):
        default_config("propagate", {"mode": "power_law", "d_b": -3.0})
    ini = tmp_path / "unread.ini"
    ini.write_text("[schedule]\nt_off_ns = 900\nt_store_ns = 100\n\n[chain]\nseed = 7\n")
    cfg = load_config(ini, kind="propagate")
    assert cfg == default_config("propagate")
    text = manifest_text(cfg, {}, {})
    assert "t_off_ns" not in text and "\nt_store_ns = 500.0\n" in text
    assert "[chain]\nn_atoms = 10\nplacement = uniform\n\n" in text
    from dataclasses import replace
    raw = replace(cfg, d_b=0.9, v_cap=5.0, t_off_ns=900.0, t_store_ns=100.0, chain_seed=7)
    assert raw.resolved() == cfg
    # the replica preset's d_b comes back on reload, unread: the re-run
    # from the manifest writes the same bytes
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["replica", "--blockade", "none", "--n-atoms", "4", "--out", str(a)]) == 0
    assert not re.search(r"\n(d_b|r_b|v0) = ", (a / "manifest.ini").read_text())
    assert main(["replica", "--config", str(a / "manifest.ini"), "--out", str(b)]) == 0
    assert _outputs(a) == _outputs(b)


def test_cli_emulate_hbt_outputs(tmp_path):
    out = tmp_path / "hbt"
    rc = main(["emulate-hbt", "--d", "1.8", "--duration-ns", "300",
               "--n-trials", "5000", "--out", str(out)])
    assert rc == 0
    assert (out / "timestamps.txt").exists()
    assert (out / "estimates.csv").exists()
    from rydeit.counting import load_stream
    stream = load_stream(out / "timestamps.txt")
    assert stream.n_trials == 5000
    # the emulation's validity numbers reach the manifest's [results]
    import configparser
    cp = configparser.ConfigParser()
    cp.read(out / "manifest.ini")
    res = cp["results"]
    p_pair, p_single = float(res["pairs_per_trial"]), float(res["singles_per_trial"])
    assert 0.0 < p_pair and 0.0 < p_single
    assert float(res["singles_clip_per_trial"]) >= 0.0


def test_emulate_hbt_writes_an_undefined_estimate_as_its_status(tmp_path):
    # ten trials are fewer than the estimator's baseline offsets: the row
    # keeps the estimator's error as its status
    out = tmp_path / "hbt"
    assert main(["emulate-hbt", *_SHORT, "--n-trials", "10", "--out", str(out)]) == 0
    row = (out / "estimates.csv").read_text().splitlines()[-1]
    assert row.startswith("full_output,") and row.endswith(",EstimateError")


def test_emulate_hbt_raises_a_coding_error_in_its_estimate(tmp_path, monkeypatch):
    # only what the estimators raise on data becomes a status
    from rydeit import scenarios

    def broken(*args):
        raise TypeError("broken estimator")

    monkeypatch.setattr(scenarios, "estimate_g2", broken)
    out = tmp_path / "hbt"
    with pytest.raises(TypeError, match="broken estimator"):
        main(["emulate-hbt", *_SHORT, "--n-trials", "2000", "--out", str(out)])
    assert not out.exists()


def test_cli_storage_requires_schedule(tmp_path, monkeypatch, capsys):
    # with no flags the run has no switch-off time: it exits 3, names the
    # flag that gives one and writes nothing, not even the default results/
    monkeypatch.chdir(tmp_path)
    assert main(["storage"]) == 3
    assert "--t-off-ns" in capsys.readouterr().err
    assert main(["storage", "--d", "1.8", "--out", str(tmp_path / "s")]) == 3
    assert list(tmp_path.iterdir()) == []
    # a release after the horizon names both times
    assert main(["storage", "--t-off-ns", "2000", "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert "2500.0 ns" in err and "2200.0 ns" in err


def test_storage_schedule_comes_from_its_preset(tmp_path, monkeypatch):
    # the storage scenario presets the storage schedule, so a file that
    # gives only t_off_ns runs as the flag does, and both manifests write
    # kind = storage
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t_off.ini").write_text("[schedule]\nt_off_ns = 200\n")
    assert main(["storage", *_SHORT, "--config", "t_off.ini", "--out", "file"]) == 0
    assert main(["storage", *_SHORT, "--t-off-ns", "200", "--out", "flag"]) == 0
    assert _outputs(tmp_path / "file") == _outputs(tmp_path / "flag")
    assert "[schedule]\nkind = storage\n" in _outputs(tmp_path / "file")["manifest.ini"]


_DEVICE_FLAGS = {"--d", "--n-atoms", "--omega-c", "--omega-c-mhz", "--gamma-r-mhz"}
_PULSE_FLAGS = _DEVICE_FLAGS | {"--shape", "--blockade", "--d-b", "--duration-ns"}


@pytest.mark.parametrize("command, flags", [
    ("spectrum", _DEVICE_FLAGS),
    ("propagate", _PULSE_FLAGS),
    ("replica", _PULSE_FLAGS),
    ("window-scan", _DEVICE_FLAGS | {"--blockade", "--d-b", "--n-in", "--duration-ns"}),
    ("storage", _PULSE_FLAGS | {"--n-in", "--t-off-ns", "--t-store-ns"}),
    ("emulate-hbt", _PULSE_FLAGS | {"--n-in", "--n-trials", "--seed"}),
    ("scan-turnon", {"--gamma-r-mhz", "--threads"}),
    ("scan-turnoff", {"--gamma-r-mhz", "--threads"}),
    ("dlcz", {"--p", "--eta-d", "--eta-r"})])
def test_each_subcommand_takes_only_the_flags_its_runner_reads(command, flags):
    import argparse
    from rydeit.cli import _parser
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert got == flags | {"-h", "--help", "--config", "--out"}


@pytest.mark.parametrize("argv", [["dlcz", "--seed", "3"], ["scan-turnon", "--d", "4.5"],
                                  ["propagate", "--n-in", "1.0"],
                                  ["spectrum", "--blockade", "none"],
                                  ["window-scan", "--shape", "gaussian"]])
def test_a_flag_the_runner_ignores_exits_2_and_writes_nothing(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


_SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
#: each script under scripts/ and the scenario kinds its subcommands run
_SCRIPTS = {"run_replica.py": ["experiment_replica"],
            "run_storage_comparison.py": ["storage"],
            "run_turnoff_scaling.py": ["turnoff_scan", "turnoff_scan"],
            "run_turnon_scaling.py": ["turnon_scan"],
            "run_window_scan.py": ["window_scan"]}


def test_every_script_is_run_below():
    # the scenario scripts, and the line counter (test_code_lines_counts_each_kind)
    assert sorted(p.name for p in _SCRIPT_DIR.glob("*.py")) == sorted([*_SCRIPTS, "code_lines.py"])


def test_code_lines_counts_each_kind(capsys):
    # module and function docstrings, a comment-only line, blank lines, and
    # code with a trailing comment, which counts as code; on the package, one
    # row per module and a total row that sums them
    import runpy
    script = runpy.run_path(str(_SCRIPT_DIR / "code_lines.py"))
    source = ("'''Doc\ntwo lines.'''\nimport os  # trailing\n\n# a comment\n\n\n"
              "def f():\n    \"\"\"One line.\"\"\"\n    return 1\n")
    assert script["count"](source) == {"code": 3, "docstring": 3, "comment": 1, "blank": 3,
                                       "raw": 10}
    script["main"]()
    head, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert head == ["module", "code", "docstring", "comment", "blank", "raw"]
    modules = sorted(p.name for p in (_SCRIPT_DIR.parent / "src" / "rydeit").glob("*.py"))
    assert [r[0] for r in rows] == [*modules, "total"]
    assert rows[-1][1:] == [str(sum(int(r[k]) for r in rows[:-1])) for k in range(1, 6)]


@pytest.mark.parametrize("script, kinds", sorted(_SCRIPTS.items()))
def test_script_runs_with_the_flags_the_cli_accepts(tmp_path, monkeypatch, script, kinds):
    # each script runs its subcommands with the runners stubbed: a flag the
    # subcommand does not accept exits 2, and a bad value exits 3
    import runpy
    from rydeit import scenarios
    from rydeit.scenarios import ResultBundle
    ran = []
    for kind in scenarios.RUNNERS:
        monkeypatch.setitem(scenarios.RUNNERS, kind,
                            lambda cfg, kind=kind: ran.append(kind) or ResultBundle(config=cfg))
    path = _SCRIPT_DIR / script
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "out")])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(path), run_name="__main__")
    assert stop.value.code == 0
    assert ran == kinds


#: the [results] of two short runs through sloped envelopes, as the ramps
#: evaluated before the envelope was stored as pieces: the replica device
#: (power-law blockade, 10 ns edges: the ramp route of every edge) and a
#: rising triangle (one ramp over the whole window)
_SLOPED_RESULTS = {
    "replica": {
        "eit_peak_transmission": 0.7250090681987694, "eit_peak_delta_gamma": 0.0,
        "optical_depth": 1.8232155679395459, "fwhm_gamma": 0.7530728191325968,
        "fwhm_mhz": 4.518436914795581, "pulse_transmission": 0.6774154884904703,
        "i_ss": 0.72454511049923, "g2tilde_ss": 0.40091616070398606,
        "g2_ss": 0.7636998454904482, "steady_flat": 1.0,
        "g2_at_400ns_after_shutoff": math.nan},
    "triangular_pos": {
        "optical_depth": 1.8232155679395459, "pulse_transmission": 0.8484750750150445},
}


@pytest.mark.parametrize("name, args", [("replica", ["replica"]),
                                        ("triangular_pos",
                                         ["propagate", "--shape", "triangular_pos"])])
def test_sloped_envelope_results_are_pinned(tmp_path, name, args):
    # nothing else pins the sloped-envelope path this tightly: the benchmark
    # checks the replica at 1e-3 and criteria 9 and 10 fail their bands
    import configparser
    ini = tmp_path / "small.ini"
    ini.write_text("[pulse]\nduration_ns = 600\n\n[integration]\ntail_ns = 500\n"
                   "dt_out_ns = 8\n\n[spectrum]\nn_points = 41\n")
    out = tmp_path / "out"
    assert main(args + ["--config", str(ini), "--d", "1.8", "--out", str(out)]) == 0
    cp = configparser.ConfigParser()
    cp.read(out / "manifest.ini")
    got = {key: float(value) for key, value in cp["results"].items()}
    assert got.keys() == _SLOPED_RESULTS[name].keys()
    for key, value in _SLOPED_RESULTS[name].items():
        assert got[key] == pytest.approx(value, rel=1e-9, nan_ok=True), key
