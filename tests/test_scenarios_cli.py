import math

import pytest

from rydeit.cli import main
from rydeit.configio import default_config, load_config, manifest_text
from rydeit.model import ConfigurationError
from rydeit.scenarios import (replica_config, run_dlcz, run_propagate, run_spectrum,
                              run_window_scan)


def _read_csv(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config plumbing

def test_default_config_builds_model_objects():
    cfg = default_config("propagate", {"d_target": 3.6})
    assert cfg.n_atoms == 10
    assert cfg.chain().n_atoms == 10
    assert cfg.envelope().n_in == 1.5


def test_replica_config_matches_measured_device():
    cfg = replica_config()
    assert cfg.n_atoms == 28
    assert cfg.params.omega_c_peak == pytest.approx(3.2 / 6.0)
    assert cfg.params.gamma_r == pytest.approx(0.8 / 6.0)
    assert cfg.blockade_mode == "power_law"
    blk = cfg.blockade()
    assert blk.optical_depth_per_blockade(cfg.chain(), cfg.params) == pytest.approx(0.9)


def test_manifest_round_trip(tmp_path):
    cfg = default_config("propagate", {"d_target": 1.8, "duration_ns": 200.0})
    text = manifest_text(cfg, {"some_scalar": 1.25}, {"version": "x"})
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    back = load_config(path, kind="propagate")
    assert back.n_atoms == cfg.n_atoms
    assert back.duration_ns == cfg.duration_ns
    assert back.params.omega_c_peak == cfg.params.omega_c_peak


def test_malformed_config_raises():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write("[pulse]\nduration_ns = not_a_number\n")
        path = fh.name
    with pytest.raises(ConfigurationError):
        load_config(path, kind="propagate")


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


def test_turnon_point_auto_extends_and_caps():
    from rydeit.scenarios import _turnon_point
    # a very tight settling tolerance outruns the initial horizon and forces
    # the doubling path; an absurd tolerance with a tiny cap must flag the row
    out = _turnon_point((1.8, 0.5, 0.2, 1e-9, 100.0))
    assert out["status"] == "ok"
    assert out["tau_0"] > 50.0  # beyond the first horizon
    capped = _turnon_point((1.8, 0.5, 0.2, 1e-13, 4.0))
    assert capped["status"] == "no_settling_before_cap"


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


_GOOD_POINT = (1.8, 0.5, 0.2, False, 5.0, 20.0)
_BAD_POINT = (1.8, 0.25, -1.0, False, 5.0, 20.0)   # negative ratio is invalid


@pytest.mark.filterwarnings("ignore:scan point")
@pytest.mark.parametrize("threads", [1, 2])
def test_map_points_flags_a_raising_point(threads):
    from rydeit.scenarios import _map_points, _turnoff_point
    good, bad = _map_points(_turnoff_point, [_GOOD_POINT, _BAD_POINT], threads)
    assert good["status"] == "no_half_crossing"
    assert bad == {"d_target": 1.8, "omega_c": 0.25,
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
    rc = main(["dlcz", "--p", "0.01", "--out", "/proc/definitely/not/writable/x"])
    assert rc == 4


def test_cli_manifest_rerun_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    rc = main(["propagate", "--d", "1.8", "--duration-ns", "300", "--out", str(a)])
    assert rc == 0
    rc = main(["propagate", "--config", str(a / "manifest.ini"), "--out", str(b)])
    assert rc == 0
    assert _read_csv(a / "trace.csv") == _read_csv(b / "trace.csv")


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


def test_cli_storage_requires_schedule(tmp_path):
    rc = main(["storage", "--d", "1.8", "--out", str(tmp_path / "s")])
    assert rc == 3
