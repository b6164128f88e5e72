"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared heavy artifacts (the measured-device replica trace/grid, the window
scans) are module-scoped fixtures.  Criteria are asserted exactly at their
stated tolerances; where the simulator demonstrably cannot meet a stated
band, the test prints the measured values and fails honestly rather than
loosening the bound (see notes in the repository ledger).

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time as _time
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from rydeit.model import (BlockadeConfig, ControlSchedule, PhysicalParams,
                          PulseEnvelope, PulseShape, atoms_for_depth, build_chain,
                          ns_from_time, optical_depth, time_from_ns)
from rydeit.configio import default_config
from rydeit.counting import (EfficiencyBudget, emulate_trials, estimate_g2,
                             dlcz_compare)
from rydeit.dynamics import (assemble_generator, evolve, steady_state,
                             steady_transmission_amplitude)
from rydeit.observables import (CorrelationGrid, correlation_grid, trace_from_trajectory,
                                windowed_g2)
from rydeit.scenarios import (run_experiment_replica,
                              run_turnoff_scan, run_turnon_scan, run_window_scan,
                              _turnoff_point)

from conftest import rk4_evolve


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{name}]: {status} - {detail}")
    return ok


#: Every value criteria 4, 5, 6, 8, 9 and 10 print, at full precision: those
#: six already fail their literature bands, so only their fingerprint tests
#: see a move of their physics
FINGERPRINTS = json.loads((Path(__file__).parent / "fingerprints.json").read_text())


def _check_fingerprint(num, values):
    """Check the values criterion ``num`` prints against ``FINGERPRINTS``,
    within 1e-6 relative.  A failure shows them all at full precision: the
    entry to record, with the cause, when a change moves them on purpose."""
    values = {k: np.asarray(v, dtype=float).tolist() for k, v in values.items()}
    want = FINGERPRINTS[f"criterion_{num:02d}"]
    assert values.keys() == want.keys()
    for key, got in values.items():
        np.testing.assert_allclose(got, want[key], rtol=1e-6, atol=0.0,
                                   err_msg=f"{key}; now {json.dumps(values)}")


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def replica_artifacts():
    """Replica correlation grid, which is its trace too, and bundle scalars
    (criteria 9-11), all from the replica run's one ``evolve``: its
    propagation records the grid's projections too, and the fixture keeps
    the grid."""
    import rydeit.scenarios as scenarios
    cfg = default_config("experiment_replica", {"dt_out_ns": 2.0})
    kept = []
    real = scenarios._propagate

    def propagate(c, grid=False):
        kept.append(real(c, grid=True))
        return kept[-1]

    t0 = _time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_propagate", propagate)
        bundle = run_experiment_replica(cfg)
    (gen, grid), = kept
    wall = _time.perf_counter() - t0
    return {"cfg": cfg, "bundle": bundle, "gen": gen, "grid": grid, "wall": wall}


def _flat_scene(t_max=8.0, n=161, g2=1.0):
    ts = np.linspace(0.0, t_max, n)
    ones = np.ones(n)
    return CorrelationGrid(times=ts, envelope_unit=ones.copy(), omega_c=ones * 0.5,
                           intensity=ones.copy(), g2tilde=np.full(n, g2),
                           g2=np.full(n, g2), g2_matrix=np.full((n, n), g2))


def _g2ss_closed_form(d, om):
    return 4.0 * (1.0 + om ** 2) / (math.pi * d) * math.exp(-d / (1.0 + om ** 2))


def _g2ss_simulated(n_atoms, om):
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=om)
    chain = build_chain(n_atoms)
    gen = assemble_generator(p, chain, BlockadeConfig.fully_blockaded(),
                             ControlSchedule.constant(om),
                             PulseEnvelope(duration=10.0))
    ss, n1 = steady_state(gen, omega_c=om), gen.index.dim_singles
    f, a2 = gen.out_e @ ss[1:1 + n1], gen.a2vec @ ss[1 + n1:]
    i_ss = abs(1.0 + f) ** 2
    g2t = abs(1.0 + 2.0 * f + a2) ** 2
    return g2t / i_ss ** 2, optical_depth(chain, p)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_coherent_state_oracle():
    """Blockade disabled: |g2 - 1| < 1e-6 wherever I > 1e-2, all pulse shapes,
    D ~ 3.6 and D ~ 10, in under a minute."""
    t0 = _time.perf_counter()
    worst = 0.0
    details = []
    for n_atoms in (10, 28):
        p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)
        chain = build_chain(n_atoms)
        for shape in (PulseShape.SQUARE, PulseShape.TRIANGULAR_NEG,
                      PulseShape.TRIANGULAR_POS, PulseShape.GAUSSIAN):
            env = PulseEnvelope(shape=shape, duration=30.0)
            gen = assemble_generator(p, chain, BlockadeConfig.none(),
                                     ControlSchedule.constant(0.5), env)
            traj = evolve(gen, (0.0, 42.0), dt_out=0.25)
            trace = trace_from_trajectory(traj, gen)
            mask = trace.intensity > 1e-2
            dev = float(np.nanmax(np.abs(trace.g2[mask] - 1.0)))
            worst = max(worst, dev)
            details.append(f"{shape.value}/N={n_atoms}: {dev:.2e}")
    wall = _time.perf_counter() - t0
    ok = worst < 1e-6 and wall < 60.0
    assert _report(1, "coherent-state oracle", ok,
                   f"max |g2-1| = {worst:.2e} (limit 1e-6), runtime {wall:.1f}s "
                   f"(limit 60s); " + "; ".join(details))


def test_criterion_02_linear_optics_oracle():
    p0 = PhysicalParams.from_ratio(0.2)
    chain1 = build_chain(1)
    worst_amp = 0.0
    for delta in np.linspace(-5.0, 5.0, 81):
        p = dc_replace(p0, delta_e=float(delta), delta_2=float(delta))
        t = steady_transmission_amplitude(p, chain1, omega_c=0.0)
        ref = 1.0 - (p.gamma_1d / 2) / (p.gamma_total / 2 - 1j * delta)
        worst_amp = max(worst_amp, abs(t - ref))
    worst_rel = 0.0
    for n in (10, 25, 28):
        chain = build_chain(n)
        t = steady_transmission_amplitude(p0, chain, omega_c=0.0)
        d = optical_depth(chain, p0)
        worst_rel = max(worst_rel, abs(abs(t) ** 2 - math.exp(-d)) / math.exp(-d))
    ok = worst_amp < 1e-9 and worst_rel < 1e-6
    assert _report(2, "linear-optics oracle", ok,
                   f"single-atom amplitude error {worst_amp:.2e} (limit 1e-9); "
                   f"exp(-D) relative error {worst_rel:.2e} (limit 1e-6)")


def test_criterion_03_turn_on_coherence():
    gen_kwargs = dict(omega_c_peak=0.5)
    p = PhysicalParams.from_ratio(0.2, **gen_kwargs)
    chain = build_chain(10)
    env = PulseEnvelope(shape=PulseShape.SQUARE, duration=20.0)
    gen = assemble_generator(p, chain, BlockadeConfig.fully_blockaded(),
                             ControlSchedule.constant(0.5), env)
    traj = rk4_evolve(gen, (0.0, 5.0), 0.1)
    trace = trace_from_trajectory(traj, gen)
    g2_on = float(trace.g2[0])
    ok = abs(g2_on - 1.0) < 1e-3
    assert _report(3, "turn-on coherence", ok,
                   f"g2(t_on+) = {g2_on:.6f} (required 1 +- 1e-3)")


@pytest.fixture(scope="module")
def turnon_scaling():
    """Criterion 4's turn-on scan: tau0/tau_eit of its ok points, their
    median, and the scan's wall time."""
    cfg = default_config("turnon_scan", {
        "d_list": (1.8, 3.6, 9.1), "omega_c_list": (0.05, 0.25, 0.5),
        "threads": 2})
    t0 = _time.perf_counter()
    rows = run_turnon_scan(cfg).tables[0][2]
    wall = _time.perf_counter() - t0
    ratios = [r[7] for r in rows if r[-1] == "ok"]
    median = float(np.median(ratios)) if ratios else math.nan
    return {"tau0_over_tau_eit": ratios, "median": median}, wall


def test_criterion_04_turnon_time_scaling(turnon_scaling):
    values, wall = turnon_scaling
    ratios, median = values["tau0_over_tau_eit"], values["median"]
    n_ok = len(ratios)
    in_band = [0.5 <= x <= 2.0 for x in ratios]
    ok = (n_ok == 9 and all(in_band) and 0.8 <= median <= 1.3 and wall < 600.0)
    detail = (f"tau0/tau_eit per point: "
              + ", ".join(f"{x:.3f}" for x in ratios)
              + f"; median {median:.3f} (required each in [0.5,2.0], median in "
                f"[0.8,1.3]); runtime {wall:.0f}s (limit 600s)")
    assert _report(4, "turn-on time scaling", ok, detail)


def test_criterion_04_fingerprint(turnon_scaling):
    _check_fingerprint(4, turnon_scaling[0])


@pytest.fixture(scope="module")
def retrieval_scaling():
    """Criterion 5's turn-off scan: tau_I/tau_eit of its ok points."""
    cfg = default_config("turnoff_scan", {
        "d_list": (9.1, 18.2, 27.3), "omega_c_list": (0.05, 0.2, 0.5),
        "turnoff_doubles": False, "threads": 2})
    rows = run_turnoff_scan(cfg).tables[0][2]
    return {"tau_i_over_tau_eit": [r[10] for r in rows if r[-1] == "ok"]}


def test_criterion_05_retrieval_time_scaling(retrieval_scaling):
    ratios = retrieval_scaling["tau_i_over_tau_eit"]
    ok = len(ratios) == 9 and all(0.5 <= x <= 1.5 for x in ratios)
    assert _report(5, "retrieval time scaling", ok,
                   "tau_I/tau_eit per point: "
                   + ", ".join(f"{x:.3f}" for x in ratios)
                   + " (required each in [0.5,1.5])")


def test_criterion_05_fingerprint(retrieval_scaling):
    _check_fingerprint(5, retrieval_scaling)


@pytest.fixture(scope="module")
def two_photon_decay():
    """Criterion 6's tau_II exponent over its turn-off scan, and the late G2
    decay rate at its deep-medium reference point."""
    cfg = default_config("turnoff_scan", {
        "d_list": (2.9, 5.5, 9.1), "omega_c_list": (0.05, 0.25, 0.5),
        "threads": 2})
    exponent = run_turnoff_scan(cfg).scalars.get("tau_ii_vs_d_exponent", math.nan)
    # canonical deep-medium reference point for the late-time decay rate
    point = _turnoff_point(default_config("turnoff_scan", {"turnoff_doubles": True}), 7.3, 0.5)
    return {"tau_ii_exponent": exponent, "late_decay_rate": point["tail_rate_gamma"]}


def test_criterion_06_two_photon_decay_scaling(two_photon_decay):
    exponent, rate = two_photon_decay["tau_ii_exponent"], two_photon_decay["late_decay_rate"]
    ok_exp = -1.25 <= exponent <= -0.75
    ok_rate = abs(rate - 1.0) <= 0.30
    ok = ok_exp and ok_rate
    assert _report(6, "two-photon decay scaling", ok,
                   f"tau_II ~ D^{exponent:.3f} (required -1 +- 0.25); late G2 decay "
                   f"rate {rate:.3f} Gamma at D~7.3, Omega=Gamma/2 (required 1 +- 0.3)")


def test_criterion_06_fingerprint(two_photon_decay):
    _check_fingerprint(6, two_photon_decay)


def test_criterion_07_shutoff_limits():
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)
    n20 = atoms_for_depth(20.0, p)
    gen = assemble_generator(p, build_chain(n20), BlockadeConfig.fully_blockaded(),
                             ControlSchedule.constant(0.5),
                             PulseEnvelope(duration=10.0))
    ss, n1 = steady_state(gen, omega_c=0.5), gen.index.dim_singles
    i_jump = abs(complex(gen.out_e @ ss[1:1 + n1])) ** 2
    g2t_jump = abs(complex(gen.a2vec @ ss[1 + n1:])) ** 2
    # superradiant flash at D ~ 23, Omega = Gamma/5
    p2 = PhysicalParams.from_ratio(0.2, omega_c_peak=0.2)
    n23 = atoms_for_depth(23.0, p2)
    gen2 = assemble_generator(p2, build_chain(n23), BlockadeConfig.fully_blockaded(),
                              ControlSchedule.constant(0.2),
                              PulseEnvelope(duration=10.0))
    ss2 = steady_state(gen2, omega_c=0.2)
    from scipy.linalg import expm
    prop = expm(gen2.operator(0.2, slots=gen2.index.singles).toarray() * 0.02)
    y = ss2[1:1 + gen2.index.dim_singles]
    peak = 0.0
    for _ in range(250):
        y = prop @ y
        peak = max(peak, abs(complex(gen2.out_e @ y)) ** 2)
    ok = i_jump < 0.05 and g2t_jump > 0.8 and peak > 1.0
    assert _report(7, "shutoff limits", ok,
                   f"I(tbar+) = {i_jump:.2e} (< 0.05), G2(tbar+) = {g2t_jump:.3f} "
                   f"(> 0.8) at D ~ 20; retrieval peak {peak:.3f} (> 1) at D ~ 23, "
                   f"Omega = Gamma/5")


ANTIBUNCHING_OMEGAS = (0.05, 0.25, 0.5)


@pytest.fixture(scope="module")
def antibunching():
    """Criterion 8's steady g2 at N = 5, 10 and 25 (D ~ 1.8, 3.6, 9.1), one
    row per N over ``ANTIBUNCHING_OMEGAS``, and its ratio to the closed form
    at Omega = Gamma/2 and N = 25, 35 and 45 (D ~ 9.1, 12.8, 16.4)."""
    n_list = (5, 10, 25)
    ratios = []
    for n in (25, 35, 45):
        g2, d = _g2ss_simulated(n, 0.5)
        ratios.append(g2 / _g2ss_closed_form(d, 0.5))
    return {"optical_depth": [optical_depth(build_chain(n), PhysicalParams.from_ratio(0.2))
                              for n in n_list],
            "g2_ss": [[_g2ss_simulated(n, om)[0] for om in ANTIBUNCHING_OMEGAS]
                      for n in n_list],
            "closed_form_ratio": ratios}


def test_criterion_08_steady_state_antibunching_structure(antibunching):
    oms, rows = ANTIBUNCHING_OMEGAS, antibunching["g2_ss"]
    dec_d = all(a > b for col in zip(*rows) for a, b in zip(col, col[1:]))
    inc_om = all(a < b for row in rows for a, b in zip(row, row[1:]))
    # high-D closed form at the canonical control value
    ratios = antibunching["closed_form_ratio"]
    formula_ok = all(0.5 <= r <= 2.0 for r in ratios)
    ok = dec_d and inc_om and formula_ok
    grid_txt = "; ".join(f"D~{d:.1f}: " + ",".join(f"{g:.3e}" for g in row)
                         for d, row in zip(antibunching["optical_depth"], rows))
    assert _report(8, "steady-state antibunching structure", ok,
                   f"decreasing in D: {dec_d}; increasing in Omega_c: {inc_om} "
                   f"(g2_ss rows over Omega={oms}: {grid_txt}); closed-form ratios "
                   f"at D>=9, Omega=Gamma/2: "
                   + ", ".join(f"{r:.2f}" for r in ratios) + " (required in [0.5,2])")


def test_criterion_08_fingerprint(antibunching):
    _check_fingerprint(8, antibunching)


def test_criterion_09_experiment_replica(replica_artifacts):
    bundle = replica_artifacts["bundle"]
    s = bundle.scalars
    wall = replica_artifacts["wall"]
    checks = {
        "transmission in [0.24,0.34]": 0.24 <= s["pulse_transmission"] <= 0.34,
        "fwhm within 20% of 2.3 MHz": abs(s["fwhm_mhz"] - 2.3) <= 0.2 * 2.3,
        "g2_ss in [0.25,0.35]": 0.25 <= s["g2_ss"] <= 0.35,
        "g2 at +400ns < 0.15": s["g2_at_400ns_after_shutoff"] < 0.15,
        "runtime < 15 min": wall < 900.0,
    }
    ok = all(checks.values())
    detail = (f"pulse transmission {s['pulse_transmission']:.3f} (CW peak "
              f"{s['eit_peak_transmission']:.3f}) vs [0.24,0.34]; FWHM "
              f"{s['fwhm_mhz']:.2f} MHz vs 2.3 +- 20%; g2_ss {s['g2_ss']:.3f} vs "
              f"[0.25,0.35]; g2(+400ns) {s['g2_at_400ns_after_shutoff']:.3f} < 0.15; "
              f"runtime {wall:.0f}s; subchecks: "
              + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert _report(9, "experiment replica", ok, detail)


def test_criterion_09_fingerprint(replica_artifacts):
    s = replica_artifacts["bundle"].scalars
    _check_fingerprint(9, {k: s[k] for k in ("pulse_transmission", "eit_peak_transmission",
                                             "fwhm_mhz", "g2_ss",
                                             "g2_at_400ns_after_shutoff")})


@pytest.fixture(scope="module")
def window_scan_bundle():
    cfg = default_config("window_scan", {
        "n_atoms": 28, "omega_c_mhz": 3.2, "gamma_r_mhz": 0.8,
        "mode": "power_law", "d_b": 0.9, "duration_ns": 1000.0,
        "rise_time_ns": 10.0, "dt_out_ns": 4.0,
        "delta_t_list_ns": (1300.0, 1150.0, 1000.0, 800.0, 680.0, 560.0,
                            450.0, 380.0, 330.0, 300.0),
    })
    return run_window_scan(cfg)


def _window_rows(bundle, shape):
    """(width, g2, generation probability) of each ok window of ``shape``,
    by ascending width."""
    return sorted((r[1], r[4], r[5]) for r in bundle.tables[0][2]
                  if r[0] == shape and r[-1] == "ok")


def test_criterion_10_window_scan_morphology(window_scan_bundle):
    sq = _window_rows(window_scan_bundle, "square")
    ga = _window_rows(window_scan_bundle, "gaussian")
    widths = [x[0] for x in sq]
    g2s = [x[1] for x in sq]
    monotone = all(a <= b + 1e-12 for a, b in zip(g2s, g2s[1:]))
    # gaussian above square at matched generation probability
    ga_p = np.array([x[2] for x in ga])
    ga_g = np.array([x[1] for x in ga])
    order = np.argsort(ga_p)
    ga_p, ga_g = ga_p[order], ga_g[order]
    above = []
    for _, g2_sq, p_sq in sq:
        if ga_p[0] <= p_sq <= ga_p[-1]:
            above.append(float(np.interp(p_sq, ga_p, ga_g)) >= g2_sq)
    ok = monotone and len(above) >= 3 and all(above)
    assert _report(10, "window-scan morphology", ok,
                   f"square g2 vs width {list(zip(widths, [round(g, 4) for g in g2s]))} "
                   f"monotone nonincreasing toward small windows: {monotone}; gaussian "
                   f">= square at {sum(above)}/{len(above)} matched generation "
                   f"probabilities")


def test_criterion_10_fingerprint(window_scan_bundle):
    _check_fingerprint(10, {shape: _window_rows(window_scan_bundle, shape)
                            for shape in ("square", "gaussian")})


def test_criterion_11_estimator_equivalence(replica_artifacts):
    grid = replica_artifacts["grid"]
    cfg = replica_artifacts["cfg"]
    budget = EfficiencyBudget()
    ideal = EfficiencyBudget(eta_path=1.0, eta1=1.0, eta2=1.0, split=0.5)

    # a cheap fully blockaded scene for one scenario
    p = PhysicalParams.from_ratio(0.2, omega_c_peak=0.5)
    genb = assemble_generator(p, build_chain(10), BlockadeConfig.fully_blockaded(),
                              ControlSchedule.constant(0.5),
                              PulseEnvelope(duration=30.0))
    trajb = evolve(genb, (0.0, 40.0), dt_out=0.25)
    gridb = correlation_grid(trajb, genb)

    flat_coh = _flat_scene(g2=1.0)
    flat_anti = _flat_scene(g2=0.3)

    scenarios = [
        ("coherent-flat", flat_coh, (0.0, ns_from_time(8.0)), 0.45, ideal),
        ("antibunched-flat", flat_anti, (0.0, ns_from_time(8.0)), 0.45, ideal),
        ("blockaded-D3.6", gridb, (0.0, ns_from_time(40.0)), 1.0, ideal),
        ("replica-full", grid, (0.0, 2200.0), cfg.n_in, budget),
        ("replica-midpulse", grid, (400.0, 600.0), cfg.n_in, budget),
    ]
    all_ok = True
    details = []
    for name, gr, w_ns, n_in, bud in scenarios:
        g = 6.0
        w = (time_from_ns(w_ns[0], g), time_from_ns(w_ns[1], g))
        quad = windowed_g2(gr, w, w)
        for seed in (101, 202, 303):
            stream = emulate_trials(gr, n_in, bud, 100000, seed)
            val, se = estimate_g2(stream, w_ns, w_ns)
            z = abs(val - quad) / se
            if z >= 3.0:
                all_ok = False
            details.append(f"{name}/s{seed}: z={z:.2f}")
    # unbiasedness: 20 seeds on the exactly coherent scene
    w_ns = (0.0, ns_from_time(8.0))
    vals = [estimate_g2(emulate_trials(flat_coh, 0.45, ideal, 100000, 1000 + k),
                        w_ns, w_ns)[0] for k in range(20)]
    mean = float(np.mean(vals))
    mean_ok = abs(mean - 1.0) < 0.01
    ok = all_ok and mean_ok
    assert _report(11, "estimator equivalence", ok,
                   f"all 15 scenario/seed z-scores < 3: {all_ok} "
                   f"({'; '.join(details)}); coherent 20-seed mean "
                   f"{mean:.4f} (required within 1% of 1)")


def test_criterion_12_dlcz_calculator():
    g2, pgen = dlcz_compare(0.025, 1.0, 1.0)
    exact = (g2 == 0.1 and pgen == 0.025)
    rng = np.random.default_rng(7)
    alg = True
    for _ in range(10):
        p = float(rng.uniform(0, 0.1))
        ed = float(rng.uniform(0, 1))
        er = float(rng.uniform(0, 1))
        a, b = dlcz_compare(p, ed, er)
        alg &= (a == 4.0 * p) and (b == p * ed * er)
    ok = exact and alg
    assert _report(12, "DLCZ calculator", ok,
                   f"(p=0.025, eta=1) -> ({g2}, {pgen}); 10 random algebraic "
                   f"identities hold: {alg}")


def test_criterion_13_manifest_determinism(tmp_path):
    from rydeit.cli import main
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["propagate", "--d", "1.8", "--duration-ns", "300",
                 "--out", str(a)]) == 0
    assert main(["propagate", "--config", str(a / "manifest.ini"),
                 "--out", str(b)]) == 0
    same_trace = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    c, d = tmp_path / "c", tmp_path / "d"
    assert main(["emulate-hbt", "--d", "1.8", "--duration-ns", "300",
                 "--n-trials", "5000", "--out", str(c)]) == 0
    assert main(["emulate-hbt", "--config", str(c / "manifest.ini"),
                 "--out", str(d)]) == 0
    same_stamps = (c / "timestamps.txt").read_bytes() == (d / "timestamps.txt").read_bytes()
    same_est = (c / "estimates.csv").read_bytes() == (d / "estimates.csv").read_bytes()
    ok = same_trace and same_stamps and same_est
    assert _report(13, "manifest determinism", ok,
                   f"trace byte-identical: {same_trace}; timestamps byte-identical: "
                   f"{same_stamps}; estimates byte-identical: {same_est}")
