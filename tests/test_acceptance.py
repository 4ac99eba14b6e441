"""Acceptance suite: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
line and the measured value for every criterion.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from haselhand import (
    Plant,
    StackConfig,
    TendonPath,
    active_force,
    excursion_of,
    resolve_scenario,
    run_grasp_episode,
    run_scenario,
)
from haselhand.cli import main as cli_main
from haselhand.config import SimConfig, config_to_dict
from oracles import reconstruct_current

# Collected from every trace this suite simulates; checked by criterion 8.
_RESIDUALS: list[tuple[str, float]] = []


def _track(trace):
    _RESIDUALS.append((trace.meta["scenario"], trace.meta["max_equilibrium_residual_n"]))
    return trace


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _eq1_rms_ratio(trace, stack: str) -> float:
    rec = reconstruct_current(trace, stack)
    err = trace.i_meas[1:-1] - rec[1:-1]
    rms = float(np.sqrt(np.mean(err ** 2)))
    peak = float(np.abs(trace.i_meas).max())
    return rms / peak


def test_criterion_1_force_curve_fidelity():
    cfg = StackConfig(force_knots=((0.0, 25.3), (6.0, 2.0)),
                      v_ref=5.5, x_free=12.0, c0=0.4, c_slope=0.1, v_max=6.0)
    exact = (active_force(cfg, 5.5, 0.0) == 25.3 and
             active_force(cfg, 5.5, 6.0) == 2.0)
    grid = [active_force(cfg, 5.5, 0.1 * k) for k in range(121)]
    monotone = all(b <= a + 1e-12 for a, b in zip(grid, grid[1:]))
    _report("criterion 1 (force-curve fidelity)", exact and monotone,
            f"F(5.5kV,0)={active_force(cfg, 5.5, 0.0)} N, "
            f"F(5.5kV,6)={active_force(cfg, 5.5, 6.0)} N, monotone={monotone}")


def test_criterion_2_eq1_consistency(cfg_nf, free_trace_nf, cube_trace_nf):
    traces = {
        "free_motion": _track(free_trace_nf),
        "pinch_cube": _track(cube_trace_nf),
        "balloon_uncontrolled": _track(run_scenario(
            Plant(resolve_scenario(cfg_nf, "balloon_hold", controller="none")), seed=0)),
        "power_grasp_bottle": _track(run_scenario(
            Plant(resolve_scenario(cfg_nf, "power_grasp_bottle")), seed=0)),
    }
    ratios = {name: _eq1_rms_ratio(tr, tr.meta["monitored_stack"])
              for name, tr in traces.items()}
    worst = max(ratios.values())
    _report("criterion 2 (displacement-current consistency)", worst <= 0.01,
            "reconstruction RMS/peak per noise-free trace: "
            + ", ".join(f"{k}={v:.5f}" for k, v in ratios.items()))


def test_criterion_3_stroke_amplification():
    path = TendonPath(pulley_ratio=2.0, eta_fwd=1.0, f_breakaway=0.0, slack=0.0)
    ok = excursion_of(path, 6.0) == 12.0 and excursion_of(path, 8.5) == 17.0
    _report("criterion 3 (stroke amplification)", ok,
            f"6 mm -> {excursion_of(path, 6.0)} mm, 8.5 mm -> {excursion_of(path, 8.5)} mm")


def test_criterion_4_characterization_regression(tmp_path):
    t0 = time.time()
    out = tmp_path / "char"
    assert cli_main(["characterize", "--out", str(out)]) == 0
    meta = json.loads((out / "characterize.meta.json").read_text())
    tip_i = meta["fingertip_n"]["index"]
    tip_t = meta["fingertip_n"]["thumb"]
    sat = meta["saturation_deg"]["index_mcp"]
    onset = min(v for v in meta["onset_voltage_kv"].values() if v is not None)

    rows = (out / "voltage_angle_index.csv").read_text().splitlines()
    header = rows[0].split(",")
    vi = header.index("v_cmd(kV)")
    theta_cols = [j for j, h in enumerate(header) if h.startswith("theta_")]
    half_deg = math.radians(0.5)
    deadband_ok, n_below = True, 0
    for row in rows[1:]:
        vals = [float(x) for x in row.split(",")]
        if vals[vi] < onset - 1e-9:
            n_below += 1
            deadband_ok &= all(vals[j] < half_deg for j in theta_cols)

    elapsed = time.time() - t0
    ok = (abs(tip_i - 0.53) <= 0.15 * 0.53 and abs(tip_t - 0.26) <= 0.15 * 0.26
          and 25.0 <= sat <= 35.0 and deadband_ok and n_below > 100
          and elapsed < 10.0)
    _report("criterion 4 (characterization regression)", ok,
            f"index {tip_i:.3f} N (0.53±15%), thumb {tip_t:.3f} N (0.26±15%), "
            f"MCP saturation {sat:.2f} deg (30±5), deadband below "
            f"{onset:.2f} kV over {n_below} samples, runtime {elapsed:.1f} s")


def test_criterion_5_grasp_detection_batch(tmp_path):
    t0 = time.time()
    out = tmp_path / "batch"
    code = cli_main(["detect-batch", "--free", "25", "--grasp", "25",
                     "--seed", "0", "--out", str(out)])
    summary = json.loads((out / "detect_batch_summary.json").read_text())
    elapsed = time.time() - t0
    clean = code == 0 and summary["correct"] == 50 and summary["total"] == 50

    # Failure path: 100x current-monitor noise must break calibration or
    # produce reported misclassifications.
    doc = config_to_dict(__import__("haselhand").default_config())
    doc["amplifier"]["monitor_noise_i"] *= 100
    noisy_cfg = tmp_path / "noisy.json"
    noisy_cfg.write_text(json.dumps(doc))
    out2 = tmp_path / "noisy_batch"
    code2 = cli_main(["detect-batch", "--free", "1", "--grasp", "1",
                      "--seed", "0", "--config", str(noisy_cfg), "--out", str(out2)])
    if code2 == 0:
        noisy_summary = json.loads((out2 / "detect_batch_summary.json").read_text())
        failure_exercised = bool(noisy_summary["misclassified"])
        failure_mode = f"misclassified {len(noisy_summary['misclassified'])}"
    else:
        failure_exercised = code2 == 4
        failure_mode = f"calibration failure (exit {code2})"

    ok = clean and failure_exercised and elapsed < 30.0
    _report("criterion 5 (grasp-detection batch)", ok,
            f"{summary['correct']}/50 correct at default noise in {elapsed:.1f} s, "
            f"threshold {summary['threshold_ua']:.2f} uA; 100x noise -> {failure_mode}")


def test_criterion_6_contact_aware_safety(cfg):
    t0 = time.time()
    f_crush = cfg.objects["paper_balloon"].f_crush

    held_all, safe_all, max_on = True, True, 0.0
    for seed in range(25):
        rep = run_grasp_episode(cfg, "balloon_hold", seed=seed)
        _track(rep.trace)
        held_all &= rep.verdicts["held"]
        safe_all &= rep.verdicts["max_contact_force"] < f_crush
        max_on = max(max_on, rep.verdicts["max_contact_force"])

    exceed_all, min_off = True, float("inf")
    for seed in range(25):
        rep = run_grasp_episode(cfg, "balloon_hold", seed=seed, controller="none")
        _track(rep.trace)
        exceed_all &= rep.verdicts["max_contact_force"] > f_crush
        min_off = min(min_off, rep.verdicts["max_contact_force"])

    elapsed = time.time() - t0
    ok = held_all and safe_all and exceed_all and elapsed < 30.0
    _report("criterion 6 (contact-aware safety)", ok,
            f"25/25 held with max force {max_on:.3f} N < f_crush {f_crush} N; "
            f"disabled controller min force {min_off:.3f} N > f_crush; "
            f"runtime {elapsed:.1f} s")


def test_criterion_7_determinism(tmp_path):
    pairs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["grasp", "--preset", "pinch_cube", "--seed", "4",
                         "--out", str(out)]) == 0
        assert cli_main(["characterize", "--out", str(out)]) == 0
        assert cli_main(["detect-batch", "--free", "1", "--grasp", "1",
                         "--seed", "2", "--out", str(out)]) == 0
        assert cli_main(["replay", "--trace", str(out / "pinch_cube_seed4.csv"),
                         "--detector", str(out / "detector.json"),
                         "--out", str(out)]) == 0
        pairs.append(out)
    names = ["pinch_cube_seed4.csv", "pinch_cube_seed4.report.json",
             "voltage_angle_index.csv", "fingertip_force.csv",
             "detect_batch_summary.json", "detector.json",
             "pinch_cube_seed4.verdict.json"]
    mismatched = [n for n in names
                  if (pairs[0] / n).read_bytes() != (pairs[1] / n).read_bytes()]
    _report("criterion 7 (determinism)", not mismatched,
            f"byte-identical re-runs for {len(names)} output files"
            + (f"; mismatched: {mismatched}" if mismatched else ""))


def test_criterion_8_solver_and_integration_sanity(cfg_nf):
    # Residuals collected from every trace the suite simulated.
    worst = max((r for _, r in _RESIDUALS), default=0.0)
    residual_ok = worst <= 1e-6 and len(_RESIDUALS) >= 50

    # Halving the internal step barely moves the final joint angles.
    scenario = resolve_scenario(cfg_nf, "pinch_cube")
    coarse = run_scenario(Plant(scenario), seed=0)
    halved = SimConfig(dt_internal=cfg_nf.sim.dt_internal / 2,
                       dt_sample=cfg_nf.sim.dt_sample,
                       tau_mech=cfg_nf.sim.tau_mech,
                       duration=cfg_nf.sim.duration)
    fine = run_scenario(Plant(replace(scenario, sim=halved)), seed=0)
    rel_changes = []
    for key in coarse.theta:
        a, b = coarse.theta[key][-1], fine.theta[key][-1]
        if b != 0:
            rel_changes.append(abs(a - b) / abs(b))
    refine_ok = max(rel_changes) < 1e-3

    ok = residual_ok and refine_ok
    _report("criterion 8 (solver/integration sanity)", ok,
            f"max equilibrium residual {worst:.2e} N over {len(_RESIDUALS)} runs; "
            f"max angle change on halved dt {max(rel_changes):.2e}")
