import json
import math
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haselhand import (
    ContactAwareController,
    calibrate_threshold,
    default_config,
    detect_grasp,
    load_config,
    load_trace,
    record_baseline,
    resolve_scenario,
    run_grasp_episode,
    run_scenario,
)
from haselhand import cli as cli_module
from haselhand import plant as plant_module
from haselhand.cli import CAL_SEED_OFFSET, GRASP_SEED_OFFSET, N_CALIBRATION
from haselhand.cli import main as cli_main
from haselhand.config import (ProfileSpec, ScenarioPreset, SimConfig, config_from_dict,
                              config_to_dict, resolve_preset)
from haselhand.errors import ConfigError, DomainError, InsufficientDataError, ModelConsistencyError
from haselhand.plant import ChainSim, Plant, _slew
from haselhand.trace import FIXED_COLUMNS, json_text
from oracles import ScalarChain, equilibrium_contraction, onset_voltage, reconstruct_current, slew
from oracles import csv_text as csv_text_oracle


class TestVoltageProfile:
    def test_ramp_hold_midpoint(self):
        prof = ProfileSpec("ramp_hold", 5.5, 1.0)
        assert prof(0.5) == pytest.approx(2.75)

    def test_holds_target_after_ramp(self):
        prof = ProfileSpec("ramp_hold", 5.5, 1.0)
        assert prof(2.0) == 5.5

    def test_hold_zero(self):
        prof = ProfileSpec("hold", 0.0)
        assert all(prof(t) == 0.0 for t in (0.0, 0.5, 10.0))

    def test_target_above_ceiling_rejected(self, cfg):
        preset = ScenarioPreset(("index",),
                                profiles={"*": ProfileSpec("ramp_hold", 6.5, 1.0)},
                                amp_ceiling=6.0)
        with pytest.raises(ConfigError, match="ceiling"):
            resolve_preset(cfg, "over", preset)

    def test_nonpositive_ramp_rejected(self):
        with pytest.raises(ConfigError):
            ProfileSpec("ramp_hold", 5.5, 0.0)


class TestStep:
    def test_rest_is_a_fixed_point_at_zero_volts(self, cfg_nf):
        preset = ScenarioPreset(("thumb", "index"),
                                profiles={"*": ProfileSpec("hold", 0.0)},
                                duration=0.05)
        trace = run_scenario(resolve_preset(cfg_nf, "rest", preset), seed=0)
        assert all((x == 0.0).all() for x in trace.x.values())
        assert (trace.i_meas == 0.0).all()
        for tid, c in trace.c.items():
            assert (c == cfg_nf.stacks[tid].c0).all()

    def test_converged_hold_is_steady(self, cfg_nf):
        # After a long hold the stall point is reached: x and c freeze
        # and the noise-free current vanishes.
        preset = ScenarioPreset(("index",),
                                profiles={"*": ProfileSpec("ramp_hold", 5.5, 1.0)},
                                duration=3.0)
        sim = replace(cfg_nf.sim, duration=3.0)
        trace = run_scenario(replace(resolve_preset(cfg_nf, "hold_test", preset), sim=sim), seed=0)
        tail = slice(2700, 3001)
        for tid in trace.x:
            assert np.ptp(trace.x[tid][tail]) < 1e-6
        assert np.abs(trace.i_meas[tail]).max() < 1e-3

    def test_free_ramp_current_strictly_positive(self, free_trace_nf):
        ramp = (free_trace_nf.t > 0) & (free_trace_nf.t <= 1.0)
        assert (free_trace_nf.i_meas[ramp] > 0).all()

    def test_refined_integration_agrees(self, cfg_nf):
        # Oracle: the same model integrated ten times finer.
        preset = ScenarioPreset(("index",),
                                profiles={"*": ProfileSpec("ramp_hold", 5.5, 1.0)},
                                duration=2.0)
        scenario = resolve_preset(cfg_nf, "ref_test", preset)
        coarse = run_scenario(scenario, seed=0)
        fine_sim = SimConfig(dt_internal=1e-5, dt_sample=1e-3,
                             tau_mech=cfg_nf.sim.tau_mech, duration=2.0)
        fine = run_scenario(replace(scenario, sim=fine_sim), seed=0)
        for key in coarse.theta:
            a, b = coarse.theta[key][-1], fine.theta[key][-1]
            assert a == pytest.approx(b, rel=1e-3)
        ramp = (coarse.t > 0) & (coarse.t <= 1.0)
        assert (fine.i_meas[ramp] > 0).all()

    def test_contact_freezes_capacitance(self, cube_trace_nf, free_trace_nf):
        # Well after contact the capacitance stops changing while the
        # free-motion hand is still moving.
        c_grasp = cube_trace_nf.c["index_mcp"]
        c_free = free_trace_nf.c["index_mcp"]
        dc_grasp = abs(c_grasp[1400] - c_grasp[1300])
        dc_free_peak = abs(c_free[1000] - c_free[900])
        assert dc_grasp < 0.01 * dc_free_peak

    def test_current_drops_toward_charging_term_after_contact(
            self, cube_trace_nf, free_trace_nf):
        # Late in the ramp the motion term v dC/dt has collapsed: the
        # constrained current sits near C dv/dt while the free-motion
        # current still carries its full motion component.
        k = 980
        motion_grasp = cube_trace_nf.i_meas[k] - cube_trace_nf.c["index_mcp"][k] * 5.5
        motion_free = free_trace_nf.i_meas[k] - free_trace_nf.c["index_mcp"][k] * 5.5
        assert motion_free > 5.0
        assert motion_grasp < 0.15 * motion_free


class TestRunScenario:
    def test_deterministic_traces(self, cfg):
        scenario = resolve_scenario(cfg, "pinch_cube")
        a = run_scenario(scenario, seed=11).to_csv_text()
        b = run_scenario(scenario, seed=11).to_csv_text()
        assert a == b

    def test_different_seeds_differ(self, cfg):
        scenario = resolve_scenario(cfg, "free_motion")
        a = run_scenario(scenario, seed=0)
        b = run_scenario(scenario, seed=1)
        assert not np.array_equal(a.i_meas, b.i_meas)

    def test_mcp_saturates_near_thirty_degrees(self, free_trace_nf):
        final = math.degrees(free_trace_nf.theta["index_mcp"][-1])
        assert 25.0 <= final <= 35.0

    def test_zero_duration_single_row(self, cfg):
        preset = ScenarioPreset(("index",),
                                profiles={"*": ProfileSpec("hold", 0.0)},
                                duration=0.0)
        trace = run_scenario(resolve_preset(cfg, "zero", preset), seed=0)
        assert len(trace) == 1
        assert trace.t[0] == 0.0

    def test_zero_duration_walk_asks_commander_once(self, cfg):
        # One sample: the commander sees no current and may only name 0.
        preset = ScenarioPreset(("index",),
                                profiles={"*": ProfileSpec("hold", 2.0)},
                                duration=0.0)
        scenario = resolve_preset(cfg, "zero", preset)
        for k in (None, 0):
            seen = []
            trace = run_scenario(scenario, 0, lambda i, k=k: seen.append(len(i)) or k)
            assert seen == [0]
            held = [{"t": 0.0, "v_held": 2.0}] if k == 0 else []
            assert trace.meta["events"]["hold"] == held

    def test_row_count_and_uniform_grid(self, free_trace_nf):
        sim_dt = free_trace_nf.meta["dt_sample"]
        duration = free_trace_nf.meta["duration"]
        assert len(free_trace_nf) == round(duration / sim_dt) + 1
        assert np.allclose(np.diff(free_trace_nf.t), sim_dt)

    def test_unknown_preset_rejected_before_simulation(self, cfg):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_scenario(cfg, "no_such_grasp")

    def test_negative_seed_is_refused_before_a_plant_is_built(self, cfg):
        # numpy's seeded generators take no negative seed.
        scenario = resolve_scenario(cfg, "pinch_cube")
        with mock.patch.object(plant_module, "Plant") as built:
            with pytest.raises(ConfigError, match="seed -1 must be >= 0"):
                run_scenario(scenario, seed=-1)
        built.assert_not_called()

    # A library caller gets the refusal alone, as a CLI user does: numpy's
    # overflow warning on the way to it is silenced.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_refused_without_a_warning(self):
        doc = config_to_dict(default_config())
        doc["stacks"]["index_mcp"]["c0"] = 1e308
        cfg = config_from_dict(doc)
        with pytest.raises(DomainError, match=re.escape(
                "scenario pinch_cube: non-finite value inf in column 'i_meas(uA)' at sample 0")):
            run_scenario(resolve_scenario(cfg, "pinch_cube"), seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_non_finite_value_is_named_in_file_order(self):
        # A huge noise overflows v_meas, and the huge c0 makes i_meas and
        # every c_index_mcp value infinite: v_meas comes first in the file.
        doc = config_to_dict(default_config())
        doc["stacks"]["index_mcp"]["c0"] = 1e308
        doc["amplifier"]["monitor_noise_v"] = 1e308
        cfg = config_from_dict(doc)
        with pytest.raises(DomainError, match="^" + re.escape(
                "scenario pinch_cube: non-finite value -inf in column 'v_meas(kV)' "
                "at sample 6") + "$"):
            run_scenario(resolve_scenario(cfg, "pinch_cube"), seed=0)


    @pytest.mark.parametrize("preset", [name for name, p in default_config().presets.items()
                                        if p.controller != "contact_aware"])
    def test_run_is_its_records_noise_free_trace_with_the_seed(self, cfg_nf, preset):
        # Without monitor noise a run adds nothing but its seed: every other
        # column is the record's, byte for byte, and v_meas and i_meas are
        # the record's plus a zero noise (which turns -0.0 into 0.0).
        scenario = resolve_scenario(cfg_nf, preset)
        plant = Plant(scenario)
        trace = run_scenario(scenario, 7, plant=plant)
        free = plant.noise_free()
        per_seed = [FIXED_COLUMNS["v_meas"], FIXED_COLUMNS["i_meas"]]
        for (name, a), (free_name, b) in zip(trace.columns(), free.columns(), strict=True):
            assert name == free_name
            if name in per_seed:
                assert np.array_equal(a, b), name
            else:
                assert a.tobytes() == b.tobytes(), name
        assert "seed" not in free.meta and trace.meta == {**free.meta, "seed": 7}


class TestTraceInvariants:
    def test_deadband_no_motion_below_onset(self, cfg, free_trace_nf):
        # Below the lowest breakaway-equivalent voltage of the engaged
        # chains the stiction gate keeps every joint parked.
        engaged = list(free_trace_nf.x)
        onset = min(onset_voltage(cfg, tid) for tid in engaged)
        assert onset > 3.0
        below = free_trace_nf.v_cmd < onset - 1e-9
        assert below.sum() > 100
        half_deg = math.radians(0.5)
        for theta in free_trace_nf.theta.values():
            assert (theta[below] < half_deg).all()

    def test_voltage_ceiling_respected(self, cfg):
        scenario = resolve_scenario(cfg, "free_motion")
        trace = run_scenario(scenario, seed=5)
        limit = scenario.amplifier.v_ceiling + 6 * scenario.amplifier.monitor_noise_v
        assert (trace.v_meas <= limit).all()

    def test_noise_free_eq1_reconstruction(self, free_trace_nf, cube_trace_nf):
        for trace in (free_trace_nf, cube_trace_nf):
            rec = reconstruct_current(trace, "index_mcp")
            err = trace.i_meas[1:-1] - rec[1:-1]
            rms = float(np.sqrt(np.mean(err ** 2)))
            peak = float(np.abs(trace.i_meas).max())
            assert rms <= 0.01 * peak

    def test_one_step_per_sample_reconstructs_current_exactly(self, cfg_nf):
        # With dt_internal == dt_sample the monitor's differences are the
        # sampled ones: central inside the run, one-sided at its ends.
        sim = replace(cfg_nf.sim, dt_internal=cfg_nf.sim.dt_sample)
        trace = run_scenario(replace(resolve_scenario(cfg_nf, "pinch_cube"), sim=sim), seed=0)
        stack = trace.meta["monitored_stack"]
        v, c, i, dt = trace.v_meas, trace.c[stack], trace.i_meas, sim.dt_sample
        assert np.array_equal(i[1:-1], reconstruct_current(trace, stack)[1:-1])
        assert i[0] == c[0] * ((v[1] - v[0]) / dt) + v[0] * ((c[1] - c[0]) / dt)
        assert i[-1] == c[-1] * ((v[-1] - v[-2]) / dt) + v[-1] * ((c[-1] - c[-2]) / dt)

    def test_contact_causality(self, cfg):
        # The current may only collapse below half the matched free
        # trace after the object has entered the force balance.
        for seed in range(3):
            grasp = run_scenario(resolve_scenario(cfg, "pinch_cube"), seed=seed)
            free = run_scenario(
                resolve_scenario(cfg, "pinch_cube", drop_object=True), seed=seed)
            t_flag = min(grasp.meta["events"]["first_contact"].values())
            dropped = np.nonzero(grasp.i_meas < 0.5 * free.i_meas)[0]
            if len(dropped):
                assert grasp.t[dropped[0]] >= t_flag

    def test_contact_force_only_with_flagging(self, cube_trace_nf):
        meta_contacts = cube_trace_nf.meta["events"]["first_contact"]
        for key, fc in cube_trace_nf.f_contact.items():
            if fc.max() > 0:
                assert key in meta_contacts
                first_force_t = cube_trace_nf.t[int(np.argmax(fc > 0))]
                assert meta_contacts[key] <= first_force_t


class TestStallSolverAgainstBisection:
    def test_matches_reference_solver(self, cfg):
        # The plant's exact piecewise walk and the generic bisection
        # must land on the same stall point for the same load.
        scenario = resolve_scenario(cfg, "pinch_cube")
        for spec in scenario.chains:
            chain = ChainSim(spec, scenario.obj)
            fb = spec.path.f_breakaway
            for v in (4.2, 4.8, 5.2, 5.5):
                a = (v / spec.stack.v_ref) ** 2
                x_fast = chain.stall_target(a, fb)
                load = lambda x: chain._load_at(x) + fb
                x_ref = equilibrium_contraction(spec.stack, v, load)
                x_ref = min(x_ref, chain.x_cap)
                assert x_fast == pytest.approx(x_ref, abs=1e-5)

    def test_tables_hold_python_floats(self, cfg):
        # The x recurrence runs in Python against x_cap, and the stall
        # walk multiplies by the table's columns one by one; numpy
        # scalars there would slow every step.
        scenario = resolve_scenario(cfg, "pinch_cube")
        for chain in Plant(scenario).chains:
            values = chain.xs + chain.fs + chain.ls + [chain.x_cap]
            values += [v for row in chain.contact.values() for v in row]
            assert {type(v) for v in values} == {float}


def index_mcp_chain() -> ChainSim:
    """The default index MCP chain, free of any object, at rest."""
    spec = next(c for c in resolve_scenario(default_config(), "free_motion").chains
                if c.tendon_id == "index_mcp")
    return ChainSim(spec, None)


def run_against_oracle(chain: ChainSim, v: np.ndarray, dt_over_tau: float) -> None:
    """ChainSim.run and the scalar oracle from the same state agree bit
    for bit on every step's x, stall target and running residual."""
    oracle = ScalarChain(chain)
    x, target, residual = chain.run(v, dt_over_tau)
    ref = [(oracle.advance(vj, dt_over_tau), oracle.x, oracle.max_residual) for vj in v.tolist()]
    ref_target, ref_x, ref_residual = (np.array(col) for col in zip(*ref))
    assert x.tobytes() == ref_x.tobytes()
    assert target.tobytes() == ref_target.tobytes()
    assert residual.tobytes() == ref_residual.tobytes()
    assert (chain.x, chain.max_residual) == (oracle.x, oracle.max_residual)


def record_pushed_runs(monkeypatch) -> list[tuple[float, int]]:
    """Each pushed run ChainSim.run takes from now on, as its direction
    (+1.0 up, -1.0 down: the sign of its stall walk's offset, signed
    zero included) and the steps its walk spans; held runs walk nothing.
    A walk's own call for its distinct scales is not a run."""
    runs, depth = [], [0]
    real = ChainSim.stall_walk

    def recorded(chain, a, offset):
        if depth[0] == 0:
            runs.append((math.copysign(1.0, offset), len(a)))
        depth[0] += 1
        try:
            return real(chain, a, offset)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ChainSim, "stall_walk", recorded)
    return runs


@st.composite
def voltage_pieces(draw, v_top: float) -> np.ndarray:
    """Applied voltages (kV): ramps, holds, slew-limited climbs and drops
    below onset, one after another."""
    v, out = draw(st.floats(0.0, v_top)), []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("ramp", "hold", "slew", "drop")))
        n = draw(st.integers(1, 600))
        if kind == "ramp":
            piece = np.linspace(v, draw(st.floats(0.0, v_top)), n + 1)[1:].tolist()
        elif kind == "hold":
            piece = [v] * n
        elif kind == "slew":
            level, step, piece = draw(st.floats(0.0, v_top)), draw(st.floats(1e-4, 0.05)), []
            for _ in range(n):
                v = min(v + step, level) if level > v else max(v - step, level)
                piece.append(v)
        else:
            piece = [draw(st.floats(0.0, 0.3 * v_top))] * n
        out += piece
        v = out[-1]
    return np.array(out)


@st.composite
def kernel_cases(draw):
    """A chain with a drawn breakpoint table, parameters and start state,
    a voltage sequence and a relaxation fraction."""
    chain = index_mcp_chain()
    n = draw(st.integers(2, 6))
    xs = np.cumsum([0.0] + draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1, max_size=n - 1)))
    fs = draw(st.floats(1.0, 40.0)) - np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.0, 8.0), min_size=n - 1, max_size=n - 1)))
    ls = draw(st.floats(0.0, 10.0)) + np.cumsum(
        [0.0] + draw(st.lists(st.floats(0.0, 8.0), min_size=n - 1, max_size=n - 1)))
    chain.tabulate(xs.tolist(), np.maximum(fs, 0.0).tolist(), ls.tolist())
    chain.f_breakaway = draw(st.floats(0.0, 2.0))
    chain.exponent = draw(st.sampled_from((2.0, 1.5)))
    chain.x = draw(st.sampled_from((0.0, draw(st.floats(0.05, 0.95)) * chain.x_cap)))
    chain.window = draw(st.sampled_from((1, 7, 256)))
    v = draw(voltage_pieces(1.1 * chain.v_ref))
    return chain, v, draw(st.sampled_from((1.0, 0.5, 1 / 800)))


class TestRunKernel:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_run_matches_scalar_oracle(self, case):
        chain, v, dt_over_tau = case
        run_against_oracle(chain, v, dt_over_tau)

    # Edges random tables rarely reach. Flat: net is 0 on all of [1, 2],
    # and the first breakpoint with r <= 0 names the root 1.0. Overshoot:
    # from 0.0464 a full step to the stroke cap 2.9 rounds past it.
    @pytest.mark.parametrize("xs, fs, ls, x0, dt_over_tau", [
        ([0.0, 1.0, 2.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0], 0.0, 1 / 800),
        ([0.0, 2.9], [10.0, 10.0], [0.0, 1.0], 0.0464, 1.0),
    ], ids=["flat_net_segment", "overshoot_at_stroke_cap"])
    def test_exact_edges_match_scalar_oracle(self, monkeypatch, xs, fs, ls, x0, dt_over_tau):
        assert 0.0464 + (2.9 - 0.0464) * 1.0 > 2.9
        chain = index_mcp_chain()
        chain.tabulate(xs, fs, ls)
        chain.f_breakaway, chain.x = 0.0, x0
        runs = record_pushed_runs(monkeypatch)
        run_against_oracle(chain, np.full(3, chain.v_ref), dt_over_tau)
        assert runs == [(1.0, 3)]  # one run, pushed up without friction

    def test_push_reversal_starts_a_new_run(self, monkeypatch):
        # Pushed up at mid-stroke, then the voltage drops to 0: the first
        # step at 0 V is pushed down, which breaks the run there and
        # starts a pushed-down run that holds to the end.
        chain = index_mcp_chain()
        oracle = ScalarChain(chain)
        fb = chain.f_breakaway
        chain.x = 0.5 * oracle.stall_target(1.0, fb)
        assert oracle.net(1.0, chain.x) > fb and oracle.net(0.0, chain.x) < -fb
        runs = record_pushed_runs(monkeypatch)
        run_against_oracle(chain, np.array([chain.v_ref] * 100 + [0.0] * 100), 1 / 800)
        assert runs == [(1.0, 200), (-1.0, 100)]

    @pytest.mark.parametrize("ls", [[0.0, math.inf], [math.inf, math.inf]],
                             ids=["inf_at_cap", "inf_at_rest"])
    def test_non_finite_load_raises(self, time_limit, ls):
        # inf * 0 or inf - inf makes net NaN, which fits no run mode: the
        # kernel must say so rather than take runs of no steps forever.
        chain = index_mcp_chain()
        with np.errstate(invalid="ignore"):
            chain.tabulate([0.0, 2.9], [10.0, 10.0], ls)
            with pytest.raises(DomainError, match=re.escape(
                    "chain index_mcp: net force nan N at x = 0.0 mm is not finite")):
                chain.run(np.full(3, chain.v_ref), 1 / 800)


@st.composite
def slew_cases(draw):
    """Commands (kV) in ramps, holds, steps and noise, reaching below 0 and
    above the ceiling, with a start voltage in [0, ceiling], a slew limit
    per step from none at all to more than any jump, and a ceiling."""
    ceiling = draw(st.sampled_from((0.0, 6.0)) | st.floats(0.0, 10.0))
    level = st.sampled_from((0.0, -0.0, ceiling)) | st.floats(-1.0, ceiling + 1.0)
    v = draw(st.sampled_from((0.0, -0.0, ceiling)) | st.floats(0.0, ceiling))
    dv_max = draw(st.sampled_from((0.0, 5e-324, 1e-4, 100.0)) | st.floats(1e-9, 1.0))
    n = draw(st.integers(1, 500))
    cmd: list[float] = []
    while len(cmd) < n:
        kind = draw(st.sampled_from(("ramp", "hold", "step", "noise")))
        size = draw(st.integers(1, n - len(cmd)))
        last = cmd[-1] if cmd else v
        if kind == "ramp":
            cmd += np.linspace(last, draw(level), size + 1)[1:].tolist()
        elif kind == "hold":
            cmd += [last] * size
        elif kind == "step":
            cmd += [draw(level)] * size
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            cmd += (draw(level) + draw(st.floats(0.0, 1.0)) * rng.standard_normal(size)).tolist()
    return np.array(cmd), v, dv_max, ceiling


def count_clamps(monkeypatch) -> list[int]:
    """_clamp calls from now on: three per run of _slew."""
    clamps = [0]
    real = plant_module._clamp

    def counted(a, lo, hi):
        clamps[0] += 1
        return real(a, lo, hi)

    monkeypatch.setattr(plant_module, "_clamp", counted)
    return clamps


class TestSlew:
    # The example: without a slew limit, -0.0 from 0.0 is a tracking step
    # to 0.0 + -0.0 = 0.0, and a signed zero, once wrong, would stay so.
    @given(slew_cases())
    @example((np.array([-0.0, -1.0, 1.0]), 0.0, 0.0, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_slew_matches_loop_oracle(self, case):
        cmd, v, dv_max, ceiling = case
        assert _slew(cmd, v, dv_max, ceiling).tobytes() == slew(cmd, v, dv_max, ceiling).tobytes()

    def test_command_above_the_ceiling_holds_in_doubling_runs(self, monkeypatch):
        # Held at the ceiling, each slewing run's candidate is the ceiling
        # throughout, so runs double as in ChainSim.run: 256 + 512 + 1024
        # + 2048 + 1160 steps, three clamps each.
        clamps = count_clamps(monkeypatch)
        v = _slew(np.full(5000, 9.0), 6.0, 0.01, 6.0)
        assert (v == 6.0).all()
        assert clamps[0] == 3 * 5

    def test_command_of_negative_zero_tracks_in_doubling_runs(self, monkeypatch):
        # A step toward -0.0 gives 0.0, and so does the tracking candidate,
        # so runs double: 256 + 512 + ... + 8192 + 3872 steps, three clamps
        # each. A candidate of -0.0 would fail at every step.
        clamps = count_clamps(monkeypatch)
        v = _slew(np.full(20000, -0.0), 0.0, 0.01, 6.0)
        assert v.tobytes() == np.zeros(20000).tobytes()
        assert clamps[0] == 3 * 7

    def test_ramp_at_the_slew_limit_closes_in_few_runs(self, monkeypatch):
        # A 6 kV / 1 s ramp slewed at 6 kV/s alternates between tracking and
        # slewing every few steps. Cut at its first wrong step, each run kept
        # 2-5 of them: 484 runs over the 20,000 steps. Re-evaluated on its
        # own steps, a run closes in 12 runs (38 evaluations here).
        calls, real = [], plant_module._clamp

        def counted(a, lo, hi):
            calls.append(lo)
            return real(a, lo, hi)

        monkeypatch.setattr(plant_module, "_clamp", counted)
        cmd = ProfileSpec("ramp_hold", 6.0, 1.0)(np.arange(1, 20001) * 1e-4)
        dv_max = 6.0 * 1e-4
        v = _slew(cmd, 0.0, dv_max, 6.0)
        assert v.tobytes() == slew(cmd, 0.0, dv_max, 6.0).tobytes()
        # One clamp builds a run's candidate, two evaluate the step.
        evaluations = calls.count(-dv_max)
        runs = len(calls) - 2 * evaluations
        assert runs <= 20 and evaluations <= 60


def _episode_bytes(report):
    """What an episode writes: the bytes of every trace column (its CSV is
    a function of them and their names), the trace meta and the report."""
    columns = [(name, np.asarray(values, dtype=float).tobytes())
               for name, values in report.trace.columns()]
    return columns, json_text(report.trace.meta), json_text(report.to_dict())


def count_steps(monkeypatch) -> list[int]:
    """Internal steps the chain kernel is asked to take, from now on."""
    steps = [0]
    real = ChainSim.run

    def counted(chain, v, dt_over_tau):
        steps[0] += len(v)
        return real(chain, v, dt_over_tau)

    monkeypatch.setattr(ChainSim, "run", counted)
    return steps


def run_alone(chain, schedule):
    """A kernel key no other chain has: every chain is stepped alone."""
    return id(chain)


TWIN_FINGERS = {name: layout.tendon_ids for name, layout in default_config().fingers.items()}


@st.composite
def twin_presets(draw):
    """A preset whose chains repeat one another: the index finger and one to
    three of its twins (the same stacks and routing), with or without the
    thumb and an object. Each stack runs one of two schedules, the same
    for a stack's twins, except that one twin stack may take the other."""
    twins = ("index", *draw(st.lists(st.sampled_from(("middle", "ring", "pinky")),
                                     min_size=1, max_size=3, unique=True)))
    fingers = ("thumb", *twins) if draw(st.booleans()) else twins
    schedules = [ProfileSpec("ramp_hold", draw(st.floats(4.0, 5.5)), draw(st.floats(0.3, 0.9)))
                 for _ in range(2)]
    roles = [draw(st.sampled_from(schedules)) for _ in TWIN_FINGERS["index"]]
    profiles = {"*": schedules[0]}
    for finger in twins:
        profiles.update(zip(TWIN_FINGERS[finger], roles))
    if draw(st.booleans()):
        stack = draw(st.sampled_from([s for f in twins[1:] for s in TWIN_FINGERS[f]]))
        profiles[stack] = schedules[profiles[stack] is schedules[0]]
    if "thumb" in fingers:
        profiles.update((stack, draw(st.sampled_from(schedules)))
                        for stack in TWIN_FINGERS["thumb"])
    obj = draw(st.sampled_from((None, "cube", "stuffed_toy", "paper_balloon")))
    return ScenarioPreset(fingers, obj=obj, profiles=profiles, duration=1.0)


class TestSharedKernels:
    """Chains alike in table and schedule share one kernel; each chain's
    trace columns, the meta and the report are those of chains stepped
    alone, open loop and closed (where a hold keeps the kernels). The runs
    alone take a config of their own, whose memo holds no record."""

    @given(twin_presets(), st.sampled_from(("none", "contact_aware")), st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_twin_chains_match_chains_run_alone(self, cfg, preset, controller, seed):
        config = replace(cfg, presets={**cfg.presets, "twins": preset})
        scenario = resolve_scenario(config, "twins")
        assert len(Plant(scenario).kernels) < len(scenario.chains)
        shared = run_grasp_episode(config, "twins", seed, controller=controller)
        with mock.patch.object(plant_module, "_kernel_key", run_alone):
            alone = run_grasp_episode(replace(config), "twins", seed, controller=controller)
        assert _episode_bytes(shared) == _episode_bytes(alone)

    @pytest.mark.parametrize("preset, kernels", [("power_grasp_bottle", 4), ("tripod_toy", 4)])
    def test_shipped_hold_resumes_shared_kernels(self, cfg, preset, kernels):
        # 10 and 6 chains; closed loop, both presets hold before the end.
        assert len(Plant(resolve_scenario(cfg, preset)).kernels) == kernels
        shared = run_grasp_episode(cfg, preset, 3, controller="contact_aware")
        assert shared.trace.meta["events"]["hold"]
        with mock.patch.object(plant_module, "_kernel_key", run_alone):
            alone = run_grasp_episode(replace(cfg), preset, 3, controller="contact_aware")
        assert _episode_bytes(shared) == _episode_bytes(alone)


class TestScheduleIdentity:
    """Plant keys kernels and applied voltages by ProfileSpec.identity: a
    hold's unread ramp_s does not split them, and -0.0 is not 0.0."""

    def test_holds_differing_in_ramp_share_one_voltage_and_their_kernels(self, cfg):
        preset = ScenarioPreset(("index", "middle"), profiles={
            "*": ProfileSpec("hold", 3.0, 1.0), "middle_mcp": ProfileSpec("hold", 3.0, 2.0)})
        plant = Plant(resolve_preset(cfg, "holds", preset))
        # index and middle have equal tables: one kernel per tendon role.
        assert len(plant.volts) == 1
        assert len(plant.kernels) == 2

    def test_signed_zero_hold_keeps_the_monitored_chains_bits(self, cfg):
        # thumb_mcp, the first schedule, commands 0.0; the monitored chain -0.0.
        preset = ScenarioPreset(("thumb", "index"), profiles={
            "*": ProfileSpec("hold", 0.0), "index_mcp": ProfileSpec("hold", -0.0)})
        scenario = resolve_preset(cfg, "zeros", preset)

        def hold_at_100(i_meas):
            return 100 if len(i_meas) >= 100 else None

        full, alone = (run_scenario(s, 0, hold_at_100)
                       for s in (scenario, scenario.monitored()))
        assert alone.v_cmd.tobytes() == np.full(len(alone.t), -0.0).tobytes()
        assert full.v_cmd.tobytes() == alone.v_cmd.tobytes()
        (held,), (held_alone,) = (t.meta["events"]["hold"] for t in (full, alone))
        assert math.copysign(1.0, held_alone["v_held"]) == -1.0
        assert np.float64(held["v_held"]).tobytes() == np.float64(held_alone["v_held"]).tobytes()
        assert json_text(full.meta["events"]) == json_text(alone.meta["events"])


def differing_columns(a, b) -> list[str]:
    """Names of the columns whose bits differ between traces a and b, or
    that only one of them has."""
    x, y = dict(a.columns()), dict(b.columns())
    return [name for name in {**x, **y}
            if name not in x or name not in y or x[name].tobytes() != y[name].tobytes()]


def hold_at(k):
    """Stub commander that holds at sample k as soon as it may name it."""
    return lambda i_meas: k if len(i_meas) >= k else None


class TestMechanicsCache:
    """A caller keeps the open-loop mechanics of a scenario by passing one
    Plant to each of its runs (run_scenario's plant): a warm record. A
    closed-loop run decides on it and holds a copy, so it stays open loop."""

    @pytest.mark.parametrize("preset", tuple(default_config().presets))
    def test_warm_cache_matches_cold_run(self, cfg, cfg_nf, preset):
        # Runs that share one Plant find it stepped and assembled by the
        # runs before them, open loop or closed, with a hold early, late,
        # at once, never (the run ends first) or again at an earlier run's
        # sample, whose held trace the record keeps. Cold runs build their own.
        commanders = [hold_at(120), hold_at(1700), None, hold_at(0), hold_at(10 ** 6),
                      hold_at(120)]
        if preset == "balloon_hold":
            commanders.append(ContactAwareController(
                record_baseline(cfg, preset), cfg.detection).command)
        for config, seeds in ((cfg, (3, 4)), (cfg_nf, (3,))):
            scenario = resolve_scenario(config, preset)
            shared = Plant(scenario)
            for seed in seeds:
                for commander in commanders:
                    warm = run_scenario(scenario, seed, commander, plant=shared)
                    cold = run_scenario(scenario, seed, commander)
                    assert differing_columns(warm, cold) == [], seed
                    assert json_text(warm.meta) == json_text(cold.meta), seed
                    assert shared.hold is None
            assert shared.end == shared.n_samples - 1
            assert {0, 120, 1700} <= shared.free.keys()

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((None, 40, 120))),
                    min_size=1, max_size=5), st.data())
    @settings(max_examples=20, deadline=None)
    def test_traces_of_one_record_encode_as_the_oracle(self, cfg, runs, data):
        # Open-loop runs and runs held at repeated and at new samples share
        # one record. Each trace, encoded any number of times in any order,
        # is one repr per cell of its columns.
        scenario = replace(resolve_scenario(cfg, "pinch_cube"), duration=0.2)
        plant = Plant(scenario)
        traces = [run_scenario(scenario, seed, None if k is None else hold_at(k), plant=plant)
                  for seed, k in runs]
        want = [csv_text_oracle(trace.columns()) for trace in traces]
        for i in data.draw(st.lists(st.integers(0, len(traces) - 1), min_size=1, max_size=12)):
            assert traces[i].to_csv_text() == want[i]

    def test_closed_loop_run_on_a_shared_plant_leaves_it_open_loop(self, cfg):
        # A closed-loop run steps the shared record to its end and keeps
        # its open-loop trace, which the next run finds; the hold works on
        # a copy, so an open-loop run after it is the fresh open-loop run.
        scenario = resolve_scenario(cfg, "balloon_hold")
        plant = Plant(scenario)
        held = run_scenario(scenario, 3, hold_at(850), plant=plant)
        assert differing_columns(held, run_scenario(scenario, 3, hold_at(850))) == []
        assert held.meta["events"]["hold"][0]["t"] == pytest.approx(0.85)
        assert plant.hold is None and plant.end == plant.n_samples - 1
        assert plant.free.keys() == {None, 850}
        assert plant.free[None].meta["events"]["hold"] == []
        open_loop = run_scenario(scenario, 3, plant=plant)
        assert differing_columns(open_loop, run_scenario(scenario, 3)) == []
        assert open_loop.meta["events"]["hold"] == []

    def test_an_extend_that_raised_steps_again_from_its_end(self, cfg, monkeypatch):
        # The second kernel raises once, after the first has stepped: the
        # record is still the record at its end, and steps on from there.
        scenario = resolve_scenario(cfg, "pinch_cube")
        plant, real, calls = Plant(scenario), ChainSim.run, []
        assert len(plant.kernels) > 1

        def fails_once(chain, v, dt_over_tau):
            calls.append(chain)
            if len(calls) == 2:
                raise DomainError("injected")
            return real(chain, v, dt_over_tau)

        monkeypatch.setattr(ChainSim, "run", fails_once)
        with pytest.raises(DomainError, match="injected"):
            plant.extend()
        assert plant.end == 0
        got, want = plant.noise_free(), Plant(scenario).noise_free()
        assert differing_columns(got, want) == []
        assert json_text(got.meta) == json_text(want.meta)

    def test_plant_of_another_scenario_or_sim_is_refused(self, cfg):
        scenario = resolve_scenario(cfg, "pinch_cube")
        plant = Plant(scenario)
        # An equal scenario or sim is not enough: == takes -0.0 for 0.0.
        twin, sim = resolve_scenario(cfg, "pinch_cube"), replace(cfg.sim)
        assert twin == scenario and sim == cfg.sim
        for other in (twin, replace(scenario, sim=sim)):
            with pytest.raises(ValueError, match="another scenario object"):
                run_scenario(other, 0, plant=plant)
        assert plant.end == 0

    def test_detect_batch_steps_each_class_once(self, cfg, monkeypatch, tmp_path):
        # Each class is stepped once, and only its monitored chain: one
        # kernel for detect_free and one for detect_cube. Each is stepped
        # through the window's last sample and one more sample only.
        calls = count_steps(monkeypatch)
        assert cli_main(["detect-batch", "--free", "2", "--grasp", "2",
                         "--out", str(tmp_path)]) == 0
        samples = round(cfg.detection.window[1] / cfg.sim.dt_sample) + 1
        steps = samples * cfg.sim.steps_per_sample
        assert steps == 9910
        assert calls[0] == (1 + 1) * steps

    def test_detect_batch_assembles_each_class_once(self, monkeypatch, tmp_path):
        # The seed-free columns, noise-free current among them, are built
        # once per class however many episodes share its record, and the
        # built-in config keeps both records for a later call.
        real, assembled = Plant.current, []

        def counted(plant):
            assembled.append(plant)
            return real(plant)

        monkeypatch.setattr(Plant, "current", counted)
        built = []
        for n in ("2", "5"):
            assembled.clear()
            assert cli_main(["detect-batch", "--free", n, "--grasp", n,
                             "--out", str(tmp_path / n)]) == 0
            built.append(len(assembled))
        assert built == [2, 0]

    def test_traces_of_one_plant_share_read_only_columns(self, cfg):
        scenario = resolve_scenario(cfg, "pinch_cube")
        plant = Plant(scenario)
        first, second = (run_scenario(scenario, seed, plant=plant) for seed in (1, 2))
        free = plant.noise_free()
        texts = [(t.to_csv_text(), json_text(t.meta)) for t in (second, free)]
        shared = [(name, a) for (name, a), (_, b) in zip(first.columns(), second.columns())
                  if a is b]
        per_seed = [FIXED_COLUMNS["v_meas"], FIXED_COLUMNS["i_meas"]]
        assert [name for name, _ in shared] == [name for name, _ in first.columns()
                                                if name not in per_seed]
        for name, values in shared:
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        # The column dicts are each trace's own, and so are the meta's
        # nested dicts and lists.
        first.x["index_mcp"] = np.zeros(len(first))
        del first.theta["index_mcp"]
        meta = first.meta
        assert meta["events"]["first_contact"] and meta["events"]["hold"] == []
        meta["events"]["first_contact"].clear()
        meta["events"]["hold"].append({"t": 0.0, "v_held": 0.0})
        meta["final_x_target"]["index_mcp"] = -1.0
        meta["noise"]["v"] = -1.0
        meta["controller_modes"]["final"] = "holding"
        assert [(t.to_csv_text(), json_text(t.meta)) for t in (second, free)] == texts

    def test_runs_copy_meta_entries_they_do_not_name(self, cfg):
        # A run names no meta entry but its seed: what the record's trace
        # holds reaches every run by value, at every depth.
        scenario = resolve_scenario(cfg, "pinch_cube")
        plant = Plant(scenario)
        free = plant.noise_free()
        free.meta["events"]["first_force"] = {"index_mcp": 0.25}
        free.meta["probe"] = {"levels": [{"k": 1.0}]}
        first, second = (run_scenario(scenario, seed, plant=plant) for seed in (1, 2))
        for trace in (first, second):
            assert trace.meta["events"]["first_force"] == {"index_mcp": 0.25}
            assert trace.meta["probe"] == {"levels": [{"k": 1.0}]}
        texts = [json_text(t.meta) for t in (second, free)]
        first.meta["events"]["first_force"]["index_mcp"] = -1.0
        first.meta["probe"]["levels"][0]["k"] = -1.0
        first.meta["probe"]["levels"].append({})
        assert [json_text(t.meta) for t in (second, free)] == texts

    def test_runs_check_the_columns_their_noise_leaves_alone(self, cfg):
        # The check reads the returned trace: a value a run does not compute
        # is checked too, and the first in file order is named.
        scenario = resolve_scenario(cfg, "pinch_cube")
        plant = Plant(scenario)
        free = plant.noise_free()
        at_5 = np.arange(len(free)) == 5
        free.c["index_mcp"] = np.where(at_5, np.nan, free.c["index_mcp"])
        with pytest.raises(DomainError, match=re.escape(
                "non-finite value nan in column 'c_index_mcp(nF)' at sample 5")):
            run_scenario(scenario, 0, plant=plant)
        free.v_cmd = np.where(at_5, np.inf, free.v_cmd)
        with pytest.raises(DomainError, match=re.escape(
                "non-finite value inf in column 'v_cmd(kV)' at sample 5")):
            run_scenario(scenario, 1, plant=plant)

    @pytest.mark.parametrize("failure, k", [
        pytest.param("residual", None, id="residual"),
        pytest.param("held residual", 850, id="residual-held"),
        pytest.param("residual", 850, id="residual-closed"),
        pytest.param("finiteness", None, id="finiteness")])
    def test_failing_record_fails_every_run(self, cfg, monkeypatch, failure, k):
        # A check that fails on a record, or on its copy held from sample
        # k, is never kept as passed: a second run on the same Plant, held
        # there too, raises the same error. The record keeps no trace whose
        # assembly raised; the finiteness check reads each run's trace. A
        # held copy fails alone once the record's own trace has passed and
        # is kept. A closed-loop run decides on the record's open-loop
        # trace, so on a record that fails it raises the open-loop run's
        # error, its commander never called.
        config, error = cfg, ModelConsistencyError
        if failure == "finiteness":  # test_cli's huge_c0: the noise-free current overflows
            stack = replace(cfg.stacks["index_mcp"], c0=1e308)
            config, error = replace(cfg, stacks={**cfg.stacks, "index_mcp": stack}), DomainError
        scenario = resolve_scenario(config, "pinch_cube")
        plant, calls = Plant(scenario), []
        if failure == "held residual":
            run_scenario(scenario, 0, plant=plant)
            assert None in plant.free
        if failure != "finiteness":
            monkeypatch.setattr(plant_module, "STALL_RESIDUAL_TOL_N", -1.0)

        def commander(i_meas):
            calls.append(len(i_meas))
            return hold_at(k)(i_meas)

        messages = []
        for seed in (0, 0, 1):
            with pytest.raises(error) as exc, np.errstate(over="ignore", invalid="ignore"):
                run_scenario(scenario, seed, None if k is None else commander, plant=plant)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert plant.end == plant.n_samples - 1
        assert (k in plant.free) == (failure == "finiteness")
        assert (None in plant.free) == (failure != "residual")
        if k is not None:
            assert calls == ([] if failure == "residual" else 3 * [plant.n_samples - 1])
        if failure != "finiteness":
            assert "stall residual" in messages[0]
        if failure == "residual":
            with pytest.raises(error) as exc:
                run_scenario(scenario, 2, plant=plant)
            assert messages[0] == str(exc.value)
        if failure == "finiteness":
            assert messages[0] == ("scenario pinch_cube: non-finite value inf "
                                   "in column 'i_meas(uA)' at sample 0")

    def test_controlled_grasp_computes_each_current_once(self, monkeypatch, tmp_path):
        # The baseline, the episode's open-loop record and its copy held
        # near sample 886 each assemble their whole run of 2,001 samples
        # once.
        real, samples = Plant.current, []

        def counted(plant):
            out = real(plant)
            samples.append(len(out))
            return out

        monkeypatch.setattr(Plant, "current", counted)
        assert cli_main(["grasp", "--preset", "balloon_hold", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        assert samples == 3 * [2001]

    def test_controlled_grasp_slews_each_schedule_once_per_record(self, monkeypatch, tmp_path):
        # balloon_hold runs one schedule: its applied voltage is computed
        # once for the baseline record, once for the episode record, and
        # once more from the hold on.
        real, calls = plant_module._slew, [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(plant_module, "_slew", counted)
        assert cli_main(["grasp", "--preset", "balloon_hold", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        assert calls[0] == 3

    def test_controlled_grasp_steps_the_record_and_its_held_copy(self, cfg, monkeypatch,
                                                                 tmp_path):
        # Baseline (the monitored chain alone: 1 kernel) plus the episode's
        # open-loop record (4 kernels), each stepped whole, plus the copy
        # held from sample 886 on.
        calls = count_steps(monkeypatch)
        assert cli_main(["grasp", "--preset", "balloon_hold", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        steps = round(cfg.sim.duration / cfg.sim.dt_internal)
        held = (2000 - 886) * cfg.sim.steps_per_sample
        assert calls[0] == (1 + 4) * steps + 4 * held

    def test_warm_closed_loop_run_decides_once_and_steps_nothing(self, cfg, monkeypatch):
        # A run at a new seed that holds where an earlier run held (seeds 3
        # and 4242 both at 0.886 s) finds the record stepped and both of its
        # traces kept: its commander is called once, and no chain steps.
        scenario = resolve_scenario(cfg, "balloon_hold")
        ctrl = ContactAwareController(record_baseline(cfg, "balloon_hold"), cfg.detection)
        plant = Plant(scenario)
        run_scenario(scenario, 3, ctrl.command, plant=plant)
        calls, steps = [], count_steps(monkeypatch)

        def commander(i_meas):
            calls.append(len(i_meas))
            return ctrl.command(i_meas)

        warm = run_scenario(scenario, 4242, commander, plant=plant)
        assert calls == [plant.n_samples - 1] and steps == [0]
        assert warm.meta["events"]["hold"][0]["t"] == pytest.approx(0.886)
        cold = run_scenario(scenario, 4242, ctrl.command)
        assert differing_columns(warm, cold) == []


class TestMonitoredChain:
    """Each chain moves on its own, so a scenario narrowed to its monitored
    chain (Scenario.monitored) gives the full scenario's monitored current
    and that chain's columns, bit for bit: detect-batch and the baseline
    step it alone."""

    MONITORED = ("t", "v_cmd", "v_meas", "i_meas")

    @pytest.mark.parametrize("preset", tuple(default_config().presets))
    def test_monitored_chain_alone_gives_the_same_bits(self, cfg, preset):
        for drop_object in (False, True):
            full = resolve_scenario(cfg, preset, drop_object=drop_object)
            alone, stack = full.monitored(), full.monitored_stack
            assert [c.tendon_id for c in alone.chains] == [stack]
            plants = Plant(full), Plant(alone)
            for seed in (0, 3, 4242):
                want, got = (run_scenario(p.scenario, seed, plant=p) for p in plants)
                for name in self.MONITORED:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                for group in ("x", "c"):
                    assert getattr(got, group)[stack].tobytes() == \
                        getattr(want, group)[stack].tobytes(), group
                for key in ("profile_hash", "scenario", "monitored_stack"):
                    assert got.meta[key] == want.meta[key], key

    def test_baseline_holds_the_monitored_chain_only(self, cfg, tmp_path):
        scenario = resolve_scenario(cfg, "balloon_hold")
        (chain,) = scenario.monitored().chains
        baseline = record_baseline(cfg, "balloon_hold")
        assert set(baseline.x) == set(baseline.c) == {scenario.monitored_stack}
        assert set(baseline.theta) == set(baseline.f_contact) == set(chain.joint_keys)
        loaded = load_trace(baseline.save(tmp_path / "baseline.csv"))
        assert loaded.to_csv_text() == baseline.to_csv_text()
        assert json_text(loaded.meta) == json_text(baseline.meta)


BASE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "base_config.json"
BATCH_FILES = ("detect_batch_summary.json", "detector.json")


def reference_batch(cfg, seed: int, n_free: int, n_grasp: int) -> dict[str, str]:
    """The texts of detect-batch's two files, built from full-duration
    episodes of each class's monitored chain by calibrate_threshold and
    detect_grasp."""
    full = {cls: resolve_scenario(cfg, preset).monitored()
            for cls, preset in (("free", "detect_free"), ("grasp", "detect_cube"))}

    def runs(cls, seed0, n):
        return [run_scenario(full[cls], s) for s in range(seed0, seed0 + n)]

    cal_free = runs("free", seed + CAL_SEED_OFFSET, N_CALIBRATION)
    cal_grasp = runs("grasp", seed + CAL_SEED_OFFSET + 500, N_CALIBRATION)
    threshold = calibrate_threshold(cal_free, cal_grasp, cfg.detection)
    det = replace(cfg.detection, i_threshold=threshold)
    counts, misclassified = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}, []
    for cls, n, seed0 in (("free", n_free, seed), ("grasp", n_grasp, seed + GRASP_SEED_OFFSET)):
        for trace in runs(cls, seed0, n):
            grasped, expected = detect_grasp(trace, det)[0], cls == "grasp"
            counts[("t" if grasped == expected else "f") + ("p" if grasped else "n")] += 1
            if grasped != expected:
                misclassified.append({"class": cls, "seed": trace.meta["seed"]})
    fingerprint = full["free"].config_fingerprint
    summary = {
        "config_hash": fingerprint, "threshold_ua": threshold,
        "n_free": n_free, "n_grasp": n_grasp, "counts": counts,
        "correct": counts["tp"] + counts["tn"], "total": n_free + n_grasp,
        "misclassified": misclassified, "seed": seed,
    }
    detector = {
        "monitored_stack": det.monitored_stack, "i_threshold": threshold,
        "window": list(det.window), "smoothing": det.smoothing, "debounce": det.debounce,
        "profile_hash": cal_free[0].meta["profile_hash"], "config_hash": fingerprint,
    }
    return {"detect_batch_summary.json": json_text(summary), "detector.json": json_text(detector)}


def with_detect_duration(tmp_path, duration: float, cube_duration=None) -> Path:
    """The default config with its detect presets lasting duration (s),
    detect_cube cube_duration if given."""
    doc = config_to_dict(default_config())
    doc["presets"]["detect_free"]["duration"] = duration
    doc["presets"]["detect_cube"]["duration"] = cube_duration or duration
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestDetectionWindow:
    """detect-batch steps each class only through the detection window's
    last sample and one sample more. The mechanics, the noise and the
    smoothing are stable on a prefix, so its files are those built from
    full-duration episodes, byte for byte."""

    def batch(self, tmp_path, seed, n_free, n_grasp, config=None) -> dict[str, str]:
        argv = ["detect-batch", "--free", str(n_free), "--grasp", str(n_grasp),
                "--seed", str(seed), "--out", str(tmp_path / "out")]
        assert cli_main(argv + (["--config", str(config)] if config else [])) == 0
        return {name: (tmp_path / "out" / name).read_text() for name in BATCH_FILES}

    @pytest.mark.parametrize("config", [None, BASE_CONFIG], ids=["default", "base_config"])
    @pytest.mark.parametrize("seed", [0, 3, 4242])
    @pytest.mark.parametrize("n_free, n_grasp", [(1, 1), (2, 1), (5, 5)])
    def test_files_equal_full_duration_reference(self, tmp_path, config, seed, n_free, n_grasp):
        cfg = load_config(config) if config else default_config()
        assert self.batch(tmp_path, seed, n_free, n_grasp, config) == \
            reference_batch(cfg, seed, n_free, n_grasp)

    def test_classified_traces_are_full_runs_through_the_window(self, cfg, tmp_path,
                                                                monkeypatch):
        # The last window sample keeps its central-difference current; only
        # the one after it, which no window reads, takes a one-sided one.
        seen, real = [], cli_module.detect_grasp
        monkeypatch.setattr(cli_module, "detect_grasp",
                            lambda trace, det: seen.append(trace) or real(trace, det))
        self.batch(tmp_path, 3, 1, 1)
        last = round(cfg.detection.window[1] / cfg.sim.dt_sample)
        assert len(seen) == 2
        for trace in seen:
            full = run_scenario(resolve_scenario(cfg, trace.meta["scenario"]).monitored(),
                                trace.meta["seed"])
            assert len(trace) == last + 2
            assert trace.i_meas[:last + 1].tobytes() == full.i_meas[:last + 1].tobytes()

    @pytest.mark.parametrize("durations, error", [
        ((0.95, None), InsufficientDataError),
        ((2.0, 1.5), ConfigError),
    ], ids=["ending_inside_the_window", "differing_per_class"])
    def test_refused_durations_exit_2_as_with_full_runs(self, tmp_path, capsys, durations,
                                                        error):
        # Traces of two durations mix profiles even where their prefixes
        # through the window agree.
        path = with_detect_duration(tmp_path, *durations)
        cfg = load_config(path)
        free, cube = (resolve_scenario(cfg, preset).monitored()
                      for preset in ("detect_free", "detect_cube"))
        with pytest.raises(error) as exc:
            calibrate_threshold([run_scenario(free, 0)],
                                [run_scenario(cube, 1)], cfg.detection)
        out = tmp_path / "out"
        assert cli_main(["detect-batch", "--free", "1", "--grasp", "1",
                         "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert not out.exists()

    def test_duration_equal_to_the_window_end_steps_the_whole_run(self, tmp_path, monkeypatch):
        path = with_detect_duration(tmp_path, 0.99)
        cfg = load_config(path)
        calls = count_steps(monkeypatch)
        files = self.batch(tmp_path, 3, 2, 1, path)
        assert calls[0] == (1 + 1) * round(0.99 / cfg.sim.dt_internal)
        assert files == reference_batch(cfg, 3, 2, 1)

    def test_check_failing_past_the_horizon_fails_grasp_only(self, cfg, tmp_path, capsys,
                                                              monkeypatch):
        # Every kernel reports a stall residual above the bound after the
        # internal steps detect-batch takes: only a run stepped further fails.
        horizon = (round(cfg.detection.window[1] / cfg.sim.dt_sample) + 1) \
            * cfg.sim.steps_per_sample
        real = ChainSim.run

        def late_fault(chain, v, dt_over_tau):
            x, target, residual = real(chain, v, dt_over_tau)
            k0 = getattr(chain, "stepped", 0)
            chain.stepped = k0 + len(v)
            late = np.arange(k0 + 1, k0 + len(v) + 1) > horizon
            return x, target, np.where(late, 1.0, residual)

        monkeypatch.setattr(ChainSim, "run", late_fault)
        out = tmp_path / "out"
        assert cli_main(["detect-batch", "--free", "2", "--grasp", "2",
                         "--out", str(out / "batch")]) == 0
        capsys.readouterr()
        assert cli_main(["grasp", "--preset", "detect_cube", "--seed", "3",
                         "--out", str(out / "grasp")]) == 3
        assert "stall residual" in capsys.readouterr().err
        assert not (out / "grasp").exists()
