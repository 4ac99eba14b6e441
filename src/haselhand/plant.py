"""Closed quasi-static plant simulated at 10 kHz, sampled at 1 kHz.

Each actuator chain (stack -> pulley -> tendon -> joints -> object) is
reduced to a scalar force balance in the stack contraction x. The load
reflected onto the actuator is piecewise linear in x: the passive
extensor plus any object contact torques, both mapped through the joint
radii and the pulley. Static friction enters as a breakaway offset, so
the contraction the chain is actually heading for is the point where

    active_force(v, x) - load(x) = +/- f_breakaway,

and x relaxes toward that stall point with a first-order time constant.
Holding x whenever the net force is inside the breakaway band is what
produces both the low-voltage deadband and the reduced saturation angle.

Because every term is piecewise linear in x, the stall point is found
exactly by walking the precomputed breakpoint table, which keeps the
per-step cost low enough for the 10 kHz loop in pure Python. The
general bisection solver in the actuator module is the slow reference
implementation; the two are cross-checked in the test suite.

The chain geometry (x -> theta map, stroke cap, contact onsets) comes
from config.ChainSpec and the contact law from kinematics.contact_force:
ChainSim's load table and run_scenario's theta/f_contact columns call
them on whole arrays.

run_scenario is the only stepping code: Plant builds the per-chain
tables (ChainSim) once per run, and run_scenario runs one loop over the
sample periods. The commands are schedules, evaluated once per distinct
profile; the contact-aware hold is an edit to them (every channel keeps
its previous sample's command), so the step loop itself never asks
whether the plant is holding.

Monitor synthesis: the drawn current of the monitored stack (chosen in
config.resolve_preset) is evaluated from the step-level finite
differences of capacitance and applied voltage around each sample
instant (central inside the run, one-sided at its ends), then Gaussian
monitor noise is added from a seeded generator, so runs are
reproducible byte-for-byte.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

import numpy as np

from .actuator import capacitance_of, displacement_current, reference_force
from .config import ChainSpec, Scenario, SimConfig, profile_hash
from .kinematics import contact_force
from .trace import SignalTrace
from .transmission import excursion_of, extensor_tension, reflected_load


# ---------------------------------------------------------------------------
# Per-chain piecewise force balance
# ---------------------------------------------------------------------------

class ChainSim:
    """Precomputed piecewise-linear force balance for one actuator chain.

    Tables are built once per scenario: contraction breakpoints with the
    reference force and the reflected load at each, as Python floats for
    the step loop. Contact onsets of the driven joints (the chain spec's
    contact table) appear as breakpoints, so the load table already
    contains the object.
    """

    def __init__(self, spec: ChainSpec, obj):
        self.spec = spec
        self.v_ref = spec.stack.v_ref
        self.exponent = spec.stack.force_exponent
        self.f_breakaway = spec.path.f_breakaway
        self.c0 = spec.stack.c0
        self.c_slope = spec.stack.c_slope
        self.x_cap = spec.x_cap
        self.contact = spec.contact_table(obj)

        # Breakpoints: the ends of the stroke and, inside it, the end of
        # the slack, the force knots and the contact onsets.
        inner = [spec.x_at(0.0), *(kx for kx, _ in spec.stack.force_knots),
                 *(x_on for x_on, _, _, _ in self.contact.values())]
        self.xs = sorted({0.0, self.x_cap, *(x for x in inner if 0.0 < x < self.x_cap)})
        self.fs = [reference_force(spec.stack, x) for x in self.xs]
        self.ls = self._load_at(np.array(self.xs)).tolist()
        self.x = 0.0
        self.v_applied = 0.0
        self.max_residual = 0.0
        # One-entry memo: the tables are static, so a repeated voltage
        # scale (hold phases) reuses its stall point.
        self._memo: tuple[float, float, float] | None = None

    def _load_at(self, x):
        """Reflected actuator load (N) at contraction x (float or array),
        excluding friction: the extensor plus each contact force's moment
        about the group radius, through the pulley."""
        spec = self.spec
        theta = spec.theta_at(x)
        tension = extensor_tension(spec.path, excursion_of(spec.path, x))
        for _, theta_on, k_obj, phalanx in self.contact.values():
            tension = tension + contact_force(k_obj, theta_on, theta) * phalanx / spec.radius
        return reflected_load(spec.path, tension)

    def net(self, a: float, x: float) -> float:
        """Active force minus load at contraction x for voltage scale a."""
        xs, fs, ls = self.xs, self.fs, self.ls
        if x <= xs[0]:
            return a * fs[0] - ls[0]
        if x >= xs[-1]:
            return a * fs[-1] - ls[-1]
        j = bisect_right(xs, x) - 1
        w = (x - xs[j]) / (xs[j + 1] - xs[j])
        f = fs[j] + (fs[j + 1] - fs[j]) * w
        load = ls[j] + (ls[j + 1] - ls[j]) * w
        return a * f - load

    def stall_target(self, a: float, offset: float) -> float:
        """Exact root of net(a, x) = offset on the breakpoint table.

        net is non-increasing in x, so the first breakpoint where the
        residual goes negative brackets the root; within a segment the
        residual is linear and solved directly. Clamps to [0, x_cap]
        when the root lies outside.
        """
        xs, fs, ls = self.xs, self.fs, self.ls
        r_prev = a * fs[0] - ls[0] - offset
        if r_prev <= 0.0:
            return 0.0
        for j in range(1, len(xs)):
            r = a * fs[j] - ls[j] - offset
            if r <= 0.0:
                x_t = xs[j - 1] + (xs[j] - xs[j - 1]) * r_prev / (r_prev - r)
                res = abs(self.net(a, x_t) - offset)
                if res > self.max_residual:
                    self.max_residual = res
                return x_t
            r_prev = r
        return self.x_cap

    def advance(self, v_applied: float, dt_over_tau: float) -> float:
        """One internal step: move x toward the friction-aware stall point."""
        a = v_applied / self.v_ref
        a = a * a if self.exponent == 2.0 else a ** self.exponent
        x = self.x
        net = self.net(a, x)
        fb = self.f_breakaway
        if -fb <= net <= fb:
            return x
        offset = fb if net > fb else -fb
        memo = self._memo
        if memo is not None and memo[0] == a and memo[1] == offset:
            target = memo[2]
        else:
            target = self.stall_target(a, offset)
            self._memo = (a, offset, target)
        x += (target - x) * dt_over_tau
        if x < 0.0:
            x = 0.0
        elif x > self.x_cap:
            x = self.x_cap
        self.x = x
        return target


class Plant:
    """The resolved scenario's chain tables, built once per run."""

    def __init__(self, scenario: Scenario, sim: SimConfig):
        self.scenario = scenario
        self.sim = sim
        self.chains = [ChainSim(spec, scenario.obj) for spec in scenario.chains]
        self.by_id = {c.spec.tendon_id: c for c in self.chains}


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def run_scenario(
    scenario: Scenario,
    sim: SimConfig,
    seed: int,
    commander: Optional[Callable[[float, Optional[float]], bool]] = None,
) -> SignalTrace:
    """Simulate a scenario and return its 1 kHz monitor trace.

    Deterministic for a fixed seed: the monitor noise comes from one
    seeded generator consumed in sample order, so identical runs produce
    identical traces byte-for-byte.

    Each sample period is one iteration: the commander's decision at the
    sample instant, the state standing there, the internal steps up to
    the next sample, then the monitor sample. The commands are schedules
    evaluated once per distinct profile, at the sample instants (the
    v_cmd column) and at the internal steps (what the amplifier follows).

    commander, when given, is consulted once per sample period with
    (t, previous sample's measured current or None) until it returns
    True. A hold at sample k overwrites the rest of every schedule with
    its value at sample k - 1 (at sample 0 for k = 0), limited to the
    amplifier ceiling, and the commander is not consulted again. The
    hold instant and the monitored channel's held voltage are recorded
    as the trace's hold event.
    """
    rng = np.random.default_rng(seed)
    plant = Plant(scenario, sim)
    chains = plant.chains
    mon = plant.by_id[scenario.monitored_stack]

    dt = sim.dt_internal
    sps = sim.steps_per_sample
    n_samples = round(scenario.duration / sim.dt_sample) + 1
    n_internal = (n_samples - 1) * sps
    dt_over_tau = dt / sim.tau_mech
    dv_max = scenario.amplifier.slew_max * dt
    ceiling = scenario.amplifier.v_ceiling
    sigma_v = scenario.amplifier.monitor_noise_v
    sigma_i = scenario.amplifier.monitor_noise_i

    # profile -> (schedule at the sample instants, at the internal steps).
    # Chains with equal profiles share the lists.
    t_samples = [k * sim.dt_sample for k in range(n_samples)]
    schedules = {p: ([p(t) for t in t_samples], [p(n * dt) for n in range(n_internal + 1)])
                 for p in dict.fromkeys(c.spec.profile for c in chains)}
    step_cmds = [schedules[c.spec.profile][1] for c in chains]
    v_cmd = schedules[mon.spec.profile][0]

    # Internal histories of the monitored channel (for the finite
    # differences at sample instants); per-chain state at the samples.
    v_hist = [0.0] * (n_internal + 1)
    c_hist = [capacitance_of(mon.spec.stack, 0.0)] * (n_internal + 1)
    x_at = [[0.0] * n_samples for _ in chains]
    xt_at = [[0.0] * n_samples for _ in chains]
    targets = [0.0] * len(chains)
    v_meas = np.zeros(n_samples)
    i_meas = np.zeros(n_samples)
    hold_events: list[dict[str, float]] = []
    i_last: Optional[float] = None

    for k in range(n_samples):
        idx = k * sps
        if commander is not None and not hold_events and commander(t_samples[k], i_last):
            for at_samples, at_steps in schedules.values():
                v_held = min(at_samples[max(k - 1, 0)], ceiling)
                at_samples[k:] = [v_held] * (n_samples - k)
                at_steps[idx + 1:] = [v_held] * (n_internal - idx)
            hold_events.append({"t": t_samples[k], "v_held": v_cmd[k]})
        for ci, ch in enumerate(chains):
            x_at[ci][k] = ch.x
            xt_at[ci][k] = targets[ci]
        for n in range(idx + 1, min(idx + sps, n_internal) + 1):
            for ci, ch in enumerate(chains):
                v_prev = ch.v_applied
                dv = min(max(step_cmds[ci][n] - v_prev, -dv_max), dv_max)
                v = min(max(v_prev + dv, 0.0), ceiling)
                ch.v_applied = v
                targets[ci] = ch.advance(v, dt_over_tau)
            v_hist[n] = mon.v_applied
            c_hist[n] = mon.c0 + mon.c_slope * mon.x
        # Differences around the sample's internal step: central inside
        # the run, one-sided at its ends, and 0 / dt = 0 for a run of
        # zero duration, where lo == hi.
        lo, hi = max(idx - 1, 0), min(idx + 1, n_internal)
        span = max(hi - lo, 1) * dt
        dv = (v_hist[hi] - v_hist[lo]) / span
        dc = (c_hist[hi] - c_hist[lo]) / span
        i_true = displacement_current(c_hist[idx], dv, v_hist[idx], dc)
        v_meas[k] = v_hist[idx] + rng.normal(0.0, sigma_v)
        i_last = i_true + rng.normal(0.0, sigma_i)
        i_meas[k] = i_last

    # Assemble per-joint and per-stack columns at the sample grid.
    t_arr = np.array(t_samples)
    theta_cols: dict[str, np.ndarray] = {}
    fc_cols: dict[str, np.ndarray] = {}
    x_cols: dict[str, np.ndarray] = {}
    c_cols: dict[str, np.ndarray] = {}
    first_contact: dict[str, float] = {}

    for ch, x_k, xt_k in zip(chains, x_at, xt_at):
        spec = ch.spec
        xs = np.asarray(x_k)
        x_cols[spec.tendon_id] = xs
        c_cols[spec.tendon_id] = ch.c0 + ch.c_slope * xs
        theta = spec.theta_at(xs)
        for j in spec.joint_group:
            key = f"{spec.layout.name}_{spec.layout.joints[j].name}"
            theta_cols[key] = theta
            fc_cols[key] = np.zeros_like(theta)
            if j in ch.contact:
                x_on, theta_on, k_obj, _ = ch.contact[j]
                fc_cols[key] = contact_force(k_obj, theta_on, theta)
                engaged = np.maximum(xs, np.asarray(xt_k)) >= x_on - 1e-12
                if engaged.any():
                    first_contact[key] = float(t_arr[int(np.argmax(engaged))])

    max_residual = max((ch.max_residual for ch in chains), default=0.0)

    meta = {
        "scenario": scenario.name,
        "seed": int(seed),
        "config_hash": scenario.config_fingerprint,
        "profile_hash": profile_hash(scenario.profiles, scenario.duration, sim.dt_sample),
        "dt_sample": sim.dt_sample,
        "dt_internal": sim.dt_internal,
        "duration": scenario.duration,
        "monitored_stack": scenario.monitored_stack,
        "object": scenario.obj.name if scenario.obj else None,
        "noise": {"v": sigma_v, "i": sigma_i},
        "max_equilibrium_residual_n": max_residual,
        "final_x_target": {ch.spec.tendon_id: float(xt) for ch, xt in zip(chains, targets)},
        "events": {"first_contact": first_contact, "hold": hold_events},
        "controller_modes": {"final": "holding" if hold_events else "ramping"},
    }

    return SignalTrace(
        t=t_arr, v_cmd=np.array(v_cmd), v_meas=v_meas, i_meas=i_meas,
        theta=theta_cols, f_contact=fc_cols, x=x_cols, c=c_cols, meta=meta,
    )
