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

run_scenario is the only stepping code: Plant builds the per-chain
tables (ChainSim) from the transmission helpers once per run, and the
loop in run_scenario slew-limits the commands, advances every chain and
synthesizes the monitor samples.

Monitor synthesis: the drawn current is evaluated from the step-level
finite differences of capacitance and applied voltage (central at the
internal step around each sample instant), then Gaussian monitor noise
is added from a seeded generator, so runs are reproducible
byte-for-byte.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

import numpy as np

from .actuator import capacitance_of, displacement_current, reference_force
from .config import ChainSpec, ProfileSpec, Scenario, SimConfig, profile_hash
from .trace import SignalTrace
from .transmission import excursion_of, extensor_tension, reflected_load


# ---------------------------------------------------------------------------
# Per-chain piecewise force balance
# ---------------------------------------------------------------------------

class ChainSim:
    """Precomputed piecewise-linear force balance for one actuator chain.

    Tables are built once per scenario: contraction breakpoints with the
    reference force and the reflected load at each. Contact onsets of
    the driven joints appear as breakpoints, so the load table already
    contains the object.
    """

    def __init__(self, spec: ChainSpec, obj):
        self.spec = spec
        path = spec.path
        layout = spec.layout
        group = spec.joint_group
        self.v_ref = spec.stack.v_ref
        self.exponent = spec.stack.force_exponent
        self.f_breakaway = path.f_breakaway
        self.c0 = spec.stack.c0
        self.c_slope = spec.stack.c_slope

        r_div = layout.group_radius(group)
        self.r_div = r_div
        ratio = path.pulley_ratio
        self.ratio = ratio
        theta_cap = min(layout.joints[j].theta_max for j in group)
        self.theta_cap = theta_cap
        # The tendon cannot travel past the joint hard stop.
        x_at_cap = (theta_cap * r_div + path.slack) / ratio
        self.x_cap = min(spec.stack.x_free, x_at_cap)

        # Per driven joint the object meets: joint -> (onset contraction,
        # onset angle, stiffness, moment arm). The onset angle is x_on
        # mapped back through theta_at, not the object's contact angle:
        # the two differ in the last bits, and both the load table and
        # the f_contact column are defined by the mapped one.
        self.contact: dict[int, tuple[float, float, float, float]] = {}
        if obj is not None:
            for j in group:
                jspec = layout.joints[j]
                theta_c = obj.contact_angle(layout.name, jspec.name)
                if theta_c is None:
                    continue
                x_on = (theta_c * r_div + path.slack) / ratio
                if x_on < self.x_cap:
                    self.contact[j] = (x_on, spec.theta_at(x_on), obj.k_obj,
                                       jspec.phalanx_len)

        bps = {0.0, self.x_cap}
        if 0.0 < path.slack / ratio < self.x_cap:
            bps.add(path.slack / ratio)
        for kx, _ in spec.stack.force_knots:
            if 0.0 < kx < self.x_cap:
                bps.add(kx)
        for x_on, _, _, _ in self.contact.values():
            if 0.0 < x_on < self.x_cap:
                bps.add(x_on)
        self.xs = sorted(bps)
        self.fs = [reference_force(spec.stack, x) for x in self.xs]
        self.ls = [self._load_at(x) for x in self.xs]
        self.x = 0.0
        self.v_applied = 0.0
        self.max_residual = 0.0
        # One-entry memo: the tables are static, so a repeated voltage
        # scale (hold phases) reuses its stall point.
        self._memo: tuple[float, float, float] | None = None

    def _load_at(self, x: float) -> float:
        """Reflected actuator load (N) at contraction x, excluding friction."""
        path = self.spec.path
        tension = extensor_tension(path, excursion_of(path, x))
        theta = self.spec.theta_at(x)
        for _, theta_on, k_obj, phal in self.contact.values():
            if theta > theta_on:
                tension += k_obj * (theta - theta_on) * phal / self.r_div
        return reflected_load(path, tension)

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

    commander, when given, is consulted once per sample period with
    (t, previous sample's measured current or None) until it returns
    True. From that sample on every channel holds its previous sample's
    command, limited to the amplifier ceiling, and the commander is not
    consulted again. The hold instant and the monitored channel's held
    voltage are recorded as the trace's hold event.
    """
    rng = np.random.default_rng(seed)
    plant = Plant(scenario, sim)
    chains = plant.chains
    monitored = scenario.monitored_stack
    if monitored not in plant.by_id:
        mon_chain = chains[0]
    else:
        mon_chain = plant.by_id[monitored]
    mon_id = mon_chain.spec.tendon_id

    profiles = {c.spec.tendon_id: c.spec.profile for c in chains}
    # Chains sharing a profile spec share one evaluation per step.
    uniq_specs: list[ProfileSpec] = []
    chain_pidx: list[int] = []
    for c in chains:
        if c.spec.profile not in uniq_specs:
            uniq_specs.append(c.spec.profile)
        chain_pidx.append(uniq_specs.index(c.spec.profile))

    dt = sim.dt_internal
    sps = sim.steps_per_sample
    n_samples = round(scenario.duration / sim.dt_sample) + 1
    n_internal = (n_samples - 1) * sps
    dt_over_tau = dt / sim.tau_mech
    dv_max = scenario.amplifier.slew_max * dt
    ceiling = scenario.amplifier.v_ceiling
    sigma_v = scenario.amplifier.monitor_noise_v
    sigma_i = scenario.amplifier.monitor_noise_i

    # Internal histories of the monitored channel (for the central
    # finite differences at sample instants) and per-chain contraction.
    v_hist = [0.0] * (n_internal + 1)
    c_hist = [capacitance_of(mon_chain.spec.stack, 0.0)] * (n_internal + 1)
    for ch in chains:
        ch.x = 0.0
        ch.v_applied = 0.0
        ch.max_residual = 0.0
    x_at_sample = {c.spec.tendon_id: [0.0] * n_samples for c in chains}
    xt_at_sample = {c.spec.tendon_id: [0.0] * n_samples for c in chains}
    last_target = {c.spec.tendon_id: 0.0 for c in chains}

    t_arr = np.zeros(n_samples)
    v_cmd_arr = np.zeros(n_samples)
    v_meas = np.zeros(n_samples)
    i_meas = np.zeros(n_samples)

    held: dict[str, float] | None = None
    hold_events: list[dict[str, float]] = []
    last_sample_i: Optional[float] = None

    prev_cmd: dict[str, float] = {tid: profiles[tid](0.0) for tid in profiles}

    def decide_commands(k: int) -> None:
        """Let the controller act at sample instant k and log the command.

        Commands follow the continuous voltage schedule between samples;
        the controller can only freeze them, once, at the previous
        sample's values.
        """
        nonlocal held
        t_k = k * sim.dt_sample
        if commander is not None and held is None and commander(t_k, last_sample_i):
            held = {tid: min(v, ceiling) for tid, v in prev_cmd.items()}
            hold_events.append({"t": t_k, "v_held": held[mon_id]})
        for tid, prof in profiles.items():
            prev_cmd[tid] = held[tid] if held is not None else prof(t_k)
        v_cmd_arr[k] = prev_cmd[mon_id]
        t_arr[k] = t_k

    def capture_state(k: int) -> None:
        """Record every chain's contraction and target at sample instant k."""
        for ch in chains:
            tid = ch.spec.tendon_id
            x_at_sample[tid][k] = ch.x
            xt_at_sample[tid][k] = last_target[tid]

    def emit_sample(k: int, idx: int, kind: str) -> None:
        """Store monitor channels for sample k from differences around idx."""
        nonlocal last_sample_i
        if kind == "central":
            dv = (v_hist[idx + 1] - v_hist[idx - 1]) / (2 * dt)
            dc = (c_hist[idx + 1] - c_hist[idx - 1]) / (2 * dt)
        elif kind == "forward":
            dv = (v_hist[idx + 1] - v_hist[idx]) / dt
            dc = (c_hist[idx + 1] - c_hist[idx]) / dt
        elif kind == "backward":
            dv = (v_hist[idx] - v_hist[idx - 1]) / dt
            dc = (c_hist[idx] - c_hist[idx - 1]) / dt
        else:
            dv = dc = 0.0
        i_true = displacement_current(c_hist[idx], dv, v_hist[idx], dc)
        v_meas[k] = v_hist[idx] + rng.normal(0.0, sigma_v)
        i_meas[k] = i_true + rng.normal(0.0, sigma_i)
        last_sample_i = i_meas[k]

    decide_commands(0)
    capture_state(0)
    if n_internal == 0:
        emit_sample(0, 0, "none")
    else:
        for n in range(1, n_internal + 1):
            at_sample = (n - 1) % sps == 0
            k = (n - 1) // sps
            if at_sample and n > 1:
                # Entering sample period k: controller decision, then
                # capture the state standing at t_k before stepping on.
                decide_commands(k)
                capture_state(k)
            t_n = n * dt
            if held is None:
                scheds = [p(t_n) for p in uniq_specs]
            for ch, pidx in zip(chains, chain_pidx):
                tid = ch.spec.tendon_id
                cmd = held[tid] if held is not None else scheds[pidx]
                v_prev = ch.v_applied
                dv = min(max(cmd - v_prev, -dv_max), dv_max)
                v = min(max(v_prev + dv, 0.0), ceiling)
                ch.v_applied = v
                last_target[tid] = ch.advance(v, dt_over_tau)
            v_hist[n] = mon_chain.v_applied
            c_hist[n] = mon_chain.c0 + mon_chain.c_slope * mon_chain.x
            if at_sample:
                emit_sample(k, n - 1, "central" if k > 0 else "forward")
        # Final sample sits at the end of the run: command decision,
        # state capture and a backward difference for the current.
        decide_commands(n_samples - 1)
        capture_state(n_samples - 1)
        emit_sample(n_samples - 1, n_internal, "backward")

    # Assemble per-joint and per-stack columns at the sample grid.
    theta_cols: dict[str, np.ndarray] = {}
    fc_cols: dict[str, np.ndarray] = {}
    x_cols: dict[str, np.ndarray] = {}
    c_cols: dict[str, np.ndarray] = {}
    first_contact: dict[str, float] = {}

    for ch in chains:
        tid = ch.spec.tendon_id
        xs = np.asarray(x_at_sample[tid])
        xts = np.asarray(xt_at_sample[tid])
        x_cols[tid] = xs
        c_cols[tid] = ch.c0 + ch.c_slope * xs
        layout = ch.spec.layout
        exc = np.maximum(0.0, ch.ratio * xs - ch.spec.path.slack)
        theta = np.minimum(exc / ch.r_div, ch.theta_cap)
        for j in ch.spec.joint_group:
            key = f"{layout.name}_{layout.joints[j].name}"
            theta_cols[key] = theta
            fc = np.zeros_like(theta)
            if j in ch.contact:
                x_on, theta_on, k_obj, _ = ch.contact[j]
                fc = np.where(theta > theta_on, k_obj * (theta - theta_on), 0.0)
                engaged = np.maximum(xs, xts) >= x_on - 1e-12
                if engaged.any():
                    first_contact[key] = float(t_arr[int(np.argmax(engaged))])
            fc_cols[key] = fc

    max_residual = max((ch.max_residual for ch in chains), default=0.0)

    meta = {
        "scenario": scenario.name,
        "seed": int(seed),
        "config_hash": scenario.config_fingerprint,
        "profile_hash": profile_hash(scenario.profiles, scenario.duration, sim.dt_sample),
        "dt_sample": sim.dt_sample,
        "dt_internal": sim.dt_internal,
        "duration": scenario.duration,
        "monitored_stack": mon_id,
        "object": scenario.obj.name if scenario.obj else None,
        "noise": {"v": sigma_v, "i": sigma_i},
        "max_equilibrium_residual_n": max_residual,
        "final_x_target": {tid: float(v) for tid, v in last_target.items()},
        "events": {"first_contact": first_contact, "hold": hold_events},
        "controller_modes": {"final": "ramping" if held is None else "holding"},
    }

    return SignalTrace(
        t=t_arr, v_cmd=v_cmd_arr, v_meas=v_meas, i_meas=i_meas,
        theta=theta_cols, f_contact=fc_cols, x=x_cols, c=c_cols, meta=meta,
    )
