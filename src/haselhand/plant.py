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
per-step cost low enough for the 10 kHz loop in pure Python. The test
suite cross-checks it against a generic bisection on the force balance.

The chain geometry (x -> theta map, stroke cap, contact onsets) comes
from config.ChainSpec and the contact law from kinematics.contact_force:
ChainSim's load table and run_scenario's theta/f_contact columns call
them on whole arrays.

run_scenario makes two passes over a scenario.

- The mechanics pass, Plant.extend, is the only code that steps chains.
  It steps each chain under its voltage schedule (slew-limited, capped
  at the amplifier ceiling) and records, at every sample instant, each
  chain's contraction, applied voltage, stall target and running
  maximum stall residual, and the monitored chain's contraction and
  voltage one internal step before and after the instant. What a chain
  holds at a sample is also where a hold resumes it from.
- The monitor pass, Plant.current, runs once per seed on those arrays.
  The drawn current of the monitored stack (chosen in
  config.resolve_preset) comes from the step-level finite differences
  of capacitance and applied voltage around each sample instant:
  central inside the run, one-sided at its ends. Gaussian monitor noise
  is drawn from a seeded generator in one block whose values are those
  of one draw per monitor per sample, in sample order, so runs are
  reproducible byte for byte.

Open loop, the mechanics do not depend on the seed. run_scenario keeps
each recorded Plant in a cache dict under mechanics_key: the canonical
JSON of what the mechanics read (the chains, their contact tables, the
duration, the amplifier's slew limit and ceiling, the time steps and
the monitored stack), not the name, the seed, the monitor noise or the
controller. The cache lives as long as the caller keeps it: detect-batch
passes one to all its episodes, and a call without one gets its own.

Closed loop, the walk steps the open-loop record MECHANICS_BLOCK
samples at a time and, after each block, hands the commander the
measured current of every sample recorded so far; it stops when the
commander names a hold sample or the run ends. A hold at sample k sets
every schedule to its command at sample k - 1 (at sample 0 for k = 0),
limited to the amplifier ceiling, and resumes the chains from their
sample-k state; a resumed record is cached under its mechanics key and
k.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

import numpy as np

from .actuator import capacitance_of, displacement_current, reference_force
from .config import (
    ChainSpec,
    ProfileSpec,
    Scenario,
    SimConfig,
    canonical_json,
    encode,
    profile_hash,
)
from .errors import ModelConsistencyError
from .kinematics import contact_force
from .trace import SignalTrace
from .transmission import excursion_of, extensor_tension, reflected_load

# Samples by which a commander's walk steps the open-loop record ahead.
MECHANICS_BLOCK = 50
# Acceptance criterion 8: the largest stall residual a run may report.
STALL_RESIDUAL_TOL_N = 1e-6


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
    """A scenario's chain tables and their motion, recorded at the samples.

    Column k of x, v, target and residual holds each chain's contraction
    (mm), applied voltage (kV), stall target (mm) and running maximum
    stall residual (N) after internal step k * steps_per_sample.
    x_lo/v_lo and x_hi/v_hi hold the monitored chain's contraction and
    voltage one internal step before and after that step, clamped to
    the run. Samples 0..end are recorded; extend steps further.
    """

    def __init__(self, scenario: Scenario, sim: SimConfig):
        self.scenario = scenario
        self.sim = sim
        self.chains = [ChainSim(spec, scenario.obj) for spec in scenario.chains]
        self.schedules = [spec.profile for spec in scenario.chains]
        self.mon = [spec.tendon_id for spec in scenario.chains].index(scenario.monitored_stack)
        self.n_samples = round(scenario.duration / sim.dt_sample) + 1
        self.end = 0
        shape = (len(self.chains), self.n_samples)
        self.x, self.v, self.target, self.residual = (np.zeros(shape) for _ in range(4))
        self.x_lo, self.v_lo, self.x_hi, self.v_hi = (np.zeros(self.n_samples) for _ in range(4))

    def extend(self, k_end: int) -> None:
        """Step every chain from sample end to sample k_end and record it.

        Each internal step moves a chain's applied voltage toward its
        schedule, by at most the slew limit and within [0, ceiling],
        then advances the chain.
        """
        k0, sps = self.end, self.sim.steps_per_sample
        if k_end <= k0:
            return
        dt = self.sim.dt_internal
        dt_over_tau = dt / self.sim.tau_mech
        dv_max = self.scenario.amplifier.slew_max * dt
        ceiling = self.scenario.amplifier.v_ceiling
        # Commands at internal steps k0 * sps .. k_end * sps; chains with
        # equal schedules share the list.
        steps = range(k0 * sps, k_end * sps + 1)
        cmds = {p: [p(n * dt) for n in steps] for p in dict.fromkeys(self.schedules)}
        recorded = slice(k0 + 1, k_end + 1)
        for c, ch in enumerate(self.chains):
            cmd = cmds[self.schedules[c]]
            advance = ch.advance
            v = ch.v_applied
            xs, vs = [ch.x] * len(cmd), [v] * len(cmd)
            targets, residuals = [], []
            for k in range(k_end - k0):
                for j in range(k * sps + 1, (k + 1) * sps + 1):
                    dv = cmd[j] - v
                    if dv < -dv_max:
                        dv = -dv_max
                    elif dv > dv_max:
                        dv = dv_max
                    v += dv
                    if v < 0.0:
                        v = 0.0
                    elif v > ceiling:
                        v = ceiling
                    target = advance(v, dt_over_tau)
                    xs[j] = ch.x
                    vs[j] = v
                targets.append(target)
                residuals.append(ch.max_residual)
            ch.v_applied = v
            self.x[c, recorded] = xs[sps::sps]
            self.v[c, recorded] = vs[sps::sps]
            self.target[c, recorded] = targets
            self.residual[c, recorded] = residuals
            if c == self.mon:
                self.x_lo[recorded], self.v_lo[recorded] = xs[sps - 1:-1:sps], vs[sps - 1:-1:sps]
                self.x_hi[k0:k_end], self.v_hi[k0:k_end] = xs[1::sps], vs[1::sps]
        self.end = k_end
        if k_end == self.n_samples - 1:
            self.x_hi[k_end], self.v_hi[k_end] = self.x[self.mon, k_end], self.v[self.mon, k_end]

    def resume(self, k: int, held: dict[ProfileSpec, float]) -> "Plant":
        """This record up to sample k, then every chain under a constant
        schedule from there: held maps each schedule to its held command."""
        plant = Plant(self.scenario, self.sim)
        plant.schedules = [ProfileSpec("hold", held[p]) for p in self.schedules]
        for name in ("x", "v", "target", "residual", "x_lo", "v_lo", "x_hi", "v_hi"):
            setattr(plant, name, getattr(self, name).copy())
        plant.end = k
        for c, ch in enumerate(plant.chains):
            ch.x = float(self.x[c, k])
            ch.v_applied = float(self.v[c, k])
            ch.max_residual = float(self.residual[c, k])
        return plant

    def current(self, k0: int, k1: int) -> np.ndarray:
        """Noise-free drawn current (uA) of the monitored stack at samples
        k0..k1 - 1, from the differences around each sample's internal
        step: 0 / dt = 0 for a run of zero duration. Needs samples up to
        k1 recorded, or the whole run."""
        sps, dt = self.sim.steps_per_sample, self.sim.dt_internal
        idx = np.arange(k0, k1) * sps
        lo = np.maximum(idx - 1, 0)
        hi = np.minimum(idx + 1, (self.n_samples - 1) * sps)
        span = np.maximum(hi - lo, 1) * dt
        stack = self.chains[self.mon].spec.stack
        dv = (self.v_hi[k0:k1] - self.v_lo[k0:k1]) / span
        dc = (capacitance_of(stack, self.x_hi[k0:k1]) - capacitance_of(stack, self.x_lo[k0:k1])) / span
        return displacement_current(capacitance_of(stack, self.x[self.mon, k0:k1]), dv,
                                    self.v[self.mon, k0:k1], dc)


def mechanics_key(scenario: Scenario, sim: SimConfig) -> str:
    """Canonical JSON of everything the mechanics pass reads of a scenario.

    The object enters only through each chain's contact table, so
    scenarios that differ in name, seed, monitor noise, controller or an
    object no chain reaches share a key.
    """
    return canonical_json({
        "chains": [encode(spec) for spec in scenario.chains],
        "contacts": [encode(spec.contact_table(scenario.obj)) for spec in scenario.chains],
        "monitored_stack": scenario.monitored_stack,
        "duration": scenario.duration,
        "slew_max": scenario.amplifier.slew_max,
        "v_ceiling": scenario.amplifier.v_ceiling,
        "steps": [sim.dt_internal, sim.dt_sample, sim.tau_mech],
    })


def _cached(cache: dict, key, make: Callable[[], Plant]) -> Plant:
    plant = cache.get(key)
    if plant is None:
        plant = cache[key] = make()
    return plant


def _walk(plant: Plant, commander, noise_i: np.ndarray) -> Optional[int]:
    """The sample at which the commander asks for a hold, or None; it sees
    the current recorded so far after each block of the open-loop record."""
    end, last = 0, plant.n_samples - 1
    while True:
        end = min(end + MECHANICS_BLOCK, last)
        plant.extend(end)
        k = commander(plant.current(0, end) + noise_i[:end])
        if k is not None or end == last:
            return k


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def run_scenario(
    scenario: Scenario,
    sim: SimConfig,
    seed: int,
    commander: Optional[Callable[[np.ndarray], Optional[int]]] = None,
    cache: Optional[dict] = None,
) -> SignalTrace:
    """Simulate a scenario and return its 1 kHz monitor trace.

    Deterministic for a fixed seed: the monitor noise comes from one
    seeded generator, so identical runs produce identical traces
    byte for byte, whether their mechanics were stepped or cached.

    commander, when given, is consulted once per MECHANICS_BLOCK samples
    with the measured current of samples 0..m-1 (m < n_samples) until it
    returns a sample k <= m instead of None. A hold at sample k holds
    every schedule from sample k on at its command at sample k - 1 (at
    sample 0 for k = 0), limited to the amplifier ceiling. The hold
    instant and the monitored channel's held voltage are recorded as the
    trace's hold event.

    cache, when given, is a dict that keeps the recorded mechanics for
    later calls (see the module docstring). Raises ModelConsistencyError
    when the run's stall residual exceeds STALL_RESIDUAL_TOL_N.
    """
    cache = {} if cache is None else cache
    mech_key = mechanics_key(scenario, sim)
    open_loop = _cached(cache, mech_key, lambda: Plant(scenario, sim))
    n_samples = open_loop.n_samples
    t_samples = [k * sim.dt_sample for k in range(n_samples)]
    ceiling = scenario.amplifier.v_ceiling
    sigma_v = scenario.amplifier.monitor_noise_v
    sigma_i = scenario.amplifier.monitor_noise_i
    # Generator.normal(loc, scale) is loc + scale * standard_normal, so
    # this block equals one normal() per monitor per sample, v first.
    z = np.random.default_rng(seed).standard_normal((n_samples, 2))
    noise_v, noise_i = 0.0 + sigma_v * z[:, 0], 0.0 + sigma_i * z[:, 1]

    mon_profile = open_loop.schedules[open_loop.mon]
    v_cmd = np.array([mon_profile(t) for t in t_samples])
    hold_events: list[dict[str, float]] = []
    k_hold = None if commander is None else _walk(open_loop, commander, noise_i)
    plant = open_loop
    if k_hold is not None:
        t_prev = t_samples[max(k_hold - 1, 0)]
        held = {p: min(p(t_prev), ceiling) for p in dict.fromkeys(open_loop.schedules)}
        plant = _cached(cache, (mech_key, k_hold), lambda: open_loop.resume(k_hold, held))
        v_cmd[k_hold:] = held[mon_profile]
        hold_events.append({"t": t_samples[k_hold], "v_held": held[mon_profile]})
    plant.extend(n_samples - 1)

    max_residual = float(plant.residual[:, -1].max())
    if max_residual > STALL_RESIDUAL_TOL_N:
        raise ModelConsistencyError(
            f"scenario {scenario.name}: stall residual {max_residual:.3g} N "
            f"exceeds {STALL_RESIDUAL_TOL_N} N"
        )
    v_meas = plant.v[plant.mon] + noise_v
    i_meas = plant.current(0, n_samples) + noise_i

    # Assemble per-joint and per-stack columns at the sample grid.
    t_arr = np.array(t_samples)
    theta_cols: dict[str, np.ndarray] = {}
    fc_cols: dict[str, np.ndarray] = {}
    x_cols: dict[str, np.ndarray] = {}
    c_cols: dict[str, np.ndarray] = {}
    first_contact: dict[str, float] = {}

    for ch, xs, xt in zip(plant.chains, plant.x.copy(), plant.target):
        spec = ch.spec
        x_cols[spec.tendon_id] = xs
        c_cols[spec.tendon_id] = capacitance_of(spec.stack, xs)
        theta = spec.theta_at(xs)
        for j in spec.joint_group:
            key = f"{spec.layout.name}_{spec.layout.joints[j].name}"
            theta_cols[key] = theta
            fc_cols[key] = np.zeros_like(theta)
            if j in ch.contact:
                x_on, theta_on, k_obj, _ = ch.contact[j]
                fc_cols[key] = contact_force(k_obj, theta_on, theta)
                engaged = np.maximum(xs, xt) >= x_on - 1e-12
                if engaged.any():
                    first_contact[key] = float(t_arr[int(np.argmax(engaged))])

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
        "final_x_target": {ch.spec.tendon_id: float(xt)
                           for ch, xt in zip(plant.chains, plant.target[:, -1])},
        "events": {"first_contact": first_contact, "hold": hold_events},
        "controller_modes": {"final": "holding" if hold_events else "ramping"},
    }

    return SignalTrace(
        t=t_arr, v_cmd=v_cmd, v_meas=v_meas, i_meas=i_meas,
        theta=theta_cols, f_contact=fc_cols, x=x_cols, c=c_cols, meta=meta,
    )
