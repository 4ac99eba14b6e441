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
exactly by walking the precomputed breakpoint table. The test suite
cross-checks it against a generic bisection on the force balance.

A chain steps in verified runs (ChainSim.run), its one stepping kernel,
which the test suite checks bit for bit against a scalar oracle:

- The stall target depends on the applied voltage and the sign of the
  push alone, so a run's targets come from one array walk of the table.
  Only the recurrence x += (target - x) * dt / tau_mech, with its clamps
  to [0, x_cap], runs in Python.
- A run assumes the mode of its first step throughout: held, pushed up
  (net > f_breakaway) or pushed down (net < -f_breakaway). Net force at
  every pre-step x, on arrays, then checks that assumption, and only the
  verified prefix is kept. The step that breaks a run starts the next.
- Rest needs no recurrence at all. At x = 0 the net force is
  a * f(0) - l(0) for voltage scale a. While it is at most f_breakaway,
  either stiction holds x, or the push is down and the walk's first
  residual, net + f_breakaway, is <= 0 already, so the target is 0.0
  with no residual recorded. Either way x stays 0 with target 0.0, and
  one array comparison covers the whole run.

The chain geometry (x -> theta map, stroke cap, contact onsets) comes
from config.ChainSpec and the contact law from kinematics.contact_force:
ChainSim's load table and Plant.noise_free's theta/f_contact columns call
them on whole arrays.

run_scenario works in three stages over a scenario's record.

- The mechanics pass, Plant.extend, is the only code that steps chains.
  Chains with the same breakpoint table, breakaway force, v_ref, force
  exponent and schedule, compared by bit pattern, start alike and move
  alike, so Plant steps one ChainSim kernel per distinct (table,
  schedule) and records its motion once, for every chain it serves. A
  schedule is its ProfileSpec.identity: its kind and the numbers that
  kind reads, by bit pattern, so a hold's unread ramp_s splits nothing.
  Plant computes each distinct schedule's applied voltage (slew-limited,
  capped at the amplifier ceiling) once, when it is built, in runs
  checked on arrays like the kernel's; each kernel steps in runs on it.
  The pass records, at every sample instant, each kernel's contraction,
  stall target and running maximum stall residual, and, at every
  internal step, the monitored chain's contraction. What a kernel holds
  at a sample is also where a hold resumes it from.
- The assembly, Plant.noise_free, builds the trace of the run without
  monitor noise: every column, with v_meas the monitored chain's applied
  voltage at the samples and i_meas the drawn current of the monitored
  stack (chosen in config.resolve_preset) without noise, and every meta
  entry but the seed. The current comes from
  Plant.current, the finite differences of capacitance and applied
  voltage over the internal steps either side of each sample instant:
  central inside the run, one-sided at its ends. It first steps the
  record from its start to its last sample and checks the stall
  residual; the record keeps what it builds (see Plant.noise_free).
- The per-seed pass in run_scenario draws the Gaussian monitor noise
  from a seeded generator in one block whose values are those of one
  draw per monitor per sample, in sample order, so runs are
  reproducible byte for byte. It returns the assembly with the noise
  added to v_meas and i_meas and the seed to a copy of its meta, with
  dicts of its own at every depth, and then checks that trace's columns
  for finiteness in file order (a huge monitor noise can overflow them).

A scenario's open-loop motion does not depend on the seed, so a run is
a record and a seed: run_scenario takes a Plant, the open-loop record of
its scenario, and reuses the traces it keeps. The config keeps one
record per scenario it runs (control.run_on_record, HandConfig.memo), so
every run of a config, open loop or closed, pays only for its noise and
a new hold sample. detect-batch reads the monitored
current only, through the detection window's last sample, so its record
of each class is the class's monitored chain alone (Scenario.monitored),
cut one sample past that window (control.detection_horizon). A trace's
hashes come from its scenario, not its record: the profile hash
fingerprints the monitored chain's schedule, the full episode and the
sim's dt_sample (Scenario.profile_fingerprint), so the one-chain and
shortened scenarios keep the full episode's.

Closed loop, a run decides once, on the open-loop record stepped to its
end: one commander call gets the measured current (the record's
noise-free current plus the run's noise) of every sample but the last
and names a hold sample k or none. A commander is causal, its decision
at a sample reading the samples before it alone, so its first hit on
the whole run is the one it would make sample by sample. A hold at
sample k works on a copy of the record (Plant.held_at), so the record
stays open loop for later runs: every schedule's voltage after sample k
slews toward its command at sample k - 1 (at sample 0 for k = 0),
limited to the amplifier ceiling, and the copy steps on from sample k on
the record's kernels. Chains that shared a kernel are in one state there
and hold one command, so they keep sharing it. extend sets each kernel
to its record's state at the run's start before it steps, so a record
and its copies share kernels, and a record whose extend raised part-way
steps again from its start. The held copy's assembly depends on k
alone, so the record keeps it (Plant.noise_free(k)): a later run that
holds at k steps nothing.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .actuator import capacitance_of, displacement_current, reference_force, voltage_scale
from .config import (
    ChainSpec,
    ProfileSpec,
    Scenario,
    profile_hash,  # noqa: F401 -- unused, kept: perfbench's config.hash span wraps it
)
from .errors import ConfigError, DomainError, ModelConsistencyError
from .kinematics import contact_force
from .trace import KEYED_COLUMNS, SignalTrace
from .transmission import excursion_of, extensor_tension, reflected_load

# Internal steps a chain's first run speculates over, and the most any run does.
RUN_WINDOW = 256
RUN_WINDOW_MAX = 16384
# Evaluations of the step a run of _slew may take before it is cut.
SLEW_SWEEPS = 8
# Acceptance criterion 8: the largest stall residual a run may report.
STALL_RESIDUAL_TOL_N = 1e-6


# ---------------------------------------------------------------------------
# Per-chain piecewise force balance
# ---------------------------------------------------------------------------

class ChainSim:
    """Precomputed piecewise-linear force balance for one actuator chain.

    Tables are built once per scenario: contraction breakpoints with the
    reference force and the reflected load at each, as Python floats for
    the stall walk, and per segment as the array net reads. Contact
    onsets of the driven joints (the chain spec's contact table) appear
    as breakpoints, so the load table already contains the object.
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
        xs = sorted({0.0, self.x_cap, *(x for x in inner if 0.0 < x < self.x_cap)})
        self.tabulate(xs, [reference_force(spec.stack, x) for x in xs],
                      self._load_at(np.array(xs)).tolist())
        self.x = 0.0
        self.max_residual = 0.0
        self.window = RUN_WINDOW  # steps run speculates over next

    def tabulate(self, xs: list[float], fs: list[float], ls: list[float]) -> None:
        """Set the breakpoint table: increasing contractions xs from 0 to
        x_cap, with the reference force (non-increasing) and the reflected
        load (non-decreasing) at each."""
        self.xs, self.fs, self.ls = xs, fs, ls
        self.x_cap = xs[-1]
        # Per segment, for net: its start x, width, and the force and
        # load at its start with their rises across it; a last row, for
        # x at x_cap, keeps both at their end values.
        xa, fa, la = np.array(xs), np.array(fs), np.array(ls)
        self._inner = xa[1:]
        self._segments = np.array([xa, np.append(np.diff(xa), 1.0), fa, np.append(np.diff(fa), 0.0),
                                   la, np.append(np.diff(la), 0.0)])

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

    def net(self, a, x) -> np.ndarray:
        """Active force minus load at contraction x (0 <= x <= x_cap) for
        voltage scale a; either may be an array, the other broadcasts."""
        x0, dx, f0, df, l0, dl = self._segments.take(np.searchsorted(self._inner, x, "right"), 1)
        w = (x - x0) / dx
        return a * (f0 + df * w) - (l0 + dl * w)

    def stall_walk(self, a: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact roots of net(a, x) = offset on the breakpoint table, one
        per voltage scale in a, and the residual |net - offset| at each.

        net is non-increasing in x, so the first breakpoint where the
        residual a * f - l - offset is <= 0 brackets the root; within a
        segment the residual is linear and solved directly. A root before
        the first breakpoint gives 0 and none at all x_cap, each with
        residual 0: only a root found inside the table counts.
        """
        starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
        if len(starts) < len(a):
            # Equal scales in a row (a held voltage) share one walk.
            target, residual = self.stall_walk(a[starts], offset)
            repeats = np.diff(np.r_[starts, len(a)])
            return np.repeat(target, repeats), np.repeat(residual, repeats)
        xs, fs, ls = self.xs, self.fs, self.ls
        r = a * fs[0] - ls[0] - offset
        target = np.where(r <= 0.0, 0.0, self.x_cap)
        found = np.zeros(len(a), dtype=bool)
        rows = np.flatnonzero(r > 0.0)
        a_open, r_prev = a[rows], r[rows]
        for j in range(1, len(xs)):
            if not len(rows):
                break
            r = a_open * fs[j] - ls[j] - offset
            hit = r <= 0.0
            if hit.any():
                rp = r_prev[hit]
                target[rows[hit]] = xs[j - 1] + (xs[j] - xs[j - 1]) * rp / (rp - r[hit])
                found[rows[hit]] = True
                rows, a_open, r = rows[~hit], a_open[~hit], r[~hit]
            r_prev = r
        residual = np.zeros(len(a))
        residual[found] = np.abs(self.net(a[found], target[found]) - offset)
        return target, residual

    def stall_target(self, a: float, offset: float) -> float:
        """stall_walk for one voltage scale; records its residual."""
        target, residual = self.stall_walk(np.array([a]), offset)
        self.max_residual = max(self.max_residual, float(residual[0]))
        return float(target[0])

    def advance(self, v_applied: float, dt_over_tau: float) -> float:
        """One internal step as a run of one; returns its stall target."""
        return float(self.run(np.array([v_applied]), dt_over_tau)[1][0])

    def run(self, v: np.ndarray, dt_over_tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Take one internal step per applied voltage in v and return each
        step's x, stall target and running maximum stall residual.

        The steps go in runs of one mode, the mode of the run's first
        step: held (x stays), pushed up (+f_breakaway) or pushed down
        (-f_breakaway). A held run costs one array comparison. A pushed
        run takes its targets from stall_walk, which depends on the
        voltage alone, so only the recurrence x += (target - x) * r runs
        in Python; net at every pre-step x then verifies the mode, and
        the verified prefix is kept. The first step that breaks the run
        starts the next one, of RUN_WINDOW steps; a run that holds to its
        end is followed by one twice as long, up to RUN_WINDOW_MAX.
        """
        a = voltage_scale(v, self.v_ref, self.exponent, f"chain {self.spec.tendon_id}")
        n, fb, cap, r = len(a), self.f_breakaway, self.x_cap, dt_over_tau
        xs, targets, residuals = np.empty(n), np.empty(n), np.empty(n)
        j = 0
        while j < n:
            x, aw = self.x, a[j:j + self.window]
            net = self.net(aw, x)
            if -fb <= net[0] <= fb or (x == 0.0 and net[0] < -fb):
                # Held: by stiction, or at rest with the load holding x at
                # 0, where the stall target is 0.0 = x and no root counts.
                ok = net <= fb if x == 0.0 else np.abs(net) <= fb
                xw = tw = np.full(len(aw), x)
                rw = np.full(len(aw), self.max_residual)
            else:
                up = net[0] > fb
                tw, rw = self.stall_walk(aw, fb if up else -fb)
                moved = []
                for t in tw.tolist():
                    x += (t - x) * r
                    if x < 0.0:
                        x = 0.0
                    elif x > cap:
                        x = cap
                    moved.append(x)
                xw = np.fromiter(moved, float, len(moved))
                net = self.net(aw, np.concatenate(([self.x], xw[:-1])))
                ok = net > fb if up else net < -fb
                rw = np.maximum.accumulate(np.maximum(rw, self.max_residual))
            # The first step chose the run's mode, so it verifies unless its net is NaN.
            kept = len(ok) if ok.all() else int(ok.argmin())
            if not kept:
                raise DomainError(f"chain {self.spec.tendon_id}: net force {net[0]} N "
                                  f"at x = {self.x} mm is not finite")
            xs[j:j + kept], targets[j:j + kept], residuals[j:j + kept] = (
                xw[:kept], tw[:kept], rw[:kept])
            self.x, self.max_residual = float(xw[kept - 1]), float(rw[kept - 1])
            j += kept
            self.window = RUN_WINDOW if kept < len(ok) else min(2 * self.window, RUN_WINDOW_MAX)
        return xs, targets, residuals


def _clamp(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """a below lo set to lo, else above hi set to hi: the two comparisons
    of the scalar step, in its order, so signed zeros and NaNs pass alike."""
    return np.where(a < lo, lo, np.where(a > hi, hi, a))


def _slew(cmd: np.ndarray, v: float, dv_max: float, ceiling: float) -> np.ndarray:
    """Applied voltage after each step toward the commands cmd from v: a
    step moves v by c - v, limited to [-dv_max, dv_max], and keeps the
    result within [0, ceiling].

    The steps go in runs, as in ChainSim.run. A run assumes the mode of
    its first step throughout: tracking, where v becomes the command
    (clipped), or slewing, where v moves by dv_max up or down each step
    (np.add.accumulate adds left to right, as the steps do; clipped).
    One array evaluation of the step on the candidate's previous values
    checks the candidate, by bit pattern. Where it first fails, the
    step's own value is the right one, because its previous value was
    verified. Before a run is cut, the candidate is replaced by the
    evaluated steps and checked again, up to SLEW_SWEEPS evaluations in
    all: each verifies at least one more step, and a mode that alternates
    every few steps (a ramp at the slew limit) closes in a few, since a
    tracking step does not depend on the value before it. A run keeps
    the verified prefix of its last evaluation and that step's value, at
    least one step, and the next run starts after them.
    """
    out = np.empty(len(cmd))
    j, window = 0, RUN_WINDOW
    while j < len(cmd):
        c = cmd[j:j + window]
        d = float(c[0]) - v
        # run: the start v, then the candidate.
        if d > dv_max or d < -dv_max:
            run = np.full(len(c) + 1, dv_max if d > dv_max else -dv_max)
            run[0] = v
            np.add.accumulate(run, out=run)
        else:
            # The step gives 0.0 for a command of -0.0, so c + 0.0 does too.
            run = np.empty(len(c) + 1)
            run[0], run[1:] = v, c + 0.0
        run[1:] = _clamp(run[1:], 0.0, ceiling)
        prev, candidate = run[:-1], run[1:]
        for _ in range(SLEW_SWEEPS):
            stepped = _clamp(prev + _clamp(c - prev, -dv_max, dv_max), 0.0, ceiling)
            wrong = stepped.view(np.int64) != candidate.view(np.int64)
            if not wrong.any():
                break
            candidate[:] = stepped
        kept = int(wrong.argmax()) + 1 if wrong.any() else len(c)
        out[j:j + kept] = stepped[:kept]
        v = float(stepped[kept - 1])
        j += kept
        window = RUN_WINDOW if kept < len(c) else min(2 * window, RUN_WINDOW_MAX)
    return out


def _kernel_key(chain: ChainSim, schedule: ProfileSpec) -> tuple[tuple[str, bytes], bytes]:
    """Everything a chain's motion under a schedule depends on, by bit pattern."""
    floats = [*chain.xs, *chain.fs, *chain.ls, chain.f_breakaway, chain.v_ref, chain.exponent]
    return schedule.identity, np.array(floats).tobytes()


def _nonfinite(columns: list[tuple[str, np.ndarray]]) -> Optional[tuple[str, float, int]]:
    """(header name, value, sample) of the first non-finite value of
    columns, column by column in order, or None."""
    finite = np.isfinite([values for _, values in columns])
    if finite.all():
        return None
    c, k = np.argwhere(~finite)[0]
    return columns[c][0], columns[c][1][k], k


def _copied(value):
    """value with each dict and list in it, at every depth, a new one."""
    if isinstance(value, dict):
        return {key: _copied(v) for key, v in value.items()}
    return [_copied(v) for v in value] if isinstance(value, list) else value


class Plant:
    """A scenario's chain tables and their motion under its sim, recorded at the samples.

    Chains with equal breakpoint tables, breakaway force, v_ref, force
    exponent and schedule (compared by bit pattern) move alike, so each
    such class is one kernel, a ChainSim that extend steps once for all
    of its chains: chain c runs kernels[kernel_of[c]] under
    schedules[kernel_of[c]]. chains keeps every chain's own spec and
    contact table.

    volts maps each schedule identity to its applied voltage (kV) after
    every internal step, index 0 being the start, under the amplifier's
    limits (kV per internal step, ceiling); v_mon is the monitored
    chain's. Row i, column k of x, target and residual holds kernel i's
    contraction (mm), stall target (mm) and running maximum stall
    residual (N) after internal step k * steps_per_sample; x_mon holds
    the monitored chain's contraction after every internal step. extend
    records the samples from the run's start on: sample 0, or hold[0] for
    a held copy, which has the record's before it. free is noise_free's map.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.sim = sim = scenario.sim
        self.chains = [ChainSim(spec, scenario.obj) for spec in scenario.chains]
        keys = [_kernel_key(ch, spec.profile) for ch, spec in zip(self.chains, scenario.chains)]
        ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        self.kernel_of = [ids[key] for key in keys]
        firsts = [keys.index(key) for key in ids]
        self.kernels = [self.chains[c] for c in firsts]
        self.schedules = [scenario.chains[c].profile for c in firsts]
        self.mon = [spec.tendon_id for spec in scenario.chains].index(scenario.monitored_stack)
        self.n_samples = round(scenario.duration / sim.dt_sample) + 1
        steps = (self.n_samples - 1) * sim.steps_per_sample
        t = np.arange(1, steps + 1) * sim.dt_internal
        self.limits = (scenario.amplifier.slew_max * sim.dt_internal, scenario.amplifier.v_ceiling)
        self.volts = {key: np.concatenate(([0.0], _slew(p(t), 0.0, *self.limits)))
                      for key, p in {p.identity: p for p in self.schedules}.items()}
        self.v_mon = self.volts[scenario.chains[self.mon].profile.identity]
        self.x, self.target, self.residual = np.zeros((3, len(self.kernels), self.n_samples))
        self.x_mon = np.zeros(steps + 1)
        self.hold: Optional[tuple[int, float]] = None
        self.free: dict[Optional[int], SignalTrace] = {}

    def extend(self) -> None:
        """Step every kernel from the run's start (sample 0, or hold[0] for
        a held copy) to its last sample and record it.

        Each kernel starts from this record's state at the start, which it
        may have left for a held copy's or a run that raised part-way.
        ChainSim.run steps each kernel on a slice of its schedule's
        applied voltage in verified runs: held runs by one array
        comparison, pushed runs by the x recurrence alone, each checked
        against the net force at every step. Every step of the monitored
        chain's kernel is recorded.
        """
        k0 = 0 if self.hold is None else self.hold[0]
        sps, r = self.sim.steps_per_sample, self.sim.dt_internal / self.sim.tau_mech
        steps, recorded = slice(k0 * sps + 1, len(self.x_mon)), slice(k0 + 1, self.n_samples)
        for i, (kernel, schedule) in enumerate(zip(self.kernels, self.schedules)):
            kernel.x, kernel.max_residual = float(self.x[i, k0]), float(self.residual[i, k0])
            run = kernel.run(self.volts[schedule.identity][steps], r)
            for record, values in zip((self.x, self.target, self.residual), run):
                record[i, recorded] = values[sps - 1::sps]
            if i == self.kernel_of[self.mon]:
                self.x_mon[steps] = run[0]

    def held_at(self, k: int) -> Plant:
        """A copy of this record, stepped to its end, held from sample k
        on: each schedule's voltage after sample k is the slew toward its
        command at sample k - 1 (at sample 0 for k = 0), limited to the
        amplifier ceiling. The copy's hold records k and the monitored
        chain's held command; it has arrays of its own, the record's
        through sample k, and an empty map of traces, so extend steps it
        from sample k on.

        It shares this record's kernels, which extend sets to the stepped
        record's state first: the chains of a kernel are in one state at
        sample k and hold one command."""
        held = copy.copy(self)
        held.free = {}
        j, t_prev = k * self.sim.steps_per_sample, max(k - 1, 0) * self.sim.dt_sample
        dv_max, ceiling = self.limits
        cmd = {p.identity: min(p(t_prev), ceiling) for p in self.schedules}
        held.volts = {key: np.concatenate((v[:j + 1], _slew(np.full(len(v) - j - 1, cmd[key]),
                                                             float(v[j]), dv_max, ceiling)))
                      for key, v in self.volts.items()}
        mon = self.scenario.chains[self.mon].profile.identity
        held.v_mon, held.hold = held.volts[mon], (k, cmd[mon])
        held.x, held.target, held.residual, held.x_mon = (
            a.copy() for a in (self.x, self.target, self.residual, self.x_mon))
        return held

    def current(self) -> np.ndarray:
        """Noise-free drawn current (uA) of the monitored stack at every
        sample of the run, stepped to its end, from the differences around
        each sample's internal step: 0 / dt = 0 for a run of zero duration."""
        sps, dt = self.sim.steps_per_sample, self.sim.dt_internal
        idx = np.arange(self.n_samples) * sps
        lo = np.maximum(idx - 1, 0)
        hi = np.minimum(idx + 1, (self.n_samples - 1) * sps)
        span = np.maximum(hi - lo, 1) * dt
        stack = self.chains[self.mon].spec.stack
        x, v = self.x_mon, self.v_mon
        dv = (v[hi] - v[lo]) / span
        dc = (capacitance_of(stack, x[hi]) - capacitance_of(stack, x[lo])) / span
        return displacement_current(capacitance_of(stack, x[idx]), dv, v[idx], dc)

    def noise_free(self, k: Optional[int] = None) -> SignalTrace:
        """The trace without monitor noise or seed of this record's run (k
        None), or of its copy held from sample k (held_at(k)): v_meas is the
        monitored chain's applied voltage at the samples. Its columns are
        read-only, so the traces that share them cannot change one another.

        The record keeps one map, free, of the traces it has built: key
        None holds the open-loop trace, key k the trace held from sample k,
        which depends on k alone. An entry is stored only once its assembly
        has returned, and a later call returns it, stepping nothing; each
        trace carries its encoded frame (SignalTrace.frame). The held copy
        itself is not kept, since its arrays are the size of the record's.
        A first call steps the record to its end; a first call with k
        assembles the record's own trace first, then steps the held copy
        from sample k. Raises ModelConsistencyError, on every call, when
        the run's stall residual exceeds STALL_RESIDUAL_TOL_N.
        """
        if k is not None and k not in self.free:
            self.noise_free()
            self.free[k] = self.held_at(k).noise_free()
        if k in self.free:
            return self.free[k]
        scenario, sim, n = self.scenario, self.sim, self.n_samples
        self.extend()
        max_residual = float(self.residual[:, -1].max())
        if max_residual > STALL_RESIDUAL_TOL_N:
            raise ModelConsistencyError(
                f"scenario {scenario.name}: stall residual {max_residual:.3g} N "
                f"exceeds {STALL_RESIDUAL_TOL_N} N"
            )
        t = np.arange(n) * sim.dt_sample
        v_cmd = scenario.chains[self.mon].profile(t)
        if self.hold is not None:
            v_cmd[self.hold[0]:] = self.hold[1]
        keyed: dict[str, dict[str, np.ndarray]] = {group: {} for group in KEYED_COLUMNS}
        first_contact: dict[str, float] = {}
        x = self.x.copy()
        x.flags.writeable = False
        for ch, i in zip(self.chains, self.kernel_of):
            spec, xs, xt = ch.spec, x[i], self.target[i]
            keyed["x"][spec.tendon_id] = xs
            keyed["c"][spec.tendon_id] = capacitance_of(spec.stack, xs)
            theta = spec.theta_at(xs)
            for j, key in zip(spec.joint_group, spec.joint_keys):
                keyed["theta"][key] = theta
                keyed["f_contact"][key] = np.zeros_like(theta)
                if j in ch.contact:
                    x_on, theta_on, k_obj, _ = ch.contact[j]
                    keyed["f_contact"][key] = contact_force(k_obj, theta_on, theta)
                    engaged = np.maximum(xs, xt) >= x_on - 1e-12
                    if engaged.any():
                        first_contact[key] = float(t[int(np.argmax(engaged))])
        v_meas, i_meas = self.v_mon[::sim.steps_per_sample].copy(), self.current()
        for a in (t, v_cmd, v_meas, i_meas, *(a for cols in keyed.values() for a in cols.values())):
            a.flags.writeable = False
        hold = [] if self.hold is None else [{"t": float(t[self.hold[0]]), "v_held": self.hold[1]}]
        self.free[None] = SignalTrace(t=t, v_cmd=v_cmd, v_meas=v_meas, i_meas=i_meas, **keyed, meta={
            "scenario": scenario.name,
            "config_hash": scenario.config_fingerprint,
            "profile_hash": scenario.profile_fingerprint,
            "dt_sample": sim.dt_sample,
            "dt_internal": sim.dt_internal,
            "duration": scenario.duration,
            "monitored_stack": scenario.monitored_stack,
            "object": scenario.obj_name,
            "noise": {"v": scenario.amplifier.monitor_noise_v, "i": scenario.amplifier.monitor_noise_i},
            "max_equilibrium_residual_n": max_residual,
            "final_x_target": {ch.spec.tendon_id: float(self.target[i, -1])
                               for ch, i in zip(self.chains, self.kernel_of)},
            "events": {"first_contact": first_contact, "hold": hold},
            "controller_modes": {"final": "holding" if hold else "ramping"},
        })
        return self.free[None]


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

# An overflow or NaN is refused by name where a value is checked, so
# numpy's warning would only precede the DomainError.
@np.errstate(over="ignore", invalid="ignore")
def run_scenario(
    plant: Plant,
    seed: int,
    commander: Optional[Callable[[np.ndarray], Optional[int]]] = None,
) -> SignalTrace:
    """Run seed on plant, the open-loop record of its scenario under that
    scenario's sim, and return the monitor trace.

    Deterministic for a fixed seed: the monitor noise comes from one
    seeded generator, so identical runs produce identical traces
    byte for byte, whether their record is fresh or shared.

    commander, when given, is called once, with the measured current of
    samples 0..n_samples-2 of the open-loop run, and returns a sample k
    in 0..n_samples-1 or None; it must be causal (see the module
    docstring). A hold at sample k holds every schedule from sample k on
    at its command at sample k - 1 (at sample 0 for k = 0), limited to
    the amplifier ceiling. The hold instant and the monitored channel's
    held voltage are recorded as the trace's hold event.

    The trace is the record's Plant.noise_free(k), with k None open
    loop, with noise in v_meas and i_meas and the seed in a copy of its
    meta, made by dataclasses.replace: the traces of one noise-free trace
    share its other columns, read-only, and its encoded frame
    (SignalTrace.to_csv_text). Raises ModelConsistencyError when the
    record's stall residual, or its held copy's, exceeds
    STALL_RESIDUAL_TOL_N (a closed-loop run on a failing record raises
    the open-loop run's error, before its commander is called),
    DomainError when a net force or a value of the trace is not finite
    (the first in file order), ConfigError, before any work, for a
    negative seed, which the generator cannot take, and ValueError,
    before any held work, for a hold sample that is not an integer in
    0..n_samples-1: a float or a bool is refused, and a numpy integer is
    taken as the int it equals.
    """
    scenario = plant.scenario
    if seed < 0:
        raise ConfigError(f"scenario {scenario.name}: seed {seed} must be >= 0")
    amp = scenario.amplifier
    # Generator.normal(loc, scale) is loc + scale * standard_normal, so
    # this block equals one normal() per monitor per sample, v first.
    z = np.random.default_rng(seed).standard_normal((plant.n_samples, 2))
    noise_v, noise_i = 0.0 + amp.monitor_noise_v * z[:, 0], 0.0 + amp.monitor_noise_i * z[:, 1]

    free = plant.noise_free()
    if commander is not None:
        k = commander(free.i_meas[:-1] + noise_i[:-1])
        if k is not None:
            if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                    or k not in range(plant.n_samples)):
                raise ValueError(f"scenario {scenario.name}: hold sample {k} is not an "
                                 f"integer in 0..{plant.n_samples - 1}")
            k = int(k)
        free = plant.noise_free(k)

    # Only the noise depends on the seed. Each trace has dicts of its own at
    # every depth; the arrays in them are shared, read-only.
    trace = replace(free, v_meas=free.v_meas + noise_v, i_meas=free.i_meas + noise_i,
                    **{group: dict(getattr(free, group)) for group in KEYED_COLUMNS},
                    meta={**_copied(free.meta), "seed": int(seed)})
    # A huge sigma can overflow the noise; the first bad value is named in file order.
    bad = _nonfinite(trace.columns())
    if bad:
        name, value, k = bad
        raise DomainError(f"scenario {scenario.name}: non-finite value {value} "
                          f"in column {name!r} at sample {k}")
    return trace
