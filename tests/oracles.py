"""Slow reference implementations the package is checked against.

Each oracle computes one thing the package computes faster, in the
most direct way: the grasp detector sample by sample, the chain step
one Python call at a time, the slew-limited amplifier voltage one step
at a time, the stall point by bisection on the force balance, the
onset voltage from the transmission laws at rest, the monitored current
from the stored capacitance and voltage columns, and the CSV document
one repr per cell. None of them is used by the package itself.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from haselhand.actuator import StackConfig, active_force, voltage_for_force
from haselhand.config import DetectionConfig, HandConfig
from haselhand.errors import ConfigError, InsufficientDataError, ModelConsistencyError
from haselhand.trace import SignalTrace
from haselhand.transmission import extensor_tension, reflected_load

_T_EPS = 1e-9

# Bisection defaults for the quasi-static force balance.
FORCE_TOL_N = 1e-6
MAX_BISECT_ITER = 200


def window_mean(values) -> float:
    """Mean of a window summed value by value, oldest first.

    Written as a loop because the builtin sum() of floats is compensated
    from Python 3.12 on, which is not what a plain running sum gives.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


class StreamingDetector:
    """Sample-by-sample grasp detector, the reference for detect_grasp.

    Feed monitor samples in order; the verdict latches once the smoothed
    current has stayed below the threshold for debounce consecutive
    samples inside the window.
    """

    def __init__(self, cfg: DetectionConfig):
        if cfg.i_threshold is None:
            raise ConfigError("detector has no calibrated i_threshold")
        self.cfg = cfg
        self._buf: deque[float] = deque(maxlen=cfg.smoothing)
        self._run_start: Optional[float] = None
        self._count = 0
        self.grasped = False
        self.decision_time: Optional[float] = None
        self._last_t: Optional[float] = None

    def feed(self, t: float, i_meas: float) -> None:
        self._last_t = t
        self._buf.append(i_meas)
        if self.grasped:
            return
        lo, hi = self.cfg.window
        if t < lo - _T_EPS or t > hi + _T_EPS:
            return
        if window_mean(self._buf) < self.cfg.i_threshold:
            if self._count == 0:
                self._run_start = t
            self._count += 1
            if self._count >= self.cfg.debounce:
                self.grasped = True
                self.decision_time = self._run_start
        else:
            self._count = 0
            self._run_start = None

    def verdict(self) -> tuple[bool, Optional[float]]:
        hi = self.cfg.window[1]
        if self._last_t is None or self._last_t + _T_EPS < hi:
            raise InsufficientDataError(
                f"stream ended at {self._last_t} s before window end {hi} s"
            )
        return self.grasped, self.decision_time


class ScalarChain:
    """A chain stepped one internal step per call, with scalar arithmetic
    on the breakpoint table: the reference for ChainSim.run.

    It starts from the tables, parameters and state of a ChainSim.
    """

    def __init__(self, chain):
        self.xs, self.fs, self.ls = list(chain.xs), list(chain.fs), list(chain.ls)
        self.v_ref = chain.v_ref
        self.exponent = chain.exponent
        self.f_breakaway = chain.f_breakaway
        self.x_cap = chain.x_cap
        self.x = chain.x
        self.max_residual = chain.max_residual
        # One-entry memo: the tables are static, so a repeated voltage
        # scale (hold phases) reuses its stall point.
        self._memo: tuple[float, float, float] | None = None

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


def slew(cmd: np.ndarray, v: float, dv_max: float, ceiling: float) -> np.ndarray:
    """Applied voltage after each step toward the commands cmd from v, one
    step at a time: the reference for plant._slew. A step moves v by
    c - v, limited to [-dv_max, dv_max], and keeps it within [0, ceiling]."""
    out = []
    for c in cmd.tolist():
        dv = c - v
        if dv < -dv_max:
            dv = -dv_max
        elif dv > dv_max:
            dv = dv_max
        v += dv
        if v < 0.0:
            v = 0.0
        elif v > ceiling:
            v = ceiling
        out.append(v)
    return np.array(out)

def equilibrium_contraction(
    cfg: StackConfig,
    v: float,
    load: Callable[[float], float],
    force_tol: float = FORCE_TOL_N,
    max_iter: int = MAX_BISECT_ITER,
) -> float:
    """Contraction x* (mm) where active force balances a monotone load.

    load(x) must be non-decreasing in x, so the residual
    active_force(cfg, v, x) - load(x) is non-increasing and bisection
    brackets the unique root. Returns 0 when the load already exceeds
    the available force at x = 0, and x_free when the actuator is never
    fully opposed.
    """
    def residual(x: float) -> float:
        return active_force(cfg, v, x) - load(x)

    r_lo = residual(0.0)
    if r_lo <= 0.0:
        return 0.0
    r_hi = residual(cfg.x_free)
    if r_hi >= 0.0:
        return cfg.x_free

    lo, hi = 0.0, cfg.x_free
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        # A monotone residual must stay inside the bracket values.
        if r_mid > r_lo + force_tol or r_mid < r_hi - force_tol:
            raise ModelConsistencyError(
                f"non-monotone residual at x={mid:.6g} mm "
                f"(r={r_mid:.6g} outside [{r_hi:.6g}, {r_lo:.6g}])"
            )
        if abs(r_mid) <= force_tol:
            return mid
        if r_mid > 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    raise ModelConsistencyError(
        f"force balance did not converge to {force_tol} N in {max_iter} iterations"
    )


def onset_voltage(cfg: HandConfig, tendon_id: str) -> Optional[float]:
    """Commanded voltage below which stiction keeps the chain at rest: the
    stack's force at zero contraction must overcome the breakaway force
    plus the extensor's pretension, reflected through the pulley."""
    path = cfg.tendons[tendon_id]
    need = path.f_breakaway + reflected_load(path, extensor_tension(path, 0.0))
    return voltage_for_force(cfg.stacks[tendon_id], need, f"stack {tendon_id}")


def reconstruct_current(trace: SignalTrace, stack: str) -> np.ndarray:
    """Re-derive the monitored current from the stored c(t) and v(t).

    Central differences on the sampled series; the first and last
    samples cannot be reconstructed and are returned as NaN. An
    independent cross-check of the simulator's current synthesis.
    """
    c = trace.c[stack]
    v = trace.v_meas
    n = len(trace)
    out = np.full(n, np.nan)
    if n < 3:
        return out
    dt = trace.meta["dt_sample"]
    dv = (v[2:] - v[:-2]) / (2 * dt)
    dc = (c[2:] - c[:-2]) / (2 * dt)
    out[1:-1] = c[1:-1] * dv + v[1:-1] * dc
    return out


def csv_text(columns: list[tuple[str, Any]]) -> str:
    """CSV document of (header name, values) columns of equal length.

    Values are written as repr of the float, so equal inputs give equal
    bytes.
    """
    arrays = [values for _, values in columns]
    lines = [",".join(name for name, _ in columns)]
    for k in range(len(arrays[0])):
        lines.append(",".join(repr(float(a[k])) for a in arrays))
    return "\n".join(lines) + "\n"
