"""Electromechanical model of a stacked Peano-HASEL actuator.

A stack is several pouch actuators in mechanical parallel. Its active
force is a tabulated force-contraction curve at a reference voltage,
scaled electrostatically with applied voltage; its capacitance grows
linearly as the electrodes zip together; the current it draws is the
displacement current of a variable capacitor,

    i = C * dv/dt + v * dC/dt.

Units are fixed throughout the package: mm, kV, N, nF, uA, s.
With these units the two current terms come out in uA directly
(nF * kV/s == uA).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class StackConfig:
    """Static parameters of one actuator stack.

    force_knots tabulate contraction (mm) vs force (N) at v_ref; the
    curve is extended linearly to zero force at x_free. c0/c_slope are
    totals for the whole stack, not per pouch.
    """

    force_knots: tuple[tuple[float, float], ...]
    v_ref: float = field(metadata={"gt": 0.0})
    x_free: float = 12.0
    c0: float = field(default=0.4, metadata={"gt": 0.0})
    c_slope: float = field(default=0.1, metadata={"ge": 0.0})
    v_max: float = 6.0
    force_exponent: float = field(default=2.0, metadata={"gt": 0.0})

    def __post_init__(self):
        if len(self.force_knots) < 2:
            raise ConfigError("force_knots needs at least two points")
        xs = [x for x, _ in self.force_knots]
        fs = [f for _, f in self.force_knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("force_knots must be strictly increasing in contraction")
        if any(f < 0 for f in fs):
            raise ConfigError("force_knots forces must be non-negative")
        if any(b > a for a, b in zip(fs, fs[1:])):
            raise ConfigError("force_knots forces must be non-increasing")
        if self.v_ref > self.v_max:
            raise ConfigError("v_ref must be <= v_max")
        if self.x_free < xs[-1]:
            raise ConfigError("x_free must be >= last knot contraction")
        if self.x_free == xs[-1] and fs[-1] != 0.0:
            raise ConfigError("force at x_free must be 0 when the knot table ends there")

    @property
    def curve(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Knot table extended to (x_free, 0), as (xs, forces)."""
        xs = [x for x, _ in self.force_knots]
        fs = [f for _, f in self.force_knots]
        if xs[-1] < self.x_free:
            xs.append(self.x_free)
            fs.append(0.0)
        return tuple(xs), tuple(fs)


def _interp_curve(xs: Sequence[float], fs: Sequence[float], x: float) -> float:
    """Piecewise-linear interpolation on a sorted knot table."""
    if x <= xs[0]:
        return fs[0]
    if x >= xs[-1]:
        return fs[-1]
    j = bisect_right(xs, x) - 1
    x0, x1 = xs[j], xs[j + 1]
    f0, f1 = fs[j], fs[j + 1]
    return f0 + (f1 - f0) * (x - x0) / (x1 - x0)


def reference_force(cfg: StackConfig, x: float) -> float:
    """Force (N) at contraction x with v_ref applied."""
    xs, fs = cfg.curve
    return _interp_curve(xs, fs, x)


def voltage_scale(v, v_ref: float, exponent: float, who: str):
    """Force scale (v / v_ref) ** exponent at voltage v (kV), a float or an
    array: a product for exponent 2, else one Python float power per
    voltage. A scale that is not finite is a DomainError naming who."""
    s = np.asarray(v, dtype=float) / v_ref
    try:
        a = s * s if exponent == 2.0 else np.array([e ** exponent for e in np.ravel(s).tolist()])
    except OverflowError:
        a = np.inf
    if not np.isfinite(a).all():
        raise DomainError(f"{who}: voltage scale {s.max()} to the force exponent {exponent} "
                          f"overflows")
    return a if np.ndim(v) else a.item()


def voltage_for_force(cfg: StackConfig, force: float, who: str) -> Optional[float]:
    """Voltage (kV) at which the force at zero contraction is force, by the
    law's inverse power; None if the curve has no force there."""
    f0 = reference_force(cfg, 0.0)
    if f0 <= 0:
        return None
    try:
        v = cfg.v_ref * (force / f0) ** (1.0 / cfg.force_exponent)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"{who}: force ratio {force / f0} to the inverse force exponent "
                          f"{1.0 / cfg.force_exponent} overflows")
    return v


def active_force(cfg: StackConfig, v, x: float, who: str = "stack"):
    """Active contraction force (N) at voltage v (kV), a float or an array,
    and contraction x (mm).

    The tabulated curve gives the force at v_ref; other voltages scale
    it by voltage_scale (Maxwell-stress scaling with the default exponent
    of 2), whose DomainError names who.
    """
    if not 0.0 <= x <= cfg.x_free:
        raise DomainError(f"contraction x={x} mm outside [0, x_free={cfg.x_free}]")
    lo, hi = np.min(v, initial=0.0), np.max(v, initial=0.0)
    if not (0.0 <= lo and hi <= cfg.v_max):
        raise DomainError(f"voltage v={hi if lo >= 0.0 else lo} kV outside [0, v_max={cfg.v_max}]")
    return reference_force(cfg, x) * voltage_scale(v, cfg.v_ref, cfg.force_exponent, who)


def capacitance_of(cfg: StackConfig, x):
    """Stack capacitance (nF) at contraction x (mm): c0 + c_slope * x.

    x may be a float or an array (also empty), and every value must lie
    in [0, x_free].
    """
    lo, hi = np.min(x, initial=0.0), np.max(x, initial=0.0)
    if not (0.0 <= lo and hi <= cfg.x_free):
        raise DomainError(f"contraction x={hi if lo >= 0.0 else lo} mm "
                          f"outside [0, x_free={cfg.x_free}]")
    return cfg.c0 + cfg.c_slope * x


def displacement_current(c: float, dv_dt: float, v: float, dc_dt: float) -> float:
    """Current (uA) drawn by a variable capacitor.

    c in nF, dv_dt in kV/s, v in kV, dc_dt in nF/s. The second term is
    the motion-dependent component: it vanishes when deformation stops.
    """
    return c * dv_dt + v * dc_dt
