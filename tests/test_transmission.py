import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import (
    DomainError,
    TendonPath,
    default_config,
    delivered_tension,
    excursion_of,
    extensor_tension,
    reflected_load,
    resolve_scenario,
)
from haselhand.config import decode
from haselhand.errors import ConfigError
from haselhand.plant import ChainSim


def path(**kw) -> TendonPath:
    args = dict(pulley_ratio=2.0, eta_fwd=1.0, f_breakaway=0.0,
                slack=0.0, k_ext=0.0, f_ext0=0.0)
    args.update(kw)
    return TendonPath(**args)


class TestExcursion:
    def test_stroke_amplification_pairs(self):
        p = path()
        assert excursion_of(p, 6.0) == 12.0
        assert excursion_of(p, 8.5) == 17.0

    def test_slack_not_yet_consumed(self):
        assert excursion_of(path(slack=1.0), 0.4) == 0.0

    def test_negative_contraction_rejected(self):
        with pytest.raises(DomainError):
            excursion_of(path(), -0.1)

    @given(x=st.floats(0, 20), dx=st.floats(0, 5))
    @settings(max_examples=200)
    def test_monotone_and_ratio_lipschitz(self, x, dx):
        p = path(slack=1.5)
        e0, e1 = excursion_of(p, x), excursion_of(p, x + dx)
        assert e1 >= e0
        assert e1 - e0 <= p.pulley_ratio * dx + 1e-9

    def test_zero_inside_slack_band(self):
        p = path(slack=2.0)
        for x in (0.0, 0.25, 0.5, 0.99):
            assert excursion_of(p, x * p.slack / p.pulley_ratio) == 0.0


class TestReflectedLoad:
    def test_ideal_pulley(self):
        assert reflected_load(path(), 1.0) == 2.0

    def test_efficiency_division(self):
        assert reflected_load(path(eta_fwd=0.8), 1.0) == pytest.approx(2.5)

    def test_zero(self):
        assert reflected_load(path(eta_fwd=0.8), 0.0) == 0.0

    def test_negative_tension_rejected(self):
        with pytest.raises(DomainError):
            reflected_load(path(), -1.0)

    @given(tension=st.floats(0, 50), x=st.floats(0.1, 10), dx=st.floats(1e-4, 1.0))
    @settings(max_examples=100)
    def test_energy_conserved_at_unit_efficiency(self, tension, x, dx):
        # Work at the actuator equals work at the tendon when eta = 1:
        # reflected_load(T) * dx == T * d(excursion).
        p = path(eta_fwd=1.0)
        work_act = reflected_load(p, tension) * dx
        work_tendon = tension * (excursion_of(p, x + dx) - excursion_of(p, x))
        assert work_act == pytest.approx(work_tendon, rel=1e-9, abs=1e-9)


class TestExtensor:
    def test_pretension_only_at_zero(self):
        assert extensor_tension(path(f_ext0=0.7), 0.0) == 0.7

    def test_linear_spring(self):
        p = path(k_ext=0.05, f_ext0=0.2)
        assert extensor_tension(p, 12.0) == pytest.approx(0.8)

    def test_doubling_without_pretension(self):
        p = path(k_ext=0.31)
        assert extensor_tension(p, 8.0) == pytest.approx(2 * extensor_tension(p, 4.0))


def gated_chain(f_breakaway, f_ext0=0.0) -> ChainSim:
    """The default index MCP chain with the given breakaway and pretension."""
    chains = resolve_scenario(default_config(), "free_motion").chains
    spec = next(c for c in chains if c.tendon_id == "index_mcp")
    return ChainSim(replace(spec, path=path(f_breakaway=f_breakaway, f_ext0=f_ext0)), None)


def volts_for_net(chain: ChainSim, net: float) -> float:
    """Applied voltage (kV) at which the chain's net force at its x is net."""
    x = chain.x
    a = (net + float(chain._load_at(x))) / float(np.interp(x, chain.xs, chain.fs))
    return chain.v_ref * math.sqrt(a)


class TestMotionPermitted:
    """ChainSim's stiction gate: x moves only when |net force| exceeds
    the breakaway force."""

    def test_below_breakaway_blocked(self):
        chain = gated_chain(0.5, f_ext0=1.0)
        assert chain.advance(volts_for_net(chain, 0.4), 0.5) == chain.x == 0.0

    def test_above_breakaway_moves(self):
        chain = gated_chain(0.5, f_ext0=1.0)
        chain.advance(volts_for_net(chain, 0.6), 0.5)
        assert chain.x > 0.0
        chain.x = 3.0
        chain.advance(volts_for_net(chain, -0.6), 0.5)
        assert chain.x < 3.0

    def test_frictionless_limit(self):
        chain = gated_chain(0.0)
        assert chain.advance(0.0, 0.5) == chain.x == 0.0
        chain.advance(1e-6, 0.5)
        assert chain.x > 0.0


class TestDeliveredTension:
    def test_friction_subtracted_then_divided(self):
        p = path(eta_fwd=0.55, f_breakaway=3.0)
        assert delivered_tension(p, 25.3) == pytest.approx(0.55 * 22.3 / 2.0)

    def test_below_breakaway_delivers_nothing(self):
        assert delivered_tension(path(f_breakaway=3.0), 2.0) == 0.0


class TestValidation:
    """Domains are checked where a document is decoded, so these decode one."""

    def test_bad_efficiency(self):
        with pytest.raises(ConfigError, match="tendon.eta_fwd: 0.0 must be > 0.0"):
            decode(TendonPath, {"eta_fwd": 0.0}, "tendon")
        with pytest.raises(ConfigError, match="tendon.eta_fwd: 1.2 must be <= 1.0"):
            decode(TendonPath, {"eta_fwd": 1.2}, "tendon")

    def test_bad_ratio(self):
        with pytest.raises(ConfigError, match="tendon.pulley_ratio: -2.0 must be > 0.0"):
            decode(TendonPath, {"pulley_ratio": -2.0}, "tendon")
