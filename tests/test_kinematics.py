import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import (
    DomainError,
    FingerLayout,
    JointSpec,
    ObjectModel,
    ProfileSpec,
    TendonPath,
    contact_force,
    default_config,
    excursion_of,
    extensor_tension,
    fingertip_force,
    reflected_load,
)
from haselhand.config import ChainSpec
from haselhand.errors import ConfigError
from haselhand.plant import ChainSim

HALF_PI = math.pi / 2
R_MCP = 34.0 / math.pi      # 17 mm excursion for a full 90 deg flexion
R_HALF = 12.0 / math.pi     # each of the coupled pair; sum rolls 12 mm to 90 deg


def index_layout() -> FingerLayout:
    return FingerLayout(
        joints=(
            JointSpec("mcp", R_MCP, HALF_PI, 45.0),
            JointSpec("pip", R_HALF, HALF_PI, 28.0),
            JointSpec("dip", R_HALF, HALF_PI, 22.0),
        ),
        coupled_pair=(1, 2),
        tendon_ids=("index_mcp", "index_pip_dip"),
    )


def thumb_layout() -> FingerLayout:
    return FingerLayout(
        joints=(
            JointSpec("mcp", R_MCP, HALF_PI, 32.0),
            JointSpec("ip", 24.0 / math.pi, HALF_PI, 25.0),
        ),
        tendon_ids=("thumb_mcp", "thumb_ip"),
    )


STACK = default_config().stacks["index_mcp"]


def chain(layout: FingerLayout, tendon: int, finger: str = "index") -> ChainSpec:
    """The chain driving the tendon-th joint group of the layout of finger,
    through an ideal 1:2 pulley without slack, so contraction x gives excursion 2x."""
    return ChainSpec(layout.tendon_ids[tendon], finger, layout,
                     layout.tendon_joint_groups()[tendon], STACK,
                     TendonPath(eta_fwd=1.0, f_breakaway=0.0), ProfileSpec())


class TestAnglesFromExcursion:
    """ChainSpec.theta_at, the one map from contraction to joint angle."""

    def test_full_mcp_flexion_at_17mm(self):
        assert chain(index_layout(), 0).theta_at(8.5) == pytest.approx(HALF_PI, rel=1e-12)

    def test_coupled_pair_full_flexion_at_12mm(self):
        pair = chain(index_layout(), 1)
        assert pair.joint_group == (1, 2)
        assert pair.theta_at(6.0) == pytest.approx(HALF_PI, rel=1e-12)

    def test_rest_pose(self):
        for tendon in (0, 1):
            assert chain(index_layout(), tendon).theta_at(0.0) == 0.0

    def test_negative_excursion_rejected(self):
        with pytest.raises(DomainError):
            chain(index_layout(), 0).theta_at(-0.5)
        with pytest.raises(DomainError):
            chain(index_layout(), 0).theta_at(np.array([0.0, -0.5]))

    @given(x=st.floats(0, 20), dx=st.floats(0, 5))
    @settings(max_examples=200)
    def test_monotone_and_saturating(self, x, dx):
        for tendon in (0, 1):
            spec = chain(index_layout(), tendon)
            t0, t1 = spec.theta_at(x), spec.theta_at(x + dx)
            assert t0 <= t1 <= spec.theta_cap
            # A whole column maps sample by sample, bit for bit.
            assert spec.theta_at(np.array([x, x + dx])).tolist() == [t0, t1]

    def test_coupling_is_hard(self, free_trace_nf):
        # The coupled pair flexes with one common angle on every sample.
        assert np.array_equal(free_trace_nf.theta["index_pip"], free_trace_nf.theta["index_dip"])
        assert free_trace_nf.theta["index_pip"].max() > 0

    def test_saturates_exactly_at_limit(self):
        for tendon in (0, 1):
            assert chain(index_layout(), tendon).theta_at(50.0) == HALF_PI

    def test_thumb_has_independent_joints(self):
        layout = thumb_layout()
        assert [chain(layout, t, "thumb").joint_group for t in (0, 1)] == [(0,), (1,)]
        assert chain(layout, 0, "thumb").theta_at(8.5) == pytest.approx(HALF_PI)
        assert chain(layout, 1, "thumb").theta_at(0.0) == 0.0

    @given(theta=st.floats(0, HALF_PI))
    @settings(max_examples=100)
    def test_inverse_map(self, theta):
        spec = replace(chain(index_layout(), 1), path=TendonPath(slack=1.5))
        assert spec.theta_at(spec.x_at(theta)) == pytest.approx(theta, abs=1e-12)


class TestTendonTension:
    """Moment balance in the plant's load table: a contact force F on a
    joint with phalanx length l pulls the tendon with F * l / r, r being
    the rolling radius of the driven group (summed over a coupled pair)."""

    @staticmethod
    def contact_tension(layout, tendon, obj, x, finger="index"):
        sim = ChainSim(chain(layout, tendon, finger), obj)
        free = ChainSim(chain(layout, tendon, finger), None)
        # eta = 1 and pulley ratio 2: the load is twice the tendon tension.
        return (float(sim._load_at(x)) - float(free._load_at(x))) / 2.0

    def test_moment_arm_division(self):
        layout = FingerLayout((JointSpec("mcp", 10.0, HALF_PI, 40.0),), tendon_ids=("t_mcp",))
        obj = ObjectModel("compliant", 100.0, {"t": {"mcp": 0.3}})
        x = chain(layout, 0, "t").x_at(0.31)
        assert self.contact_tension(layout, 0, obj, x, "t") == pytest.approx(1.0 * 40.0 / 10.0)

    def test_zero_torque(self):
        # Without an object, and below the onset with one, the load is
        # the extensor's alone.
        spec = chain(index_layout(), 0)
        path = spec.path
        x = np.linspace(0.0, spec.x_cap, 7)
        extensor = reflected_load(path, extensor_tension(path, excursion_of(path, x)))
        assert ChainSim(spec, None)._load_at(x).tolist() == extensor.tolist()
        below = spec.x_at(0.29)
        assert self.contact_tension(index_layout(), 0, cube(theta_c=0.3), below) == 0.0

    def test_roundtrip_with_torque(self):
        # The contact force whose torque is t_in * r_eff at the MCP pulls
        # the tendon with t_in.
        layout, t_in = index_layout(), 2.5
        force = t_in * layout.joints[0].r_eff / layout.joints[0].phalanx_len
        x = chain(layout, 0).x_at(0.3 + force / 1e4)
        tension = self.contact_tension(layout, 0, cube(theta_c=0.3), x)
        assert tension == pytest.approx(t_in, rel=1e-6)

    def test_coupled_pair_sums_radii(self):
        obj = ObjectModel("compliant", 100.0, {"index": {"pip": 0.3, "dip": 0.3}})
        x = chain(index_layout(), 1).x_at(0.31)
        force = 100.0 * 0.01
        expected = (force * 28.0 + force * 22.0) / (2 * R_HALF)
        assert self.contact_tension(index_layout(), 1, obj, x) == pytest.approx(expected, rel=1e-9)


def cube(theta_c=0.3, k_obj=1e4) -> ObjectModel:
    return ObjectModel(
        "rigid", k_obj,
        {"index": {"mcp": theta_c, "pip": theta_c, "dip": theta_c}},
    )


class TestContactTorque:
    """contact_force, the one contact law, and the chain's contact table."""

    def test_no_penetration_below_contact_angle(self):
        assert contact_force(1e4, 0.3, 0.2) == 0.0

    def test_linear_contact_law(self):
        assert contact_force(100.0, 0.3, 0.31) == pytest.approx(1.0, rel=1e-9)
        assert contact_force(100.0, 0.3, np.array([0.2, 0.31])).tolist() == \
            [0.0, contact_force(100.0, 0.3, 0.31)]

    def test_rigid_penetration_stays_small(self):
        # Oracle: bisect the scalar balance k_obj * (theta - theta_c) = F
        # for forces up to 10 N; penetration must stay below 1e-3 rad.
        for force_n in (0.1, 1.0, 5.0, 10.0):
            lo, hi = 0.3, HALF_PI
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if contact_force(1e4, 0.3, mid) < force_n:
                    lo = mid
                else:
                    hi = mid
            assert hi - 0.3 <= 1e-3 + 1e-9

    def test_unlisted_joint_never_contacts(self):
        obj = ObjectModel("compliant", 100.0, {"index": {"mcp": 0.1}})
        assert chain(index_layout(), 1).contact_table(obj) == {}
        table = chain(index_layout(), 0).contact_table(obj)
        assert list(table) == [0]
        x_on, theta_on, k_obj, phalanx = table[0]
        assert (theta_on, k_obj, phalanx) == (pytest.approx(0.1, abs=1e-15), 100.0, 45.0)
        assert x_on == chain(index_layout(), 0).x_at(0.1)

    @given(theta=st.floats(0, HALF_PI))
    @settings(max_examples=100)
    def test_complementarity(self, theta):
        force = contact_force(1e4, 0.3, theta)
        assert force >= 0.0
        assert force * max(0.0, 0.3 - theta) == 0.0


class TestFingertipForce:
    def test_zero_tension_gives_zero(self):
        layout = index_layout()
        assert fingertip_force(layout, 0.0) == 0.0

    def test_moment_balance_linearity(self):
        layout = index_layout()
        f1 = fingertip_force(layout, 3.0, extensor_tension=1.0)
        f2 = fingertip_force(layout, 5.0, extensor_tension=1.0)
        # Doubling (tension - extensor) doubles the output.
        assert f2 == pytest.approx(2 * f1, rel=1e-12)

    def test_extensor_can_cancel_everything(self):
        assert fingertip_force(index_layout(), 1.0, extensor_tension=2.0) == 0.0


class TestValidation:
    def test_rigid_needs_high_stiffness(self):
        with pytest.raises(ConfigError):
            ObjectModel("rigid", 100.0, {})

    def test_fragile_needs_crush_threshold(self):
        with pytest.raises(ConfigError):
            ObjectModel("fragile", 100.0, {})

    def test_bad_coupled_pair(self):
        with pytest.raises(ConfigError):
            FingerLayout((JointSpec("mcp", 1.0, HALF_PI, 10.0),),
                         coupled_pair=(0, 3), tendon_ids=("a",))
