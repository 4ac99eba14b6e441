import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand import (
    DomainError,
    ModelConsistencyError,
    StackConfig,
    active_force,
    capacitance_of,
    displacement_current,
)
from haselhand.actuator import voltage_for_force, voltage_scale
from haselhand.errors import ConfigError
from oracles import equilibrium_contraction


def two_stack(**kw) -> StackConfig:
    args = dict(force_knots=((0.0, 25.3), (6.0, 2.0)), v_ref=5.5,
                x_free=12.0, c0=0.4, c_slope=0.1, v_max=6.0)
    args.update(kw)
    return StackConfig(**args)


class TestActiveForce:
    def test_measured_anchor_points(self):
        cfg = two_stack()
        assert active_force(cfg, 5.5, 0.0) == 25.3
        assert active_force(cfg, 5.5, 6.0) == 2.0

    def test_zero_voltage_gives_zero_force(self):
        assert active_force(two_stack(), 0.0, 3.0) == 0.0

    def test_midpoint_interpolation(self):
        assert active_force(two_stack(), 5.5, 3.0) == pytest.approx(13.65, abs=1e-12)

    def test_linear_tail_to_zero_at_x_free(self):
        cfg = two_stack()
        assert active_force(cfg, 5.5, 12.0) == 0.0
        assert active_force(cfg, 5.5, 9.0) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_voltage_scaling(self):
        cfg = two_stack()
        assert active_force(cfg, 2.75, 0.0) == pytest.approx(25.3 * 0.25, rel=1e-12)

    def test_domain_errors_name_the_bound(self):
        cfg = two_stack()
        with pytest.raises(DomainError, match="x_free"):
            active_force(cfg, 5.5, 12.5)
        with pytest.raises(DomainError, match="v_max"):
            active_force(cfg, 6.5, 0.0)
        with pytest.raises(DomainError):
            active_force(cfg, -0.1, 0.0)
        with pytest.raises(DomainError):
            active_force(cfg, 5.5, -0.1)

    def test_monotone_on_grid(self):
        cfg = two_stack()
        xs = [0.25 * k for k in range(49)]
        vs = [0.5 * k for k in range(12)]
        for v in vs:
            forces = [active_force(cfg, v, x) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(forces, forces[1:]))
        for x in xs:
            forces = [active_force(cfg, v, x) for v in vs]
            assert all(b >= a - 1e-12 for a, b in zip(forces, forces[1:]))

    @given(v=st.floats(0.0, 6.0), x=st.floats(0.0, 12.0))
    @settings(max_examples=200)
    def test_never_negative(self, v, x):
        assert active_force(two_stack(), v, x) >= 0.0


class TestVoltageScale:
    # The one force law gives an array the bits it gives each float: a
    # product for exponent 2, else Python's float power.
    @given(vs=st.lists(st.floats(0.0, 6.0), max_size=30), exponent=st.sampled_from((2.0, 1.5)))
    @settings(max_examples=100)
    def test_array_matches_floats_bit_for_bit(self, vs, exponent):
        scales = voltage_scale(np.array(vs), 5.5, exponent, "stack")
        want = [(v / 5.5) * (v / 5.5) if exponent == 2.0 else (v / 5.5) ** exponent for v in vs]
        assert scales.tolist() == want
        assert [voltage_scale(v, 5.5, exponent, "stack") for v in vs] == want
        forces = active_force(two_stack(force_exponent=exponent), np.array(vs), 3.0)
        assert forces.tolist() == [active_force(two_stack(force_exponent=exponent), v, 3.0)
                                   for v in vs]

    def test_inverse_gives_the_voltage_of_a_force(self):
        cfg = two_stack()
        assert voltage_for_force(cfg, 25.3 * 0.25, "stack") == pytest.approx(2.75, rel=1e-15)
        assert voltage_for_force(two_stack(force_knots=((0.0, 0.0), (6.0, 0.0))), 1.0,
                                 "stack") is None


class TestCapacitance:
    def test_zero_contraction_is_c0(self):
        assert capacitance_of(two_stack(), 0.0) == 0.4

    def test_linear_formula(self):
        cfg = two_stack(c0=0.2, c_slope=0.05)
        assert capacitance_of(cfg, 6.0) == pytest.approx(0.5, rel=1e-12)

    def test_strictly_increasing_on_grid(self):
        cfg = two_stack(c0=0.2, c_slope=0.05, x_free=15.0,
                        force_knots=((0.0, 25.3), (6.0, 2.0)))
        values = [capacitance_of(cfg, float(x)) for x in range(16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            capacitance_of(two_stack(), 12.5)


class TestDisplacementCurrent:
    def test_steady_state_is_zero(self):
        assert displacement_current(1.0, 0.0, 5.0, 0.0) == 0.0

    def test_charging_term_alone(self):
        assert displacement_current(1.0, 1.0, 3.3, 0.0) == 1.0

    def test_both_terms(self):
        i = displacement_current(0.3, 5.5, 2.0, 0.2)
        assert i == pytest.approx(2.05, rel=1e-12)

    @given(c=st.floats(0.01, 10), v=st.floats(0, 6),
           dv=st.floats(-50, 50), dc=st.floats(-5, 5),
           alpha=st.floats(-10, 10))
    @settings(max_examples=200)
    def test_bilinear_in_rates(self, c, v, dv, dc, alpha):
        scaled = displacement_current(c, alpha * dv, v, alpha * dc)
        base = displacement_current(c, dv, v, dc)
        assert scaled == pytest.approx(alpha * base, rel=1e-9, abs=1e-9)


class TestEquilibriumContraction:
    def test_unopposed_contracts_fully(self):
        cfg = two_stack()
        assert equilibrium_contraction(cfg, 5.5, lambda x: 0.0) == cfg.x_free

    def test_constant_load_roundtrip(self):
        # Oracle: the forward evaluation of the force curve itself.
        cfg = two_stack()
        for x0 in (0.5, 3.0, 5.9, 8.0):
            level = active_force(cfg, 5.5, x0)
            x_star = equilibrium_contraction(cfg, 5.5, lambda x, lv=level: lv)
            assert x_star == pytest.approx(x0, abs=1e-5)

    def test_rigid_spring_load(self):
        cfg = two_stack()
        k = 1e6
        x_star = equilibrium_contraction(cfg, 5.5, lambda x: k * x)
        # Analytic root of 25.3 - (23.3/6) x = k x.
        x_true = 25.3 / (k + 23.3 / 6.0)
        assert x_star == pytest.approx(x_true, abs=1e-6 / k)
        assert x_star < 1e-4

    def test_overloaded_returns_zero(self):
        cfg = two_stack()
        assert equilibrium_contraction(cfg, 5.5, lambda x: 30.0) == 0.0

    def test_balance_residual_within_tolerance(self):
        cfg = two_stack()
        for k in (0.1, 1.0, 10.0, 500.0):
            load = lambda x, k=k: 1.0 + k * x
            x_star = equilibrium_contraction(cfg, 5.0, load)
            assert abs(active_force(cfg, 5.0, x_star) - load(x_star)) <= 1e-6

    def test_non_monotone_load_detected(self):
        cfg = two_stack()

        def bad_load(x):
            if x < 3.0:
                return 0.0
            if x < 6.0:
                return 50.0
            return 10.0

        with pytest.raises(ModelConsistencyError):
            equilibrium_contraction(cfg, 5.5, bad_load)


class TestStackConfigValidation:
    def test_knots_must_increase(self):
        with pytest.raises(ConfigError):
            two_stack(force_knots=((0.0, 25.3), (0.0, 2.0)))

    def test_forces_must_not_increase(self):
        with pytest.raises(ConfigError):
            two_stack(force_knots=((0.0, 2.0), (6.0, 25.3)))

    def test_v_ref_within_v_max(self):
        with pytest.raises(ConfigError):
            two_stack(v_ref=6.5)

    def test_x_free_beyond_last_knot(self):
        with pytest.raises(ConfigError):
            two_stack(x_free=5.0)
