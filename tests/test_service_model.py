import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wedgeq import (
    ErrorCurve,
    ManualRoute,
    ReworkModel,
    RouteMoments,
    ValidationError,
    ai_route_moments,
    mixed_moments,
    residual_error,
    sample_ai,
    sample_manual,
    sample_rework,
)


class TestResidualError:
    def test_no_review_gives_p0(self):
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 0.0) == pytest.approx(0.9, rel=1e-15)

    def test_saturates_at_floor(self):
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 1e6) == pytest.approx(0.1, rel=1e-12)

    def test_hand_value(self):
        # 0.1 + 0.8 * exp(-1.5 * 1.2), evaluated independently
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 1.2) == pytest.approx(
            0.1 + 0.8 * math.exp(-1.8), rel=1e-14
        )

    def test_array_input(self):
        curve = ErrorCurve(p0=0.5, p_inf=0.0, kappa=2.0)
        out = residual_error(curve, np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.5)

    def test_negative_effort_rejected(self):
        curve = ErrorCurve(p0=0.5, p_inf=0.0, kappa=2.0)
        with pytest.raises(ValidationError):
            residual_error(curve, -0.1)

    @given(
        r1=st.floats(0.0, 50.0),
        r2=st.floats(0.0, 50.0),
        p0=st.floats(0.0, 1.0),
        frac=st.floats(0.0, 1.0),
        kappa=st.floats(0.01, 10.0),
    )
    def test_monotone_nonincreasing(self, r1, r2, p0, frac, kappa):
        curve = ErrorCurve(p0=p0, p_inf=p0 * frac, kappa=kappa)
        lo, hi = min(r1, r2), max(r1, r2)
        assert residual_error(curve, hi) <= residual_error(curve, lo) + 1e-15


class TestValidation:
    def test_error_curve_ordering(self):
        with pytest.raises(ValidationError):
            ErrorCurve(p0=0.1, p_inf=0.2, kappa=1.0)
        with pytest.raises(ValidationError):
            ErrorCurve(p0=1.2, p_inf=0.0, kappa=1.0)
        with pytest.raises(ValidationError):
            ErrorCurve(p0=0.5, p_inf=0.1, kappa=0.0)

    def test_route_moments_jensen(self):
        with pytest.raises(ValidationError):
            RouteMoments(mean=1.0, m2=0.9)
        # Within float slack of the boundary is accepted.
        RouteMoments(mean=1.0, m2=1.0)

    def test_route_moments_zero_mean(self):
        assert RouteMoments(mean=0.0, m2=0.0).c2 == 0.0
        with pytest.raises(ValidationError):
            RouteMoments(mean=0.0, m2=0.5)

    def test_manual_route(self):
        with pytest.raises(ValidationError):
            ManualRoute(tau_H=0.0, c2_H=0.1)
        with pytest.raises(ValidationError):
            ManualRoute(tau_H=1.0, c2_H=-0.1)

    def test_rework_model(self):
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=0.0, mu_R2=1.0)
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=2.0, mu_R2=3.9)
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=1.0, mu_R2=2.0, family="lognormal")

    def test_deterministic_rework_permitted(self):
        rw = ReworkModel(mu_R=2.0, mu_R2=4.0)
        assert rw.gamma_shape is None
        assert rw.variance == 0.0


class TestAiRouteMoments:
    def test_reference_calibration(self, curve, rework):
        m = ai_route_moments(curve, rework, 0.5)
        assert m.mean == pytest.approx(0.85, rel=1e-12)
        assert m.m2 == pytest.approx(1.625625, rel=1e-12)
        assert m.c2 == pytest.approx(1.25, rel=1e-12)

    def test_zero_review_zero_base(self):
        # r=0 with p0=0: no review, no errors -> zero time.
        curve = ErrorCurve(p0=0.0, p_inf=0.0, kappa=1.0)
        rework = ReworkModel(mu_R=2.0, mu_R2=5.0)
        m = ai_route_moments(curve, rework, 0.0)
        assert m.mean == 0.0
        assert m.m2 == 0.0

    def test_monte_carlo_oracle(self, curve, rework, rng):
        n = 400_000
        times, escaped = sample_ai(curve, rework, 0.5, rng, size=n)
        m = ai_route_moments(curve, rework, 0.5)
        assert times.mean() == pytest.approx(m.mean, rel=0.01)
        assert (times**2).mean() == pytest.approx(m.m2, rel=0.02)
        assert escaped.mean() == pytest.approx(0.15, abs=0.005)

    @given(
        r=st.floats(0.0, 5.0),
        p0=st.floats(0.0, 1.0),
        frac=st.floats(0.0, 1.0),
        kappa=st.floats(0.05, 8.0),
        mu=st.floats(0.01, 10.0),
        extra=st.floats(0.0, 30.0),
    )
    def test_moment_pairs_always_admissible(self, r, p0, frac, kappa, mu, extra):
        curve = ErrorCurve(p0=p0, p_inf=p0 * frac, kappa=kappa)
        rework = ReworkModel(mu_R=mu, mu_R2=mu * mu + extra)
        # Constructor enforces m2 >= mean^2; no exception means the pair is valid.
        ai_route_moments(curve, rework, r)


class TestMixedMoments:
    def test_endpoints(self, manual, curve, rework):
        ai = ai_route_moments(curve, rework, 0.5)
        assert mixed_moments(manual, ai, 0.0) == manual.moments
        assert mixed_moments(manual, ai, 1.0) == ai

    def test_linear_interpolation(self, manual, curve, rework):
        ai = ai_route_moments(curve, rework, 0.5)
        mid = mixed_moments(manual, ai, 0.25)
        assert mid.mean == pytest.approx(0.75 * 1.0 + 0.25 * ai.mean, rel=1e-14)
        assert mid.m2 == pytest.approx(0.75 * 1.1 + 0.25 * ai.m2, rel=1e-14)

    def test_out_of_range(self, manual, curve, rework):
        ai = ai_route_moments(curve, rework, 0.5)
        for x in (-0.01, 1.01):
            with pytest.raises(ValidationError):
                mixed_moments(manual, ai, x)


class TestSampling:
    def test_degenerate_manual_is_exact(self, rng):
        route = ManualRoute(tau_H=1.0, c2_H=0.0)
        assert np.all(sample_manual(route, rng, size=17) == 1.0)

    def test_manual_moment_match(self, rng):
        route = ManualRoute(tau_H=2.0, c2_H=0.7)
        draws = sample_manual(route, rng, size=300_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.01)
        c2_hat = draws.var() / draws.mean() ** 2
        assert c2_hat == pytest.approx(0.7, rel=0.03)

    def test_rework_moment_match(self, rework, rng):
        draws = sample_rework(rework, rng, size=300_000)
        assert draws.mean() == pytest.approx(rework.mu_R, rel=0.01)
        assert (draws**2).mean() == pytest.approx(rework.mu_R2, rel=0.02)

    def test_deterministic_rework_samples(self, rng):
        rw = ReworkModel(mu_R=1.25, mu_R2=1.5625)
        assert np.all(sample_rework(rw, rng, size=5) == 1.25)

    def test_caught_tasks_cost_exactly_r(self, curve, rework, rng):
        times, escaped = sample_ai(curve, rework, 0.5, rng, size=2000)
        assert np.all(times[~escaped] == 0.5)
        assert np.all(times[escaped] > 0.5)

    def test_same_seed_same_draws(self, manual, curve, rework):
        a = sample_ai(curve, rework, 0.5, np.random.default_rng(99), size=100)
        b = sample_ai(curve, rework, 0.5, np.random.default_rng(99), size=100)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
