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
from wedgeq.service_model import sample_gamma


class TestResidualError:
    def test_no_review_gives_p0(self):
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 0.0) == pytest.approx(0.9, rel=1e-15)

    def test_saturates_at_floor(self):
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 1e6) == pytest.approx(0.1, rel=1e-12)
        # -kappa * r overflows to -inf: the limit, and no overflow warning.
        assert residual_error(curve, 1.7976931348623157e308) == 0.1

    def test_hand_value(self):
        # 0.1 + 0.8 * exp(-1.5 * 1.2), evaluated independently
        curve = ErrorCurve(p0=0.9, p_inf=0.1, kappa=1.5)
        assert residual_error(curve, 1.2) == pytest.approx(
            0.1 + 0.8 * math.exp(-1.8), rel=1e-14
        )

    def test_negative_effort_rejected(self):
        curve = ErrorCurve(p0=0.5, p_inf=0.0, kappa=2.0)
        for r in (-0.1, math.nan, math.inf):
            with pytest.raises(ValidationError):
                residual_error(curve, r)

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
        # mean * mean overflows to inf, which no finite m2 reaches.
        with pytest.raises(ValidationError) as err:
            RouteMoments(mean=1e160, m2=1.0)
        assert err.value.field == "m2"

    def test_route_moments_zero_mean(self):
        assert RouteMoments(mean=0.0, m2=0.0).c2 == 0.0
        with pytest.raises(ValidationError):
            RouteMoments(mean=0.0, m2=0.5)

    def test_manual_route(self):
        with pytest.raises(ValidationError):
            ManualRoute(tau_H=0.0, c2_H=0.1)
        with pytest.raises(ValidationError):
            ManualRoute(tau_H=1.0, c2_H=-0.1)
        # q_H = tau_H^2 * (1 + c2_H) underflows to 0.
        with pytest.raises(ValidationError, match="tau_H is too small"):
            ManualRoute(tau_H=1e-300, c2_H=0.1)

    def test_c2_of_a_mean_whose_square_underflows(self):
        # mean = 1e-300 * 7/3 and m2 = 1e-300 * 6.8375: mean**2 is 0 in floats.
        ai = ai_route_moments(
            ErrorCurve(p0=1e-300, p_inf=0.0, kappa=2.0), ReworkModel(7.0 / 3.0, 6.8375), 0.0
        )
        assert ai.c2 == pytest.approx(6.8375 / (7.0 / 3.0) ** 2 * 1e300, rel=1e-12)

    def test_rework_model(self):
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=0.0, mu_R2=1.0)
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=2.0, mu_R2=3.9)
        with pytest.raises(ValidationError):
            ReworkModel(mu_R=1.0, mu_R2=2.0, family="lognormal")

    def test_deterministic_rework_permitted(self):
        # mu_R2 == mu_R^2 is a point mass: every draw is mu_R and none is made.
        rw = ReworkModel(mu_R=2.0, mu_R2=4.0)
        rng = np.random.default_rng(5)
        assert sample_rework(rw, rng, size=3).tobytes() == np.full(3, 2.0).tobytes()
        assert rng.random() == np.random.default_rng(5).random()


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

    @pytest.mark.parametrize("c2_H", [5e-324, 1e-310, 5.5e-309])
    def test_manual_shape_that_overflows_is_refused_before_a_draw(self, c2_H):
        # The route itself is valid: its moments are finite.  Only the
        # sampler's gamma shape 1 / c2_H overflows.
        route = ManualRoute(tau_H=1.0, c2_H=c2_H)
        assert route.moments.m2 == 1.0
        rng = np.random.default_rng(5)
        with pytest.raises(ValidationError, match="c2_H = .* is too small to sample") as err:
            sample_manual(route, rng, size=10)
        assert err.value.field == "manual.c2_H"
        assert rng.random() == np.random.default_rng(5).random()

    def test_smallest_c2_H_with_a_finite_shape_is_sampled(self, rng):
        draws = sample_manual(ManualRoute(tau_H=1.0, c2_H=5.6e-309), rng, size=1000)
        assert np.isfinite(draws).all()
        assert draws == pytest.approx(1.0, rel=1e-12)

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

    @pytest.mark.parametrize("p, size", [(0.15, 5000), (1.0, 300), (0.0, 300), (0.5, 1)])
    def test_kth_rework_draw_lands_on_kth_escaped_task(self, rework, p, size):
        curve = ErrorCurve(p0=p, p_inf=p, kappa=2.0)
        times, escaped = sample_ai(curve, rework, 0.5, np.random.default_rng(7), size=size)
        # The same draws made by hand: flags first, then one rework per escape.
        rng = np.random.default_rng(7)
        flags = rng.random(size) < p
        var = rework.mu_R2 - rework.mu_R**2
        draws = rng.gamma(rework.mu_R**2 / var, var / rework.mu_R, int(flags.sum()))
        expected = [0.5] * size
        k = 0
        for slot in range(size):
            if flags[slot]:
                expected[slot] = 0.5 + float(draws[k])
                k += 1
        assert np.array_equal(escaped, flags)
        assert times.tobytes() == np.array(expected).tobytes()

    def test_same_seed_same_draws(self, manual, curve, rework):
        a = sample_ai(curve, rework, 0.5, np.random.default_rng(99), size=100)
        b = sample_ai(curve, rework, 0.5, np.random.default_rng(99), size=100)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestSampleGamma:
    """The one sampler behind every arrival and service draw."""

    @staticmethod
    def _same_draws(draw, raw, seed=11):
        """draw(rng) equals raw(rng) bit for bit, and leaves the stream where raw does."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = draw(rng), raw(ref)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_point_mass_draws_nothing(self, size):
        self._same_draws(
            lambda rng: sample_gamma(rng, 1.75, None, 0.0, size), lambda rng: np.full(size, 1.75)
        )

    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_shape_one_is_the_exponential(self, size):
        def draw(rng):
            return sample_gamma(rng, 2.5, 1.0, 2.5, size)

        self._same_draws(draw, lambda rng: rng.exponential(2.5, size))
        self._same_draws(draw, lambda rng: rng.gamma(1.0, 2.5, size))

    @pytest.mark.parametrize("shape", [1e-3, 0.3, 0.999, 1.001, 4.2, 1e6])
    def test_other_shapes_are_numpy_gamma(self, shape):
        self._same_draws(
            lambda rng: sample_gamma(rng, shape * 0.5, shape, 0.5, 1000),
            lambda rng: rng.gamma(shape, 0.5, 1000),
        )

    def test_manual_at_unit_c2_takes_the_exponential_path(self):
        route = ManualRoute(tau_H=2.0, c2_H=1.0)
        self._same_draws(
            lambda rng: sample_manual(route, rng, size=1000),
            lambda rng: rng.standard_exponential(1000) * 2.0,
        )
        draws = sample_manual(route, np.random.default_rng(3), size=300_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.01)
        assert draws.var() / draws.mean() ** 2 == pytest.approx(1.0, rel=0.03)

    def test_rework_at_unit_c2_takes_the_exponential_path(self):
        # mu_R2 = 2 mu_R^2: the matched shape mu_R^2 / var is exactly 1.
        rw = ReworkModel(mu_R=1.5, mu_R2=4.5)
        self._same_draws(
            lambda rng: sample_rework(rw, rng, size=1000),
            lambda rng: rng.standard_exponential(1000) * 1.5,
        )
        draws = sample_rework(rw, np.random.default_rng(3), size=300_000)
        assert draws.mean() == pytest.approx(1.5, rel=0.01)
        assert (draws**2).mean() == pytest.approx(4.5, rel=0.02)

    def test_rework_draws_the_matched_gamma(self, rework):
        var = rework.mu_R2 - rework.mu_R**2
        self._same_draws(
            lambda rng: sample_rework(rework, rng, size=1000),
            lambda rng: rng.gamma(rework.mu_R**2 / var, var / rework.mu_R, 1000),
        )
