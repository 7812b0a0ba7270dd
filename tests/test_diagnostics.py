import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedgeq import (
    FULL_AI,
    FULL_MANUAL,
    INDIFFERENT,
    ManualRoute,
    QueueInputs,
    RouteMoments,
    StabilityError,
    bang_bang,
    lambda_star,
    mixed_moments,
    stabilization,
    variance_budget,
    wedge_test,
    wq_pk,
)

AI_REF = RouteMoments(mean=0.85, m2=1.625625)  # c2 = 1.25


def _wq(lam, capacity, moments):
    return wq_pk(QueueInputs(lam=lam, capacity=capacity, service=moments)).wq


def _budget_by_bisection(c2_H, s, rho_H):
    """Independent oracle: locate the wait-equality c2_A by bisection."""
    tau_H = 1.0
    capacity = 1.0
    lam = rho_H / tau_H
    manual = RouteMoments(mean=tau_H, m2=tau_H**2 * (1.0 + c2_H))
    target = _wq(lam, capacity, manual)
    tau_A = s * tau_H

    def gap(c2_A):
        ai = RouteMoments(mean=tau_A, m2=tau_A**2 * (1.0 + c2_A))
        return _wq(lam, capacity, ai) - target

    lo, hi = 0.0, 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
        assert hi < 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestVarianceBudget:
    def test_no_savings_budget_is_manual_c2(self):
        for rho in (0.0, 0.3, 0.85):
            assert variance_budget(0.5, 1.0, rho) == 0.5  # exact

    def test_reference_value_against_bisection_oracle(self):
        got = variance_budget(0.5, 0.85, 0.6)
        assert got == pytest.approx(1.54325, abs=5e-6)
        assert got == pytest.approx(_budget_by_bisection(0.5, 0.85, 0.6), rel=1e-9)

    def test_higher_manual_load_allows_more_variance(self):
        low = variance_budget(0.5, 0.85, 0.2)
        high = variance_budget(0.5, 0.85, 0.8)
        assert high > low

    def test_unstable_ai_route_rejected(self):
        with pytest.raises(StabilityError):
            variance_budget(0.5, 1.3, 0.8)
        # rho_A = 1 - 5e-10 is inside the load rule's margin: unstable, as wq_pk says.
        with pytest.raises(StabilityError):
            variance_budget(0.1, (1 - 5e-10) / 0.8, 0.8)

    def test_tiny_savings_ratio_is_unbounded(self):
        # 1e-160 squared is subnormal and the quotient overflows; 1e-170
        # squared underflows to 0.  Both budgets are unbounded.
        assert variance_budget(0.5, 1e-160, 0.5) == math.inf
        assert variance_budget(0.5, 1e-170, 0.5) == math.inf

    def test_savings_ratio_whose_square_overflows(self):
        # s * s is inf, and the budget is its s -> inf limit.
        assert variance_budget(0.1, 1e200, 0.0) == -1.0

    def test_validation(self):
        from wedgeq import ValidationError

        with pytest.raises(ValidationError):
            variance_budget(-0.1, 0.9, 0.5)
        with pytest.raises(ValidationError):
            variance_budget(0.5, 0.0, 0.5)
        with pytest.raises(ValidationError):
            variance_budget(0.5, 0.9, 1.0)

    @given(
        c2_H=st.floats(0.0, 3.0),
        s=st.floats(0.3, 1.4),
        rho_H=st.floats(0.05, 0.92),
    )
    @settings(max_examples=60)
    def test_boundary_equality_property(self, c2_H, s, rho_H):
        if s * rho_H >= 0.98:
            return
        budget = variance_budget(c2_H, s, rho_H)
        if budget < 0.0:
            return  # no admissible variability at all: nothing to reconstruct
        tau_H, capacity = 1.0, 1.0
        lam = rho_H
        manual = RouteMoments(mean=tau_H, m2=1.0 + c2_H)
        ai = RouteMoments(mean=s, m2=s * s * (1.0 + budget))
        w_manual = _wq(lam, capacity, manual)
        w_ai = _wq(lam, capacity, ai)
        assert abs(w_ai - w_manual) <= 1e-9 * max(w_manual, 1e-12)


class TestBangBang:
    def test_reference_directions(self, manual):
        assert bang_bang(manual, AI_REF, 0.5, 1.0) == FULL_MANUAL
        assert bang_bang(manual, AI_REF, 0.9, 1.0) == FULL_AI

    def test_identical_routes_indifferent(self, manual):
        assert bang_bang(manual, manual.moments, 0.5, 1.0) == INDIFFERENT

    def test_unstable_route_raises(self, manual):
        with pytest.raises(StabilityError):
            bang_bang(manual, AI_REF, 1.05, 1.0)

    @given(
        lam=st.floats(0.1, 0.85),
        tau_a=st.floats(0.3, 1.1),
        c2_a=st.floats(0.0, 3.0),
        c2_h=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80)
    def test_direction_matches_finite_difference(self, lam, tau_a, c2_a, c2_h):
        manual = ManualRoute(tau_H=1.0, c2_H=c2_h)
        ai = RouteMoments(mean=tau_a, m2=tau_a**2 * (1.0 + c2_a))
        if lam * max(1.0, tau_a) >= 0.97:
            return
        direction = bang_bang(manual, ai, lam, 1.0)
        w_lo = _wq(lam, 1.0, mixed_moments(manual, ai, 0.45))
        w_hi = _wq(lam, 1.0, mixed_moments(manual, ai, 0.55))
        diff = w_hi - w_lo
        if direction == FULL_AI:
            assert diff < 1e-12
        elif direction == FULL_MANUAL:
            assert diff > -1e-12
        else:
            assert abs(diff) < 1e-9


class TestLambdaStar:
    def test_reference_crossing(self, manual):
        got = lambda_star(manual, AI_REF, 1.0)
        assert got == pytest.approx(0.7611, abs=5e-5)

    def test_crossing_flips_the_verdict(self, manual):
        star = lambda_star(manual, AI_REF, 1.0)
        below = wedge_test(manual, AI_REF, star - 1e-6, 1.0)
        above = wedge_test(manual, AI_REF, star + 1e-6, 1.0)
        assert below.ai_better is False
        assert above.ai_better is True

    def test_equal_second_moments_absent(self, manual):
        ai = RouteMoments(mean=0.85, m2=manual.q_H)
        assert lambda_star(manual, ai, 1.0) is None

    def test_dominant_ai_absent_and_never_crossed(self, manual):
        # Faster and less dispersed: AI wins at every stable load.
        ai = RouteMoments(mean=0.85, m2=0.9)
        assert lambda_star(manual, ai, 1.0) is None
        for lam in np.linspace(0.05, 0.95, 19):
            assert _wq(lam, 1.0, ai) < _wq(lam, 1.0, manual.moments)


class TestStabilization:
    def test_reference_share(self, manual):
        ai = RouteMoments(mean=0.8, m2=1.0)
        result = stabilization(manual, ai, 1.1, 1.0)
        assert result.feasible
        assert result.x_c == pytest.approx(0.1 / 0.22, rel=1e-12)
        load = 1.1 * mixed_moments(manual, ai, result.x_c).mean
        assert load == pytest.approx(1.0, rel=1e-12)

    def test_already_stable(self, manual):
        result = stabilization(manual, AI_REF, 0.9, 1.0)
        assert result.x_c == 0.0
        assert result.rescue_ok

    def test_infeasible_when_even_full_ai_overloads(self, manual):
        result = stabilization(manual, AI_REF, 1.2, 1.0)
        assert result.x_c is None
        assert not result.feasible
        assert result.rescue_ok  # tau_A < tau_H, just not enough

    def test_infeasible_when_ai_no_faster(self, manual):
        slow_ai = RouteMoments(mean=1.0, m2=1.2)
        result = stabilization(manual, slow_ai, 1.1, 1.0)
        assert result.x_c is None
        assert not result.rescue_ok

    @given(
        lam=st.floats(1.0, 2.5),
        tau_a=st.floats(0.1, 0.95),
    )
    @settings(max_examples=60)
    def test_straddles_capacity(self, lam, tau_a):
        manual = ManualRoute(tau_H=1.0, c2_H=0.2)
        ai = RouteMoments(mean=tau_a, m2=tau_a**2 * 1.5)
        result = stabilization(manual, ai, lam, 1.0)
        if result.x_c is None or not 1e-6 < result.x_c < 1.0 - 1e-6:
            return
        m_above = mixed_moments(manual, ai, result.x_c + 1e-6).mean
        m_below = mixed_moments(manual, ai, result.x_c - 1e-6).mean
        assert lam * m_above < 1.0
        assert lam * m_below >= 1.0 - 1e-12


class TestWedgeTest:
    def test_reference_point(self, manual):
        report = wedge_test(manual, AI_REF, 0.5, 1.0)
        assert report.ai_better is False
        assert report.w_manual == pytest.approx(0.55, rel=1e-12)
        assert report.w_ai == pytest.approx(0.706793478261, abs=1e-9)
        assert report.lhs == pytest.approx(2.25 / 1.1, rel=1e-12)
        assert report.bang_bang_direction == FULL_MANUAL
        assert report.lambda_star == pytest.approx(0.7611, abs=5e-5)
        assert report.x_c == 0.0

    def test_high_load_flips(self, manual):
        report = wedge_test(manual, AI_REF, 0.9, 1.0)
        assert report.ai_better is True
        assert report.bang_bang_direction == FULL_AI

    def test_identical_routes(self, manual):
        report = wedge_test(manual, manual.moments, 0.5, 1.0)
        assert report.lhs == 1.0
        assert report.rhs == 1.0
        assert report.bang_bang_direction == INDIFFERENT

    def test_ai_mean_whose_square_underflows(self, manual):
        # (tau_H / tau_A)**2 overflows and tau_A**2 underflows.
        ai = RouteMoments(mean=7.0 / 3.0 * 1e-300, m2=6.8375e-300)
        report = wedge_test(manual, ai, 0.5, 1.0)
        assert report.lhs == pytest.approx(6.8375 / (7.0 / 3.0) ** 2 * 1e300 / 1.1, rel=1e-12)
        assert report.rhs == math.inf
        assert report.ai_better is True

    def test_instability_names_route(self, manual):
        with pytest.raises(StabilityError, match="manual route"):
            wedge_test(manual, AI_REF, 1.05, 1.0)
        slow_ai = RouteMoments(mean=2.0, m2=5.0)
        with pytest.raises(StabilityError, match="ai route"):
            wedge_test(manual, slow_ai, 0.6, 1.0)

    def test_budget_matches_direct_call(self, manual):
        report = wedge_test(manual, AI_REF, 0.5, 1.0)
        assert report.c2_a_max == variance_budget(0.1, 0.85, 0.5)

    @given(
        lam=st.floats(0.05, 0.9),
        tau_a=st.floats(0.2, 1.2),
        c2_a=st.floats(0.0, 4.0),
        c2_h=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80)
    def test_verdict_equals_direct_comparison(self, lam, tau_a, c2_a, c2_h):
        manual = ManualRoute(tau_H=1.0, c2_H=c2_h)
        ai = RouteMoments(mean=tau_a, m2=tau_a**2 * (1.0 + c2_a))
        if lam * max(1.0, tau_a) >= 0.97:
            return
        report = wedge_test(manual, ai, lam, 1.0)
        assert report.ai_better == (report.w_ai < report.w_manual)

    def test_monotone_wait_in_x(self, manual):
        # Delay over the mixing fraction never has an interior extremum.
        for lam, expected in ((0.5, FULL_MANUAL), (0.9, FULL_AI)):
            direction = bang_bang(manual, AI_REF, lam, 1.0)
            assert direction == expected
            waits = [
                _wq(lam, 1.0, mixed_moments(manual, AI_REF, x))
                for x in np.linspace(0.0, 1.0, 11)
            ]
            diffs = np.diff(waits)
            if direction == FULL_AI:
                assert np.all(diffs <= 1e-12)
            else:
                assert np.all(diffs >= -1e-12)
