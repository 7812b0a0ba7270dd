import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import beta as beta_dist

import wedgeq.verification as ver
from wedgeq import (
    InfeasibleError,
    NoRootError,
    QuadratureError,
    ReworkModel,
    RiskMap,
    SignalEnvironment,
    StabilityError,
    ValidationError,
    effort_for_risk,
    fixture_path,
    irreducible_escape_rate,
    phi,
    pi_star,
    policy_route_moments,
    residual_risk,
    review_effort,
    solve_equilibrium,
    threshold_signal,
)
from wedgeq.config import load_config

RISK = RiskMap(a=0.02, b=0.88, g=10.0, s0=0.55)
ENV = SignalEnvironment(
    risk_map=RISK, signal_alpha=2.0, signal_beta=2.0, K=2.0, kappa=2.0, c_w=0.5
)
REWORK = ReworkModel(mu_R=1.5, mu_R2=4.0)


def _quad_moments(env, theta, rework):
    """Adaptive-quadrature oracle for the policy route moments."""
    star = pi_star(env, theta)
    split = threshold_signal(env, theta)
    dist = beta_dist(env.signal_alpha, env.signal_beta)

    def f_tau(s):
        p = env.risk_map.value(s)
        r = math.log(max(p / star, 1.0)) / env.kappa
        return (r + rework.mu_R * min(p, star)) * dist.pdf(s)

    def f_q(s):
        p = env.risk_map.value(s)
        r = math.log(max(p / star, 1.0)) / env.kappa
        m = min(p, star)
        return (r * r + 2.0 * rework.mu_R * r * m + rework.mu_R2 * m) * dist.pdf(s)

    pts = [split] if 0.0 < split < 1.0 else None
    opts = dict(points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    return quad(f_tau, 0.0, 1.0, **opts)[0], quad(f_q, 0.0, 1.0, **opts)[0]


def _mean_risk(env):
    dist = beta_dist(env.signal_alpha, env.signal_beta)
    return quad(
        lambda s: env.risk_map.value(s) * dist.pdf(s), 0.0, 1.0,
        points=[env.risk_map.s0], limit=200, epsabs=1e-13, epsrel=1e-13,
    )[0]


class TestThresholdPolicy:
    def test_pi_star_scaling(self):
        assert pi_star(ENV, 0.4) == pytest.approx(0.1, rel=1e-15)
        assert ENV.review_scale == 4.0

    def test_pi_star_with_irreducible_share(self, make_env):
        env = make_env(p_inf=0.5)
        assert env.review_scale == 2.0
        assert pi_star(env, 0.4) == pytest.approx(0.2, rel=1e-15)

    def test_theta_domain(self):
        for theta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                pi_star(ENV, theta)

    def test_effort_reference_value(self, make_env):
        env = make_env(K=10.0)  # review scale 20, pi_star(1) = 0.05
        assert effort_for_risk(env, 1.0, 0.5) == pytest.approx(
            math.log(10.0) / 2.0, rel=1e-15
        )
        assert effort_for_risk(env, 1.0, 0.05) == 0.0
        assert effort_for_risk(env, 1.0, 0.01) == 0.0

    def test_review_effort_composes_risk_map(self):
        s = np.linspace(0.0, 1.0, 21)
        via_signal = review_effort(ENV, 0.3, s)
        via_risk = effort_for_risk(ENV, 0.3, RISK.value(s))
        np.testing.assert_array_equal(via_signal, via_risk)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            effort_for_risk(ENV, 0.5, 1.5)
        with pytest.raises(ValidationError):
            effort_for_risk(ENV, 0.5, -0.1)
        with pytest.raises(ValidationError):
            review_effort(ENV, 0.5, 1.0 + 1e-9)
        with pytest.raises(ValidationError):
            residual_risk(ENV, 0.5, -1e-9)

    @given(s=st.floats(0.0, 1.0), theta=st.floats(0.01, 8.0))
    @settings(max_examples=200)
    def test_clipping_identity(self, s, theta):
        # min(pi, pi_star) must equal pi * exp(-kappa r*) to the bit level
        # the log/exp round trip allows.
        r = review_effort(ENV, theta, s)
        direct = RISK.value(s) * math.exp(-ENV.kappa * r)
        assert abs(residual_risk(ENV, theta, s) - direct) <= 1e-12

    @given(s=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_effort_ordering_in_price(self, s):
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=2.0, signal_beta=2.0,
            K=10.0, kappa=2.0, c_w=0.5,
        )
        efforts = [review_effort(env, theta, s) for theta in (0.2, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(efforts, efforts[1:]))
        assert all(e >= 0.0 for e in efforts)


class TestThresholdSignal:
    def test_inverts_risk_map(self):
        theta = 0.8  # pi_star = 0.2, interior of the logistic range
        s_star = threshold_signal(ENV, theta)
        assert 0.0 < s_star < 1.0
        assert RISK.value(s_star) == pytest.approx(pi_star(ENV, theta), rel=1e-12)

    def test_saturates_at_zero_when_everything_reviewed(self):
        # pi_star below pi(0): every draft clears the threshold.
        theta = 0.9 * ENV.review_scale * RISK.value(0.0)
        assert threshold_signal(ENV, theta) == 0.0

    def test_saturates_at_one_when_nothing_reviewed(self):
        theta = 1.01 * ENV.review_scale * RISK.value(1.0)
        assert threshold_signal(ENV, theta) == 1.0

    def test_effort_is_continuous_at_threshold(self):
        s_star = threshold_signal(ENV, 0.8)
        below = review_effort(ENV, 0.8, max(0.0, s_star - 1e-9))
        above = review_effort(ENV, 0.8, min(1.0, s_star + 1e-9))
        assert below == 0.0
        assert 0.0 <= above < 1e-7


class TestPolicyRouteMoments:
    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.8, 1.5, 3.0])
    def test_matches_adaptive_quadrature(self, theta):
        got = policy_route_moments(ENV, theta, REWORK)
        tau, q = _quad_moments(ENV, theta, REWORK)
        assert got.mean == pytest.approx(tau, rel=1e-9)
        assert got.m2 == pytest.approx(q, rel=1e-9)

    def test_no_review_branch_is_pure_rework(self):
        theta = 1.5 * ENV.review_scale * RISK.value(1.0)
        got = policy_route_moments(ENV, theta, REWORK)
        mean_risk = _mean_risk(ENV)
        assert got.mean == pytest.approx(REWORK.mu_R * mean_risk, rel=1e-10)
        assert got.m2 == pytest.approx(REWORK.mu_R2 * mean_risk, rel=1e-10)

    def test_skewed_signal_distribution(self):
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=5.0, signal_beta=2.0,
            K=2.0, kappa=2.0, c_w=0.5,
        )
        got = policy_route_moments(env, 0.6, REWORK)
        tau, q = _quad_moments(env, 0.6, REWORK)
        assert got.mean == pytest.approx(tau, rel=1e-9)
        assert got.m2 == pytest.approx(q, rel=1e-9)

    def test_stable_under_node_count(self):
        lean_tau, lean_q = ver._policy_moments(ENV, [0.4], REWORK, 32)
        rich_tau, rich_q = ver._policy_moments(ENV, [0.4], REWORK, 512)
        assert lean_tau[0] == pytest.approx(rich_tau[0], rel=1e-10)
        assert lean_q[0] == pytest.approx(rich_q[0], rel=1e-10)

    def test_overflowing_moment_is_rejected_without_warning(self, make_env):
        # At kappa = 1e-300 a tiny price makes r*^2 overflow: the infinite q_A
        # is a validation error, and numpy's overflow warning stays silent.
        env = make_env(kappa=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="m2 must be finite"):
                policy_route_moments(env, 1e-305, REWORK)

    def test_divergent_quadrature_is_reported(self, monkeypatch):
        def drifting(env, thetas, rework, n_nodes):
            ones = np.ones(len(thetas))
            return (0.5 + 1.0 / n_nodes) * ones, ones

        monkeypatch.setattr(ver, "_policy_moments", drifting)
        with pytest.raises(QuadratureError) as err:
            policy_route_moments(ENV, 0.4, REWORK)
        assert err.value.error_estimate > 1e-8
        assert err.value.exit_code == 1

    def test_mean_demand_decreases_with_price(self):
        thetas = np.geomspace(0.05, 3.0, 12)
        taus = [policy_route_moments(ENV, t, REWORK).mean for t in thetas]
        # Less review at higher prices, but more escapes to rework: the
        # effort term dominates for this calibration.
        assert taus[0] > taus[-1]


class TestBatchedMoments:
    # 0.05 reviews every draft (split 0), 5.0 lies above theta_hi = 3.56 and
    # reviews none (split 1), the rest split inside (0, 1); 70 prices span
    # two row blocks of the kernel.
    THETAS = np.concatenate(([0.05, 5.0], np.geomspace(0.1, 3.0, 68)))

    def test_prices_cover_every_split(self):
        splits = {threshold_signal(ENV, theta) for theta in self.THETAS}
        assert {0.0, 1.0} < splits
        assert any(0.0 < split < 1.0 for split in splits)

    def test_rows_match_single_price_calls(self):
        tau, q = ver._policy_moments(ENV, self.THETAS, REWORK, ver.QUAD_NODES)
        assert tau.shape == q.shape == self.THETAS.shape
        for theta, tau_row, q_row in zip(self.THETAS, tau, q):
            one_tau, one_q = ver._policy_moments(ENV, [theta], REWORK, ver.QUAD_NODES)
            assert tau_row == pytest.approx(one_tau[0], rel=1e-14)
            assert q_row == pytest.approx(one_q[0], rel=1e-14)

    def test_rows_match_adaptive_quadrature(self):
        thetas = self.THETAS[::6]
        tau, q = ver._policy_moments(ENV, thetas, REWORK, ver.QUAD_NODES)
        for theta, tau_row, q_row in zip(thetas, tau, q):
            oracle_tau, oracle_q = _quad_moments(ENV, theta, REWORK)
            assert tau_row == pytest.approx(oracle_tau, rel=1e-10)
            assert q_row == pytest.approx(oracle_q, rel=1e-10)


class TestIrreducibleStream:
    def test_zero_without_irreducible_share(self):
        assert irreducible_escape_rate(ENV) == 0.0

    def test_matches_quadrature(self, make_env):
        env = make_env(p_inf=0.3)
        assert irreducible_escape_rate(env) == pytest.approx(
            0.3 * _mean_risk(env), rel=1e-9
        )

    def test_irreducible_share_only_rescales_price(self, make_env):
        # p_inf enters the policy solely through the review scale, so the
        # moments at theta under p_inf match those at theta/(1-p_inf) without.
        env = make_env(p_inf=0.3)
        with_share = policy_route_moments(env, 0.42, REWORK)
        without = policy_route_moments(ENV, 0.42 / 0.7, REWORK)
        assert with_share.mean == pytest.approx(without.mean, rel=1e-12)
        assert with_share.m2 == pytest.approx(without.m2, rel=1e-12)


class TestPhi:
    def test_closed_form(self):
        moments = policy_route_moments(ENV, 0.5, REWORK)
        lam, capacity = 0.75, 1.0
        expected = (
            ENV.c_w * lam**3 * moments.m2
            / (2.0 * capacity * (capacity - lam * moments.mean) ** 2)
        )
        assert phi(ENV, 0.5, REWORK, lam, capacity) == pytest.approx(
            expected, rel=1e-12
        )

    def test_unstable_price_rejected(self):
        with pytest.raises(StabilityError):
            phi(ENV, 0.5, REWORK, 5.0, 1.0)


class TestSolveEquilibrium:
    def test_reference_fixed_point(self):
        solution = solve_equilibrium(ENV, REWORK, 0.75, 1.0)
        eq = solution.primary
        assert eq.theta_star == pytest.approx(0.42551, abs=5e-5)
        assert eq.pi_star == pytest.approx(eq.theta_star / 4.0, rel=1e-12)
        assert eq.rho == pytest.approx(0.75 * eq.tau_A, rel=1e-12)
        assert eq.wq == pytest.approx(0.7512, abs=5e-4)
        assert eq.residual <= 1e-8 * max(1.0, eq.theta_star)
        assert not eq.degenerate

    def test_agrees_with_quadrature_bisection(self):
        solution = solve_equilibrium(ENV, REWORK, 0.75, 1.0)
        star = solution.primary.theta_star

        def gap(theta):
            tau, q = _quad_moments(ENV, theta, REWORK)
            return theta - ENV.c_w * 0.75**3 * q / (2.0 * (1.0 - 0.75 * tau) ** 2)

        oracle = brentq(gap, 0.9 * star, 1.1 * star, xtol=1e-13)
        assert star == pytest.approx(oracle, rel=1e-8)

    def test_multiple_roots_sorted_and_certified(self):
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=5.0, signal_beta=2.0,
            K=2.0, kappa=2.0, c_w=0.5,
        )
        solution = solve_equilibrium(env, REWORK, 0.75, 1.0)
        assert len(solution.roots) == 3
        thetas = [eq.theta_star for eq in solution.roots]
        assert thetas == sorted(thetas)
        assert solution.primary is solution.roots[0]
        for index, eq in enumerate(solution.roots):
            assert eq.root_index == index
            assert eq.residual <= 1e-8 * max(1.0, eq.theta_star)
        assert solution.primary.theta_star == pytest.approx(1.3158, abs=5e-4)
        assert solution.primary.wq == pytest.approx(1.7623, abs=5e-4)

    def test_tail_root_above_review_range(self):
        # Beyond theta_hi nothing is reviewed, the route moments freeze,
        # and the last fixed point is available in closed form.
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=5.0, signal_beta=2.0,
            K=2.0, kappa=2.0, c_w=0.5,
        )
        solution = solve_equilibrium(env, REWORK, 0.75, 1.0)
        tail = solution.roots[-1]
        assert tail.theta_star > solution.theta_hi
        mean_risk = _mean_risk(env)
        assert tail.tau_A == pytest.approx(REWORK.mu_R * mean_risk, rel=1e-9)
        assert tail.theta_star == pytest.approx(
            env.c_w * 0.75**3 * tail.q_A / (2.0 * (1.0 - 0.75 * tail.tau_A) ** 2),
            rel=1e-12,
        )

    def test_price_rises_with_demand_and_waiting_cost(self, make_env):
        base = solve_equilibrium(ENV, REWORK, 0.75, 1.0).primary.theta_star
        busier = solve_equilibrium(ENV, REWORK, 0.80, 1.0).primary.theta_star
        costlier = solve_equilibrium(
            make_env(c_w=0.6), REWORK, 0.75, 1.0
        ).primary.theta_star
        assert busier > base
        assert costlier > base

    def test_zero_demand_degenerate(self):
        env = SignalEnvironment(
            risk_map=RiskMap(a=0.0, b=0.0, g=10.0, s0=0.5),
            signal_alpha=2.0, signal_beta=2.0, K=2.0, kappa=2.0, c_w=0.5,
        )
        solution = solve_equilibrium(env, REWORK, 0.75, 1.0)
        eq = solution.primary
        assert eq.degenerate
        assert eq.theta_star == 0.0
        assert eq.tau_A == 0.0
        assert eq.wq == 0.0

    def test_free_waiting_degenerate(self, make_env):
        solution = solve_equilibrium(make_env(c_w=0.0), REWORK, 0.75, 1.0)
        eq = solution.primary
        assert eq.degenerate
        assert eq.theta_star == 0.0
        assert math.isnan(eq.tau_A)
        assert math.isnan(eq.wq)

    def test_infeasible_demand(self):
        with pytest.raises(InfeasibleError) as err:
            solve_equilibrium(ENV, REWORK, 5.0, 1.0)
        assert err.value.exit_code == 3

    def test_no_root_reported_with_scan_evidence(self, monkeypatch):
        monkeypatch.setattr(ver, "_phi_value", lambda *args: 0.0)
        with pytest.raises(NoRootError) as err:
            solve_equilibrium(ENV, REWORK, 0.75, 1.0)
        assert err.value.exit_code == 4
        assert len(err.value.thetas) == len(err.value.residuals)
        assert len(err.value.thetas) >= 16

    @pytest.mark.parametrize("name, unbatched", [("fig5-beta22", 596), ("fig5-beta52", 637)])
    def test_quadrature_call_budget(self, monkeypatch, name, unbatched):
        # One price per quadrature call took `unbatched` calls per solve; the
        # batched scan and lock-step bisection must need at most a fifth.
        spec = load_config(fixture_path(f"{name}.json"))
        calls = []
        kernel = ver._policy_moments

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(ver, "_policy_moments", counting)
        solve_equilibrium(spec.env, spec.rework, spec.lam, spec.capacity)
        assert len(calls) <= unbatched // 5

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            solve_equilibrium(ENV, REWORK, 0.0, 1.0)
        with pytest.raises(ValidationError):
            solve_equilibrium(ENV, REWORK, 0.75, 0.0)


class TestEnvironmentValidation:
    def test_signal_pdf_matches_scipy(self):
        s = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(
            ENV.signal_pdf(s), beta_dist(2.0, 2.0).pdf(s), rtol=1e-12
        )

    def test_risk_map_bounds(self):
        with pytest.raises(ValidationError):
            RiskMap(a=-0.1, b=0.5, g=10.0, s0=0.5)
        with pytest.raises(ValidationError):
            RiskMap(a=0.0, b=-0.5, g=10.0, s0=0.5)
        with pytest.raises(ValidationError):
            RiskMap(a=0.02, b=0.88, g=0.0, s0=0.5)
        with pytest.raises(ValidationError):
            RiskMap(a=0.5, b=0.8, g=10.0, s0=0.5)  # pi(1) > 1

    def test_risk_map_is_nondecreasing(self):
        s = np.linspace(0.0, 1.0, 101)
        values = RISK.value(s)
        assert np.all(np.diff(values) >= 0.0)
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_environment_parameter_bounds(self, make_env):
        for kwargs in (
            dict(alpha=0.0), dict(beta=-1.0), dict(K=0.0),
            dict(kappa=0.0), dict(c_w=-0.5), dict(p_inf=1.0), dict(p_inf=-0.1),
        ):
            with pytest.raises(ValidationError):
                make_env(**kwargs)

    def test_singular_density_shapes_rejected(self, make_env):
        with pytest.raises(ValidationError):
            make_env(alpha=0.5)
        with pytest.raises(ValidationError):
            make_env(beta=0.5)

    def test_zero_waiting_cost_is_admitted(self, make_env):
        assert make_env(c_w=0.0).c_w == 0.0
