import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betaln, expit
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
from wedgeq.queueing import EPS_RHO, is_stable

RISK = RiskMap(a=0.02, b=0.88, g=10.0, s0=0.55)
ENV = SignalEnvironment(
    risk_map=RISK, signal_alpha=2.0, signal_beta=2.0, K=2.0, kappa=2.0, c_w=0.5
)
REWORK = ReworkModel(mu_R=1.5, mu_R2=4.0)


def _quad_moments(env, theta, rework):
    """Adaptive-quadrature oracle for the policy route moments.

    Scalar scipy forms of the risk map and the Beta density, with breaks at
    the threshold signal, the risk map's midpoint s0, and the density's
    mean and 4 standard deviations either side.  The moments are divided
    by the density's own integral: betaln loses about 1e-12 at shapes near
    1000.
    """
    star = pi_star(env, theta)
    rm, alpha, beta = env.risk_map, env.signal_alpha, env.signal_beta
    log_norm = betaln(alpha, beta)
    mean = alpha / (alpha + beta)
    sd = math.sqrt(mean * (1.0 - mean) / (alpha + beta + 1.0))

    def policy(s):
        p = rm.a + rm.b * expit(rm.g * (s - rm.s0))
        pdf = math.exp((alpha - 1.0) * math.log(s) + (beta - 1.0) * math.log1p(-s) - log_norm)
        return math.log(max(p / star, 1.0)) / env.kappa, min(p, star), pdf

    def f_tau(s):
        r, m, pdf = policy(s)
        return (r + rework.mu_R * m) * pdf

    def f_q(s):
        r, m, pdf = policy(s)
        return (r * r + 2.0 * rework.mu_R * r * m + rework.mu_R2 * m) * pdf

    breaks = (threshold_signal(env, theta), rm.s0, mean - 4.0 * sd, mean, mean + 4.0 * sd)
    opts = dict(points=sorted({x for x in breaks if 0.0 < x < 1.0}), limit=200,
                epsabs=1e-13, epsrel=1e-13)
    total = quad(lambda s: policy(s)[2], 0.0, 1.0, **opts)[0]
    return quad(f_tau, 0.0, 1.0, **opts)[0] / total, quad(f_q, 0.0, 1.0, **opts)[0] / total


def _oracle_root(env, rework, lam, capacity, theta):
    """brentq on theta - Phi(theta) with _quad_moments, within 1e-6 of theta."""

    def gap(t):
        tau, q = _quad_moments(env, t, rework)
        return t - env.c_w * lam**3 * q / (2.0 * capacity * (capacity - lam * tau) ** 2)

    return brentq(gap, theta * (1.0 - 1e-6), theta * (1.0 + 1e-6), xtol=1e-300)


def _mean_risk(env):
    dist = beta_dist(env.signal_alpha, env.signal_beta)
    return quad(
        lambda s: env.risk_map.value(s) * dist.pdf(s), 0.0, 1.0,
        points=[env.risk_map.s0], limit=200, epsabs=1e-13, epsrel=1e-13,
    )[0]


def _table_at(env, thetas, rework=REWORK):
    """(tau, q) of the solver's moment table at prices thetas."""
    stars = np.asarray(thetas, dtype=float) / env.review_scale
    splits = ver._signal_at_risk(env.risk_map, stars)
    return ver._table_moments(env, ver._moment_table(env), rework, stars, splits)


def _count_calls(monkeypatch):
    """Count the calls of the moment table's pricing and of the split quadrature."""
    calls = {"_table_moments": 0, "_policy_moments": 0}
    for name in calls:
        kernel = getattr(ver, name)

        def counting(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(ver, name, counting)
    return calls


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

    @pytest.mark.parametrize("function", [effort_for_risk, review_effort, residual_risk])
    def test_subnormal_threshold_rejected(self, function):
        # pi / pi_star overflows past a subnormal threshold; the smallest
        # normal one is priced.
        smallest = sys.float_info.min * ENV.review_scale
        assert np.all(np.isfinite(function(ENV, smallest, np.array([0.0, 0.5, 1.0]))))
        for theta in (smallest / 2.0, 1e-320, 5e-324):
            with pytest.raises(ValidationError) as err:
                function(ENV, theta, 0.5)
            assert err.value.field == "theta"

    @pytest.mark.parametrize("value", [math.nan, np.array([0.2, math.nan, 0.7])])
    @pytest.mark.parametrize(
        "function, field",
        [(effort_for_risk, "pi"), (review_effort, "s"), (residual_risk, "s")],
    )
    def test_nan_rejected(self, function, field, value):
        # NaN passes both "< 0" and "> 1" tests, so a range check built from
        # them lets it through.
        with pytest.raises(ValidationError) as err:
            function(ENV, 0.5, value)
        assert err.value.field == field

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
        lean_tau, lean_q = ver._policy_moments(ENV, 0.4, REWORK, 32)
        rich_tau, rich_q = ver._policy_moments(ENV, 0.4, REWORK, 256)
        assert lean_tau == pytest.approx(rich_tau, rel=1e-10)
        assert lean_q == pytest.approx(rich_q, rel=1e-10)

    def test_overflowing_moment_is_rejected_without_warning(self, make_env):
        # At kappa = 1e-300 a tiny price makes r*^2 overflow: the infinite q_A
        # is a validation error, and numpy's overflow warning stays silent.
        env = make_env(kappa=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="m2 must be finite"):
                policy_route_moments(env, 1e-305, REWORK)

    def test_divergent_quadrature_is_reported(self, monkeypatch):
        def drifting(env, theta, rework, n_nodes):
            return 0.5 + 1.0 / n_nodes, 1.0

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
    """The solver's moment table, priced at many prices in one call."""

    # 0.05 reviews every draft (split 0), 5.0 lies above theta_hi = 3.56 and
    # reviews none (split 1), the rest split inside (0, 1).
    THETAS = np.concatenate(([0.05, 5.0], np.geomspace(0.1, 3.0, 68)))

    def test_prices_cover_every_split(self):
        splits = {threshold_signal(ENV, theta) for theta in self.THETAS}
        assert {0.0, 1.0} < splits
        assert any(0.0 < split < 1.0 for split in splits)

    def test_rows_match_single_price_calls(self):
        # Exactly: a price's moments must not depend on the prices batched
        # with it, or a root would depend on which other brackets were
        # still open when the solver priced its points.
        tau, q = _table_at(ENV, self.THETAS)
        assert tau.shape == q.shape == self.THETAS.shape
        for theta, tau_row, q_row in zip(self.THETAS, tau, q):
            one_tau, one_q = _table_at(ENV, [theta])
            assert tau_row == one_tau[0]
            assert q_row == one_q[0]

    def test_rows_match_adaptive_quadrature(self):
        thetas = self.THETAS[::6]
        tau, q = _table_at(ENV, thetas)
        for theta, tau_row, q_row in zip(thetas, tau, q):
            oracle_tau, oracle_q = _quad_moments(ENV, theta, REWORK)
            assert tau_row == pytest.approx(oracle_tau, rel=1e-10)
            assert q_row == pytest.approx(oracle_q, rel=1e-10)

    @pytest.mark.parametrize("name", ["fig5-beta22", "fig5-beta52", "fig6"])
    def test_matches_split_quadrature(self, name):
        # 512 prices from 1e-6 theta_hi, where every draft is reviewed, to
        # 1.1 theta_hi, where none is, and the thresholds at every shared
        # panel edge, each taken with its exact signal.  The split rule at
        # 256 nodes per panel is the reference.
        spec = load_config(fixture_path(f"{name}.json"))
        env, rework = spec.env, spec.rework
        theta_hi = env.review_scale * env.risk_map.value(1.0)
        stars = np.geomspace(1e-6 * theta_hi, 1.1 * theta_hi, 512) / env.review_scale
        splits = ver._signal_at_risk(env.risk_map, stars)
        assert {0.0, 1.0} < set(splits.tolist())
        stars = np.concatenate((stars, env.risk_map.value(env._edges)))
        splits = np.concatenate((splits, env._edges))
        tau, q = ver._table_moments(env, ver._moment_table(env), rework, stars, splits)
        for star, tau_row, q_row in zip(stars, tau, q):
            ref_tau, ref_q = ver._policy_moments(env, star * env.review_scale, rework, 256)
            assert abs(tau_row - ref_tau) <= 1e-13 * ref_tau
            assert abs(q_row - ref_q) <= 1e-13 * ref_q

    def test_unit_shapes_at_the_ends(self, make_env):
        # A unit shape's density is 1 / B(alpha, beta) at its end of [0, 1],
        # where a zero-width partial rule puts its nodes.
        env = make_env(alpha=1.0, beta=1.0)
        theta_hi = env.review_scale * RISK.value(1.0)
        thetas = [1e-3 * theta_hi, 0.5 * theta_hi, 2.0 * theta_hi]
        assert [threshold_signal(env, theta) for theta in thetas][::2] == [0.0, 1.0]
        tau, q = _table_at(env, thetas)
        for theta, tau_row, q_row in zip(thetas, tau, q):
            ref_tau, ref_q = ver._policy_moments(env, theta, REWORK, 256)
            assert tau_row == pytest.approx(ref_tau, rel=1e-13)
            assert q_row == pytest.approx(ref_q, rel=1e-13)


class TestSignalEdges:
    """The panel edges every integral over the signal density shares."""

    @pytest.mark.parametrize("g", [10.0, 16.0])
    def test_integer_shapes_and_mild_map_keep_uniform_panels(self, g):
        # So the shipped fixtures' moment table is the 16 uniform panels.
        env = dataclasses.replace(ENV, signal_alpha=5.0, risk_map=dataclasses.replace(RISK, g=g))
        np.testing.assert_array_equal(env._edges, np.arange(17) / 16)

    def test_fractional_shape_grades_its_end(self, make_env):
        # 1/16 halved 40 times toward 0; beta = 5 leaves the other end alone.
        edges = make_env(alpha=2.25, beta=5.0)._edges
        assert edges[0] == 0.0
        np.testing.assert_array_equal(edges[1:41], 2.0 ** -np.arange(44.0, 4.0, -1.0))
        np.testing.assert_array_equal(edges[41:], np.arange(1, 17) / 16)

    def test_narrow_density_adds_graded_points_around_its_mean(self, make_env):
        # Beta(2, 1000): mean 2 / 1002, standard deviation 1.4e-3, and
        # 2^j sd stays below 1/16 for j = 0..5; points below 0 are dropped.
        env = make_env(alpha=2.0, beta=1000.0)
        mean = 2.0 / 1002.0
        steps = math.sqrt(mean * (1.0 - mean) / 1003.0) * 2.0 ** np.arange(6)
        expected = np.union1d(np.arange(17) / 16, mean + np.concatenate(([0.0], steps, -steps)))
        np.testing.assert_array_equal(env._edges, expected[expected >= 0.0])

    def test_steep_map_adds_graded_points_around_its_midpoint(self):
        # At g = 300, 2^j / g stays below 1/16 for j = 0..4.
        env = dataclasses.replace(ENV, risk_map=dataclasses.replace(RISK, g=300.0))
        steps = 2.0 ** np.arange(5) / 300.0
        np.testing.assert_array_equal(
            env._edges,
            np.union1d(np.arange(17) / 16, 0.55 + np.concatenate(([0.0], steps, -steps))),
        )


class TestPanelValues:
    def test_density_evaluated_once_at_validation(self, monkeypatch, make_env):
        env = make_env(p_inf=0.3)
        risk, weight = env._panel_values
        fresh_risk, fresh_weight = ver._panels(env, env._edges, ver._TABLE_NODES)
        assert (risk.tobytes(), weight.tobytes()) == (fresh_risk.tobytes(), fresh_weight.tobytes())
        assert not (risk.flags.writeable or weight.flags.writeable)
        pdf = SignalEnvironment.signal_pdf
        calls = []
        monkeypatch.setattr(
            SignalEnvironment, "signal_pdf", lambda self, s: calls.append(s) or pdf(self, s)
        )
        rate = irreducible_escape_rate(env)
        ver._moment_table(env)
        assert not calls
        # The formula that evaluated the panels on every call.
        assert rate == 0.3 * float(ver._row_dots(fresh_weight, fresh_risk).sum())


class TestIrreducibleStream:
    def test_zero_without_irreducible_share(self):
        assert irreducible_escape_rate(ENV) == 0.0

    def test_matches_quadrature(self):
        # Also for a steep risk map, whose midpoint the panel edges resolve.
        for g, s0 in ((10.0, 0.55), (1e4, 0.3)):
            env = dataclasses.replace(
                ENV, p_inf=0.3, risk_map=dataclasses.replace(RISK, g=g, s0=s0)
            )
            assert irreducible_escape_rate(env) == pytest.approx(
                0.3 * _mean_risk(env), rel=1e-13
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

    def test_overflow_is_inf(self):
        # lam^3 overflows; the load lam * tau is 1e-160.
        assert ver._phi_value(0.5, 1e150, 1.0, 1e-310, 1.0) == math.inf


class TestSolveEquilibrium:
    def test_reference_fixed_point(self):
        solution = solve_equilibrium(ENV, REWORK, 0.75, 1.0)
        eq = solution.primary
        assert eq.theta_star == pytest.approx(0.42551, abs=5e-5)
        assert eq.pi_star == pytest.approx(eq.theta_star / 4.0, rel=1e-12)
        assert eq.rho == pytest.approx(0.75 * eq.tau_A, rel=1e-12)
        assert eq.wq == pytest.approx(0.7512, abs=5e-4)
        assert eq.residual <= 1e-8 * eq.theta_star
        assert not eq.degenerate

    def test_agrees_with_quadrature_bisection(self):
        solution = solve_equilibrium(ENV, REWORK, 0.75, 1.0)
        star = solution.primary.theta_star
        assert star == pytest.approx(_oracle_root(ENV, REWORK, 0.75, 1.0, star), rel=1e-8)

    @pytest.mark.parametrize("name", ["fig5-beta22", "fig5-beta52", "fig6"])
    @pytest.mark.parametrize(
        "change",
        [*(dict(g=g) for g in (300.0, 1e3, 1e4)),
         *(dict(signal_alpha=a, signal_beta=b)
           for a, b in ((2.25, 2.0), (2.25, 5.0), (7.0, 2.5), (1.5, 1.0), (2.0, 1000.0)))],
        ids=["g300", "g1e3", "g1e4", "beta2.25-2", "beta2.25-5", "beta7-2.5", "beta1.5-1",
             "beta2-1000"],
    )
    def test_steep_maps_and_fractional_shapes_match_oracle(self, name, change):
        # A steep logistic needs panel edges at s0, a shape that is not an
        # integer the end panel graded toward its end, and a density
        # narrower than a uniform panel edges around its mean.
        spec = load_config(fixture_path(f"{name}.json"))
        env = spec.env
        if "g" in change:
            env = dataclasses.replace(env, risk_map=dataclasses.replace(env.risk_map, **change))
        else:
            env = dataclasses.replace(env, **change)
        solution = solve_equilibrium(env, spec.rework, spec.lam, spec.capacity)
        for eq in solution.roots:
            oracle = _oracle_root(env, spec.rework, spec.lam, spec.capacity, eq.theta_star)
            assert eq.theta_star == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("name, g", [("fig5-beta22", 1e4), ("fig5-beta22", 1e308),
                                         ("fig6", 1e308)])
    def test_stability_boundary_of_steep_map(self, name, g):
        # theta_lo is the price where lam tau_A / C reaches 1 - EPS_RHO,
        # inflated by 1e-6.  At g = 1e308 the risk map is a step at s0.
        spec = load_config(fixture_path(f"{name}.json"))
        env = dataclasses.replace(
            spec.env, risk_map=dataclasses.replace(spec.env.risk_map, g=g)
        )
        solution = solve_equilibrium(env, spec.rework, spec.lam, spec.capacity)
        boundary = solution.theta_lo / (1.0 + 1e-6)
        oracle = brentq(
            lambda t: spec.lam * _quad_moments(env, t, spec.rework)[0] / spec.capacity
            - (1.0 - EPS_RHO),
            boundary * (1.0 - 1e-6), boundary * (1.0 + 1e-6), xtol=1e-300,
        )
        assert boundary == pytest.approx(oracle, rel=1e-11)

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
            assert eq.residual <= 1e-8 * eq.theta_star
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

    def test_infinite_phi_has_no_root(self):
        # Phi is inf at every price, and so is the tail root theta - g.
        spec = load_config(fixture_path("fig5-beta52.json"))
        rework = ReworkModel(mu_R=1e-310, mu_R2=4.0)
        with pytest.raises(NoRootError):
            solve_equilibrium(spec.env, rework, 1e150, spec.capacity)

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

    @pytest.mark.parametrize(
        "name, budget",
        [pytest.param(name, budget, id=name)
         for name, budget in (("fig5-beta22", 14), ("fig5-beta52", 15), ("fig6", 13))],
    )
    def test_quadrature_call_budget(self, monkeypatch, name, budget):
        # The counts measured for Illinois steps: one table pricing covers
        # the 64 stability anchors, one the scan, and each round one point
        # per open bracket.  Each root then takes 2 split-quadrature calls.
        spec = load_config(fixture_path(f"{name}.json"))
        calls = _count_calls(monkeypatch)
        solution = solve_equilibrium(spec.env, spec.rework, spec.lam, spec.capacity)
        assert calls["_table_moments"] <= budget
        assert calls["_policy_moments"] <= 2 * len(solution.roots)

    @pytest.mark.parametrize("name", ["fig5-beta22", "fig5-beta52", "fig6"])
    def test_roots_match_brentq_oracle(self, name):
        spec = load_config(fixture_path(f"{name}.json"))
        root_counts, tail_roots = set(), 0
        for lam in (0.3, 0.5, 0.7, 0.72, 0.75, 0.76, 0.85, 0.9, 0.95):
            solution = solve_equilibrium(spec.env, spec.rework, lam, spec.capacity)

            def gap(theta):
                return theta - phi(spec.env, theta, spec.rework, lam, spec.capacity)

            for eq in solution.roots:
                star = eq.theta_star
                oracle = brentq(gap, star * (1.0 - 1e-6), star * (1.0 + 1e-6), xtol=1e-300)
                assert star == pytest.approx(oracle, rel=1e-12)

            def stable(theta):
                tau = policy_route_moments(spec.env, theta, spec.rework).mean
                return is_stable(lam, tau, spec.capacity)

            # theta_lo is the boundary inflated by 1e-6, and the search
            # brackets the boundary to 1e-12 relative.
            assert stable(solution.theta_lo)
            assert not stable(solution.theta_lo / (1.0 + 1e-6) * (1.0 - 2e-12))
            root_counts.add(len(solution.roots))
            tail_roots += solution.roots[-1].theta_star > solution.theta_hi
        if name == "fig5-beta52":
            # The grid reaches the three-root band and the tail root.
            assert 3 in root_counts
            assert tail_roots > 0

    def test_tiny_price_scale(self, monkeypatch):
        # Scaling K and c_w by a factor scales every price by it: thresholds
        # depend on theta / (kappa K) and Phi is proportional to c_w.  Near
        # 1e-300 products of two prices underflow, and at 1e-310 theta_hi
        # and the lowest stability anchor are subnormal.  Every tolerance is
        # relative, so no root may move with the scale, and fig5-beta52 at
        # lambda = 0.72 keeps its three roots.  At 1e-310 the low-lambda
        # cases narrow subnormal brackets down to adjacent floats.
        calls = _count_calls(monkeypatch)
        for name, lam, n_roots, budget in (
            ("fig5-beta22", 0.75, 1, 14), ("fig5-beta52", 0.72, 3, 15),
            ("fig5-beta22", 0.3, 1, 15), ("fig5-beta22", 0.5, 1, 13),
            ("fig5-beta52", 0.3, 1, 14), ("fig6", 0.3, 1, 18),
        ):
            spec = load_config(fixture_path(f"{name}.json"))
            reference = solve_equilibrium(spec.env, spec.rework, lam, spec.capacity)
            assert len(reference.roots) == n_roots
            for scale in (1e-20, 1e-300, 1e-310):
                env = dataclasses.replace(
                    spec.env, K=spec.env.K * scale, c_w=spec.env.c_w * scale
                )
                calls.update(dict.fromkeys(calls, 0))
                solution = solve_equilibrium(env, spec.rework, lam, spec.capacity)
                assert calls["_table_moments"] <= budget
                assert calls["_policy_moments"] <= 2 * len(solution.roots)
                assert solution.theta_lo / solution.theta_hi == pytest.approx(
                    reference.theta_lo / reference.theta_hi, rel=1e-9
                )
                assert len(solution.roots) == len(reference.roots)
                for eq, ref in zip(solution.roots, reference.roots):
                    assert eq.theta_star / scale == pytest.approx(ref.theta_star, rel=1e-9)

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            solve_equilibrium(ENV, REWORK, 0.0, 1.0)
        with pytest.raises(ValidationError):
            solve_equilibrium(ENV, REWORK, 0.75, 0.0)


def _run_bracket_roots(f, lo, hi, rtol, f_hi=None):
    """_bracket_roots on f from the brackets [lo, hi]; returns its result and the f call sizes."""
    lo, hi = np.array(lo), np.array(hi)
    calls = []

    def counting(points):
        calls.append(points.size)
        return f(points)

    f_hi = f(hi) if f_hi is None else np.array(f_hi)
    return ver._bracket_roots(counting, lo, hi, f(lo), f_hi, rtol), calls


class TestMultisect:
    """_bracket_roots narrowing several brackets together, on functions with no quadrature."""

    def test_arithmetic_brackets_close_in_different_rounds(self):
        # Roots at 0.3, 1.7 and 2.2 of a line, a parabola and a steep
        # exponential close after 2, 9 and 14 rounds; each round prices only
        # the brackets still open.
        def f(x):
            k = np.floor(x)
            u = x - k
            steep = np.exp(8.0 * u) - np.exp(1.6)
            return np.select([k == 0, k == 1], [u - 0.3, u * u - 0.49], steep)

        (lo, hi, dropped), calls = _run_bracket_roots(f, [0.0, 1.0, 2.0], [0.9, 1.9, 2.9], 1e-13)
        assert calls == [3] * 2 + [2] * 7 + [1] * 5
        for a, b, root in zip(lo, hi, (0.3, 1.7, 2.2)):
            assert a <= root <= b and b - a <= 1e-13 * b
        assert dropped == [False] * 3

    def test_geometric_brackets(self):
        # Roots at 3e-5 and pi / 2, one in a bracket spanning six decades,
        # reached to 1e-12 relative in 13 and 7 rounds.
        (lo, hi, dropped), calls = _run_bracket_roots(
            lambda x: np.log(x / 3.0e-5) * np.cos(x), [1e-9, 1.0], [1e-3, 2.0], 1e-12
        )
        assert calls == [2] * 7 + [1] * 6
        for a, b, root in zip(lo, hi, (3.0e-5, math.pi / 2)):
            assert a <= root <= b and b - a <= 1e-12 * b
        assert dropped == [False, False]

    def test_geometric_midpoint_of_tiny_bracket(self):
        # f and the bracket are both near 1e-300, so f * (hi - lo) would
        # underflow to 0; the secant share f_lo / (f_lo - f_hi) does not.
        root = 3e-300
        (lo, hi, _), calls = _run_bracket_roots(
            lambda x: x * np.log(x / root), [1e-301], [1e-298], 1e-13
        )
        assert len(calls) == 13
        assert lo[0] <= root <= hi[0] and hi[0] - lo[0] <= 1e-13 * hi[0]

    def test_bracket_closed_on_entry_is_never_priced(self):
        # The second bracket is one ulp wide on entry: only the first is
        # priced, and its secant point 0.45 is the root.
        upper = float(np.nextafter(0.4, 1.0))
        (lo, hi, _), calls = _run_bracket_roots(lambda x: x - 0.45, [0.0, 0.4], [1.0, upper], 1e-13)
        assert calls == [1]
        assert (lo[0], hi[0]) == (0.45, 0.45)
        assert (lo[1], hi[1]) == (0.4, upper)


class TestBracketRoots:
    """_bracket_roots on one bracket, or one bracket lost, with no quadrature."""

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_root_one_ulp_from_an_end(self, end):
        # The secant point lies within an ulp of the end; held a quarter
        # tolerance inside, it closes the bracket in one round.
        root = float(np.nextafter(0.4, 1.0) if end == "lo" else np.nextafter(1.0, 0.0))
        (lo, hi, _), calls = _run_bracket_roots(
            lambda x: (x - root) * (1.0 + x * x), [0.4], [1.0], 1e-13
        )
        assert calls == [1]
        assert lo[0] < root < hi[0] and hi[0] - lo[0] <= 1e-13

    def test_nan_point_drops_a_bracket(self):
        # The second bracket's first secant point, 1.7, lies where f is NaN:
        # it is dropped, and the first bracket goes on alone.
        def f(x):
            return np.where(x > 1.6, np.nan, x - 0.7 - np.floor(x))

        (lo, hi, dropped), calls = _run_bracket_roots(
            f, [0.0, 1.0], [0.9, 2.0], 1e-12, f_hi=[0.2, 0.3]
        )
        assert dropped == [False, True]
        assert calls == [2, 1]
        assert lo[0] <= 0.7 <= hi[0]

    def test_zero_closes_a_bracket(self):
        (lo, hi, _), calls = _run_bracket_roots(lambda x: x - 0.5, [0.0], [1.0], 1e-13)
        assert calls == [1]
        assert (lo[0], hi[0]) == (0.5, 0.5)

    def test_adjacent_floats_close_a_bracket(self):
        # A tolerance no bracket can reach, around a root between two floats:
        # the search stops once the ends are adjacent floats.
        (lo, hi, _), calls = _run_bracket_roots(lambda x: (x - 0.7) - 2e-17, [0.0], [1.0], 0.0)
        assert len(calls) == 4
        assert (lo[0], hi[0]) == (0.7, np.nextafter(0.7, 1.0))
        # A bracket that starts at adjacent floats is closed without a call.
        _, calls = _run_bracket_roots(
            lambda x: (x - 0.7) - 2e-17, [0.7], [np.nextafter(0.7, 1.0)], 0.0
        )
        assert calls == []

    def test_round_cap(self):
        # An f with no secant anywhere (-1 below 1e-200, +inf above) leaves
        # only bisection, which would need over 1600 rounds to close
        # [0, 1e300]: the search stops after _BRACKET_ROUNDS of them.
        (lo, hi, _), calls = _run_bracket_roots(
            lambda x: np.where(x < 1e-200, -1.0, math.inf), [0.0], [1e300], 1e-13
        )
        assert len(calls) == ver._BRACKET_ROUNDS
        assert (lo[0], hi[0]) == (0.0, 1e300 * 0.5**ver._BRACKET_ROUNDS)


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

    def test_subnormal_kappa_rejected(self, make_env):
        assert make_env(kappa=2.2250738585072014e-308).kappa > 0.0
        with pytest.raises(ValidationError) as err:
            make_env(kappa=1e-320)
        assert err.value.field == "kappa"

    def test_price_scale_that_underflows_the_scan_rejected(self, make_env):
        # kappa * K * pi(1) is nonzero but 1e-12 of it, where the equilibrium
        # scan starts, underflows to 0; or kappa * K itself underflows to 0,
        # by which every price would be divided, also where pi(1) = 0.
        assert make_env(K=1e-300).review_scale > 0.0
        for overrides in (dict(kappa=1e-300, K=1e-20), dict(K=5e-324),
                          dict(kappa=1e-100, K=1e-310),
                          dict(kappa=1e-100, K=1e-310, risk_map=RiskMap(0.0, 0.0, 10.0, 0.5))):
            with pytest.raises(ValidationError) as err:
                dataclasses.replace(make_env(), **overrides)
            assert err.value.field == "K"

    def test_shapes_whose_normaliser_overflows_rejected(self, make_env):
        for shape in (1e308, 1.7976931348623157e308):
            with pytest.raises(ValidationError) as err:
                make_env(alpha=shape, beta=shape)
            assert err.value.field == "signal_alpha"

    def test_singular_density_shapes_rejected(self, make_env):
        # Below 1 the density is infinite at an end of [0, 1].
        for field, shape in (("signal_alpha", 0.5), ("signal_beta", 0.999)):
            with pytest.raises(ValidationError, match="must be >= 1") as err:
                make_env(**{field.removeprefix("signal_"): shape})
            assert err.value.field == field

    def test_shapes_with_a_flat_or_fractional_end_validate(self, make_env):
        # The end panel graded toward a fractional shape integrates these to
        # within the 1e-10 the check allows.
        for alpha, beta in ((1.0, 1.3), (1.5, 1.0)):
            assert make_env(alpha=alpha, beta=beta)._edges.size > 17
        # A density too concentrated for the panels is still rejected.
        with pytest.raises(ValidationError, match="does not integrate to 1"):
            make_env(alpha=1e30, beta=1.0)

    def test_zero_waiting_cost_is_admitted(self, make_env):
        assert make_env(c_w=0.0).c_w == 0.0
