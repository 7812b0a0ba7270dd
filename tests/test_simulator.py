import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from wedgeq import (
    ErrorCurve,
    InfeasibleError,
    ManualRoute,
    QueueInputs,
    ReworkModel,
    RiskMap,
    SignalEnvironment,
    SimConfig,
    ValidationError,
    WorkflowSpec,
    ai_route_moments,
    mixed_moments,
    replicate,
    residual_risk,
    run,
    run_with_seed,
    solve_equilibrium,
    wq_pk,
)
from wedgeq.config import SimSettings
from wedgeq.simulator import _draw_interarrivals

RISK = RiskMap(a=0.02, b=0.88, g=10.0, s0=0.55)
ENV = SignalEnvironment(
    risk_map=RISK, signal_alpha=2.0, signal_beta=2.0, K=2.0, kappa=2.0, c_w=0.5
)


def _fixed_workflow(lam=0.5, c2_H=1.0, x=0.0, c2_a=1.0, tau_H=1.0, review_r=0.5,
                    capacity=1.0):
    return WorkflowSpec(
        lam=lam,
        capacity=capacity,
        manual=ManualRoute(tau_H=tau_H, c2_H=c2_H),
        rework=ReworkModel(mu_R=7.0 / 3.0, mu_R2=6.8375),
        x=x,
        c2_a=c2_a,
        curve=ErrorCurve(p0=0.15, p_inf=0.15, kappa=2.0),
        review_r=review_r,
    )


def _policy_workflow(lam=0.75):
    return WorkflowSpec(
        lam=lam,
        capacity=1.0,
        manual=ManualRoute(tau_H=1.0, c2_H=0.10),
        rework=ReworkModel(mu_R=1.5, mu_R2=4.0),
        env=ENV,
    )


def _config(workflow, n=16_000, seed=11, **kw):
    return SimConfig(workflow=workflow, n_arrivals=n, seed=seed, **kw)


def _analytic_wq(workflow):
    ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
    mix = mixed_moments(workflow.manual, ai, workflow.x)
    return wq_pk(
        QueueInputs(lam=workflow.lam, capacity=workflow.capacity, service=mix,
                    c2_a=workflow.c2_a)
    ).wq


class TestDeterminism:
    def test_same_seed_same_stats(self):
        config = _config(_fixed_workflow(x=1.0))
        assert run(config) == run(config)

    def test_different_seed_differs(self):
        config = _config(_fixed_workflow(x=1.0))
        assert run(config).wq_mean != run_with_seed(config, 12).wq_mean

    def test_replicate_one_equals_run(self):
        config = _config(_fixed_workflow(x=0.3))
        assert replicate(config, 1) == run(config)

    def test_replications_are_independent_substreams(self):
        config = _config(_fixed_workflow(x=0.3))
        agg = replicate(config, 3)
        assert len(agg.batch_means) == 3
        assert len(set(agg.batch_means)) == 3
        assert agg.n_arrivals == 3 * config.n_arrivals
        assert agg.wq_mean == pytest.approx(np.mean(agg.batch_means), rel=1e-12)


class TestAgainstClosedForms:
    def test_poisson_exponential_service(self):
        # lam=0.5 against an exponential unit-mean manual route: wq = 1.
        workflow = _fixed_workflow(lam=0.5, c2_H=1.0, x=0.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert not stats.unstable
        assert abs(stats.wq_mean - 1.0) <= stats.wq_ci_half_width

    def test_poisson_deterministic_service(self):
        workflow = _fixed_workflow(lam=0.5, c2_H=0.0, x=0.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - 0.5) <= stats.wq_ci_half_width

    def test_fully_deterministic_flow_never_waits(self):
        workflow = _fixed_workflow(lam=0.5, c2_H=0.0, x=0.0, c2_a=0.0)
        stats = run(_config(workflow, n=20_000))
        assert stats.wq_mean == 0.0
        assert stats.wq_ci_half_width == 0.0
        assert stats.wq_p99 == 0.0
        assert stats.rho_hat == pytest.approx(0.5, rel=1e-6)

    def test_mixed_route_covers_pk(self):
        workflow = _fixed_workflow(lam=0.6, c2_H=0.10, x=0.5, review_r=0.5)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - _analytic_wq(workflow)) <= stats.wq_ci_half_width

    def test_capacity_rescales_time(self):
        # Doubling capacity halves every attention-hour of service time.
        workflow = _fixed_workflow(lam=1.0, c2_H=1.0, x=0.0, capacity=2.0)
        stats = run(_config(workflow, n=200_000, seed=5))
        assert abs(stats.wq_mean - _analytic_wq(workflow)) <= stats.wq_ci_half_width
        assert stats.rho_hat == pytest.approx(0.5, rel=0.02)


class TestEstimatorInternals:
    def test_shapes_and_bookkeeping(self):
        config = _config(_fixed_workflow(x=0.4), n=16_000)
        stats = run(config)
        assert stats.warmup_skipped == 3_200
        assert len(stats.batch_means) == 32
        assert stats.wq_p50 <= stats.wq_p90 <= stats.wq_p99
        assert stats.mode == "folded"
        assert stats.backend == "python"

    def test_sojourn_decomposes_in_folded_mode(self):
        config = _config(_fixed_workflow(x=0.4), n=16_000)
        stats = run(config)
        assert stats.sojourn_mean == pytest.approx(
            stats.wq_mean + stats.service_mean, rel=1e-9
        )

    def test_occupancy_tracks_offered_load(self):
        workflow = _fixed_workflow(lam=0.6, x=0.5)
        ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
        offered = 0.6 * mixed_moments(workflow.manual, ai, 0.5).mean
        stats = run(_config(workflow, n=100_000))
        assert stats.rho_hat == pytest.approx(offered, rel=0.03)
        assert stats.busy_fraction == pytest.approx(stats.rho_hat, rel=0.03)

    def test_escape_rate_matches_error_curve(self):
        stats = run(_config(_fixed_workflow(x=1.0), n=100_000))
        n_ai = stats.n_arrivals - stats.warmup_skipped
        se = math.sqrt(0.15 * 0.85 / n_ai)
        assert stats.escape_rate == pytest.approx(0.15, abs=4 * se)

    def test_no_ai_traffic_no_escape_estimate(self):
        stats = run(_config(_fixed_workflow(x=0.0)))
        assert stats.escape_rate is None
        assert stats.n_rework_jobs == 0

    def test_unstable_flag(self):
        stats = run(_config(_fixed_workflow(lam=1.2, x=0.0), n=20_000))
        assert stats.unstable

    def test_interarrival_families(self):
        rng = np.random.default_rng(0)
        workflow = _fixed_workflow(lam=0.5, c2_a=0.4)
        gaps = _draw_interarrivals(workflow, rng, 400_000)
        assert gaps.mean() == pytest.approx(2.0, rel=0.02)
        c2 = gaps.var() / gaps.mean() ** 2
        assert c2 == pytest.approx(0.4, rel=0.03)
        assert _config(workflow).arrival_family == "gamma-renewal"
        assert _config(_fixed_workflow(c2_a=0.0)).arrival_family == "deterministic"
        assert _config(_fixed_workflow(c2_a=1.0)).arrival_family == "poisson"


class TestReworkModes:
    def test_same_total_attention_either_way(self):
        # Folded and feedback runs consume identical random draws, so the
        # measured occupancy and chain service moments match exactly.
        workflow = _fixed_workflow(lam=0.5, x=1.0)
        folded = run(_config(workflow, rework_mode="folded"))
        feedback = run(_config(workflow, rework_mode="feedback"))
        assert folded.rho_hat == feedback.rho_hat
        assert folded.service_mean == feedback.service_mean
        assert folded.service_m2 == feedback.service_m2
        assert folded.escape_rate == feedback.escape_rate
        assert folded.n_rework_jobs == 0
        assert feedback.n_rework_jobs > 0
        assert folded.wq_mean != feedback.wq_mean

    def test_feedback_spawns_match_escapes(self):
        workflow = _fixed_workflow(lam=0.5, x=1.0)
        stats = run(_config(workflow, rework_mode="feedback", n=50_000))
        expected = 0.15 * 50_000
        assert stats.n_rework_jobs == pytest.approx(expected, rel=0.05)


class TestPolicyMode:
    def test_resolves_equilibrium_price(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=50_000))
        solution = solve_equilibrium(ENV, workflow.rework, 0.75, 1.0)
        assert stats.theta_star == solution.primary.theta_star

    def test_covers_equilibrium_wait(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=200_000, seed=5))
        solution = solve_equilibrium(ENV, workflow.rework, 0.75, 1.0)
        assert abs(stats.wq_mean - solution.primary.wq) <= stats.wq_ci_half_width

    def test_escape_rate_matches_clipped_risk(self):
        workflow = _policy_workflow()
        stats = run(_config(workflow, n=100_000, seed=5))
        theta = stats.theta_star
        dist = beta_dist(2.0, 2.0)
        expected = quad(
            lambda s: residual_risk(ENV, theta, s) * dist.pdf(s), 0.0, 1.0,
            points=[RISK.s0], limit=200,
        )[0]
        n_ai = stats.n_arrivals - stats.warmup_skipped
        se = math.sqrt(expected * (1.0 - expected) / n_ai)
        assert stats.escape_rate == pytest.approx(expected, abs=4 * se)

    def test_price_override_skips_solver(self):
        stats = run(_config(_policy_workflow(), n=16_000, policy_theta=0.3))
        assert stats.theta_star == 0.3

    def test_degenerate_equilibrium_refused(self):
        env = SignalEnvironment(
            risk_map=RISK, signal_alpha=2.0, signal_beta=2.0,
            K=2.0, kappa=2.0, c_w=0.0,
        )
        workflow = WorkflowSpec(
            lam=0.75, capacity=1.0, manual=ManualRoute(tau_H=1.0, c2_H=0.10),
            rework=ReworkModel(mu_R=1.5, mu_R2=4.0), env=env,
        )
        with pytest.raises(InfeasibleError):
            run(_config(workflow))


class TestConfigValidation:
    def test_from_workflow_reads_sim_block(self):
        workflow = _fixed_workflow()
        workflow = WorkflowSpec(
            **{**workflow.__dict__, "sim": SimSettings(seed=5, n_arrivals=12_800)}
        )
        config = SimConfig.from_workflow(workflow)
        assert config.seed == 5
        assert config.n_arrivals == 12_800
        assert SimConfig.from_workflow(workflow, seed=9).seed == 9

    def test_bad_settings_rejected(self):
        workflow = _fixed_workflow()
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, ci_level=1.0)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_arrivals=100, n_batches=32)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, warmup_fraction=0.6)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, rework_mode="inline")
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, seed=-1)
        with pytest.raises(ValidationError):
            SimConfig(workflow=workflow, n_batches=1)

    def test_policy_theta_only_in_policy_mode(self):
        with pytest.raises(ValidationError):
            SimConfig(workflow=_fixed_workflow(), policy_theta=0.3)
        with pytest.raises(ValidationError):
            SimConfig(workflow=_policy_workflow(), policy_theta=0.0)

    def test_replicate_count_validated(self):
        config = _config(_fixed_workflow())
        with pytest.raises(ValidationError):
            replicate(config, 0)
