"""Discrete-event single-server FIFO queue for validating the analytics.

Tasks arrive by a renewal process (exponential gaps by default, gamma
gaps for general c2_a, constant gaps at c2_a=0), are routed to the manual
or AI route by an independent coin, and occupy the server for their
attention requirement divided by capacity.  Rework is either folded into
the originating task's service time (matching the analytic model) or, in
the exploratory feedback mode, re-enters the tail of the queue as a
separate job, in which case reported waits are first-pass only.

Randomness is split into six independent substreams (interarrivals, route
choice, manual service, escape flags, rework draws, signals) so changing
one distribution never perturbs the others' draws.  Replication seeds are
spawned from the base seed by a fixed rule, so every statistic is
bit-reproducible for a given config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as _scipy_stats

from ._kernels import IMPL, simulate_fifo
from .config import SimSettings, WorkflowSpec
from .errors import InfeasibleError, ValidationError
from .queueing import EPS_RHO
from .service_model import (
    ai_route_moments,
    mixed_moments,
    residual_error,
    sample_manual,
    sample_rework,
)
from .verification import (
    policy_route_moments,
    residual_risk,
    review_effort,
    solve_equilibrium,
)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: a workflow plus horizon/estimation settings."""

    workflow: WorkflowSpec
    n_arrivals: int = 1_000_000
    warmup_fraction: float = 0.2
    n_batches: int = 32
    seed: int = 0
    rework_mode: str = "folded"
    ci_level: float = 0.99
    policy_theta: float | None = None

    def __post_init__(self):
        # Reuse the settings validation so programmatic configs and JSON
        # configs enforce identical invariants.
        SimSettings(
            seed=self.seed,
            n_arrivals=self.n_arrivals,
            warmup_fraction=self.warmup_fraction,
            n_batches=self.n_batches,
            rework_mode=self.rework_mode,
        )
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError(
                f"ci_level must lie in (0, 1), got {self.ci_level}", field="ci_level"
            )
        if self.policy_theta is not None:
            if self.workflow.mode != "policy":
                raise ValidationError(
                    "policy_theta only applies to policy-mode workflows", field="policy_theta"
                )
            if not self.policy_theta > 0.0:
                raise ValidationError(
                    f"policy_theta must be > 0, got {self.policy_theta}", field="policy_theta"
                )

    @classmethod
    def from_workflow(cls, workflow: WorkflowSpec, seed: int | None = None) -> "SimConfig":
        sim = workflow.sim
        return cls(
            workflow=workflow,
            n_arrivals=sim.n_arrivals,
            warmup_fraction=sim.warmup_fraction,
            n_batches=sim.n_batches,
            seed=sim.seed if seed is None else seed,
            rework_mode=sim.rework_mode,
        )

    @property
    def arrival_family(self) -> str:
        c2 = self.workflow.c2_a
        if c2 == 0.0:
            return "deterministic"
        if c2 == 1.0:
            return "poisson"
        return "gamma-renewal"


@dataclass(frozen=True)
class SimStats:
    """Point estimates from one run (or an aggregate over replications)."""

    mode: str
    backend: str
    n_arrivals: int
    n_rework_jobs: int
    warmup_skipped: int
    wq_mean: float
    wq_ci_half_width: float
    ci_level: float
    wq_p50: float
    wq_p90: float
    wq_p99: float
    rho_hat: float
    busy_fraction: float
    service_mean: float
    service_m2: float
    escape_rate: float | None
    sojourn_mean: float
    batch_means: tuple[float, ...]
    unstable: bool
    theta_star: float | None = None


def _draw_interarrivals(workflow: WorkflowSpec, rng: np.random.Generator, n: int):
    mean_gap = 1.0 / workflow.lam
    c2 = workflow.c2_a
    if c2 == 0.0:
        return np.full(n, mean_gap)
    if c2 == 1.0:
        return rng.exponential(mean_gap, n)
    return rng.gamma(1.0 / c2, mean_gap * c2, n)


def _analytic_offered_load(workflow: WorkflowSpec, theta: float | None) -> float:
    if workflow.mode == "fixed":
        ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
    else:
        ai = policy_route_moments(workflow.env, theta, workflow.rework)
    mix = mixed_moments(workflow.manual, ai, workflow.x)
    return workflow.lam * mix.mean / workflow.capacity


def _resolve_theta(config: SimConfig) -> float | None:
    """Equilibrium price used for policy-mode service draws (None if fixed)."""
    workflow = config.workflow
    if workflow.mode != "policy":
        return None
    if config.policy_theta is not None:
        return config.policy_theta
    solution = solve_equilibrium(workflow.env, workflow.rework, workflow.lam, workflow.capacity)
    if solution.primary.degenerate:
        raise InfeasibleError(
            "policy simulation needs a positive equilibrium review price; "
            "the equilibrium is degenerate (theta* = 0)"
        )
    return solution.primary.theta_star


def _run_single(config: SimConfig, rep: int, theta: float | None) -> SimStats:
    workflow = config.workflow
    n = config.n_arrivals
    capacity = workflow.capacity

    seed_seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    (rng_arrival, rng_route, rng_manual, rng_escape, rng_rework, rng_signal) = (
        np.random.default_rng(child) for child in seed_seq.spawn(6)
    )

    arrivals = np.cumsum(_draw_interarrivals(workflow, rng_arrival, n))

    if workflow.x >= 1.0:
        is_ai = np.ones(n, dtype=bool)
    elif workflow.x <= 0.0:
        is_ai = np.zeros(n, dtype=bool)
    else:
        is_ai = rng_route.random(n) < workflow.x
    n_ai = int(is_ai.sum())
    n_manual = n - n_ai

    first_attention = np.zeros(n)
    if n_manual:
        first_attention[~is_ai] = sample_manual(workflow.manual, rng_manual, size=n_manual)

    escaped = np.zeros(n, dtype=bool)
    rework_draws = np.zeros(0)
    if n_ai:
        if workflow.mode == "fixed":
            review_times = np.full(n_ai, float(workflow.review_r))
            p_escape = residual_error(workflow.curve, workflow.review_r)
        else:
            signals = rng_signal.beta(workflow.env.signal_alpha, workflow.env.signal_beta, n_ai)
            review_times = review_effort(workflow.env, theta, signals)
            p_escape = residual_risk(workflow.env, theta, signals)
        escape_draws = rng_escape.random(n_ai) < p_escape
        escaped[is_ai] = escape_draws
        n_escaped = int(escape_draws.sum())
        if n_escaped:
            rework_draws = sample_rework(workflow.rework, rng_rework, size=n_escaped)
        first_attention[is_ai] = review_times

    # Total attention of each task's chain (first pass + any rework).
    chain_attention = first_attention.copy()
    if rework_draws.size:
        chain_attention[escaped] += rework_draws

    spawn_mask = np.zeros(n, dtype=np.uint8)
    rework_services = np.zeros(n)
    if config.rework_mode == "folded":
        services = chain_attention / capacity
    else:
        services = first_attention / capacity
        if rework_draws.size:
            spawn_mask[escaped] = 1
            rework_services[escaped] = rework_draws / capacity

    waits, chain_complete, _rework_waits, end_time, busy = simulate_fifo(
        np.ascontiguousarray(arrivals),
        np.ascontiguousarray(services),
        spawn_mask,
        np.ascontiguousarray(rework_services),
    )

    # --- estimation ---------------------------------------------------------
    k0 = int(config.warmup_fraction * n)
    waits_post = waits[k0:]
    n_batches = config.n_batches
    per_batch = waits_post.size // n_batches
    batch_means = waits_post[: per_batch * n_batches].reshape(n_batches, per_batch).mean(axis=1)
    wq_mean = float(batch_means.mean())
    t_mult = float(_scipy_stats.t.ppf(0.5 + config.ci_level / 2.0, n_batches - 1))
    half_width = t_mult * float(batch_means.std(ddof=1)) / math.sqrt(n_batches)
    p50, p90, p99 = (float(v) for v in np.quantile(waits_post, [0.5, 0.9, 0.99]))

    window_start = 0.0 if k0 == 0 else float(arrivals[k0 - 1])
    window = float(arrivals[-1]) - window_start
    rho_hat = float(chain_attention[k0:].sum()) / capacity / window

    post_ai = is_ai[k0:]
    n_ai_post = int(post_ai.sum())
    escape_rate = (
        float(escaped[k0:][post_ai].mean()) if n_ai_post else None
    )

    offered = _analytic_offered_load(workflow, theta)

    return SimStats(
        mode=config.rework_mode,
        backend=IMPL,
        n_arrivals=n,
        n_rework_jobs=int(_rework_waits.size),
        warmup_skipped=k0,
        wq_mean=wq_mean,
        wq_ci_half_width=half_width,
        ci_level=config.ci_level,
        wq_p50=p50,
        wq_p90=p90,
        wq_p99=p99,
        rho_hat=rho_hat,
        busy_fraction=float(busy) / float(end_time),
        service_mean=float(chain_attention[k0:].mean()),
        service_m2=float((chain_attention[k0:] ** 2).mean()),
        escape_rate=escape_rate,
        sojourn_mean=float((chain_complete[k0:] - arrivals[k0:]).mean()),
        batch_means=tuple(float(b) for b in batch_means),
        unstable=offered >= 1.0 - EPS_RHO,
        theta_star=theta,
    )


def run(config: SimConfig) -> SimStats:
    """Single replication (identical to ``replicate(config, 1)``)."""
    return _run_single(config, rep=0, theta=_resolve_theta(config))


def replicate(config: SimConfig, n_reps: int) -> SimStats:
    """Independent replications with seeds spawned from the base seed.

    Aggregates replication means; the confidence half-width is the
    across-replication t-interval and ``batch_means`` holds the per-rep
    means.  Rates and quantiles are averaged across replications.
    """
    if not isinstance(n_reps, int) or n_reps < 1:
        raise ValidationError(f"n_reps must be an integer >= 1, got {n_reps!r}", field="n_reps")
    theta = _resolve_theta(config)
    runs = [_run_single(config, rep=i, theta=theta) for i in range(n_reps)]
    if n_reps == 1:
        return runs[0]

    rep_means = np.array([r.wq_mean for r in runs])
    t_mult = float(_scipy_stats.t.ppf(0.5 + config.ci_level / 2.0, n_reps - 1))
    half_width = t_mult * float(rep_means.std(ddof=1)) / math.sqrt(n_reps)

    def _avg(attr: str) -> float:
        return float(np.mean([getattr(r, attr) for r in runs]))

    escapes = [r.escape_rate for r in runs if r.escape_rate is not None]
    return SimStats(
        mode=config.rework_mode,
        backend=IMPL,
        n_arrivals=sum(r.n_arrivals for r in runs),
        n_rework_jobs=sum(r.n_rework_jobs for r in runs),
        warmup_skipped=sum(r.warmup_skipped for r in runs),
        wq_mean=float(rep_means.mean()),
        wq_ci_half_width=half_width,
        ci_level=config.ci_level,
        wq_p50=_avg("wq_p50"),
        wq_p90=_avg("wq_p90"),
        wq_p99=_avg("wq_p99"),
        rho_hat=_avg("rho_hat"),
        busy_fraction=_avg("busy_fraction"),
        service_mean=_avg("service_mean"),
        service_m2=_avg("service_m2"),
        escape_rate=float(np.mean(escapes)) if escapes else None,
        sojourn_mean=_avg("sojourn_mean"),
        batch_means=tuple(float(m) for m in rep_means),
        unstable=any(r.unstable for r in runs),
        theta_star=theta,
    )


def run_with_seed(config: SimConfig, seed: int) -> SimStats:
    """Convenience: rerun the same config under a different base seed."""
    return run(replace(config, seed=seed))
