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
from dataclasses import dataclass

import numpy as np

from ._kernels import IMPL, simulate_fifo
from ._special import t_quantile
from .config import SimSettings, WorkflowSpec
from .errors import InfeasibleError
from .queueing import is_stable
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

# Two-sided confidence level of every reported wait interval.
CI_LEVEL = 0.99


@dataclass(frozen=True, kw_only=True)
class SimConfig(SimSettings):
    """One simulation: a workflow and its SimSettings."""

    workflow: WorkflowSpec

    @classmethod
    def from_workflow(cls, workflow: WorkflowSpec, seed: int | None = None) -> "SimConfig":
        """The workflow's sim settings, with seed overriding sim.seed when given."""
        settings = vars(workflow.sim)
        if seed is not None:
            settings = {**settings, "seed": seed}
        return cls(workflow=workflow, **settings)

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


def _analytic_stable(workflow: WorkflowSpec, theta: float | None) -> bool:
    if workflow.mode == "fixed":
        ai = ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
    else:
        ai = policy_route_moments(workflow.env, theta, workflow.rework)
    mix = mixed_moments(workflow.manual, ai, workflow.x)
    return is_stable(workflow.lam, mix.mean, workflow.capacity)


def _resolve_theta(config: SimConfig) -> float | None:
    """Equilibrium price used for policy-mode service draws (None if fixed)."""
    workflow = config.workflow
    if workflow.mode != "policy":
        return None
    solution = solve_equilibrium(workflow.env, workflow.rework, workflow.lam, workflow.capacity)
    if solution.primary.degenerate:
        raise InfeasibleError(
            "policy simulation needs a positive equilibrium review price; "
            "the equilibrium is degenerate (theta* = 0)"
        )
    return solution.primary.theta_star


# The kernel's "no job spawns rework" arguments, used by folded runs.
_NO_SPAWN = np.zeros(0, dtype=np.uint8)
_NO_REWORK = np.zeros(0)


def _t_half_width(means) -> float:
    """Half-width of the two-sided Student-t interval at CI_LEVEL from iid means."""
    n = means.size
    t_mult = t_quantile(0.5 + CI_LEVEL / 2.0, n - 1)
    return t_mult * float(means.std(ddof=1)) / math.sqrt(n)


def _draw_ai_first_pass(workflow: WorkflowSpec, theta, n_ai: int, rng_escape, rng_signal):
    """Review times and escape flags of n_ai AI drafts."""
    if workflow.mode == "fixed":
        review_times = np.full(n_ai, float(workflow.review_r))
        p_escape = residual_error(workflow.curve, workflow.review_r)
    else:
        signals = rng_signal.beta(workflow.env.signal_alpha, workflow.env.signal_beta, n_ai)
        review_times = review_effort(workflow.env, theta, signals)
        p_escape = residual_risk(workflow.env, theta, signals)
    return review_times, rng_escape.random(n_ai) < p_escape


def _run_single(config: SimConfig, rep: int, theta: float | None) -> SimStats:
    workflow = config.workflow
    n = config.n_arrivals
    capacity = workflow.capacity
    folded = config.rework_mode == "folded"

    seed_seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    (rng_arrival, rng_route, rng_manual, rng_escape, rng_rework, rng_signal) = (
        np.random.default_rng(child) for child in seed_seq.spawn(6)
    )

    arrivals = _draw_interarrivals(workflow, rng_arrival, n)
    np.cumsum(arrivals, out=arrivals)

    # Routing.  is_ai is None when every task takes the same route, so the
    # common x = 1 and x = 0 cases skip the mask scatters.
    if workflow.x >= 1.0 or workflow.x <= 0.0:
        is_ai = None
        n_ai = n if workflow.x >= 1.0 else 0
    else:
        is_ai = rng_route.random(n) < workflow.x
        n_ai = int(is_ai.sum())
    n_manual = n - n_ai

    # First-pass attention of every task, and the escape flags of AI drafts.
    escaped = None
    if n_ai == n:
        attention, escaped = _draw_ai_first_pass(workflow, theta, n, rng_escape, rng_signal)
    elif n_manual == n:
        attention = sample_manual(workflow.manual, rng_manual, size=n)
    else:
        attention = np.zeros(n)
        attention[~is_ai] = sample_manual(workflow.manual, rng_manual, size=n_manual)
        review_times, escape_draws = _draw_ai_first_pass(
            workflow, theta, n_ai, rng_escape, rng_signal
        )
        attention[is_ai] = review_times
        escaped = np.zeros(n, dtype=bool)
        escaped[is_ai] = escape_draws
    # Indices rather than a boolean mask: the escapes are a small minority.
    escaped_at = np.flatnonzero(escaped) if escaped is not None else np.zeros(0, dtype=np.intp)
    rework_draws = sample_rework(workflow.rework, rng_rework, size=escaped_at.size)

    if not folded:
        first_services = attention / capacity
        spawn_mask = np.zeros(n, dtype=np.uint8)
        spawn_mask[escaped_at] = 1
        rework_services = np.zeros(n)
        rework_services[escaped_at] = rework_draws / capacity

    # Total attention of each task's chain (first pass + any rework), in place.
    chain_attention = attention
    chain_attention[escaped_at] += rework_draws

    k0 = int(config.warmup_fraction * n)
    window_start = 0.0 if k0 == 0 else float(arrivals[k0 - 1])
    window = float(arrivals[-1]) - window_start
    chain_post = chain_attention[k0:]
    rho_hat = float(chain_post.sum()) / capacity / window
    service_mean = float(chain_post.mean())
    if escaped is None:
        escape_rate = None
    elif is_ai is None:
        escape_rate = float(escaped[k0:].mean())
    else:
        post_ai = is_ai[k0:]
        escape_rate = float(escaped[k0:][post_ai].mean()) if post_ai.any() else None

    if folded:
        # No rework job re-enters the queue, so there are no per-arrival spawn
        # flags to build.  The queue's output buffers hold the squared chain
        # attention until it runs, and the services overwrite the chain
        # attention once its statistics are taken.
        waits, chain_complete = np.empty(n), np.empty(n)
        service_m2 = float(np.square(chain_post, out=waits[k0:]).mean())
        services = np.divide(chain_attention, capacity, out=chain_attention)
        spawn_mask, rework_services = _NO_SPAWN, _NO_REWORK
        out = (waits, chain_complete)
    else:
        service_m2 = float(np.square(chain_post).mean())
        services, out = first_services, None
    waits, chain_complete, rework_waits, end_time, busy = simulate_fifo(
        arrivals, services, spawn_mask, rework_services, out=out
    )

    # --- estimation ---------------------------------------------------------
    sojourn_mean = float(
        np.subtract(chain_complete[k0:], arrivals[k0:], out=chain_complete[k0:]).mean()
    )
    waits_post = waits[k0:]
    n_batches = config.n_batches
    per_batch = waits_post.size // n_batches
    batch_means = waits_post[: per_batch * n_batches].reshape(n_batches, per_batch).mean(axis=1)
    wq_mean = float(batch_means.mean())
    half_width = _t_half_width(batch_means)
    # The quantiles are order statistics: sorting first (in place; the waits
    # are not needed again) is several times faster than np.quantile's
    # partition on waits that are mostly exact zeros, with the same values.
    waits_post.sort()
    p50, p90, p99 = (
        float(v) for v in np.quantile(waits_post, [0.5, 0.9, 0.99], overwrite_input=True)
    )

    return SimStats(
        mode=config.rework_mode,
        backend=IMPL,
        n_arrivals=n,
        n_rework_jobs=int(rework_waits.size),
        warmup_skipped=k0,
        wq_mean=wq_mean,
        wq_ci_half_width=half_width,
        ci_level=CI_LEVEL,
        wq_p50=p50,
        wq_p90=p90,
        wq_p99=p99,
        rho_hat=rho_hat,
        busy_fraction=float(busy) / float(end_time),
        service_mean=service_mean,
        service_m2=service_m2,
        escape_rate=escape_rate,
        sojourn_mean=sojourn_mean,
        batch_means=tuple(float(b) for b in batch_means),
        unstable=not _analytic_stable(workflow, theta),
        theta_star=theta,
    )


def run(config: SimConfig) -> SimStats:
    """The first replication (what ``replicate`` returns when ``config.reps == 1``)."""
    return _run_single(config, rep=0, theta=_resolve_theta(config))


def replicate(config: SimConfig) -> SimStats:
    """``config.reps`` independent replications, seeds spawned from the base seed.

    Aggregates replication means; the confidence half-width is the
    across-replication t-interval and ``batch_means`` holds the per-rep
    means.  Rates and quantiles are averaged across replications.
    """
    theta = _resolve_theta(config)
    runs = [_run_single(config, rep=i, theta=theta) for i in range(config.reps)]
    if config.reps == 1:
        return runs[0]

    rep_means = np.array([r.wq_mean for r in runs])
    half_width = _t_half_width(rep_means)

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
        ci_level=CI_LEVEL,
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
