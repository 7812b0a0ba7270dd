"""Discrete-event single-server FIFO queue for validating the analytics.

Tasks arrive by a renewal process (exponential gaps by default, gamma
gaps for general c2_a, constant gaps at c2_a=0), are routed to the manual
or AI route by an independent coin, and occupy the server for their
attention requirement divided by capacity.  Rework is either folded into
the originating task's service time (matching the analytic model) or, in
the exploratory feedback mode, re-enters the tail of the queue as a
separate job, in which case reported waits are first-pass only.  A task's
sojourn, to the end of its chain, is its waits plus its services: a rework
enters exactly when its parent departs.

Randomness is split into six independent substreams (interarrivals, route
choice, manual service, escape flags, rework draws, signals) so changing
one distribution never perturbs the others' draws.  Replication seeds are
spawned from the base seed by a fixed rule, so every statistic is
bit-reproducible for a given config.

A run streams through chunks of 2^14 arrivals: each chunk is drawn, walked
through the queue and folded into running sums before the next is drawn,
and only the post-warm-up waits are kept, for the batch means and the exact
quantiles.  A run therefore holds 8 bytes per post-warm-up arrival (6.4 per
arrival at the default warm-up fraction 0.2) plus a fixed 1 MB (folded) to
3 MB (feedback) for the chunk in hand.

This module owns the chunk size.  The queue kernel walks each chunk's drawn
interarrival gaps as one walk, continued from the queue state the chunk
before left, and places a feedback chunk's reworks in time relative to the
job before the chunk, so the waits and the rework entries round at the
scale of a chunk.  No calendar time is formed for the walk; the span of the
post-warm-up arrivals, for rho_hat, is a running sum of their gaps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import IMPL, QueueState, simulate_fifo
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
from .verification import pi_star, policy_route_moments, review_policy, solve_equilibrium

# Two-sided confidence level of every reported wait interval.
CI_LEVEL = 0.99

# Arrivals per chunk of a run's stream, and so per call of the queue kernel.
_CHUNK = 1 << 14


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


# SimStats fields that replicate sums, and those it averages, across replications.
_SUMMED = ("n_arrivals", "n_rework_jobs", "warmup_skipped")
_AVERAGED = ("wq_p50", "wq_p90", "wq_p99", "rho_hat", "busy_fraction", "service_mean",
             "service_m2", "sojourn_mean")

# The kernel's "no job spawns rework" arguments, used by folded runs and by
# feedback runs with no AI route.
_NO_SPAWN = np.zeros(0, dtype=bool)
_NO_REWORK = np.zeros(0)
_NO_INDEX = np.zeros(0, dtype=np.intp)


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
        env = workflow.env
        signals = rng_signal.beta(env.signal_alpha, env.signal_beta, n_ai)
        review_times, p_escape = review_policy(
            env, pi_star(env, theta), env.risk_map.value(signals)
        )
    return review_times, rng_escape.random(n_ai) < p_escape


def _sorted_quantiles(values, qs) -> list[float]:
    """np.quantile's default (linear) method, read from values sorted ascending."""
    top = values.size - 1
    out = []
    for q in qs:
        virtual = top * q
        i = math.floor(virtual)
        g = virtual - i
        a, b = float(values[i]), float(values[min(i + 1, top)])
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return out


def _run_single(config: SimConfig, rep: int, theta: float | None, unstable: bool) -> SimStats:
    workflow = config.workflow
    n = config.n_arrivals
    capacity = workflow.capacity
    folded = config.rework_mode == "folded"
    mixed = 0.0 < workflow.x < 1.0

    seed_seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    (rng_arrival, rng_route, rng_manual, rng_escape, rng_rework, rng_signal) = (
        np.random.default_rng(child) for child in seed_seq.spawn(6)
    )

    # The run streams through chunks of _CHUNK arrivals.  Each is drawn (a
    # Generator continues its stream across calls, so the draws are those of
    # one whole-run call), walked from the queue state the chunk before left,
    # and folded into running sums; only the post-warm-up waits are kept.
    k0 = int(config.warmup_fraction * n)
    n_post = n - k0
    waits_post = np.empty(n_post)
    queue = QueueState()
    window = 0.0  # the post-warm-up arrivals' span, for rho_hat
    chain_sum = chain_m2 = rework_wait_sum = busy = 0.0
    n_ai_post = n_escaped_post = 0
    warm_spawns = walked = 0  # reworks spawned by warm-up arrivals; reworks walked
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        m = hi - lo
        p = min(max(k0 - lo, 0), m)  # the chunk's first post-warm-up arrival

        gaps = _draw_interarrivals(workflow, rng_arrival, m)
        window += float(gaps[p:].sum())

        # Routing.  is_ai is None when every task takes the same route, so
        # the common x = 1 and x = 0 cases skip the mask scatters.
        if mixed:
            is_ai = rng_route.random(m) < workflow.x
            n_ai = int(np.count_nonzero(is_ai))
            n_ai_post += int(np.count_nonzero(is_ai[p:]))
        else:
            is_ai, n_ai = None, m if workflow.x >= 1.0 else 0
            n_ai_post += m - p if n_ai else 0

        # First-pass attention of every task, and the escape flags of AI drafts.
        escaped = None
        if n_ai == m:
            attention, escaped = _draw_ai_first_pass(workflow, theta, m, rng_escape, rng_signal)
        elif n_ai == 0:
            attention = sample_manual(workflow.manual, rng_manual, size=m)
        else:
            attention = np.zeros(m)
            attention[~is_ai] = sample_manual(workflow.manual, rng_manual, size=m - n_ai)
            review_times, escape_draws = _draw_ai_first_pass(
                workflow, theta, n_ai, rng_escape, rng_signal
            )
            attention[is_ai] = review_times
            escaped = np.zeros(m, dtype=bool)
            escaped[is_ai] = escape_draws
        if escaped is None:
            escaped_at = _NO_INDEX
        else:
            # Indices rather than a boolean mask: the escapes are a small minority.
            escaped_at = np.flatnonzero(escaped)
            n_escaped_post += int(np.count_nonzero(escaped[p:]))
            warm_spawns += int(np.count_nonzero(escaped[:p]))
        rework_draws = sample_rework(workflow.rework, rng_rework, size=escaped_at.size)

        if not folded:
            services = attention / capacity  # the first pass; rework re-enters on its own
            spawn_mask = _NO_SPAWN if escaped is None else escaped
            # In spawn order: the escapes are flagged in arrival order.
            rework_services = rework_draws / capacity
        # Total attention of each task's chain (first pass + any rework), in place.
        chain_attention = attention
        chain_attention[escaped_at] += rework_draws
        chain_post = chain_attention[p:]
        chain_sum += float(chain_post.sum())
        chain_m2 += float(np.square(chain_post).sum())
        if folded:
            # No rework job re-enters the queue: it lengthens its task's service.
            services = np.divide(chain_attention, capacity, out=chain_attention)
            spawn_mask, rework_services = _NO_SPAWN, _NO_REWORK

        waits, rework_waits, end_time, chunk_busy = simulate_fifo(
            gaps, services, spawn_mask, rework_services, state=queue, last=hi == n
        )
        busy += chunk_busy
        waits_post[max(lo - k0, 0) : max(hi - k0, 0)] = waits[p:]
        # Reworks are walked in spawn order, and the first warm_spawns of
        # them belong to warm-up tasks.
        rework_wait_sum += float(rework_waits[max(warm_spawns - walked, 0) :].sum())
        walked += rework_waits.size

    # --- estimation ---------------------------------------------------------
    n_batches = config.n_batches
    per_batch = n_post // n_batches
    batch_means = waits_post[: per_batch * n_batches].reshape(n_batches, per_batch).mean(axis=1)
    wq_mean = float(batch_means.mean())
    half_width = _t_half_width(batch_means)
    # The sojourns, from waits and chain services (see the module docstring).
    sojourn_sum = float(waits_post.sum()) + rework_wait_sum + chain_sum / capacity
    # The quantiles are order statistics of the waits (not needed again).
    waits_post.sort()
    p50, p90, p99 = _sorted_quantiles(waits_post, (0.5, 0.9, 0.99))

    return SimStats(
        mode=config.rework_mode,
        backend=IMPL,
        n_arrivals=n,
        n_rework_jobs=walked,
        warmup_skipped=k0,
        wq_mean=wq_mean,
        wq_ci_half_width=half_width,
        ci_level=CI_LEVEL,
        wq_p50=p50,
        wq_p90=p90,
        wq_p99=p99,
        rho_hat=chain_sum / capacity / window,
        busy_fraction=busy / end_time,
        service_mean=chain_sum / n_post,
        service_m2=chain_m2 / n_post,
        escape_rate=n_escaped_post / n_ai_post if n_ai_post else None,
        sojourn_mean=sojourn_sum / n_post,
        batch_means=tuple(float(b) for b in batch_means),
        unstable=unstable,
        theta_star=theta,
    )


def _runs(config: SimConfig, reps: int) -> list[SimStats]:
    """The first reps replications, sharing one price and one analytic stability verdict."""
    theta = _resolve_theta(config)
    unstable = not _analytic_stable(config.workflow, theta)
    return [_run_single(config, rep, theta, unstable) for rep in range(reps)]


def run(config: SimConfig) -> SimStats:
    """The first replication (what ``replicate`` returns when ``config.reps == 1``)."""
    return _runs(config, 1)[0]


def replicate(config: SimConfig) -> SimStats:
    """``config.reps`` independent replications, seeds spawned from the base seed.

    Aggregates replication means; the confidence half-width is the
    across-replication t-interval and ``batch_means`` holds the per-rep
    means.  Counts are summed, and rates and quantiles are averaged across
    replications.
    """
    runs = _runs(config, config.reps)
    if config.reps == 1:
        return runs[0]
    rep_means = np.array([r.wq_mean for r in runs])
    escapes = [r.escape_rate for r in runs if r.escape_rate is not None]
    return dataclasses.replace(
        runs[0],
        **{name: sum(getattr(r, name) for r in runs) for name in _SUMMED},
        **{name: float(np.mean([getattr(r, name) for r in runs])) for name in _AVERAGED},
        wq_mean=float(rep_means.mean()),
        wq_ci_half_width=_t_half_width(rep_means),
        escape_rate=float(np.mean(escapes)) if escapes else None,
        batch_means=tuple(float(m) for m in rep_means),
    )
