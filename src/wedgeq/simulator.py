"""Discrete-event single-server FIFO queue for validating the analytics.

Tasks arrive by a renewal process whose gaps come from the package's one
sampler, ``service_model.sample_gamma``, matched to mean 1/lambda and
squared CV c2_a (exponential at the default c2_a = 1, constant at
c2_a = 0).  They take the AI route with probability x by an independent
coin (no coin is drawn at x = 1 or x = 0), and occupy the server for their
attention requirement divided by capacity.  An AI draft is reviewed in the
workflow's review mode: at the fixed effort, or under the review policy at
the equilibrium price.  ``route_moments`` resolves the price and the
analytic route moments at it, for the CLI reports and a run's stability
verdict; ``_draw_ai_first_pass`` draws review times and escape flags.  A
``SimConfig`` resolves what all its runs share once, when built.  Rework
is either folded into the originating task's service time (matching the
analytic model) or, in the exploratory feedback mode, re-enters the tail
of the queue as a separate job, in which case reported waits are
first-pass only.  A task's sojourn, to the end of its chain, is its waits
plus its services: a rework enters exactly when its parent departs.

Randomness is split into six independent substreams (interarrivals, route
choice, manual service, escape flags, rework draws, signals) so changing
one distribution never perturbs the others' draws.  Each substream is
drawn by one thread, in chunk order: a run's helper thread draws the
interarrivals, route coins, escape flags and signals, and the calling
thread the manual services and reworks, so no draw depends on how the two
threads are scheduled.  Replication seeds are spawned from the base seed
by a fixed rule, so every statistic is bit-reproducible for a given config.

A run streams through chunks of 2^14 arrivals, in two stages.  The helper
thread draws chunk i + 1 (its gaps, its AI first passes and its escape
indices) while the calling thread draws chunk i's manual services and
reworks, walks it through the queue and folds it into running sums.
Exactly one chunk is drawn ahead, and the helper is joined before the run
returns or raises.  The overlap needs a free second core: pinned to one
core, the stages take turns and a run is about 5% slower.  Only the
post-warm-up waits are kept, for the batch means and the exact quantiles,
and a chunk past the warm-up is walked straight into its slice of those
waits.  A run therefore holds 8 bytes per post-warm-up arrival (6.4 per
arrival at the default warm-up fraction 0.2) plus a fixed 1 MB (folded)
to 3 MB (feedback) for the chunk in hand and the one drawn ahead of it.
A chunk's escapes are kept as indices, split into warm-up and measured
ones at the chunk's first post-warm-up arrival.

This module owns the chunk size.  The queue kernel walks each chunk's drawn
interarrival gaps as one walk, continued from the queue state the chunk
before left, and places a feedback chunk's reworks in time relative to the
job before the chunk, so the waits and the rework entries round at the
scale of a chunk.  No calendar time is formed for the walk; the span of the
post-warm-up arrivals, for rho_hat, is a running sum of their gaps, which
takes a post-warm-up chunk's gap sum from the kernel's queue state.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import QueueState, simulate_fifo
from ._special import t_quantile
from .config import SimSettings, WorkflowSpec
from .errors import InfeasibleError, ValidationError
from .queueing import is_stable
from .service_model import (
    RouteMoments,
    ai_route_moments,
    fixed_first_pass,
    gamma_shape,
    mixed_moments,
    sample_gamma,
    sample_manual,
    sample_rework,
)
# policy_route_moments is not called here: the benchmark's tracer wraps this binding.
from .verification import pi_star, policy_route_moments, review_policy, solve_equilibrium

# Two-sided confidence level of every reported wait interval.
CI_LEVEL = 0.99

# Arrivals per chunk of a run's stream, and so per call of the queue kernel.
_CHUNK = 1 << 14


@dataclass(frozen=True, kw_only=True)
class SimConfig(SimSettings):
    """One simulation: a workflow and its SimSettings, resolved once when built.

    ``gap`` is the interarrival sampler's (mean, shape, scale), ``theta_star``
    the equilibrium price in policy mode (None at a fixed effort) and ``mixed``
    the analytic mixed route moments at it.  ``replace`` resolves a new config.
    """

    workflow: WorkflowSpec
    gap: tuple[float, float | None, float] = field(init=False, repr=False, compare=False)
    theta_star: float | None = field(init=False, repr=False, compare=False)
    mixed: RouteMoments = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        # The gap sampler's mean, shape and scale, checked before anything is drawn.
        workflow = self.workflow
        lam, c2 = workflow.lam, workflow.c2_a
        mean_gap = 1.0 / lam
        for name, value, what in (
            ("lambda", mean_gap, "lambda is too small: the mean gap 1 / lambda"),
            ("c2_a", mean_gap * c2, "c2_a is too large: the gap scale c2_a / lambda"),
        ):
            if not math.isfinite(value):
                raise ValidationError(
                    f"{what} overflows (lambda = {lam:.6g}, c2_a = {c2:.6g})", field=name
                )
        gap = (mean_gap, gamma_shape(c2, "c2_a"), mean_gap * c2)
        theta, _, mixed = route_moments(workflow)
        if not math.isfinite(mixed.mean / workflow.capacity):
            raise ValidationError(
                f"capacity_C = {workflow.capacity:.6g} is too small: the mean service time "
                "overflows",
                field="capacity_C",
            )
        for name, value in (("gap", gap), ("theta_star", theta), ("mixed", mixed)):
            object.__setattr__(self, name, value)

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


def route_moments(workflow: WorkflowSpec):
    """The workflow's operating point: (theta, ai, mixed).

    At the fixed effort theta is None.  Under the review policy theta is the
    primary equilibrium price and ai the route moments its solve certified.
    The one source of route moments for the reports and for a run's
    analytic stability verdict.
    """
    if workflow.mode == "fixed":
        theta, ai = None, ai_route_moments(workflow.curve, workflow.rework, workflow.review_r)
    else:
        primary = solve_equilibrium(
            workflow.env, workflow.rework, workflow.lam, workflow.capacity
        ).primary
        if primary.degenerate:
            raise InfeasibleError(
                "policy simulation needs a positive equilibrium review price; "
                "the equilibrium is degenerate (theta* = 0)"
            )
        theta, ai = primary.theta_star, RouteMoments(mean=primary.tau_A, m2=primary.q_A)
    return theta, ai, mixed_moments(workflow.manual, ai, workflow.x)


# SimStats fields that replicate sums, and those it averages, across replications.
_SUMMED = ("n_arrivals", "n_rework_jobs", "warmup_skipped")
_AVERAGED = ("wq_p50", "wq_p90", "wq_p99", "rho_hat", "busy_fraction", "service_mean",
             "service_m2", "sojourn_mean")

# The kernel's "no job spawns rework" arguments, used by folded runs.
_NO_SPAWN = np.zeros(0, dtype=bool)
_NO_REWORK = np.zeros(0)


def _t_half_width(means) -> float:
    """Half-width of the two-sided Student-t interval at CI_LEVEL from iid means."""
    n = means.size
    t_mult = t_quantile(0.5 + CI_LEVEL / 2.0, n - 1)
    # Means past 1e150 (a tiny capacity) are scaled to at most 1 first, so
    # their squared deviations cannot overflow.
    top = float(np.abs(means).max())
    sd = float(means.std(ddof=1)) if top < 1e150 else top * float((means / top).std(ddof=1))
    return t_mult * sd / math.sqrt(n)


def _draw_ai_first_pass(workflow: WorkflowSpec, theta, n_ai: int, rng_escape, rng_signal):
    """Review times and escape flags of n_ai AI drafts."""
    if workflow.mode == "fixed":
        return fixed_first_pass(workflow.curve, workflow.review_r, rng_escape, n_ai)
    env = workflow.env
    # No name holds the signals or their risks, so each is freed once used.
    review_times, p_escape = review_policy(
        env, pi_star(env, theta),
        env.risk_map.value(rng_signal.beta(env.signal_alpha, env.signal_beta, n_ai)),
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


def _run_single(config: SimConfig, rep: int) -> SimStats:
    # Imported here, not with the module: the import costs a millisecond or
    # more that a process which never simulates should not pay.
    from queue import SimpleQueue

    workflow, theta = config.workflow, config.theta_star
    n = config.n_arrivals
    capacity = workflow.capacity
    folded = config.rework_mode == "folded"

    seed_seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    (rng_arrival, rng_route, rng_manual, rng_escape, rng_rework, rng_signal) = (
        np.random.default_rng(child) for child in seed_seq.spawn(6)
    )

    # The run streams through chunks of _CHUNK arrivals, (lo, hi, p) with p
    # the chunk's first post-warm-up arrival (k0 < n, so p <= hi - lo).  Only
    # the post-warm-up waits are kept.
    k0 = int(config.warmup_fraction * n)
    n_post = n - k0
    chunks = [(lo, min(lo + _CHUNK, n), min(max(k0 - lo, 0), _CHUNK))
              for lo in range(0, n, _CHUNK)]

    def draw(lo, hi, p):
        """The draw stage of a chunk, run on the helper thread.

        Uses the arrival, route, escape and signal Generators, and nothing
        else touches them; a Generator continues its stream across calls, so
        the draws are those of one whole-run call.  Returns the gaps, the
        first-pass attention (None at x = 0; at 0 < x < 1 filled at the AI
        drafts only), the manual tasks' indices (None unless 0 < x < 1), the
        escape flags and their indices, and the counts of warm-up escapes
        and of post-warm-up AI drafts.  x = 1 and x = 0 send every task one
        way, with no coin.
        """
        m = hi - lo
        attention = manual = None
        if workflow.x >= 1.0:
            attention, escaped = _draw_ai_first_pass(workflow, theta, m, rng_escape, rng_signal)
            ai_post = m - p
        elif workflow.x <= 0.0:
            escaped, ai_post = np.zeros(m, dtype=bool), 0
        else:
            # Indices, which place values faster than a boolean mask does.
            is_ai = rng_route.random(m) < workflow.x
            ai, manual = np.flatnonzero(is_ai), np.flatnonzero(~is_ai)
            ai_post = ai.size - int(np.searchsorted(ai, p))
            review_times, escape_draws = _draw_ai_first_pass(
                workflow, theta, ai.size, rng_escape, rng_signal
            )
            attention = np.zeros(m)
            attention[ai] = review_times
            escaped = np.zeros(m, dtype=bool)
            escaped[ai] = escape_draws
        # Indices rather than a boolean mask: the escapes are a small minority.
        escaped_at = np.flatnonzero(escaped)
        warm = int(np.searchsorted(escaped_at, p))  # escapes of warm-up arrivals
        # Drawn last, when the first pass's temporaries have been freed.
        gaps = sample_gamma(rng_arrival, *config.gap, m)
        return gaps, attention, manual, escaped, escaped_at, warm, ai_post

    waits_post = np.empty(n_post)
    queue = QueueState()
    window = 0.0  # the post-warm-up arrivals' span, for rho_hat
    chain_sum = chain_m2 = rework_wait_sum = busy = 0.0
    n_ai_post = n_escaped_post = 0
    warm_spawns = walked = 0  # reworks spawned by warm-up arrivals; reworks walked
    # The helper thread draws chunk i + 1 while this one folds chunk i into
    # the running sums and walks it, from the queue state the chunk before
    # left.  Plain queues hand the chunks over: a future per chunk, whose
    # waiters the C heap holds, fragmented that heap so that a process
    # running many runs came to keep a second run's waits resident.
    todo, done = SimpleQueue(), SimpleQueue()

    def helper():
        """Draw the chunks put in todo, in order, until None or a raise."""
        for bounds in iter(todo.get, None):
            try:
                done.put(draw(*bounds))
            except BaseException as exc:  # handed over: this thread re-raises it
                done.put(exc)
                return

    # In this thread's context, so under its numpy error state.
    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        todo.put(chunks[0])
        for i, (lo, hi, p) in enumerate(chunks):
            drawn = done.get()
            if isinstance(drawn, BaseException):
                raise drawn
            if i + 1 < len(chunks):
                todo.put(chunks[i + 1])
            gaps, attention, manual, escaped, escaped_at, warm, ai_post = drawn

            if workflow.x <= 0.0:
                attention = sample_manual(workflow.manual, rng_manual, size=hi - lo)
            elif workflow.x < 1.0:
                attention[manual] = sample_manual(workflow.manual, rng_manual, size=manual.size)
            n_ai_post += ai_post
            warm_spawns += warm
            n_escaped_post += escaped_at.size - warm
            rework_draws = sample_rework(workflow.rework, rng_rework, size=escaped_at.size)

            if not folded:
                services = attention / capacity  # the first pass; rework re-enters on its own
                # In spawn order: the escapes are flagged in arrival order.
                spawn_mask, rework_services = escaped, rework_draws / capacity
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

            # A chunk past the warm-up is walked straight into its slice of the
            # run's waits; the chunk holding k0, and those before it, are walked
            # apart and their post-warm-up waits copied.
            post = waits_post[max(lo - k0, 0) : max(hi - k0, 0)]
            waits, rework_waits, end_time, chunk_busy = simulate_fifo(
                gaps, services, spawn_mask, rework_services, state=queue, last=hi == n,
                out=None if p else post,
            )
            busy += chunk_busy
            if p:
                post[:] = waits[p:]
            # The kernel has summed the chunk's gaps; a chunk with warm-up
            # arrivals in it adds only its post-warm-up ones.
            window += queue.gap_sum if not p else float(gaps[p:].sum())
            if rework_waits.size:
                # Reworks are walked in spawn order, and the first warm_spawns of
                # them belong to warm-up tasks.
                rework_wait_sum += float(rework_waits[max(warm_spawns - walked, 0) :].sum())
                walked += rework_waits.size
            # Free this chunk's arrays before the chunk after next is drawn.
            del drawn, gaps, attention, manual, chain_attention, chain_post, services, waits
    finally:
        todo.put(None)
        thread.join()

    if window == 0.0:
        raise ValidationError(
            f"c2_a = {workflow.c2_a:.6g} is too large to simulate at lambda = "
            f"{workflow.lam:.6g}: every post-warm-up interarrival gap drew 0",
            field="c2_a",
        )

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
        unstable=not is_stable(workflow.lam, config.mixed.mean, capacity),
        theta_star=theta,
    )


def run(config: SimConfig) -> SimStats:
    """The first replication (what ``replicate`` returns when ``config.reps == 1``)."""
    return _run_single(config, 0)


def replicate(config: SimConfig) -> SimStats:
    """``config.reps`` independent replications, seeds spawned from the base seed.

    Aggregates replication means; the confidence half-width is the
    across-replication t-interval and ``batch_means`` holds the per-rep
    means.  Counts are summed, and rates and quantiles are averaged across
    replications.
    """
    runs = [_run_single(config, rep) for rep in range(config.reps)]
    if config.reps == 1:
        return runs[0]
    rep_means = np.array([r.wq_mean for r in runs])
    escapes = [r.escape_rate for r in runs if r.escape_rate is not None]
    return replace(
        runs[0],
        **{name: sum(getattr(r, name) for r in runs) for name in _SUMMED},
        **{name: float(np.mean([getattr(r, name) for r in runs])) for name in _AVERAGED},
        wq_mean=float(rep_means.mean()),
        wq_ci_half_width=_t_half_width(rep_means),
        escape_rate=float(np.mean(escapes)) if escapes else None,
        batch_means=tuple(float(m) for m in rep_means),
    )
