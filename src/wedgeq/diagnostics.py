"""Routing decision formulas for manual-vs-AI workflows.

Everything here is steady-state comparative statics built on the exact
Poisson-arrival delay: when is the AI route's extra variability worth its
mean savings (the "variance wedge"), how much AI variability a design can
absorb, which pure routing a waiting-time minimizer picks, where the two
delay curves cross, and what AI adoption share rescues an overloaded
manual queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StabilityError, ValidationError, WedgeqError
from .queueing import QueueInputs, is_stable, require_stable, wq_pk
from .service_model import ManualRoute, RouteMoments, require_finite

FULL_AI = "full-ai"
FULL_MANUAL = "full-manual"
INDIFFERENT = "indifferent"

# Absolute knife-edge tolerance on the routing numerator.
_NUMERATOR_ATOL = 1e-12


@dataclass(frozen=True)
class StabilizationResult:
    """Minimum AI share that stabilizes the queue (None when impossible)."""

    x_c: float | None
    rescue_ok: bool

    @property
    def feasible(self) -> bool:
        return self.x_c is not None


@dataclass(frozen=True)
class WedgeReport:
    """Full wedge diagnostic at one (manual, ai, lambda, capacity) point."""

    w_manual: float
    w_ai: float
    ai_better: bool
    lhs: float
    rhs: float
    c2_a_max: float
    lambda_star: float | None
    bang_bang_direction: str
    x_c: float | None
    rescue_ok: bool


def variance_budget(c2_H: float, s: float, rho_H: float) -> float:
    """Largest AI squared CV that still beats manual on mean delay.

    ``s`` is the savings ratio tau_A / tau_H.  Derived by solving the
    delay comparison for c2_A at equality:

        c2_a_max = (1/s^2) * (1 - rho_H*s) / (1 - rho_H) * (1 + c2_H) - 1

    At s == 1 this returns exactly c2_H (no mean savings leaves no room
    for extra variability).
    """
    require_finite(c2_H, "c2_H", ">= 0")
    require_finite(s, "s", "> 0")
    if not (math.isfinite(rho_H) and 0.0 <= rho_H < 1.0):
        raise ValidationError(f"rho_H must lie in [0, 1), got {rho_H}", field="rho_H")
    # In units where tau_H = C = 1 the arrival rate is rho_H and the AI
    # route's load rho_H * s, so the shared load rule decides it.
    if not is_stable(rho_H, s, 1.0):
        raise StabilityError(
            f"AI route would be unstable: s*rho_H = {s * rho_H:.6g} is at or beyond capacity",
            rho=s * rho_H,
        )
    if s == 1.0:
        return c2_H
    square = s * s
    if square == 0.0:
        # s below about 1e-162: s^2 underflows and the budget is unbounded,
        # as it already is once the quotient overflows.
        return math.inf
    return (1.0 - rho_H * s) / (1.0 - rho_H) * (1.0 + c2_H) / square - 1.0


def bang_bang(manual: ManualRoute, ai: RouteMoments, lam: float, capacity: float) -> str:
    """Which pure routing minimizes mean delay.

    The delay of the x-mix is a ratio of terms linear in x, so its
    derivative keeps one sign; the decisive numerator is

        D = C*(q_A - q_H) + lambda*(q_H*tau_A - q_A*tau_H)

    with D < 0 favoring full AI, D > 0 full manual, and |D| <= 1e-12
    treated as indifferent.
    """
    require_stable(lam, manual.tau_H, capacity, "manual route")
    require_stable(lam, ai.mean, capacity, "ai route")
    numerator = capacity * (ai.m2 - manual.q_H) + lam * (
        manual.q_H * ai.mean - ai.m2 * manual.tau_H
    )
    if abs(numerator) <= _NUMERATOR_ATOL:
        return INDIFFERENT
    return FULL_AI if numerator < 0.0 else FULL_MANUAL


def lambda_star(manual: ManualRoute, ai: RouteMoments, capacity: float) -> float | None:
    """Arrival rate where the two pure-route delay curves cross.

    Returns C*(q_H - q_A) / (q_H*tau_A - q_A*tau_H) when that value is
    positive and both routes are stable there; None otherwise (the delay
    curves do not cross inside the feasible load range).
    """
    denom = manual.q_H * ai.mean - ai.m2 * manual.tau_H
    if denom == 0.0:
        return None
    crossing = capacity * (manual.q_H - ai.m2) / denom
    if crossing <= 0.0:
        return None
    if not is_stable(crossing, max(manual.tau_H, ai.mean), capacity):
        return None
    return crossing


def stabilization(
    manual: ManualRoute, ai: RouteMoments, lam: float, capacity: float
) -> StabilizationResult:
    """Minimum AI fraction restoring stability to an overloaded manual queue.

    x_c = (lambda*tau_H - C) / (lambda*(tau_H - tau_A)) when the AI route
    is genuinely faster; 0 when manual alone is already stable; None when
    no share can help (tau_A >= tau_H, or even full AI overloads).
    """
    rescue_ok = ai.mean < manual.tau_H
    if lam * manual.tau_H < capacity:
        return StabilizationResult(x_c=0.0, rescue_ok=rescue_ok)
    if not rescue_ok or lam * ai.mean >= capacity:
        return StabilizationResult(x_c=None, rescue_ok=rescue_ok)
    x_c = (lam * manual.tau_H - capacity) / (lam * (manual.tau_H - ai.mean))
    return StabilizationResult(x_c=x_c, rescue_ok=rescue_ok)


def wedge_test(manual: ManualRoute, ai: RouteMoments, lam: float, capacity: float) -> WedgeReport:
    """Does switching to the AI route shorten the mean wait at this load?

    Evaluates the variability-ratio inequality

        (1 + c2_A) / (1 + c2_H)  <  (tau_H/tau_A)^2 * (C - lambda*tau_A)/(C - lambda*tau_H)

    and cross-checks the verdict against the direct delay comparison; a
    disagreement beyond the 1e-9 knife edge means the algebra and the
    arithmetic have diverged, which is raised rather than masked.
    """
    # Building the inputs checks lam, capacity and the AI mean.
    manual_inputs = QueueInputs(lam=lam, capacity=capacity, service=manual.moments)
    ai_inputs = QueueInputs(lam=lam, capacity=capacity, service=ai)
    require_stable(lam, manual.tau_H, capacity, "manual route")
    require_stable(lam, ai.mean, capacity, "ai route")

    w_manual = wq_pk(manual_inputs).wq
    w_ai = wq_pk(ai_inputs).wq

    # (1 + c2) == m2 / mean^2, which keeps identical routes at exactly 1.  Each
    # square is two divisions: mean * mean underflows below about 1e-162.
    lhs = (ai.m2 / ai.mean / ai.mean) / (manual.q_H / manual.tau_H / manual.tau_H)
    speedup = manual.tau_H / ai.mean
    rhs = speedup * speedup * (capacity - lam * ai.mean) / (capacity - lam * manual.tau_H)
    ai_better = lhs < rhs

    direct = w_ai < w_manual
    scale = max(w_manual, w_ai, 1e-300)
    if ai_better != direct and abs(w_ai - w_manual) > 1e-9 * scale:
        raise WedgeqError(
            "wedge inequality disagrees with direct delay comparison: "
            f"lhs={lhs!r}, rhs={rhs!r}, w_ai={w_ai!r}, w_manual={w_manual!r}"
        )

    budget = variance_budget(
        manual.c2_H, ai.mean / manual.tau_H, lam * manual.tau_H / capacity
    )
    rescue = stabilization(manual, ai, lam, capacity)
    return WedgeReport(
        w_manual=w_manual,
        w_ai=w_ai,
        ai_better=ai_better,
        lhs=lhs,
        rhs=rhs,
        c2_a_max=budget,
        lambda_star=lambda_star(manual, ai, capacity),
        bang_bang_direction=bang_bang(manual, ai, lam, capacity),
        x_c=rescue.x_c,
        rescue_ok=rescue.rescue_ok,
    )
