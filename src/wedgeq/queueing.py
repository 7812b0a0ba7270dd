"""Single-server waiting-time formulas.

A server of capacity ``C`` works through attention-hours at rate C per hour,
so a task needing T attention-hours occupies it for T / C wall-clock hours.
With Poisson arrivals at rate lambda the mean queueing delay is exact:

    Wq = (lambda / C) q / (2 (C - lambda m))

where (m, q) are the first two raw moments of the attention requirement.
For renewal arrivals with squared CV ``c2_a`` the same quantity is
approximated by scaling the exact result by (c2_a + c2_s) / (1 + c2_s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StabilityError, ValidationError
from .service_model import RouteMoments, require_finite

# Loads within this margin of 1 are treated as unstable: beyond it the
# waiting-time formulas lose all significance anyway.
EPS_RHO = 1e-9


@dataclass(frozen=True)
class QueueInputs:
    """Arrival rate, server capacity, service moments, arrival variability."""

    lam: float
    capacity: float
    service: RouteMoments
    c2_a: float = 1.0

    def __post_init__(self):
        require_finite(self.lam, "lam", "> 0")
        require_finite(self.capacity, "capacity", "> 0")
        require_finite(self.c2_a, "c2_a", ">= 0")
        if self.service.mean <= 0.0:
            raise ValidationError(
                "service mean must be > 0 for waiting-time analysis", field="service.mean"
            )


@dataclass(frozen=True)
class WaitResult:
    """Mean queueing delay and its context."""

    rho: float
    wq: float
    total_sojourn: float


def stability_margin(rho):
    """(1 - EPS_RHO) - rho: positive exactly when rho < 1 - EPS_RHO (so never at NaN)."""
    return (1.0 - EPS_RHO) - rho


def is_stable(lam: float, mean: float, capacity: float) -> bool:
    """The load rule: rho = lam * mean / capacity stays below 1 - EPS_RHO.

    Every stability decision in the package, analytic or simulated, is
    this one comparison.
    """
    return stability_margin(lam * mean / capacity) > 0.0


def require_stable(lam: float, mean: float, capacity: float, label: str = "the queue") -> float:
    """Offered load rho, or StabilityError naming ``label`` when it breaks the load rule."""
    rho = lam * mean / capacity
    if not is_stable(lam, mean, capacity):
        raise StabilityError(
            f"{label} is unstable at lambda={lam:.6g}: offered load rho={rho:.6g} is at "
            "or beyond capacity, so the queue has no stationary waiting time",
            rho=rho,
        )
    return rho


def wq_pk(inputs: QueueInputs) -> WaitResult:
    """Exact mean delay for Poisson arrivals (raw-moment form).

    Evaluated as (lambda / C) * q / (2 (C - lambda m)): the textbook
    denominator 2 C (C - lambda m) underflows to 0 for a small but stable
    capacity.  At C = 1 both forms round alike.
    """
    lam, capacity = inputs.lam, inputs.capacity
    rho = require_stable(lam, inputs.service.mean, capacity)
    m = inputs.service.mean
    q = inputs.service.m2
    wq = lam / capacity * q / (2.0 * (capacity - lam * m))
    total_sojourn = wq + m / capacity
    if not math.isfinite(total_sojourn):
        raise ValidationError(
            f"capacity_C = {capacity:.6g} is too small: the mean wait or service time "
            "overflows",
            field="capacity_C",
        )
    return WaitResult(
        rho=rho,
        wq=wq,
        total_sojourn=total_sojourn,
    )


def wq_kingman(inputs: QueueInputs) -> WaitResult:
    """Heavy-traffic approximation for renewal arrivals with squared CV c2_a.

    Computed as the exact Poisson-arrival delay rescaled by
    (c2_a + c2_s) / (1 + c2_s), so c2_a == 1 reproduces ``wq_pk`` bit for
    bit and c2_a == c2_s == 0 gives exactly zero delay.  The product
    wq_pk * (c2_a + c2_s) can overflow where the wait does not (a huge c2_s),
    so an overflowing product is redone as wq_pk times the factor, written
    1 + (c2_a - 1) / (1 + c2_s).  The factor is at most max(1, c2_a), so
    only a large c2_a can make the wait itself overflow.
    """
    base = wq_pk(inputs)
    c2_s = inputs.service.c2
    wq = base.wq * (inputs.c2_a + c2_s) / (1.0 + c2_s)
    if not math.isfinite(wq):
        wq = base.wq * (1.0 + (inputs.c2_a - 1.0) / (1.0 + c2_s))
    total_sojourn = wq + inputs.service.mean / inputs.capacity
    if not math.isfinite(total_sojourn):
        raise ValidationError(
            f"c2_a = {inputs.c2_a:.6g} is too large: the Kingman wait overflows",
            field="c2_a",
        )
    return WaitResult(
        rho=base.rho,
        wq=wq,
        total_sojourn=total_sojourn,
    )
