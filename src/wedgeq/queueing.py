"""Single-server waiting-time formulas.

A server of capacity ``C`` works through attention-hours at rate C per hour,
so a task needing T attention-hours occupies it for T / C wall-clock hours.
With Poisson arrivals at rate lambda the mean queueing delay is exact:

    Wq = lambda * q / (2 C (C - lambda m))

where (m, q) are the first two raw moments of the attention requirement.
For renewal arrivals with squared CV ``c2_a`` the same quantity is
approximated by scaling the exact result by (c2_a + c2_s) / (1 + c2_s).
"""

from __future__ import annotations

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
    method: str
    approximate: bool


def is_stable(lam: float, mean: float, capacity: float) -> bool:
    """The load rule: rho = lam * mean / capacity stays below 1 - EPS_RHO.

    Every stability decision in the package, analytic or simulated, is
    this one comparison.
    """
    return lam * mean / capacity < 1.0 - EPS_RHO


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
    """Exact mean delay for Poisson arrivals (raw-moment form)."""
    rho = require_stable(inputs.lam, inputs.service.mean, inputs.capacity)
    m = inputs.service.mean
    q = inputs.service.m2
    wq = inputs.lam * q / (2.0 * inputs.capacity * (inputs.capacity - inputs.lam * m))
    return WaitResult(
        rho=rho,
        wq=wq,
        total_sojourn=wq + m / inputs.capacity,
        method="pollaczek-khinchine",
        approximate=False,
    )


def wq_kingman(inputs: QueueInputs) -> WaitResult:
    """Heavy-traffic approximation for renewal arrivals with squared CV c2_a.

    Computed as the exact Poisson-arrival delay rescaled by
    (c2_a + c2_s) / (1 + c2_s), so c2_a == 1 reproduces ``wq_pk`` bit for
    bit and c2_a == c2_s == 0 gives exactly zero delay.
    """
    base = wq_pk(inputs)
    c2_s = inputs.service.c2
    wq = base.wq * (inputs.c2_a + c2_s) / (1.0 + c2_s)
    return WaitResult(
        rho=base.rho,
        wq=wq,
        total_sojourn=wq + inputs.service.mean / inputs.capacity,
        method="kingman",
        approximate=True,
    )
