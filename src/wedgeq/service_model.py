"""Service-time primitives for manual and AI-assisted task routes.

Times are hours of human attention.  Each route is summarized by its first
two raw moments (``mean`` = E[T], ``m2`` = E[T^2]); the squared coefficient
of variation follows as ``m2 / mean**2 - 1``.  The AI route spends a fixed
review effort ``r`` up front and, with the residual error probability left
after that review, pays an independent random rework cost on top.

Sampling uses gamma families matched to the requested first two moments, so
simulated moments agree with the analytic ones by construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Slack allowed in the E[T^2] >= E[T]^2 consistency checks; covers float
# round-off in moment arithmetic without admitting genuinely bad inputs.
_JENSEN_RTOL = 1e-12


_SIGN_TESTS = {"> 0": operator.gt, ">= 0": operator.ge}


def require_finite(value, field: str, sign: str | None = None):
    """Raise unless ``value`` is finite and, if ``sign`` is "> 0" or ">= 0", obeys it.

    The one range check behind every model dataclass and raw-float entry
    point, so an input gets the same message wherever it is checked.
    """
    if not math.isfinite(value):
        raise ValidationError(f"{field} must be finite, got {value!r}", field=field)
    if sign is not None and not _SIGN_TESTS[sign](value, 0.0):
        raise ValidationError(f"{field} must be {sign}, got {value}", field=field)


def require_no_overflow(derived, field: str, expression: str):
    """Raise, naming ``field``, unless ``derived()`` is a finite float.

    For quantities a dataclass derives from its finite inputs: float ``**``
    raises OverflowError where ``*`` returns inf, and both mean an input is
    too large.
    """
    try:
        value = derived()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{field} is too large: {expression} overflows", field=field)


@dataclass(frozen=True)
class RouteMoments:
    """First two raw moments of a service-time distribution."""

    mean: float
    m2: float

    def __post_init__(self):
        require_finite(self.mean, "mean", ">= 0")
        require_finite(self.m2, "m2")
        if self.m2 < self.mean**2 * (1.0 - _JENSEN_RTOL):
            raise ValidationError(
                f"m2 ={self.m2} is below mean^2 ={self.mean**2}; "
                "no distribution has that moment pair",
                field="m2",
            )
        if self.mean == 0.0 and self.m2 != 0.0:
            raise ValidationError(
                "m2 must be 0 when mean is 0 (the only nonnegative time with "
                "zero mean is identically zero)",
                field="m2",
            )

    @property
    def c2(self) -> float:
        """Squared coefficient of variation (0 for a degenerate time)."""
        if self.mean == 0.0:
            return 0.0
        return max(0.0, self.m2 / self.mean**2 - 1.0)


@dataclass(frozen=True)
class ManualRoute:
    """Fully-manual completion: mean time tau_H, squared CV c2_H."""

    tau_H: float
    c2_H: float

    def __post_init__(self):
        require_finite(self.tau_H, "tau_H", "> 0")
        require_finite(self.c2_H, "c2_H", ">= 0")
        require_no_overflow(lambda: self.q_H, "tau_H", "tau_H^2 * (1 + c2_H)")

    @property
    def q_H(self) -> float:
        """Second raw moment tau_H^2 * (1 + c2_H)."""
        return self.tau_H**2 * (1.0 + self.c2_H)

    @property
    def moments(self) -> RouteMoments:
        return RouteMoments(mean=self.tau_H, m2=self.q_H)


@dataclass(frozen=True)
class ErrorCurve:
    """Residual error probability as a function of review effort.

    p(r) = p_inf + (p0 - p_inf) * exp(-kappa * r): starts at p0 with no
    review, decays at rate kappa, and saturates at the irreducible floor
    p_inf that no amount of review removes.
    """

    p0: float
    kappa: float
    p_inf: float = 0.0

    def __post_init__(self):
        require_finite(self.p0, "p0")
        require_finite(self.p_inf, "p_inf")
        require_finite(self.kappa, "kappa", "> 0")
        if not 0.0 <= self.p_inf <= self.p0 <= 1.0:
            raise ValidationError(
                f"need 0 <= p_inf <= p0 <= 1, got p0={self.p0}, p_inf={self.p_inf}",
                field="p0",
            )


@dataclass(frozen=True)
class ReworkModel:
    """Rework cost paid when an error escapes review.

    Specified by its first two raw moments; draws come from the gamma
    distribution matching them (a point mass when mu_R2 == mu_R^2).
    """

    mu_R: float
    mu_R2: float
    family: str = "gamma"

    def __post_init__(self):
        require_finite(self.mu_R, "mu_R", "> 0")
        require_finite(self.mu_R2, "mu_R2")
        require_no_overflow(lambda: self.mu_R**2, "mu_R", "mu_R^2")
        if self.mu_R2 < self.mu_R**2 * (1.0 - _JENSEN_RTOL):
            raise ValidationError(
                f"mu_R2 ={self.mu_R2} is below mu_R^2 ={self.mu_R**2}",
                field="mu_R2",
            )
        if self.family != "gamma":
            raise ValidationError(
                f"unsupported rework family {self.family!r}; only 'gamma' is implemented",
                field="family",
            )

    @property
    def variance(self) -> float:
        return max(0.0, self.mu_R2 - self.mu_R**2)

    @property
    def gamma_shape(self) -> float | None:
        """Shape of the moment-matched gamma; None for a point mass."""
        var = self.variance
        if var == 0.0:
            return None
        return self.mu_R**2 / var

    @property
    def gamma_scale(self) -> float:
        var = self.variance
        if var == 0.0:
            return 0.0
        return var / self.mu_R

    @property
    def moments(self) -> RouteMoments:
        return RouteMoments(mean=self.mu_R, m2=self.mu_R2)


def residual_error(curve: ErrorCurve, r):
    """Error probability remaining after ``r`` hours of review.

    Accepts a scalar or array of efforts; negative effort is rejected.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("review effort r must be finite and >= 0", field="r")
    out = curve.p_inf + (curve.p0 - curve.p_inf) * np.exp(-curve.kappa * arr)
    if np.ndim(r) == 0:
        return float(out)
    return out


def ai_route_moments(curve: ErrorCurve, rework: ReworkModel, r: float) -> RouteMoments:
    """Moments of the AI-route time r + (escape indicator) * rework.

    The escape indicator is Bernoulli(p(r)) and independent of the rework
    draw, so both moments are linear in p(r):

        mean = r + p(r) * mu_R
        m2   = r^2 + 2 r p(r) mu_R + p(r) mu_R2
    """
    p = residual_error(curve, float(r))
    mean = r + p * rework.mu_R
    m2 = r * r + 2.0 * r * p * rework.mu_R + p * rework.mu_R2
    return RouteMoments(mean=mean, m2=m2)


def mixed_moments(manual: ManualRoute, ai: RouteMoments, x: float) -> RouteMoments:
    """Moments of the route mix sending fraction ``x`` of tasks to the AI route.

    Routing is an independent coin flip per task, so raw moments mix
    linearly: m = (1-x) tau_H + x tau_A and q = (1-x) q_H + x q_A.
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"routing fraction x must lie in [0, 1], got {x}", field="x")
    mean = (1.0 - x) * manual.tau_H + x * ai.mean
    m2 = (1.0 - x) * manual.q_H + x * ai.m2
    return RouteMoments(mean=mean, m2=m2)


def sample_manual(route: ManualRoute, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` manual completion times (gamma matched to tau_H, c2_H)."""
    if route.c2_H == 0.0:
        return np.full(size, route.tau_H)
    shape = 1.0 / route.c2_H
    scale = route.tau_H * route.c2_H
    return rng.gamma(shape, scale, size)


def sample_rework(rework: ReworkModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` rework costs from the moment-matched gamma (or point mass)."""
    shape = rework.gamma_shape
    if shape is None:
        return np.full(size, rework.mu_R)
    return rng.gamma(shape, rework.gamma_scale, size)


def sample_ai(
    curve: ErrorCurve, rework: ReworkModel, r: float, rng: np.random.Generator, size: int
):
    """Draw ``size`` AI-route total times at review effort ``r``.

    Returns the arrays ``(time, escaped)``.  Escaped tasks pay the review
    time plus an independent rework draw, caught ones only ``r``.
    """
    p = residual_error(curve, float(r))
    escaped = rng.random(size) < p
    times = np.full(size, float(r))
    n_escaped = int(escaped.sum())
    if n_escaped:
        times[escaped] += sample_rework(rework, rng, size=n_escaped)
    return times, escaped
