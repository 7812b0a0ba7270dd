"""Service-time primitives for manual and AI-assisted task routes.

Times are hours of human attention.  Each route is summarized by its first
two raw moments (``mean`` = E[T], ``m2`` = E[T^2]); the squared coefficient
of variation follows as ``m2 / mean^2 - 1``.  The AI route spends a fixed
review effort ``r`` up front and, with the residual error probability left
after that review, pays an independent random rework cost on top.

Every sampled time, here and in the simulator's interarrival gaps, comes
from one sampler, ``sample_gamma``: the gamma matched to the time's mean
and squared CV c2 (shape 1/c2), so simulated moments agree with the
analytic ones by construction.  At c2 = 0 it is the point mass at the
mean, and at c2 = 1 the exponential.

Powers of floats are written as products throughout the package, so an
overflow is inf, never an OverflowError, and the finiteness checks reject it.
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


def require_no_overflow(value: float, field: str, expression: str):
    """Raise, naming ``field``, unless ``value``, derived from finite inputs, is finite."""
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
        if self.m2 < self.mean * self.mean * (1.0 - _JENSEN_RTOL):
            raise ValidationError(
                f"m2 ={self.m2} is below mean^2 ={self.mean * self.mean}; "
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
        # Two divisions: mean * mean underflows to 0 for a mean below about 1e-162.
        return max(0.0, self.m2 / self.mean / self.mean - 1.0)


@dataclass(frozen=True)
class ManualRoute:
    """Fully-manual completion: mean time tau_H, squared CV c2_H."""

    tau_H: float
    c2_H: float

    def __post_init__(self):
        require_finite(self.tau_H, "tau_H", "> 0")
        require_finite(self.c2_H, "c2_H", ">= 0")
        require_no_overflow(self.q_H, "tau_H", "tau_H^2 * (1 + c2_H)")
        if self.q_H == 0.0:
            raise ValidationError(
                "tau_H is too small: tau_H^2 * (1 + c2_H) underflows to 0", field="tau_H"
            )

    @property
    def q_H(self) -> float:
        """Second raw moment tau_H^2 * (1 + c2_H)."""
        return self.tau_H * self.tau_H * (1.0 + self.c2_H)

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

    Specified by its first two raw moments; ``sample_rework`` draws from the
    gamma matching them (a point mass when mu_R2 == mu_R^2).
    """

    mu_R: float
    mu_R2: float
    family: str = "gamma"

    def __post_init__(self):
        require_finite(self.mu_R, "mu_R", "> 0")
        require_finite(self.mu_R2, "mu_R2")
        square = self.mu_R * self.mu_R
        require_no_overflow(square, "mu_R", "mu_R^2")
        if self.mu_R2 < square * (1.0 - _JENSEN_RTOL):
            raise ValidationError(
                f"mu_R2 ={self.mu_R2} is below mu_R^2 ={square}",
                field="mu_R2",
            )
        if self.family != "gamma":
            raise ValidationError(
                f"unsupported rework family {self.family!r}; only 'gamma' is implemented",
                field="family",
            )


def residual_error(curve: ErrorCurve, r: float) -> float:
    """Error probability remaining after ``r`` hours of review.

    Negative or non-finite effort is rejected.  For a huge effort,
    -kappa * r is -inf and exp(-inf) = 0 is the limit.
    """
    if not 0.0 <= r < math.inf:
        raise ValidationError("review effort r must be finite and >= 0", field="r")
    return curve.p_inf + (curve.p0 - curve.p_inf) * math.exp(-curve.kappa * r)


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


def sample_gamma(
    rng: np.random.Generator, mean: float, shape: float | None, scale: float, size: int
) -> np.ndarray:
    """Draw ``size`` times from the gamma with ``shape`` and ``scale``, of mean ``mean``.

    ``shape`` None is the point mass at ``mean`` (c2 = 0) and draws nothing.  Shape 1
    is the exponential, drawn by numpy's exponential fill: the same bits,
    and the same stream position after, as ``rng.gamma(1.0, scale, size)``.
    """
    if shape is None:
        return np.full(size, mean)
    if shape == 1.0:
        draws = rng.standard_exponential(size)
        draws *= scale
        return draws
    return rng.gamma(shape, scale, size)


def gamma_shape(c2: float, field: str) -> float | None:
    """The gamma shape 1 / c2 of times with squared CV ``c2`` (None, the point mass, at c2 = 0).

    Raises ValidationError on ``field`` when the shape overflows (a
    positive c2 below about 5.6e-309), whose gamma would draw inf.  The
    analytic moments need no shape, so only the samplers check it.
    """
    if not c2:
        return None
    shape = 1.0 / c2
    if not math.isfinite(shape):
        raise ValidationError(
            f"{field} = {c2:.6g} is too small to sample: the gamma shape 1 / {field} overflows",
            field=field,
        )
    return shape


def sample_manual(route: ManualRoute, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` manual completion times (gamma matched to tau_H, c2_H)."""
    shape = gamma_shape(route.c2_H, "manual.c2_H")
    return sample_gamma(rng, route.tau_H, shape, route.tau_H * route.c2_H, size)


def sample_rework(rework: ReworkModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` rework costs from the gamma matched to mu_R and mu_R2."""
    mu = rework.mu_R
    var = max(0.0, rework.mu_R2 - mu * mu)
    return sample_gamma(rng, mu, mu * mu / var if var else None, var / mu, size)


def fixed_first_pass(curve: ErrorCurve, r: float, rng: np.random.Generator, size: int):
    """Review times and escape flags of ``size`` AI drafts reviewed for ``r`` hours each."""
    r = float(r)
    draws = rng.random(size)
    escaped = draws < residual_error(curve, r)
    draws.fill(r)  # the uniforms are spent: they become the review times
    return draws, escaped


def sample_ai(
    curve: ErrorCurve, rework: ReworkModel, r: float, rng: np.random.Generator, size: int
):
    """Draw ``size`` AI-route total times at review effort ``r``.

    Returns the arrays ``(time, escaped)``.  Escaped tasks pay the review
    time plus an independent rework draw, caught ones only ``r``: the k-th
    rework draw goes to the k-th escaped task.
    """
    times, escaped = fixed_first_pass(curve, r, rng, size)
    slots = np.flatnonzero(escaped)
    if slots.size:
        times[slots] += sample_rework(rework, rng, size=slots.size)
    return times, escaped
