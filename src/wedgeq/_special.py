"""The two special functions wedgeq needs, in the standard library's math.

``log_beta`` is log B(a, b).  For small arguments it is three ``lgamma``
calls; once an argument reaches 10, those values grow like a*log(a) and
their difference loses absolute accuracy, so the large part is summed in
closed form and only the Stirling-series remainders are subtracted (the
split used by R's ``lbeta``).

``t_quantile`` is the Student-t quantile for the batch-means and
replication confidence intervals.  It runs Newton's method on the upper
tail Q(t) = I_x(df/2, 1/2) / 2, x = df / (df + t^2), from t = 0: Q is
convex and decreasing on t > 0, so the iterates rise monotonically to the
root without a bracket.  The incomplete beta ratio I_x comes from a
continued fraction whose terms stay free of cancellation as x nears 1,
the large-df regime, and its prefactor from ``log_beta``.  The quantile
agrees with scipy's to about 1e-14 relative for every df up to the
simulator's cap (tests/test_special.py).
"""

from __future__ import annotations

import math
from functools import lru_cache

# Bernoulli-number coefficients B_2k / (2k (2k-1)) of the Stirling series
# for log Gamma; seven terms bring the remainder below 1e-16 at z >= 10.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)
_STIRLING_MIN = 10.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

_CF_TINY = 1e-300
_CF_EPS = 1e-16
_CF_MAX_TERMS = 100_000
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_STEPS = 200


def _stirling_remainder(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi)), for z >= 10."""
    inv2 = 1.0 / (z * z)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * inv2 + coef
    return total / z


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    p, q = min(a, b), max(a, b)
    if q < _STIRLING_MIN:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    # log(p + q) and the logs of p / (p + q) and q / (p + q), without
    # forming p + q, which overflows when both shapes are near the float
    # maximum; the remainder of an overflowed p + q is 0, its limit.
    log1p_p_q = math.log1p(p / q)
    log_sum = math.log(q) + log1p_p_q
    if p < _STIRLING_MIN:
        corr = _stirling_remainder(q) - _stirling_remainder(p + q)
        return math.lgamma(p) + corr + p - p * log_sum - (q - 0.5) * log1p_p_q
    corr = _stirling_remainder(p) + _stirling_remainder(q) - _stirling_remainder(p + q)
    return (
        -0.5 * math.log(q) + _LOG_SQRT_2PI + corr
        - (p - 0.5) * math.log1p(q / p) - q * log1p_p_q
    )


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction K with I_x(a, b) = x^a y^b / (B(a, b) K), y = 1 - x.

    The form of Didonato and Morris (1992, TOMS 708, BFRAC): its partial
    denominators use y directly, so nothing cancels when x is near 1.
    Evaluated by the modified Lentz method; converges for x < (a+1)/(a+b+2).
    """
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, _CF_MAX_TERMS + 1):
        a2m = a + 2.0 * m
        odd = a2m - 1.0
        num = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x / (odd * odd)
        den = (
            m
            + m * (b - m) * x / odd
            + (a + m) * (a * y - b * x + 1.0 + m * (2.0 - x)) / (a2m + 1.0)
        )
        d = den + num * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = den + num / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        step = c * d
        f *= step
        if abs(step - 1.0) < _CF_EPS:
            return f
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at a={a}, b={b}")


def _t_upper_tail(t: float, df: int, log_norm: float) -> float:
    """P(T > t) for t > 0; log_norm is log B(df/2, 1/2)."""
    a = 0.5 * df
    y = t * t / df
    log1p_y = math.log1p(y)
    # x = df / (df + t^2) and 1 - x = y / (1 + y), each without cancellation.
    log_x = -log1p_y
    log_1mx = math.log(y) - log1p_y
    front = math.exp(a * log_x + 0.5 * log_1mx - log_norm)
    if y * (a + 1.0) > 1.5:  # x < (a + 1) / (a + 5/2): the fraction converges directly
        return 0.5 * front / _beta_fraction(a, 0.5, 1.0 / (1.0 + y), y / (1.0 + y))
    return 0.5 - 0.5 * front / _beta_fraction(0.5, a, y / (1.0 + y), 1.0 / (1.0 + y))


@lru_cache(maxsize=64)
def t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t with df degrees of freedom at probability p in [0.5, 1)."""
    if not (isinstance(df, int) and df >= 1):
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not 0.5 <= p < 1.0:
        raise ValueError(f"p must lie in [0.5, 1), got {p!r}")
    tail = 1.0 - p
    log_norm = log_beta(0.5 * df, 0.5)
    log_pdf_scale = -log_norm - 0.5 * math.log(df)
    t = 0.0
    q = 0.5
    for _ in range(_NEWTON_MAX_STEPS):
        pdf = math.exp(log_pdf_scale - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (q - tail) / pdf
        t += step
        if abs(step) <= _NEWTON_RTOL * t:
            return t
        q = _t_upper_tail(t, df, log_norm)
    raise ArithmeticError(f"t quantile did not converge at p={p!r}, df={df}")
