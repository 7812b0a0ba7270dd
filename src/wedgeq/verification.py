"""Signal-dependent selective verification and its congestion equilibrium.

Each AI draft arrives with a signal s ~ Beta(alpha, beta) and a perceived
error risk pi(s) (logistic in s).  Given a shadow price theta on reviewer
attention, the optimal policy reviews a draft only when its risk clears
the threshold pi_star = theta / (kappa*K*(1-p_inf)) and spends

    r*(s) = max(0, log(pi(s)/pi_star)) / kappa

attention-hours on it, which clips the residual escape probability to
min(pi(s), pi_star).  Averaging over the signal density gives the
policy-level route moments; feeding those into the marginal congestion
cost Phi closes the loop, and an equilibrium is a fixed point
theta = Phi(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._special import log_beta
from .errors import (
    InfeasibleError,
    NoRootError,
    QuadratureError,
    ValidationError,
    WedgeqError,
)
from .queueing import QueueInputs, is_stable, require_stable, wq_pk
from .service_model import ReworkModel, RouteMoments, require_finite, require_no_overflow

# Gauss-Legendre nodes per quadrature panel, and prices in the equilibrium scan.
QUAD_NODES = 256
SCAN_POINTS = 512

# Relative agreement required between n-node and 2n-node quadrature.
_QUAD_RTOL = 1e-8

# Residual tolerance guaranteed for reported fixed points.
_ROOT_RTOL = 1e-8

# Prices per block of the batched quadrature: bounds its (prices x nodes)
# temporaries, so a full grid scan never holds its whole broadcast at once.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class RiskMap:
    """Perceived error risk as a logistic function of the signal.

    pi(s) = a + b / (1 + exp(-g*(s - s0))) on s in [0, 1]; monotone
    nondecreasing, with values required to stay inside [0, 1].
    """

    a: float
    b: float
    g: float
    s0: float

    def __post_init__(self):
        require_finite(self.a, "a", ">= 0")
        require_finite(self.b, "b", ">= 0")
        require_finite(self.g, "g", "> 0")
        require_finite(self.s0, "s0")
        if self.value(1.0) > 1.0:
            raise ValidationError(
                f"risk map exceeds 1 on [0, 1]: pi(1) = {self.value(1.0):.6g}", field="b"
            )

    # exp overflows for signals far below s0; pi(s) then saturates to a.
    @np.errstate(over="ignore")
    def value(self, s):
        """pi(s); accepts scalars or arrays."""
        out = self.a + self.b / (1.0 + np.exp(-self.g * (np.asarray(s, dtype=float) - self.s0)))
        if np.ndim(s) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class SignalEnvironment:
    """Signal distribution, risk perception, and the cost parameters.

    K is the loss per escaped error, kappa the reviewer's verification
    skill (log-risk removed per attention-hour), c_w the waiting cost per
    task per calendar hour, and p_inf the irreducible share of errors no
    review can catch.
    """

    risk_map: RiskMap
    signal_alpha: float
    signal_beta: float
    K: float
    kappa: float
    c_w: float
    p_inf: float = 0.0
    # log B(alpha, beta), the signal density's log-normaliser, set once below.
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self.signal_alpha, "signal_alpha", "> 0")
        require_finite(self.signal_beta, "signal_beta", "> 0")
        require_finite(self.K, "K", "> 0")
        require_finite(self.kappa, "kappa", "> 0")
        # c_w == 0 is admitted so the no-congestion-cost boundary case can be
        # represented; solve_equilibrium reports it degenerate.
        require_finite(self.c_w, "c_w", ">= 0")
        if not 0.0 <= self.p_inf < 1.0:
            raise ValidationError(f"p_inf must lie in [0, 1), got {self.p_inf}", field="p_inf")
        require_no_overflow(lambda: self.review_scale, "K", "kappa * K * (1 - p_inf)")
        object.__setattr__(self, "_log_norm", log_beta(self.signal_alpha, self.signal_beta))
        # Extreme shapes overflow the log-density to -inf: a density of 0,
        # which the check below rejects.
        with np.errstate(over="ignore"):
            total = _integrate_unit(lambda s: self.signal_pdf(s), QUAD_NODES)
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(
                "signal density does not integrate to 1 within 1e-10 "
                f"(got {total!r}); shapes with endpoint singularities "
                "(alpha < 1 or beta < 1) are not resolvable by this quadrature",
                field="signal_alpha",
            )

    def signal_pdf(self, s):
        """Beta(alpha, beta) density, evaluated on interior points of (0, 1)."""
        s = np.asarray(s, dtype=float)
        log_pdf = (
            (self.signal_alpha - 1.0) * np.log(s)
            + (self.signal_beta - 1.0) * np.log1p(-s)
            - self._log_norm
        )
        return np.exp(log_pdf)

    @property
    def review_scale(self) -> float:
        """kappa * K * (1 - p_inf): converts theta into a risk threshold."""
        return self.kappa * self.K * (1.0 - self.p_inf)


@dataclass(frozen=True)
class Equilibrium:
    """One fixed point theta = Phi(theta) and the quantities it induces."""

    theta_star: float
    pi_star: float
    tau_A: float
    q_A: float
    rho: float
    wq: float
    residual: float
    root_index: int
    degenerate: bool = False


@dataclass(frozen=True)
class EquilibriumSolution:
    """All fixed points found on the feasible domain, smallest first."""

    primary: Equilibrium
    roots: tuple[Equilibrium, ...]
    theta_lo: float
    theta_hi: float


@lru_cache(maxsize=64)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_eval(f, lo: float, hi: float, n: int) -> float:
    nodes, weights = _gauss_nodes(n)
    half = 0.5 * (hi - lo)
    s = lo + half * (nodes + 1.0)
    return half * float(np.dot(weights, f(s)))


def _integrate_unit(f, n: int) -> float:
    # Two panels so mild endpoint curvature does not dominate the error.
    return _panel_eval(f, 0.0, 0.5, n) + _panel_eval(f, 0.5, 1.0, n)


def pi_star(env: SignalEnvironment, theta: float) -> float:
    """Review threshold: drafts with pi(s) <= pi_star are waved through."""
    require_finite(theta, "theta", "> 0")
    return theta / env.review_scale


def effort_for_risk(env: SignalEnvironment, theta: float, pi):
    """Optimal review effort for a draft of perceived risk pi.

    r* = max(0, log(pi / pi_star)) / kappa; zero at or below threshold.
    Accepts scalar or array pi.
    """
    star = pi_star(env, theta)
    pi_arr = np.asarray(pi, dtype=float)
    if np.any(pi_arr < 0.0) or np.any(pi_arr > 1.0):
        raise ValidationError("risk pi must lie in [0, 1]", field="pi")
    ratio = np.maximum(pi_arr / star, 1.0)
    out = np.log(ratio) / env.kappa
    if np.ndim(pi) == 0:
        return float(out)
    return out


def review_effort(env: SignalEnvironment, theta: float, s):
    """Optimal review effort for signal(s) s in [0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise ValidationError("signal s must lie in [0, 1]", field="s")
    out = effort_for_risk(env, theta, env.risk_map.value(s_arr))
    if np.ndim(s) == 0:
        return float(out)
    return out


def residual_risk(env: SignalEnvironment, theta: float, s):
    """Escape probability left after optimal review: min(pi(s), pi_star).

    Equal to pi(s) * exp(-kappa * r*(s)) pointwise; the clipped form is
    exact and avoids the round trip through exp(log(...)).
    """
    star = pi_star(env, theta)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
        raise ValidationError("signal s must lie in [0, 1]", field="s")
    out = np.minimum(env.risk_map.value(s_arr), star)
    if np.ndim(s) == 0:
        return float(out)
    return out


def threshold_signal(env: SignalEnvironment, theta: float) -> float:
    """Smallest signal whose risk reaches the review threshold.

    Exact logistic inversion; returns 0 when everything is reviewed and 1
    when nothing is.  This is where r*(s) has its kink, so quadrature
    panels split here.
    """
    return float(_signal_at_risk(env.risk_map, np.array([pi_star(env, theta)]))[0])


def _signal_at_risk(rm: RiskMap, star: np.ndarray) -> np.ndarray:
    """threshold_signal for each risk threshold in the 1-D array star."""
    low, high = rm.value(np.array([0.0, 1.0]))
    s = np.where(star <= low, 0.0, 1.0)
    inside = (low < star) & (star < high)
    # Here a < star < pi(1) <= a + b, so the logistic argument is valid.
    logistic = rm.s0 - np.log(rm.b / (star[inside] - rm.a) - 1.0) / rm.g
    s[inside] = np.minimum(1.0, np.maximum(0.0, logistic))
    return s


def _row_dots(a, b):
    """Dot products over the last axis of two equally shaped arrays.

    Each takes the same BLAS dot a 1-D np.dot would, so a price's moments
    do not depend on the prices batched with it.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _panel_moments(env: SignalEnvironment, rework: ReworkModel, star, lo, hi, n: int):
    """(tau, q) per price, summed over that price's panels [lo, hi] of n nodes.

    star is a (prices, 1, 1) column and lo, hi are (prices, panels, 1):
    every panel is its own affine map of the shared Gauss-Legendre nodes.
    """
    nodes, weights = _gauss_nodes(n)
    half = 0.5 * (hi - lo)
    s = lo + half * (nodes + 1.0)
    pi_s = env.risk_map.value(s)
    effort = np.log(np.maximum(pi_s / star, 1.0)) / env.kappa
    resid = np.minimum(pi_s, star)
    weight = (half * weights) * env.signal_pdf(s)
    tau = _row_dots(weight, effort + rework.mu_R * resid)
    q = _row_dots(
        weight, effort**2 + (2.0 * rework.mu_R) * effort * resid + rework.mu_R2 * resid
    )
    return tau.sum(axis=1), q.sum(axis=1)


def _policy_moments(env: SignalEnvironment, thetas, rework: ReworkModel, n_nodes: int):
    """Signal-averaged (tau_A, q_A) arrays at every price in thetas.

    Split Gauss-Legendre quadrature: a price whose threshold signal is
    interior gets two panels of max(8, n_nodes // 2) nodes split there;
    one that reviews every draft or none gets one panel of n_nodes.
    Prices are evaluated _BLOCK_ROWS at a time.  thetas is not checked
    here: the public entry points check it once, and the solver's grid
    and bisection points are positive by construction.
    """
    stars = np.asarray(thetas, dtype=float) / env.review_scale
    splits = _signal_at_risk(env.risk_map, stars)
    interior = (splits > 0.0) & (splits < 1.0)
    # Columns 0, 1, 2 are the panel edges 0, split, 1; each group lists
    # the columns its panels start and end at.
    edges = np.column_stack((np.zeros(stars.size), splits, np.ones(stars.size)))
    groups = (
        (~interior, [0], [2], n_nodes),
        (interior, [0, 1], [1, 2], max(8, n_nodes // 2)),
    )
    tau, q = np.empty(stars.size), np.empty(stars.size)
    for mask, lo, hi, n in groups:
        rows = np.flatnonzero(mask)
        for start in range(0, rows.size, _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            column = block[:, None]
            tau[block], q[block] = _panel_moments(
                env, rework, stars[column, None], edges[column, lo, None],
                edges[column, hi, None], n,
            )
    return tau, q


# Extreme but finite environments overflow the effort terms to inf or NaN, a
# handled case: RouteMoments rejects a non-finite moment.
@np.errstate(all="ignore")
def policy_route_moments(
    env: SignalEnvironment, theta: float, rework: ReworkModel
) -> RouteMoments:
    """AI-route moments under the optimal review policy at price theta.

    tau_A = E_s[r*] + mu_R * E_s[min(pi, pi_star)]
    q_A   = E_s[r*^2 + 2 r* mu_R min(pi, pi_star) + mu_R2 min(pi, pi_star)]

    Doubling the node count must agree to 1e-8 relative or the result is
    rejected with the achieved error estimate.
    """
    require_finite(theta, "theta", "> 0")
    coarse = [float(value[0]) for value in _policy_moments(env, [theta], rework, QUAD_NODES)]
    fine = [float(value[0]) for value in _policy_moments(env, [theta], rework, 2 * QUAD_NODES)]
    err = max(
        abs(fine[0] - coarse[0]) / max(1.0, abs(fine[0])),
        abs(fine[1] - coarse[1]) / max(1.0, abs(fine[1])),
    )
    if err > _QUAD_RTOL:
        raise QuadratureError(
            f"policy-moment quadrature did not converge at {QUAD_NODES} nodes: "
            f"doubling changed the result by {err:.3e} (tolerance {_QUAD_RTOL:.0e})",
            error_estimate=err,
        )
    return RouteMoments(mean=coarse[0], m2=coarse[1])


def irreducible_escape_rate(env: SignalEnvironment) -> float:
    """Policy-independent escape stream p_inf * E_s[pi(s)].

    This share of errors is uncatchable by review and is reported
    separately; it does not enter the policy route moments.
    """
    mean_risk = _integrate_unit(
        lambda s: env.risk_map.value(s) * env.signal_pdf(s), QUAD_NODES
    )
    return env.p_inf * mean_risk


def phi(
    env: SignalEnvironment, theta: float, rework: ReworkModel, lam: float, capacity: float
) -> float:
    """Marginal waiting cost of one more unit of mean review demand.

    Phi(theta) = c_w * lam^3 * q_A(theta) / (2 C (C - lam tau_A(theta))^2),
    the sensitivity of the delay cost to tau_A with q_A held fixed.
    """
    moments = policy_route_moments(env, theta, rework)
    require_stable(lam, moments.mean, capacity, f"the queue at theta={theta:.6g}")
    return _phi_value(env.c_w, lam, capacity, moments.mean, moments.m2)


def _phi_value(c_w: float, lam: float, capacity: float, tau: float, q: float) -> float:
    return c_w * lam**3 * q / (2.0 * capacity * (capacity - lam * tau) ** 2)


def _degenerate_equilibrium(theta_hi: float, zero_demand: bool) -> EquilibriumSolution:
    if zero_demand:
        # pi == 0 everywhere: nothing is reviewed and nothing escapes.
        eq = Equilibrium(
            theta_star=0.0, pi_star=0.0, tau_A=0.0, q_A=0.0, rho=0.0, wq=0.0,
            residual=0.0, root_index=0, degenerate=True,
        )
    else:
        # c_w == 0: Phi vanishes identically and theta* collapses to the
        # boundary, where review effort diverges; route quantities are
        # undefined and reported as NaN.
        nan = float("nan")
        eq = Equilibrium(
            theta_star=0.0, pi_star=0.0, tau_A=nan, q_A=nan, rho=nan, wq=nan,
            residual=0.0, root_index=0, degenerate=True,
        )
    return EquilibriumSolution(primary=eq, roots=(eq,), theta_lo=0.0, theta_hi=theta_hi)


def _bisect_lockstep(g_at, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray) -> list[float]:
    """Midpoints of the sign-change brackets [lo, hi] of g, bisected together.

    One g_at call per step evaluates the midpoints of the brackets still
    open.  Each bracket keeps the half whose ends differ in sign from g at
    its lower end, stops once hi - lo <= 1e-13 * max(1, mid) or after 200
    steps, and is dropped where g turns NaN (the queue is unstable there),
    so it visits the iterates it would visit bisected on its own.
    """
    lo, hi, g_lo = lo.copy(), hi.copy(), g_lo.copy()
    open_ = np.ones(lo.size, dtype=bool)
    dropped = np.zeros(lo.size, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        open_ &= hi - lo > 1e-13 * np.maximum(1.0, mid)
        active = np.flatnonzero(open_)
        if active.size == 0:
            break
        g_mid = g_at(mid[active])
        unstable = np.isnan(g_mid)
        open_[active[unstable]] = False
        dropped[active[unstable]] = True
        active, g_mid = active[~unstable], g_mid[~unstable]
        same = (g_mid < 0.0) == (g_lo[active] < 0.0)
        lo[active[same]] = mid[active[same]]
        g_lo[active[same]] = g_mid[same]
        hi[active[~same]] = mid[active[~same]]
    return (0.5 * (lo + hi))[~dropped].tolist()


# Overflow in the scan is benign too: an overflowed Phi or g0 * g1 keeps its sign.
@np.errstate(all="ignore")
def solve_equilibrium(
    env: SignalEnvironment, rework: ReworkModel, lam: float, capacity: float
) -> EquilibriumSolution:
    """Find all fixed points of theta = Phi(theta) on the feasible domain.

    Scans g(theta) = theta - Phi(theta) on a geometric grid over
    [theta_lo, theta_hi] in one batched quadrature call, bisects every
    sign change in lock-step, and adds the analytic tail root above
    theta_hi (where no draft is reviewed and Phi is constant) when g is
    still negative there.  theta_lo is the smallest price at which the
    queue is stable: below it review effort inflates tau_A past capacity.
    The smallest root is primary.
    """
    require_finite(lam, "lam", "> 0")
    require_finite(capacity, "capacity", "> 0")

    theta_hi = env.review_scale * env.risk_map.value(1.0)
    if theta_hi <= 0.0:
        return _degenerate_equilibrium(theta_hi=0.0, zero_demand=True)
    if env.c_w == 0.0:
        return _degenerate_equilibrium(theta_hi=theta_hi, zero_demand=False)

    def tau_at(thetas) -> np.ndarray:
        return _policy_moments(env, thetas, rework, QUAD_NODES)[0]

    def g_at(thetas: np.ndarray) -> np.ndarray:
        """g = theta - Phi(theta) at each price; NaN where the queue is unstable."""
        tau, q = _policy_moments(env, thetas, rework, QUAD_NODES)
        stable = is_stable(lam, tau, capacity)
        g = np.full(thetas.shape, math.nan)
        g[stable] = thetas[stable] - _phi_value(env.c_w, lam, capacity, tau[stable], q[stable])
        return g

    # --- feasible interval -------------------------------------------------
    theta_tiny = theta_hi * 1e-12
    if is_stable(lam, tau_at([theta_tiny])[0], capacity):
        theta_lo = theta_tiny
    else:
        # theta_hi first, then the geometric candidates: the first stable
        # price anchors the search for the stability boundary.
        anchors = np.concatenate(([theta_hi], np.geomspace(theta_tiny, theta_hi, 64)))
        tau_anchors = tau_at(anchors)
        stable_rows = np.flatnonzero(is_stable(lam, tau_anchors, capacity))
        if stable_rows.size == 0:
            raise InfeasibleError(
                "no review price stabilizes the queue: even with no review "
                f"(theta >= {theta_hi:.6g}) the load is "
                f"rho = {lam * tau_anchors[0] / capacity:.6g}"
            )
        low, high = theta_tiny, float(anchors[stable_rows[0]])
        for _ in range(200):
            mid = math.sqrt(low * high)
            if high - low <= 1e-12 * high:
                break
            if is_stable(lam, tau_at([mid])[0], capacity):
                high = mid
            else:
                low = mid
        theta_lo = high * (1.0 + 1e-6)
    theta_lo = min(theta_lo, theta_hi * (1.0 - 1e-9))

    # --- scan and bisect ---------------------------------------------------
    grid = np.geomspace(theta_lo, theta_hi, SCAN_POINTS)
    g_values = g_at(grid)
    g0, g1 = g_values[:-1], g_values[1:]
    # A pair with an unstable (NaN) end gives no candidate: g0 * g1 < 0 is
    # false for NaN, and a zero g0 needs a finite g1.
    candidates = grid[:-1][(g0 == 0.0) & ~np.isnan(g1)].tolist()
    brackets = np.flatnonzero(g0 * g1 < 0.0)
    candidates += _bisect_lockstep(g_at, grid[brackets], grid[brackets + 1], g0[brackets])
    if not math.isnan(g_values[-1]):
        if g_values[-1] == 0.0:
            candidates.append(float(grid[-1]))
        elif g_values[-1] < 0.0:
            # Above theta_hi the policy reviews nothing, so Phi is constant
            # at Phi(theta_hi) and the remaining root is exact.
            candidates.append(float(grid[-1] - g_values[-1]))

    if not candidates:
        raise NoRootError(
            "theta - Phi(theta) has no sign change on the feasible domain "
            f"[{theta_lo:.6g}, {theta_hi:.6g}]",
            thetas=grid,
            residuals=g_values,
        )

    roots: list[float] = []
    for theta in sorted(candidates):
        if not roots or theta - roots[-1] > 1e-9 * max(1.0, theta):
            roots.append(theta)

    # --- package -----------------------------------------------------------
    equilibria = []
    for index, theta in enumerate(roots):
        moments = policy_route_moments(env, theta, rework)
        rho = lam * moments.mean / capacity
        wq = wq_pk(QueueInputs(lam=lam, capacity=capacity, service=moments)).wq
        residual = abs(
            theta - _phi_value(env.c_w, lam, capacity, moments.mean, moments.m2)
        )
        if residual > _ROOT_RTOL * max(1.0, theta):
            raise WedgeqError(
                f"fixed-point residual {residual:.3e} at theta={theta!r} exceeds "
                f"the solver guarantee {_ROOT_RTOL:.0e}"
            )
        equilibria.append(
            Equilibrium(
                theta_star=theta,
                pi_star=pi_star(env, theta),
                tau_A=moments.mean,
                q_A=moments.m2,
                rho=rho,
                wq=wq,
                residual=residual,
                root_index=index,
            )
        )
    return EquilibriumSolution(
        primary=equilibria[0],
        roots=tuple(equilibria),
        theta_lo=float(theta_lo),
        theta_hi=float(theta_hi),
    )
