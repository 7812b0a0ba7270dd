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

Every integral over the signal density uses one set of panel edges, which
the environment computes when it is validated: 16 uniform panels, graded
toward an end whose Beta shape is not an integer, around a steep risk
map's midpoint and around a narrow density's mean.  It keeps pi and the
weighted pdf at 24 nodes per panel for its normalisation check, the
irreducible escape rate and the moment table.  The equilibrium search
prices each candidate theta from a table built once per solve: the
cumulative integrals of pdf, log(pi) * pdf, log(pi)^2 * pdf and pi * pdf
over those panels, to which each price adds two short partial rules at
its threshold signal.  Every reported root is certified by
policy_route_moments, a direct quadrature over the same panels split at
the threshold, with a doubling check.
"""

from __future__ import annotations

import math
import sys
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
from .queueing import QueueInputs, is_stable, require_stable, stability_margin, wq_pk
from .service_model import ReworkModel, RouteMoments, require_finite, require_no_overflow

# Gauss-Legendre nodes per panel of the certifier's rule, and prices in the
# equilibrium scan.  The certifier's count differs from _TABLE_NODES, so a
# root is not certified by the rule that found it.
QUAD_NODES = 12
SCAN_POINTS = 512

# Relative agreement required between n-node and 2n-node quadrature.
_QUAD_RTOL = 1e-8

# Residual tolerance guaranteed for reported fixed points.
_ROOT_RTOL = 1e-8

# Round cap of _bracket_roots.  Illinois steps close a double-precision
# bracket in well under 20 rounds; the cap only bounds a misbehaving f.
_BRACKET_ROUNDS = 100

# Uniform panels of every signal integral, and the Gauss-Legendre nodes per
# panel of the unit integrals, the moment table and its partial rules.
_UNIFORM_PANELS = 16
_TABLE_NODES = 24

# Halvings of the end panel toward an end whose Beta shape is not an integer.
_END_HALVINGS = 40


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
    # pi(0) and pi(1), the range of risks a threshold can fall inside, set once below.
    _ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite(self.a, "a", ">= 0")
        require_finite(self.b, "b", ">= 0")
        require_finite(self.g, "g", "> 0")
        require_finite(self.s0, "s0")
        if self.value(1.0) > 1.0:
            raise ValidationError(
                f"risk map exceeds 1 on [0, 1]: pi(1) = {self.value(1.0):.6g}", field="b"
            )
        object.__setattr__(self, "_ends", tuple(self.value(np.array([0.0, 1.0]))))

    # exp overflows for signals far below s0; pi(s) then saturates to a.
    @np.errstate(over="ignore")
    def value(self, s):
        """pi(s); accepts scalars or arrays."""
        out = self.a + self.b / (1.0 + np.exp(-self.g * (np.asarray(s, dtype=float) - self.s0)))
        if np.ndim(s) == 0:
            return float(out)
        return out


def _signal_edges(alpha: float, beta: float, rm: RiskMap) -> np.ndarray:
    """Sorted panel edges on [0, 1] of every integral over the Beta(alpha, beta) density.

    _UNIFORM_PANELS uniform panels, with the end panel halved _END_HALVINGS
    times toward an end whose shape is not an integer, where the density's
    derivatives blow up.  A feature of width w narrower than a uniform
    panel adds its centre c and c +- 2^j w for every j >= 0 with 2^j w
    below a uniform panel's width: the logistic (c = s0, w = 1 / g) and the
    density's bulk (c its mean, w its standard deviation).
    """
    edges = [np.arange(_UNIFORM_PANELS + 1) / _UNIFORM_PANELS]
    graded = 2.0 ** -np.arange(1.0, _END_HALVINGS + 1) / _UNIFORM_PANELS
    if not float(alpha).is_integer():
        edges.append(graded)
    if not float(beta).is_integer():
        edges.append(1.0 - graded)
    mean = alpha / (alpha + beta)
    sd = math.sqrt(mean * (1.0 - mean) / (alpha + beta + 1.0))
    for centre, width in ((rm.s0, 1.0 / rm.g), (mean, sd)):
        # A zero width (a mean that rounds to 0 or 1) or an infinite one (a
        # subnormal g) adds nothing.
        if 0.0 < width < 1.0 / _UNIFORM_PANELS:
            count = math.ceil(math.log2(1.0 / (_UNIFORM_PANELS * width)))
            steps = width * 2.0 ** np.arange(count)
            edges.append(centre + np.concatenate(([0.0], steps, -steps)))
    edges = np.unique(np.concatenate(edges))
    return edges[(edges >= 0.0) & (edges <= 1.0)]


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
    # Set once below: log B(alpha, beta), the density's log-normaliser, the
    # edges of every signal integral and their read-only _TABLE_NODES _panels.
    _log_norm: float = field(init=False, repr=False, compare=False)
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _panel_values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Below 1 the density is infinite at its end of [0, 1], where a
        # threshold signal of 0 or 1 puts a zero-width partial rule's nodes.
        shapes = (("signal_alpha", self.signal_alpha), ("signal_beta", self.signal_beta))
        for name, shape in shapes:
            require_finite(shape, name)
            if shape < 1.0:
                raise ValidationError(
                    f"{name} must be >= 1, got {shape}: below 1 the signal density "
                    "is infinite at an end of [0, 1]",
                    field=name,
                )
        require_finite(self.K, "K", "> 0")
        require_finite(self.kappa, "kappa", "> 0")
        # The solver's price scan starts 12 decades below a price scale
        # proportional to kappa, which a subnormal kappa underflows to 0.
        if self.kappa < sys.float_info.min:
            raise ValidationError(
                f"kappa must be a normal float, at least {sys.float_info.min!r}, "
                f"got {self.kappa!r}",
                field="kappa",
            )
        # c_w == 0 is admitted so the no-congestion-cost boundary case can be
        # represented; solve_equilibrium reports it degenerate.
        require_finite(self.c_w, "c_w", ">= 0")
        if not 0.0 <= self.p_inf < 1.0:
            raise ValidationError(f"p_inf must lie in [0, 1), got {self.p_inf}", field="p_inf")
        require_no_overflow(self.review_scale, "K", "kappa * K * (1 - p_inf)")
        # Every price is divided by it, even where pi(1) = 0.
        if self.review_scale == 0.0:
            raise ValidationError(
                "K is too small: kappa * K * (1 - p_inf) underflows to 0", field="K"
            )
        # The scan starts 12 decades below theta_hi, the price above which
        # nothing is reviewed, and unless pi(1) is 0 that start must stay
        # above 0.
        top_risk = self.risk_map.value(1.0)
        theta_hi = self.review_scale * top_risk
        if top_risk > 0.0 and theta_hi * 1e-12 == 0.0:
            raise ValidationError(
                "K is too small: the equilibrium scan starts at 1e-12 * kappa * K * "
                f"(1 - p_inf) * pi(1) = 1e-12 * {theta_hi!r}, which underflows to 0",
                field="K",
            )
        object.__setattr__(self, "_log_norm", log_beta(self.signal_alpha, self.signal_beta))
        require_no_overflow(self._log_norm, "signal_alpha", "log B(signal_alpha, signal_beta)")
        object.__setattr__(
            self, "_edges", _signal_edges(self.signal_alpha, self.signal_beta, self.risk_map)
        )
        # Extreme shapes overflow the log-density to -inf: a density of 0,
        # which the check below rejects.  A panel narrower than the float
        # spacing puts nodes on s = 0 or 1, where the log is -inf.
        with np.errstate(over="ignore", divide="ignore"):
            risk, weight = _panels(self, self._edges, _TABLE_NODES)
            total = float(weight.sum())
        risk.flags.writeable = weight.flags.writeable = False
        object.__setattr__(self, "_panel_values", (risk, weight))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(
                "signal density does not integrate to 1 within 1e-10 "
                f"(got {total!r}): its mass is too concentrated for the quadrature panels",
                field="signal_alpha",
            )

    def signal_pdf(self, s):
        """Beta(alpha, beta) density on [0, 1]."""
        s = np.asarray(s, dtype=float)
        # A unit shape's factor is 1 on all of [0, 1], where 0 * log(0) would
        # make the density NaN at an end.
        alpha, beta = self.signal_alpha, self.signal_beta
        head = np.zeros_like(s) if alpha == 1.0 else (alpha - 1.0) * np.log(s)
        tail = np.zeros_like(s) if beta == 1.0 else (beta - 1.0) * np.log1p(-s)
        return np.exp(head + tail - self._log_norm)

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


def pi_star(env: SignalEnvironment, theta: float) -> float:
    """Review threshold: drafts with pi(s) <= pi_star are waved through."""
    require_finite(theta, "theta", "> 0")
    return theta / env.review_scale


def review_policy(env: SignalEnvironment, star, pi):
    """(effort, residual risk) of the optimal review of drafts of risk pi at threshold star.

    effort = max(0, log(pi / star)) / kappa, and the residual risk
    pi * exp(-kappa * effort) is exactly min(pi, star), computed in that form.
    """
    effort = np.log(np.maximum(pi / star, 1.0)) / env.kappa
    return effort, np.minimum(pi, star)


def _require_unit_interval(values, name: str, field: str) -> np.ndarray:
    """values as a float array; ValidationError unless every one lies in [0, 1] (NaN does not)."""
    arr = np.asarray(values, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{name} must lie in [0, 1]", field=field)
    return arr


def _normal_pi_star(env: SignalEnvironment, theta: float) -> float:
    """pi_star at theta, refused below the smallest normal float as kappa is.

    review_policy divides risks by it, which overflows past a subnormal
    threshold.
    """
    star = pi_star(env, theta)
    if star < sys.float_info.min:
        raise ValidationError(
            f"theta is too small: the review threshold theta / (kappa * K * (1 - p_inf)) = "
            f"{star!r} is below the smallest normal float {sys.float_info.min!r}",
            field="theta",
        )
    return star


def effort_for_risk(env: SignalEnvironment, theta: float, pi):
    """Optimal review effort for a draft of perceived risk pi.

    r* = max(0, log(pi / pi_star)) / kappa; zero at or below threshold.
    Accepts scalar or array pi.
    """
    star = _normal_pi_star(env, theta)
    pi_arr = _require_unit_interval(pi, "risk pi", "pi")
    effort, _ = review_policy(env, star, pi_arr)
    return float(effort) if np.ndim(pi) == 0 else effort


def _signal_policy(env: SignalEnvironment, theta: float, s):
    """review_policy at price theta for signal(s) s in [0, 1]; floats for a scalar s."""
    star = _normal_pi_star(env, theta)
    s_arr = _require_unit_interval(s, "signal s", "s")
    policy = review_policy(env, star, env.risk_map.value(s_arr))
    return tuple(map(float, policy)) if np.ndim(s) == 0 else policy


def review_effort(env: SignalEnvironment, theta: float, s):
    """Optimal review effort for signal(s) s in [0, 1]."""
    return _signal_policy(env, theta, s)[0]


def residual_risk(env: SignalEnvironment, theta: float, s):
    """Escape probability left after optimal review: min(pi(s), pi_star)."""
    return _signal_policy(env, theta, s)[1]


def threshold_signal(env: SignalEnvironment, theta: float) -> float:
    """Smallest signal whose risk reaches the review threshold.

    Exact logistic inversion; returns 0 when everything is reviewed and 1
    when nothing is.  This is where r*(s) has its kink, so quadrature
    panels split here.
    """
    return float(_signal_at_risk(env.risk_map, np.array([pi_star(env, theta)]))[0])


def _signal_at_risk(rm: RiskMap, star: np.ndarray) -> np.ndarray:
    """threshold_signal for each risk threshold in the 1-D array star."""
    low, high = rm._ends
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


def _panels(env: SignalEnvironment, edges: np.ndarray, n: int):
    """pi(s) and quadrature weights at the n Gauss-Legendre nodes of each panel.

    The panels lie between consecutive edges along the last axis of edges,
    so (..., k + 1) edges give (..., k, n) arrays, every panel its own
    affine map of the shared nodes.
    """
    nodes, weights = _gauss_nodes(n)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (hi - lo)
    s = lo + half * (nodes + 1.0)
    return env.risk_map.value(s), (half * weights) * env.signal_pdf(s)


def _policy_moments(env: SignalEnvironment, theta: float, rework: ReworkModel, n_nodes: int):
    """Signal-averaged (tau_A, q_A) at price theta, as floats.

    Gauss-Legendre quadrature of n_nodes per panel over the environment's
    edges with the threshold signal inserted, so the kink of r*(s) is a
    panel end.  theta is not checked here: policy_route_moments checks it.
    """
    star = theta / env.review_scale
    edges = np.union1d(env._edges, _signal_at_risk(env.risk_map, np.array([star])))
    risk, weight = _panels(env, edges, n_nodes)
    effort, resid = review_policy(env, star, risk)
    tau = _row_dots(weight, effort + rework.mu_R * resid)
    q = _row_dots(weight, effort**2 + (2.0 * rework.mu_R) * effort * resid + rework.mu_R2 * resid)
    return float(tau.sum()), float(q.sum())


def _moment_table(env: SignalEnvironment):
    """Cumulative integrals over the environment's panels, for _table_moments.

    With l = log pi(s) and b_j = env._edges[j], returns (upper, lower):
    upper[j] holds the integrals of pdf, l * pdf and l^2 * pdf over [b_j, 1],
    and lower[j] the integral of pi * pdf over [0, b_j], for every edge.
    """
    risk, weight = env._panel_values
    log_risk = np.log(risk)
    panel = _row_dots(
        weight[:, None, :], np.stack((np.ones_like(risk), log_risk, log_risk**2, risk), axis=1)
    )
    # A panel where pi is 0 has a NaN or infinite l-integral.  Summed from the
    # top, it enters upper[j] only for j at or below its own index, and a
    # threshold reads upper[j] only for panels above it, where
    # pi >= pi_star > 0.
    upper = np.zeros((env._edges.size, 3))
    upper[:-1] = np.cumsum(panel[::-1, :3], axis=0)[::-1]
    lower = np.zeros(env._edges.size)
    lower[1:] = np.cumsum(panel[:, 3])
    return upper, lower


# A zero-width partial rule at a threshold signal of 0 or 1 puts its nodes on
# that end of [0, 1], where the density's log(s) or log1p(-s) is -inf; their
# weight is 0.
@np.errstate(divide="ignore")
def _table_moments(env: SignalEnvironment, table, rework: ReworkModel, stars, splits):
    """(tau_A, q_A) arrays at the risk thresholds stars, whose threshold signals are splits.

    A threshold t in the panel [b_j, b_j+1] of the environment's edges gets
    two partial rules of _TABLE_NODES nodes, on [b_j, t] and [t, b_j+1],
    added to the table's sums over the whole panels beyond them, so the
    kink of r*(s) stays a panel end.  That gives F_k, the integral of
    l^k * pdf over [t, 1] (l = log pi), and G, that of pi * pdf over
    [0, t].  With l* = log pi_star:

        E1    = (F1 - l* F0) / kappa                      (= E[r*])
        E2    = (F2 - 2 l* F1 + l*^2 F0) / kappa / kappa  (= E[r*^2])
        tau_A = E1 + mu_R pi_star F0 + mu_R G
        q_A   = E2 + 2 mu_R pi_star E1 + mu_R2 pi_star F0 + mu_R2 G

    kappa divides twice: kappa^2 underflows for a tiny kappa.  Every step
    is per price, so a price's moments do not depend on the prices batched
    with it.
    """
    upper, lower = table
    edges = env._edges
    panel = np.minimum(np.searchsorted(edges, splits, side="right") - 1, edges.size - 2)
    risk, weight = _panels(
        env, np.stack((edges[panel], splits, edges[panel + 1]), axis=-1), _TABLE_NODES
    )
    head = lower[panel] + _row_dots(weight[:, 0], risk[:, 0])
    powers = np.empty((splits.size, 3, _TABLE_NODES))
    powers[:, 0] = 1.0
    np.log(risk[:, 1], out=powers[:, 1])
    np.multiply(powers[:, 1], powers[:, 1], out=powers[:, 2])
    f0, f1, f2 = (upper[panel + 1] + _row_dots(weight[:, 1, None], powers)).T
    log_star = np.log(stars)
    e1 = (f1 - log_star * f0) / env.kappa
    e2 = (f2 - 2.0 * log_star * f1 + log_star**2 * f0) / env.kappa / env.kappa
    tau = e1 + rework.mu_R * stars * f0 + rework.mu_R * head
    q = e2 + 2.0 * rework.mu_R * stars * e1 + rework.mu_R2 * stars * f0 + rework.mu_R2 * head
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
    coarse = _policy_moments(env, theta, rework, QUAD_NODES)
    fine = _policy_moments(env, theta, rework, 2 * QUAD_NODES)
    err = max(
        abs(fine[0] - coarse[0]) / max(1.0, abs(fine[0])),
        abs(fine[1] - coarse[1]) / max(1.0, abs(fine[1])),
    )
    if err > _QUAD_RTOL:
        raise QuadratureError(
            f"policy-moment quadrature did not converge at {QUAD_NODES} nodes per panel: "
            f"doubling changed the result by {err:.3e} (tolerance {_QUAD_RTOL:.0e})",
            error_estimate=err,
        )
    return RouteMoments(mean=coarse[0], m2=coarse[1])


def irreducible_escape_rate(env: SignalEnvironment) -> float:
    """Policy-independent escape stream p_inf * E_s[pi(s)].

    This share of errors is uncatchable by review and is reported
    separately; it does not enter the policy route moments.
    """
    risk, weight = env._panel_values
    return env.p_inf * float(_row_dots(weight, risk).sum())


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
    gap = capacity - lam * tau
    return c_w * lam * lam * lam * q / (2.0 * capacity * (gap * gap))


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


def _bracket_roots(f, lo, hi, f_lo, f_hi, rtol):
    """Narrow the brackets [lo, hi] of sign changes of f together; returns lo, hi and drop flags.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): each round one
    f call prices the secant point of every open bracket, and the end whose
    f has that point's sign moves to it.  When the same end is kept twice in
    a row its f value is halved, so the secant point cannot creep up on the
    root from one side.  A bracket closes once hi - lo <= max(rtol * hi,
    ulp(hi)), so also once its ends are adjacent floats (a subnormal
    rtol * hi is below the float spacing), or at a point where f is 0
    (lo = hi there), and is dropped where f is NaN (the queue is unstable
    there).  At most _BRACKET_ROUNDS rounds are run.
    """
    lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
    f_lo, f_hi = np.asarray(f_lo, dtype=float).tolist(), np.asarray(f_hi, dtype=float).tolist()
    # Fixed per bracket: a halved f value can underflow to a signless 0.
    negative = [value < 0.0 for value in f_lo]
    # Which end each bracket kept last round: -1 lo, +1 hi, 0 none yet.
    kept = [0] * len(lo)
    dropped = [False] * len(lo)
    open_ = [i for i in range(len(lo)) if hi[i] - lo[i] > max(rtol * hi[i], math.ulp(hi[i]))]
    for _ in range(_BRACKET_ROUNDS):
        if not open_:
            break
        points = []
        for i in open_:
            # The share of the bracket below the secant point, taken ratio
            # first: f * (hi - lo) underflows on a tiny price scale.  An
            # infinite f value leaves no secant; the midpoint stands in.
            span = f_lo[i] - f_hi[i]
            share = f_lo[i] / span if math.isfinite(span) else 0.5
            # A quarter of the tolerance inside both ends, so a root next to
            # one end still closes its bracket within a round or two.
            margin = 0.25 * rtol * hi[i]
            point = lo[i] + (hi[i] - lo[i]) * share
            points.append(min(max(point, lo[i] + margin), hi[i] - margin))
        values = f(np.array(points)).tolist()
        still_open = []
        for i, point, value in zip(open_, points, values):
            if math.isnan(value):
                dropped[i] = True
                continue
            if value == 0.0:
                lo[i] = hi[i] = point
                continue
            if (value < 0.0) == negative[i]:
                lo[i], f_lo[i] = point, value
                if kept[i] == 1:
                    f_hi[i] *= 0.5
                kept[i] = 1
            else:
                hi[i], f_hi[i] = point, value
                if kept[i] == -1:
                    f_lo[i] *= 0.5
                kept[i] = -1
            if hi[i] - lo[i] > max(rtol * hi[i], math.ulp(hi[i])):
                still_open.append(i)
        open_ = still_open
    return lo, hi, dropped


# Overflow in the scan is benign too: an overflowed Phi keeps its sign.
@np.errstate(all="ignore")
def solve_equilibrium(
    env: SignalEnvironment, rework: ReworkModel, lam: float, capacity: float
) -> EquilibriumSolution:
    """Find all fixed points of theta = Phi(theta) on the feasible domain.

    Scans g(theta) = theta - Phi(theta) on a geometric grid over
    [theta_lo, theta_hi], narrows every sign change together by Illinois
    steps, and adds the analytic tail root above theta_hi (where no draft
    is reviewed and Phi is constant) when g is still negative there.
    theta_lo is the smallest price at which the queue is stable: below it
    review effort inflates tau_A past capacity.  The smallest root is
    primary.

    Every search point (the stability anchors and rounds, the scan and the
    Illinois rounds) is priced by _table_moments from one _moment_table
    built here; the table is not kept after the call.  Each reported root
    is then certified by policy_route_moments, an independent quadrature
    with its doubling check, and by a residual of at most 1e-8 * theta.
    """
    require_finite(lam, "lam", "> 0")
    require_finite(capacity, "capacity", "> 0")

    theta_hi = env.review_scale * env.risk_map.value(1.0)
    if theta_hi <= 0.0:
        return _degenerate_equilibrium(theta_hi=0.0, zero_demand=True)
    if env.c_w == 0.0:
        return _degenerate_equilibrium(theta_hi=theta_hi, zero_demand=False)

    table = _moment_table(env)

    def moments_at(thetas: np.ndarray):
        stars = thetas / env.review_scale
        return _table_moments(env, table, rework, stars, _signal_at_risk(env.risk_map, stars))

    def rho_at(thetas: np.ndarray) -> np.ndarray:
        return lam * moments_at(thetas)[0] / capacity

    def margin(rho: np.ndarray) -> np.ndarray:
        """The load rule's stability_margin, with -inf for a NaN load so it brackets."""
        return np.fmax(stability_margin(rho), -math.inf)

    def g_at(thetas: np.ndarray) -> np.ndarray:
        """g = theta - Phi(theta) at each price; NaN where the queue is unstable."""
        tau, q = moments_at(thetas)
        stable = is_stable(lam, tau, capacity)
        g = np.full(thetas.shape, math.nan)
        g[stable] = thetas[stable] - _phi_value(env.c_w, lam, capacity, tau[stable], q[stable])
        return g

    # --- feasible interval -------------------------------------------------
    theta_tiny = theta_hi * 1e-12
    anchors = np.geomspace(theta_tiny, theta_hi, 64)
    rho = rho_at(anchors)
    margins = margin(rho)
    stable_rows = np.flatnonzero(margins > 0.0)
    if stable_rows.size == 0:
        raise InfeasibleError(
            "no review price stabilizes the queue: even with no review "
            f"(theta >= {theta_hi:.6g}) the load is rho = {rho[-1]:.6g}"
        )
    row = stable_rows[0]
    if row == 0:
        theta_lo = theta_tiny
    else:
        # The first stable anchor and the unstable one below it bracket the
        # stability boundary.
        _, high, _ = _bracket_roots(
            lambda thetas: margin(rho_at(thetas)),
            anchors[row - 1 : row], anchors[row : row + 1],
            margins[row - 1 : row], margins[row : row + 1], 1e-12,
        )
        theta_lo = high[0] * (1.0 + 1e-6)
    theta_lo = min(theta_lo, theta_hi * (1.0 - 1e-9))

    # --- scan and refine ---------------------------------------------------
    grid = np.geomspace(theta_lo, theta_hi, SCAN_POINTS)
    g_values = g_at(grid)
    g0, g1 = g_values[:-1], g_values[1:]
    # A pair with an unstable (NaN) end gives no candidate: the product of
    # signs is NaN there, and a zero g0 needs a finite g1.  Signs, not the
    # values, are multiplied: on a tiny price scale g0 * g1 underflows to 0.
    candidates = grid[:-1][(g0 == 0.0) & ~np.isnan(g1)].tolist()
    brackets = np.flatnonzero(np.sign(g0) * np.sign(g1) < 0.0)
    lo, hi, dropped = _bracket_roots(
        g_at, grid[brackets], grid[brackets + 1], g0[brackets], g1[brackets], 1e-13
    )
    candidates += [a + 0.5 * (b - a) for a, b, drop in zip(lo, hi, dropped) if not drop]
    if not math.isnan(g_values[-1]):
        if g_values[-1] == 0.0:
            candidates.append(float(grid[-1]))
        elif g_values[-1] < 0.0:
            # Above theta_hi the policy reviews nothing, so Phi is constant
            # at Phi(theta_hi) and the remaining root is exact.  An infinite
            # Phi leaves no representable root.
            tail = float(grid[-1] - g_values[-1])
            if math.isfinite(tail):
                candidates.append(tail)

    if not candidates:
        raise NoRootError(
            "theta - Phi(theta) has no sign change on the feasible domain "
            f"[{theta_lo:.6g}, {theta_hi:.6g}]",
            thetas=grid,
            residuals=g_values,
        )

    roots: list[float] = []
    for theta in sorted(candidates):
        if not roots or theta - roots[-1] > 1e-9 * theta:
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
        if residual > _ROOT_RTOL * theta:
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
