"""Queueing analytics and discrete-event simulation for AI-assisted task
workflows with rework.

The analytic core answers: given a manual route and an AI-assisted route
(review effort plus stochastic rework on escaped errors), when does the
AI route actually shorten the queue, how much AI variability is
admissible, what adoption share stabilizes an overloaded queue, and where
does the signal-dependent review policy settle once reviewer congestion
prices itself in?  The simulator replays the same workflows event by
event to validate every formula.
"""

from .config import SimSettings, WorkflowSpec, fixture_path, load_config, workflow_from_dict
from .diagnostics import (
    FULL_AI,
    FULL_MANUAL,
    INDIFFERENT,
    StabilizationResult,
    WedgeReport,
    bang_bang,
    lambda_star,
    stabilization,
    variance_budget,
    wedge_test,
)
from .errors import (
    InfeasibleError,
    NoRootError,
    QuadratureError,
    StabilityError,
    ValidationError,
    WedgeqError,
)
from .queueing import EPS_RHO, QueueInputs, WaitResult, utilization, wq_kingman, wq_pk
from .service_model import (
    ErrorCurve,
    ManualRoute,
    ReworkModel,
    RouteMoments,
    ai_route_moments,
    mixed_moments,
    residual_error,
    sample_ai,
    sample_manual,
    sample_rework,
)
from .simulator import SimConfig, SimStats, replicate, run
from .verification import (
    Equilibrium,
    EquilibriumSolution,
    ReviewPolicy,
    RiskMap,
    SignalEnvironment,
    effort_for_risk,
    irreducible_escape_rate,
    phi,
    pi_star,
    policy_route_moments,
    residual_risk,
    review_effort,
    solve_equilibrium,
    threshold_policy,
    threshold_signal,
)

__version__ = "0.1.0"
