"""Workflow configuration: one strict JSON document per analysis.

Top-level schema (see docs/config.md for units and defaults):

    lambda        required  arrival rate, tasks/hour, > 0
    capacity_C    required  server capacity, attention-hours/hour, > 0
    x             optional  AI routing fraction in [0, 1], default 1
    c2_a          optional  interarrival squared CV, default 1 (Poisson)
    manual        required  {"tau_H": .., "c2_H": ..}
    rework        required  {"mu_R": .., "mu_R2": .., "family": "gamma"}
    review_r      fixed-effort mode: review effort in attention-hours
    error_curve   fixed-effort mode: {"p0": .., "p_inf": .., "kappa": ..}
    signal_env    policy mode: {"risk_map": {"a","b","g","s0"},
                  "signal": {"alpha","beta"}, "K", "kappa", "c_w", "p_inf"}
    sim           optional  {"seed", "n_arrivals", "warmup_fraction",
                  "n_batches", "reps", "rework_mode"}

Exactly one of review_r / signal_env must be present; unknown keys are
rejected with the offending key named.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .service_model import ErrorCurve, ManualRoute, ReworkModel
from .verification import RiskMap, SignalEnvironment

_REWORK_MODES = ("folded", "feedback")


@dataclass(frozen=True)
class SimSettings:
    """Simulation block defaults; validated here so bad configs fail on load."""

    seed: int = 0
    n_arrivals: int = 1_000_000
    warmup_fraction: float = 0.2
    n_batches: int = 32
    reps: int = 1
    rework_mode: str = "folded"

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValidationError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}", field="seed"
            )
        if not isinstance(self.n_batches, int) or self.n_batches < 2:
            raise ValidationError(
                f"n_batches must be an integer >= 2, got {self.n_batches!r}", field="n_batches"
            )
        if not isinstance(self.n_arrivals, int) or self.n_arrivals < 100 * self.n_batches:
            raise ValidationError(
                f"n_arrivals must be an integer >= 100*n_batches "
                f"(= {100 * self.n_batches}), got {self.n_arrivals!r}",
                field="n_arrivals",
            )
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise ValidationError(
                f"warmup_fraction must lie in [0, 0.5], got {self.warmup_fraction}",
                field="warmup_fraction",
            )
        if not isinstance(self.reps, int) or self.reps < 1:
            raise ValidationError(f"reps must be an integer >= 1, got {self.reps!r}", field="reps")
        if self.rework_mode not in _REWORK_MODES:
            raise ValidationError(
                f"rework_mode must be one of {_REWORK_MODES}, got {self.rework_mode!r}",
                field="rework_mode",
            )


@dataclass(frozen=True)
class WorkflowSpec:
    """A fully validated workflow: arrival process, routes, and review mode."""

    lam: float
    capacity: float
    manual: ManualRoute
    rework: ReworkModel
    x: float = 1.0
    c2_a: float = 1.0
    curve: ErrorCurve | None = None
    review_r: float | None = None
    env: SignalEnvironment | None = None
    sim: SimSettings = field(default_factory=SimSettings)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValidationError(f"lambda must be > 0 and finite, got {self.lam}", field="lambda")
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValidationError(
                f"capacity_C must be > 0 and finite, got {self.capacity}", field="capacity_C"
            )
        if not 0.0 <= self.x <= 1.0:
            raise ValidationError(f"x must lie in [0, 1], got {self.x}", field="x")
        if not (math.isfinite(self.c2_a) and self.c2_a >= 0.0):
            raise ValidationError(f"c2_a must be >= 0, got {self.c2_a}", field="c2_a")
        fixed = self.review_r is not None
        policy = self.env is not None
        if fixed == policy:
            raise ValidationError(
                "exactly one of review_r (fixed-effort mode) and signal_env "
                "(policy mode) must be present",
                field="review_r",
            )
        if fixed:
            if self.curve is None:
                raise ValidationError(
                    "fixed-effort mode requires an error_curve block", field="error_curve"
                )
            if not (math.isfinite(self.review_r) and self.review_r >= 0.0):
                raise ValidationError(
                    f"review_r must be >= 0, got {self.review_r}", field="review_r"
                )
        elif self.curve is not None:
            raise ValidationError(
                "error_curve applies only to fixed-effort mode; policy mode "
                "derives escapes from the signal environment",
                field="error_curve",
            )

    @property
    def mode(self) -> str:
        return "fixed" if self.review_r is not None else "policy"


@contextmanager
def _scoped(path: str):
    """Prefix the config-file path to validation errors raised inside.

    This is the only place a path is qualified: the readers below and the
    model constructors name just the offending key.
    """
    try:
        yield
    except ValidationError as exc:
        where = f"{path}.{exc.field}" if exc.field else path
        raise ValidationError(f"{where}: {exc.args[0]}", field=where) from None


def _check_keys(block: dict, allowed: tuple[str, ...]):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}",
            field=unknown[0],
        )


def _block(doc: dict, key: str, required: bool) -> dict | None:
    if key not in doc:
        if required:
            raise ValidationError(f"missing required block {key!r}", field=key)
        return None
    value = doc[key]
    if not isinstance(value, dict):
        raise ValidationError(
            f"{key} must be a JSON object, got {type(value).__name__}", field=key
        )
    return value


def _number(block: dict, key: str, required: bool = True, default=None):
    if key not in block:
        if required:
            raise ValidationError(f"missing required key {key!r}", field=key)
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}", field=key)
    return float(value)


def _integer(block: dict, key: str, default: int) -> int:
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}", field=key)
    return value


def _string(block: dict, key: str, default: str) -> str:
    if key not in block:
        return default
    value = block[key]
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}", field=key)
    return value


def workflow_from_dict(doc) -> WorkflowSpec:
    """Validate a parsed JSON document into a WorkflowSpec."""
    if not isinstance(doc, dict):
        raise ValidationError(
            f"config must be a single JSON object, got {type(doc).__name__}", field="<top>"
        )
    _check_keys(
        doc,
        ("lambda", "capacity_C", "x", "c2_a", "manual", "error_curve", "rework",
         "review_r", "signal_env", "sim"),
    )

    lam = _number(doc, "lambda")
    capacity = _number(doc, "capacity_C")
    x = _number(doc, "x", required=False, default=1.0)
    c2_a = _number(doc, "c2_a", required=False, default=1.0)

    manual_block = _block(doc, "manual", required=True)
    with _scoped("manual"):
        _check_keys(manual_block, ("tau_H", "c2_H"))
        manual = ManualRoute(
            tau_H=_number(manual_block, "tau_H"),
            c2_H=_number(manual_block, "c2_H"),
        )

    rework_block = _block(doc, "rework", required=True)
    with _scoped("rework"):
        _check_keys(rework_block, ("mu_R", "mu_R2", "family"))
        rework = ReworkModel(
            mu_R=_number(rework_block, "mu_R"),
            mu_R2=_number(rework_block, "mu_R2"),
            family=_string(rework_block, "family", default="gamma"),
        )

    curve = None
    curve_block = _block(doc, "error_curve", required=False)
    if curve_block is not None:
        with _scoped("error_curve"):
            _check_keys(curve_block, ("p0", "p_inf", "kappa"))
            curve = ErrorCurve(
                p0=_number(curve_block, "p0"),
                p_inf=_number(curve_block, "p_inf", required=False, default=0.0),
                kappa=_number(curve_block, "kappa"),
            )

    review_r = None
    if "review_r" in doc:
        review_r = _number(doc, "review_r")

    env = None
    env_block = _block(doc, "signal_env", required=False)
    if env_block is not None:
        with _scoped("signal_env"):
            _check_keys(env_block, ("risk_map", "signal", "K", "kappa", "c_w", "p_inf"))
            risk_block = _block(env_block, "risk_map", required=True)
            signal_block = _block(env_block, "signal", required=True)
        with _scoped("signal_env.risk_map"):
            _check_keys(risk_block, ("a", "b", "g", "s0"))
            risk_map = RiskMap(
                a=_number(risk_block, "a"),
                b=_number(risk_block, "b"),
                g=_number(risk_block, "g"),
                s0=_number(risk_block, "s0"),
            )
        with _scoped("signal_env.signal"):
            _check_keys(signal_block, ("alpha", "beta"))
            signal_alpha = _number(signal_block, "alpha")
            signal_beta = _number(signal_block, "beta")
        with _scoped("signal_env"):
            env = SignalEnvironment(
                risk_map=risk_map,
                signal_alpha=signal_alpha,
                signal_beta=signal_beta,
                K=_number(env_block, "K"),
                kappa=_number(env_block, "kappa"),
                c_w=_number(env_block, "c_w"),
                p_inf=_number(env_block, "p_inf", required=False, default=0.0),
            )

    sim_block = _block(doc, "sim", required=False) or {}
    with _scoped("sim"):
        _check_keys(
            sim_block,
            ("seed", "n_arrivals", "warmup_fraction", "n_batches", "reps", "rework_mode"),
        )
        sim = SimSettings(
            seed=_integer(sim_block, "seed", default=0),
            n_arrivals=_integer(sim_block, "n_arrivals", default=1_000_000),
            warmup_fraction=_number(sim_block, "warmup_fraction", required=False, default=0.2),
            n_batches=_integer(sim_block, "n_batches", default=32),
            reps=_integer(sim_block, "reps", default=1),
            rework_mode=_string(sim_block, "rework_mode", default="folded"),
        )

    return WorkflowSpec(
        lam=lam,
        capacity=capacity,
        manual=manual,
        rework=rework,
        x=x,
        c2_a=c2_a,
        curve=curve,
        review_r=review_r,
        env=env,
        sim=sim,
    )


def load_config(path) -> WorkflowSpec:
    """Read, parse, and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}", field="<path>") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}",
            field="<json>",
        ) from None
    return workflow_from_dict(doc)


def fixture_path(name: str) -> Path:
    """Path of a packaged example config (e.g. ``fixture_path('fig4.json')``)."""
    return Path(__file__).parent / "fixtures" / name
