"""Workflow configuration: one strict JSON document per analysis.

Top-level schema (see docs/config.md for units and defaults):

    lambda        required  arrival rate, tasks/hour, > 0
    capacity_C    required  server capacity, attention-hours/hour, > 0
    x             optional  AI routing fraction in [0, 1]
    c2_a          optional  interarrival squared CV (1 is Poisson)
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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

from .errors import ValidationError
from .service_model import ErrorCurve, ManualRoute, ReworkModel, require_finite
from .verification import RiskMap, SignalEnvironment

_REWORK_MODES = ("folded", "feedback")

# Upper bounds on the simulation sizes, checked before anything is allocated.
# A folded run keeps about 40 bytes per arrival (feedback about 60), so the
# arrival cap is a few GB; the batch and replication caps also bound the
# degrees of freedom of the Student-t interval (at most MAX_BATCHES - 1).
MAX_ARRIVALS = 100_000_000
MAX_BATCHES = 10_000
MAX_REPS = 1_000
MAX_SEED = 2**64 - 1


def require_count(value, name: str, low: int, high: int):
    """Raise unless value is an integer in [low, high] (booleans are not counts)."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValidationError(
            f"{name} must be an integer in [{low}, {high}], got {value!r}", field=name
        )


@dataclass(frozen=True)
class SimSettings:
    """The sim block: its keys, defaults and checks (SimConfig extends it)."""

    seed: int = 0
    n_arrivals: int = 1_000_000
    warmup_fraction: float = 0.2
    n_batches: int = 32
    reps: int = 1
    rework_mode: str = "folded"

    def __post_init__(self):
        require_count(self.seed, "seed", 0, MAX_SEED)
        require_count(self.n_batches, "n_batches", 2, MAX_BATCHES)
        # Every batch mean averages at least 100 waits.
        require_count(self.n_arrivals, "n_arrivals", 100 * self.n_batches, MAX_ARRIVALS)
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise ValidationError(
                f"warmup_fraction must lie in [0, 0.5], got {self.warmup_fraction}",
                field="warmup_fraction",
            )
        require_count(self.reps, "reps", 1, MAX_REPS)
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
        require_finite(self.lam, "lambda", "> 0")
        require_finite(self.capacity, "capacity_C", "> 0")
        if not 0.0 <= self.x <= 1.0:
            raise ValidationError(f"x must lie in [0, 1], got {self.x}", field="x")
        require_finite(self.c2_a, "c2_a", ">= 0")
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
            require_finite(self.review_r, "review_r", ">= 0")
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


def _block(doc: dict, key: str) -> dict:
    if key not in doc:
        raise ValidationError(f"missing required block {key!r}", field=key)
    value = doc[key]
    if not isinstance(value, dict):
        raise ValidationError(
            f"{key} must be a JSON object, got {type(value).__name__}", field=key
        )
    return value


# JSON type checks by Python type: its name in errors and the types it accepts.
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int), str: ("a string", str)}


def _typed(block: dict, key: str, kind: type = float):
    """block[key] checked against kind.

    float accepts any JSON number and returns it as a float (booleans are not
    numbers); int and str must match exactly.
    """
    value = block[key]
    noun, accepted = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"{key} must be {noun}, got {value!r}", field=key)
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ValidationError(f"{key} is too large: it overflows a float", field=key) from None


def _number(block: dict, key: str) -> float:
    if key not in block:
        raise ValidationError(f"missing required key {key!r}", field=key)
    return _typed(block, key)


def _present(block: dict, keys: tuple[str, ...]) -> dict:
    """The optional keys that block sets, typed as numbers; absent ones keep their defaults."""
    return {key: _typed(block, key) for key in keys if key in block}


@lru_cache(maxsize=None)
def _schema(cls) -> dict[str, type | None]:
    """Init field -> JSON type of its default, or None for a required number."""
    return {
        f.name: None if f.default is MISSING else type(f.default) for f in fields(cls) if f.init
    }


def _from_block(cls, block: dict):
    """Build a model dataclass from a JSON block whose keys are its init fields.

    The dataclass states the keys, which of them are optional (a field with a
    default), the defaults and the range checks; this only checks JSON types.
    """
    schema = _schema(cls)
    _check_keys(block, tuple(schema))
    kwargs = {}
    for key, kind in schema.items():
        if kind is None:
            kwargs[key] = _number(block, key)
        elif key in block:
            kwargs[key] = _typed(block, key, kind)
    return cls(**kwargs)


def _model_block(doc: dict, key: str, cls):
    """The dataclass cls read from the block doc[key], its errors under key."""
    block = _block(doc, key)
    with _scoped(key):
        return _from_block(cls, block)


def workflow_from_dict(doc) -> WorkflowSpec:
    """Validate a parsed JSON document into a WorkflowSpec.

    Optional keys and blocks are passed on only when present, so the
    dataclasses supply every default.
    """
    if not isinstance(doc, dict):
        raise ValidationError(
            f"config must be a single JSON object, got {type(doc).__name__}", field="<top>"
        )
    _check_keys(
        doc,
        ("lambda", "capacity_C", "x", "c2_a", "manual", "error_curve", "rework",
         "review_r", "signal_env", "sim"),
    )

    spec = {"lam": _number(doc, "lambda"), "capacity": _number(doc, "capacity_C")}
    spec.update(_present(doc, ("x", "c2_a")))
    spec["manual"] = _model_block(doc, "manual", ManualRoute)
    spec["rework"] = _model_block(doc, "rework", ReworkModel)
    if "error_curve" in doc:
        spec["curve"] = _model_block(doc, "error_curve", ErrorCurve)
    spec.update(_present(doc, ("review_r",)))

    if "signal_env" in doc:
        env_block = _block(doc, "signal_env")
        with _scoped("signal_env"):
            _check_keys(env_block, ("risk_map", "signal", "K", "kappa", "c_w", "p_inf"))
            risk_block = _block(env_block, "risk_map")
            signal_block = _block(env_block, "signal")
        with _scoped("signal_env.risk_map"):
            risk_map = _from_block(RiskMap, risk_block)
        with _scoped("signal_env.signal"):
            _check_keys(signal_block, ("alpha", "beta"))
            signal_alpha = _number(signal_block, "alpha")
            signal_beta = _number(signal_block, "beta")
        with _scoped("signal_env"):
            spec["env"] = SignalEnvironment(
                risk_map=risk_map,
                signal_alpha=signal_alpha,
                signal_beta=signal_beta,
                K=_number(env_block, "K"),
                kappa=_number(env_block, "kappa"),
                c_w=_number(env_block, "c_w"),
                **_present(env_block, ("p_inf",)),
            )

    if "sim" in doc:
        spec["sim"] = _model_block(doc, "sim", SimSettings)
    return WorkflowSpec(**spec)


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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValidationError(f"cannot parse config: {exc}", field="<json>") from None
    return workflow_from_dict(doc)


def fixture_path(name: str) -> Path:
    """Path of a packaged example config (e.g. ``fixture_path('fig4.json')``)."""
    return Path(__file__).parent / "fixtures" / name
