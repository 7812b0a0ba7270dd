"""Command-line interface.

    wedgeq <command> --config <path> [--out <path>] [--grid a:b:step]
           [--seed N] [--format json|csv]

Commands on fixed-effort configs: moments, wait, wedge, stabilize, sweep,
design, dist.  Commands on policy configs: equilibrium, review-curve.
simulate accepts both.  Exit codes: 0 success, 1 numerical failure
(a quadrature that did not converge, a failed self-check), 2 validation
error, 3 instability/infeasibility, 4 solver found no root.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import diagnostics, queueing
from ._report import render_csv, render_json, round_sig
from .config import MAX_SEED, WorkflowSpec, load_config, require_count
from .errors import StabilityError, ValidationError, WedgeqError
from .service_model import (
    ai_route_moments,
    mixed_moments,
    require_finite,
    residual_error,
    sample_ai,
    sample_manual,
)
from .simulator import SimConfig, replicate
from .verification import (
    effort_for_risk,
    irreducible_escape_rate,
    solve_equilibrium,
)


# Size limits: samples drawn per route by dist, and the rows of every table
# command (grid points times list values, or dist histogram bins).
MAX_DIST_SAMPLES = 10_000_000
MAX_TABLE_ROWS = 100_000


# ---------------------------------------------------------------------------
# argument helpers

def _parse_numbers(parts: list[str], text: str, name: str, sign: str | None) -> list[float]:
    """The numbers of a grid or list flag: each finite, and obeying sign if given."""
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise ValidationError(f"{name}: cannot parse {text!r} as numbers", field=name) from None
    for value in values:
        require_finite(value, name, sign)
    return values


def _require_unit_interval(values: list[float], name: str, closed: bool):
    """Each value within [0, 1], or [0, 1) when closed is False."""
    for value in values:
        if not (0.0 <= value <= 1.0 and (closed or value < 1.0)):
            interval = "[0, 1]" if closed else "[0, 1)"
            raise ValidationError(f"{name} values must lie in {interval}, got {value}", field=name)


def _require_rows(rows: int, name: str):
    if rows > MAX_TABLE_ROWS:
        raise ValidationError(
            f"{name}: the table would have {rows} rows, more than {MAX_TABLE_ROWS}", field=name
        )


def _parse_grid(text: str, name: str, sign: str | None = None) -> list[float]:
    """Parse 'value' or 'start:stop:step' into an inclusive increasing grid."""
    values = _parse_numbers(text.split(":"), text, name, sign)
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise ValidationError(
            f"{name} must be 'value' or 'start:stop:step', got {text!r}", field=name
        )
    start, stop, step = values
    if step <= 0.0:
        raise ValidationError(f"{name}: step must be > 0, got {step}", field=name)
    if stop < start:
        raise ValidationError(f"{name}: stop must be >= start, got {text!r}", field=name)
    # The 1e-9 keeps a stop that round-off puts just short of a step.
    last = (stop - start) / step + 1e-9
    if not last < MAX_TABLE_ROWS:  # also catches an infinite span
        raise ValidationError(
            f"{name}: {text!r} has more than {MAX_TABLE_ROWS} points", field=name
        )
    return [start + i * step for i in range(int(last) + 1)]


def _parse_list(text: str, name: str, sign: str | None = None) -> list[float]:
    parts = [part for part in text.split(",") if part.strip()]
    values = _parse_numbers(parts, text, name, sign)
    if not values:
        raise ValidationError(f"{name}: empty list", field=name)
    return values


def _emit_table(args, payload: dict, header, rows, comments=()) -> str:
    """A table command's report: payload plus rows as JSON, or CSV with comment lines."""
    if args.format == "json":
        return render_json({**payload, "rows": [dict(zip(header, row)) for row in rows]})
    return render_csv(header, rows, comments=comments)


def _inputs_block(spec: WorkflowSpec) -> dict:
    block = {
        "lambda": spec.lam,
        "capacity_C": spec.capacity,
        "x": spec.x,
        "c2_a": spec.c2_a,
        "mode": spec.mode,
    }
    if spec.mode == "fixed":
        block["review_r"] = spec.review_r
    return block


def _route_block(moments) -> dict:
    return {"mean": moments.mean, "m2": moments.m2, "c2": moments.c2}


def _fixed_routes(spec: WorkflowSpec):
    ai = ai_route_moments(spec.curve, spec.rework, spec.review_r)
    mixed = mixed_moments(spec.manual, ai, spec.x)
    return ai, mixed


# ---------------------------------------------------------------------------
# command handlers

def _handle_moments(spec: WorkflowSpec, args) -> str:
    ai, mixed = _fixed_routes(spec)
    queue: dict = {"rho": spec.lam * mixed.mean / spec.capacity}
    queue["stable"] = queueing.is_stable(spec.lam, mixed.mean, spec.capacity)
    if queue["stable"]:
        inputs = queueing.QueueInputs(
            lam=spec.lam, capacity=spec.capacity, service=mixed, c2_a=spec.c2_a
        )
        queue["wq_pk"] = queueing.wq_pk(inputs).wq
        queue["wq_kingman"] = queueing.wq_kingman(inputs).wq
    else:
        queue["wq_pk"] = None
        queue["wq_kingman"] = None
    payload = {
        "command": "moments",
        "inputs": _inputs_block(spec),
        "p_r": residual_error(spec.curve, spec.review_r),
        "routes": {
            "manual": _route_block(spec.manual.moments),
            "ai": _route_block(ai),
            "mixed": _route_block(mixed),
        },
        "queue": queue,
    }
    return render_json(payload)


def _handle_wait(spec: WorkflowSpec, args) -> str:
    ai, mixed = _fixed_routes(spec)
    waits = {}
    for name, moments in (("manual", spec.manual.moments), ("ai", ai), ("mixed", mixed)):
        inputs = queueing.QueueInputs(
            lam=spec.lam, capacity=spec.capacity, service=moments, c2_a=spec.c2_a
        )
        exact = queueing.wq_pk(inputs)
        approx = queueing.wq_kingman(inputs)
        waits[name] = {
            "rho": exact.rho,
            "wq_pk": exact.wq,
            "total_sojourn_pk": exact.total_sojourn,
            "wq_kingman": approx.wq,
        }
    payload = {
        "command": "wait",
        "inputs": _inputs_block(spec),
        "p_r": residual_error(spec.curve, spec.review_r),
        "routes": {
            "manual": _route_block(spec.manual.moments),
            "ai": _route_block(ai),
            "mixed": _route_block(mixed),
        },
        "waits": waits,
        "kingman_approximate": True,
    }
    return render_json(payload)


def _handle_wedge(spec: WorkflowSpec, args) -> str:
    ai, _ = _fixed_routes(spec)
    report = diagnostics.wedge_test(spec.manual, ai, spec.lam, spec.capacity)
    payload = {
        "command": "wedge",
        "inputs": _inputs_block(spec),
        "p_r": residual_error(spec.curve, spec.review_r),
        "routes": {"manual": _route_block(spec.manual.moments), "ai": _route_block(ai)},
        "wedge": asdict(report),
    }
    return render_json(payload)


def _handle_stabilize(spec: WorkflowSpec, args) -> str:
    ai, _ = _fixed_routes(spec)
    result = diagnostics.stabilization(spec.manual, ai, spec.lam, spec.capacity)
    payload = {
        "command": "stabilize",
        "inputs": _inputs_block(spec),
        "routes": {"manual": _route_block(spec.manual.moments), "ai": _route_block(ai)},
        "rho_manual": spec.lam * spec.manual.tau_H / spec.capacity,
        "rho_ai": spec.lam * ai.mean / spec.capacity,
        "x_c": result.x_c,
        "feasible": result.feasible,
        "rescue_ok": result.rescue_ok,
    }
    if result.feasible and result.x_c > 0.0:
        mix = mixed_moments(spec.manual, ai, result.x_c)
        payload["load_at_x_c"] = spec.lam * mix.mean / spec.capacity
    return render_json(payload)


def _handle_sweep(spec: WorkflowSpec, args) -> str:
    grid = _parse_grid(args.grid, "--grid", "> 0")
    ai, _ = _fixed_routes(spec)
    header = ["lambda", "w_manual", "w_ai", "rho_H", "rho_A", "stable_H", "stable_A"]
    routes = (spec.manual.moments, ai)
    rows = []
    for lam in grid:
        stable = [queueing.is_stable(lam, route.mean, spec.capacity) for route in routes]
        waits = [
            queueing.wq_pk(queueing.QueueInputs(lam=lam, capacity=spec.capacity, service=route)).wq
            if ok
            else None
            for route, ok in zip(routes, stable)
        ]
        loads = [lam * route.mean / spec.capacity for route in routes]
        rows.append([lam, *waits, *loads, *stable])
    return _emit_table(args, {"command": "sweep", "inputs": _inputs_block(spec)}, header, rows)


def _handle_design(spec: WorkflowSpec, args) -> str:
    s_grid = _parse_grid(args.grid, "--grid", "> 0")
    rho_list = _parse_list(args.rho_h, "--rho-h")
    _require_unit_interval(rho_list, "--rho-h", closed=False)
    _require_rows(len(s_grid) * len(rho_list), "--grid")
    header = ["s", "rho_H", "c2_a_max"]
    rows = []
    for rho_h in rho_list:
        for s in s_grid:
            try:
                budget = diagnostics.variance_budget(spec.manual.c2_H, s, rho_h)
            except StabilityError:
                budget = None  # AI route unstable at this (s, rho_H) cell
            rows.append([s, rho_h, budget])
    comments = (f"c2_H={round_sig(spec.manual.c2_H):.12g}",)
    payload = {"command": "design", "c2_H": spec.manual.c2_H}
    return _emit_table(args, payload, header, rows, comments)


def _handle_dist(spec: WorkflowSpec, args) -> str:
    n = args.n_samples
    require_count(n, "--n-samples", 1, MAX_DIST_SAMPLES)
    width = args.bin_width
    require_finite(width, "--bin-width", "> 0")
    seed = spec.sim.seed if args.seed is None else args.seed
    require_count(seed, "--seed", 0, MAX_SEED)
    rng_manual, rng_ai = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)
    )
    manual_samples = sample_manual(spec.manual, rng_manual, size=n)
    ai_samples, escaped = sample_ai(spec.curve, spec.rework, spec.review_r, rng_ai, size=n)

    top = float(max(manual_samples.max(), ai_samples.max()))
    span = top / width  # inf when the width underflows the division
    if not span < MAX_TABLE_ROWS:
        raise ValidationError(
            f"--bin-width {width} needs more than {MAX_TABLE_ROWS} bins to cover the "
            f"largest sample ({top:.6g}); use a wider bin",
            field="--bin-width",
        )
    n_bins = max(1, math.ceil(span + 1e-12))
    edges = np.arange(n_bins + 1) * width
    manual_counts, _ = np.histogram(manual_samples, bins=edges)
    ai_counts, _ = np.histogram(ai_samples, bins=edges)

    def _moments(samples) -> tuple[float, float, float]:
        mean = float(samples.mean())
        m2 = float((samples**2).mean())
        c2 = m2 / mean**2 - 1.0 if mean > 0 else 0.0
        return mean, m2, c2

    m_mean, m_m2, m_c2 = _moments(manual_samples)
    a_mean, a_m2, a_c2 = _moments(ai_samples)
    moments = {
        "n_samples": n,
        "bin_width": width,
        "seed": seed,
        "manual_mean": m_mean,
        "manual_m2": m_m2,
        "manual_c2": m_c2,
        "ai_mean": a_mean,
        "ai_m2": a_m2,
        "ai_c2": a_c2,
        "escape_rate": float(escaped.mean()),
    }
    header = ["bin_lo", "bin_hi", "manual_count", "manual_density", "ai_count", "ai_density"]
    rows = []
    scale = 1.0 / (n * width)
    for i in range(n_bins):
        rows.append(
            [
                float(edges[i]),
                float(edges[i + 1]),
                int(manual_counts[i]),
                manual_counts[i] * scale,
                int(ai_counts[i]),
                ai_counts[i] * scale,
            ]
        )
    comments = tuple(f"{key}={format(value, '.12g') if isinstance(value, float) else value}"
                     for key, value in moments.items())
    return _emit_table(args, {"command": "dist", "moments": moments}, header, rows, comments)


def _handle_equilibrium(spec: WorkflowSpec, args) -> str:
    solution = solve_equilibrium(spec.env, spec.rework, spec.lam, spec.capacity)
    payload = {
        "command": "equilibrium",
        "inputs": _inputs_block(spec),
        "environment": {
            "K": spec.env.K,
            "kappa": spec.env.kappa,
            "c_w": spec.env.c_w,
            "p_inf": spec.env.p_inf,
            "signal_alpha": spec.env.signal_alpha,
            "signal_beta": spec.env.signal_beta,
        },
        "theta_lo": solution.theta_lo,
        "theta_hi": solution.theta_hi,
        "n_roots": len(solution.roots),
        "primary": asdict(solution.primary),
        "roots": [asdict(root) for root in solution.roots],
        "irreducible_escape_rate": irreducible_escape_rate(spec.env),
    }
    return render_json(payload)


def _handle_review_curve(spec: WorkflowSpec, args) -> str:
    pi_grid = _parse_grid(args.grid, "--grid")
    _require_unit_interval(pi_grid, "--grid", closed=True)
    thetas = _parse_list(args.theta_list, "--theta-list", "> 0")
    _require_rows(len(pi_grid) * len(thetas), "--grid")
    header = ["pi", "theta", "r_star"]
    rows = []
    for theta in thetas:
        efforts = effort_for_risk(spec.env, theta, pi_grid).tolist()
        rows.extend([pi, theta, effort] for pi, effort in zip(pi_grid, efforts))
    comments = (
        f"K={format(spec.env.K, '.12g')}",
        f"kappa={format(spec.env.kappa, '.12g')}",
        f"p_inf={format(spec.env.p_inf, '.12g')}",
    )
    return _emit_table(args, {"command": "review-curve"}, header, rows, comments)


def _handle_simulate(spec: WorkflowSpec, args) -> str:
    if args.seed is not None:
        require_count(args.seed, "--seed", 0, MAX_SEED)
    config = SimConfig.from_workflow(spec, seed=args.seed)
    stats = replicate(config)

    if spec.mode == "fixed":
        ai, mixed = _fixed_routes(spec)
    else:
        from .verification import policy_route_moments

        ai = policy_route_moments(spec.env, stats.theta_star, spec.rework)
        mixed = mixed_moments(spec.manual, ai, spec.x)

    analytic: dict = {"rho": spec.lam * mixed.mean / spec.capacity}
    analytic["stable"] = queueing.is_stable(spec.lam, mixed.mean, spec.capacity)
    deltas = {}
    if analytic["stable"]:
        inputs = queueing.QueueInputs(
            lam=spec.lam, capacity=spec.capacity, service=mixed, c2_a=spec.c2_a
        )
        analytic["wq_pk"] = queueing.wq_pk(inputs).wq
        analytic["wq_kingman"] = queueing.wq_kingman(inputs).wq
        analytic["service_mean"] = mixed.mean
        analytic["service_m2"] = mixed.m2
        if stats.wq_ci_half_width > 0.0:
            deltas = {
                "wq_pk": (stats.wq_mean - analytic["wq_pk"]) / stats.wq_ci_half_width,
                "wq_kingman": (stats.wq_mean - analytic["wq_kingman"])
                / stats.wq_ci_half_width,
            }
    payload = {
        "command": "simulate",
        "inputs": _inputs_block(spec),
        "settings": {
            "seed": config.seed,
            "n_arrivals": config.n_arrivals,
            "warmup_fraction": config.warmup_fraction,
            "n_batches": config.n_batches,
            "reps": config.reps,
            "rework_mode": config.rework_mode,
            "arrival_family": config.arrival_family,
        },
        "sim": asdict(stats),
        "analytic": analytic,
        "delta_ci_units": deltas,
    }
    return render_json(payload)


# ---------------------------------------------------------------------------
# parser

# The argument an argparse error message names: "argument --seed: ...",
# "... are required: --config, ..." or "unrecognized arguments: --bogus ...".
_NAMED_ARGUMENT = re.compile(
    r"argument (\S+):|the following arguments are required: ([^,\s]+)"
    r"|unrecognized arguments: (\S+)"
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are ValidationErrors, reported as JSON."""

    def error(self, message):
        match = _NAMED_ARGUMENT.match(message)
        field = next(filter(None, match.groups())) if match else "<argv>"
        raise ValidationError(message, field=field)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wedgeq",
        description="Queueing analytics and simulation for AI-assisted workflows with rework.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, mode: str | None, formats=("json",)):
        """Register a command; mode is the config mode it requires (None: either)."""
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON workflow config")
        cmd.add_argument("--out", help="write the report to this file instead of stdout")
        cmd.add_argument(
            "--format", choices=list(formats), default=formats[0], help="output format"
        )
        cmd.set_defaults(handler=handler, mode=mode)
        return cmd

    add("moments", _handle_moments, "route moments, escape probability, offered load", "fixed")
    add(
        "wait", _handle_wait, "mean waits per route (exact and heavy-traffic approximations)",
        "fixed",
    )
    add("wedge", _handle_wedge, "variance-wedge test with budget, crossing rate, direction", "fixed")
    add("stabilize", _handle_stabilize, "minimum AI share restoring stability", "fixed")

    sweep = add("sweep", _handle_sweep, "waits vs arrival rate", "fixed", formats=("csv", "json"))
    sweep.add_argument("--grid", required=True, help="lambda grid 'a:b:step' or single value")

    design = add(
        "design", _handle_design, "admissible AI variability budget table", "fixed",
        formats=("csv", "json"),
    )
    design.add_argument(
        "--grid", default="0.5:1.0:0.025", help="savings-ratio grid (default %(default)s)"
    )
    design.add_argument(
        "--rho-h", default="0.2,0.4,0.6,0.8", help="comma list of manual utilizations"
    )

    dist = add(
        "dist", _handle_dist, "service-time histograms and sample moments", "fixed",
        formats=("csv", "json"),
    )
    dist.add_argument("--n-samples", type=int, default=100_000)
    dist.add_argument("--bin-width", type=float, default=0.05)
    dist.add_argument("--seed", type=int, default=None, help="override the config's sim.seed")

    add("equilibrium", _handle_equilibrium, "solve the review-price fixed point", "policy")

    curve = add(
        "review-curve",
        _handle_review_curve,
        "optimal review effort vs perceived risk",
        "policy",
        formats=("csv", "json"),
    )
    curve.add_argument("--grid", default="0.01:1.0:0.01", help="risk grid (default %(default)s)")
    curve.add_argument("--theta-list", default="0.2,0.5,1,2", help="comma list of prices")

    sim = add(
        "simulate", _handle_simulate, "run the event simulation against the analytics", None
    )
    sim.add_argument("--seed", type=int, default=None, help="override the config's sim.seed")

    return parser


def _write_report(path: str, text: str):
    """Write the report to a temp file beside path, then rename it over path.

    A failed write leaves path as it was and removes the temp file.
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        handle = open(temp, "x", encoding="utf-8", newline="")
        try:
            with handle:
                handle.write(text)
            os.replace(temp, path)
        except OSError:
            os.remove(temp)
            raise
    except OSError as exc:
        raise ValidationError(
            f"cannot write --out {path!r}: {exc.strerror or exc}", field="--out"
        ) from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        spec = load_config(args.config)
        if args.mode is not None and spec.mode != args.mode:
            want = "review_r (fixed-effort)" if args.mode == "fixed" else "signal_env (policy)"
            raise ValidationError(f"{args.command} requires a {want} config", field="review_r")
        text = args.handler(spec, args)
        if args.out:
            _write_report(args.out, text)
        else:
            sys.stdout.write(text)
    except WedgeqError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        for extra in ("rho", "error_estimate", "field"):
            value = getattr(exc, extra, None)
            if isinstance(value, float):
                payload[extra] = round_sig(value)
            elif isinstance(value, str):
                payload[extra] = value
        sys.stderr.write(render_json(payload))
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
