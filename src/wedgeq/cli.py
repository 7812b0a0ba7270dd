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
import functools
import math
import os
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from . import diagnostics, queueing
from ._report import render_csv, render_json
from .config import MAX_SEED, SimSettings, WorkflowSpec, load_config, require_count
from .errors import StabilityError, ValidationError, WedgeqError
from .service_model import (
    mixed_moments,
    require_finite,
    residual_error,
    sample_ai,
    sample_manual,
)
from .simulator import CI_LEVEL, SimConfig, replicate, route_moments
from .verification import effort_for_risk, irreducible_escape_rate, solve_equilibrium


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
    """A table command's report: payload plus rows as JSON, or CSV with a comment line
    per (key, value) pair of comments."""
    if args.format == "json":
        return render_json(payload, table=(header, rows))
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


def _header(command: str, spec: WorkflowSpec, ai, mixed=None, p_r: bool = True) -> dict:
    """The command, inputs, p_r and routes blocks that open a fixed-effort report."""
    payload = {"command": command, "inputs": _inputs_block(spec)}
    if p_r:
        payload["p_r"] = residual_error(spec.curve, spec.review_r)
    routes = {"manual": spec.manual.moments, "ai": ai, "mixed": mixed}
    payload["routes"] = {
        name: {"mean": moments.mean, "m2": moments.m2, "c2": moments.c2}
        for name, moments in routes.items()
        if moments is not None
    }
    return payload


def _queue_block(spec: WorkflowSpec, mixed) -> dict:
    """Offered load and stability of the mixed route, and its P-K and Kingman waits if stable."""
    block = {
        "rho": spec.lam * mixed.mean / spec.capacity,
        "stable": queueing.is_stable(spec.lam, mixed.mean, spec.capacity),
    }
    if block["stable"]:
        inputs = queueing.QueueInputs(
            lam=spec.lam, capacity=spec.capacity, service=mixed, c2_a=spec.c2_a
        )
        block["wq_pk"] = queueing.wq_pk(inputs).wq
        block["wq_kingman"] = queueing.wq_kingman(inputs).wq
    return block


# ---------------------------------------------------------------------------
# command handlers

def _handle_moments(spec: WorkflowSpec, args) -> str:
    _, ai, mixed = route_moments(spec)
    queue = _queue_block(spec, mixed)
    queue.setdefault("wq_pk", None)
    queue.setdefault("wq_kingman", None)
    return render_json({**_header("moments", spec, ai, mixed), "queue": queue})


def _handle_wait(spec: WorkflowSpec, args) -> str:
    _, ai, mixed = route_moments(spec)
    payload = _header("wait", spec, ai, mixed)
    waits = payload["waits"] = {}
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
    payload["kingman_approximate"] = True
    return render_json(payload)


def _handle_wedge(spec: WorkflowSpec, args) -> str:
    _, ai, _ = route_moments(spec)
    report = diagnostics.wedge_test(spec.manual, ai, spec.lam, spec.capacity)
    return render_json({**_header("wedge", spec, ai), "wedge": asdict(report)})


def _handle_stabilize(spec: WorkflowSpec, args) -> str:
    _, ai, _ = route_moments(spec)
    result = diagnostics.stabilization(spec.manual, ai, spec.lam, spec.capacity)
    payload = _header("stabilize", spec, ai, p_r=False)
    payload.update(
        rho_manual=spec.lam * spec.manual.tau_H / spec.capacity,
        rho_ai=spec.lam * ai.mean / spec.capacity,
        x_c=result.x_c,
        feasible=result.feasible,
        rescue_ok=result.rescue_ok,
    )
    if result.feasible and result.x_c > 0.0:
        mix = mixed_moments(spec.manual, ai, result.x_c)
        payload["load_at_x_c"] = spec.lam * mix.mean / spec.capacity
    return render_json(payload)


def _handle_sweep(spec: WorkflowSpec, args) -> str:
    grid = _parse_grid(args.grid, "--grid", "> 0")
    _, ai, _ = route_moments(spec)
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
    payload = {"command": "design", "c2_H": spec.manual.c2_H}
    return _emit_table(args, payload, header, rows, (("c2_H", spec.manual.c2_H),))


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
    n_bins = max(1, math.ceil(span + 1e-12)) if span < MAX_TABLE_ROWS else MAX_TABLE_ROWS + 1
    if n_bins * width < top:  # the 1e-12 is lost once the span is about 4500 or more
        n_bins += 1
    if n_bins > MAX_TABLE_ROWS:
        raise ValidationError(
            f"--bin-width {width} needs more than {MAX_TABLE_ROWS} bins to cover the "
            f"largest sample ({top:.6g}); use a wider bin",
            field="--bin-width",
        )
    edges = np.arange(n_bins + 1) * width
    manual_counts, _ = np.histogram(manual_samples, bins=edges)
    # A caught draft takes exactly review_r, so only the escaped ones are
    # binned and the caught count is added to review_r's bin.  Counts add
    # over disjoint samples, so numpy's edge rules still decide every bin.
    escaped_samples = ai_samples[np.flatnonzero(escaped)]  # faster than a mask gather
    escapes = escaped_samples.size
    ai_counts, _ = np.histogram(escaped_samples, bins=edges)
    if escapes < n:
        review_bin, _ = np.histogram([float(spec.review_r)], bins=edges)
        ai_counts += (n - escapes) * review_bin

    def _moments(samples) -> tuple[float, float, float]:
        mean = float(samples.mean())
        if not mean > 0:
            return mean, 0.0, 0.0
        # Scaled first: the square of a sample below about 1e-162 underflows.
        # In place: the samples are not read again once binned.
        scaled = np.divide(samples, mean, out=samples)
        r2 = float(np.square(scaled, out=scaled).mean())
        return mean, r2 * mean * mean, r2 - 1.0

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
        "escape_rate": escapes / n,
    }
    header = ["bin_lo", "bin_hi", "manual_count", "manual_density", "ai_count", "ai_density"]
    scale = 1.0 / (n * width)
    bounds = edges.tolist()
    rows = list(zip(
        bounds[:-1],
        bounds[1:],
        manual_counts.tolist(),
        (manual_counts * scale).tolist(),
        ai_counts.tolist(),
        (ai_counts * scale).tolist(),
    ))
    payload = {"command": "dist", "moments": moments}
    return _emit_table(args, payload, header, rows, moments.items())


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
    comments = (("K", spec.env.K), ("kappa", spec.env.kappa), ("p_inf", spec.env.p_inf))
    return _emit_table(args, {"command": "review-curve"}, header, rows, comments)


def _handle_simulate(spec: WorkflowSpec, args) -> str:
    if args.seed is not None:
        require_count(args.seed, "--seed", 0, MAX_SEED)
    config = SimConfig.from_workflow(spec, seed=args.seed)
    stats = replicate(config)
    mixed = config.mixed
    analytic = _queue_block(spec, mixed)
    deltas = {}
    if analytic["stable"]:
        analytic["service_mean"] = mixed.mean
        analytic["service_m2"] = mixed.m2
        # P-K and Kingman model the folded queue; a feedback run is another queue.
        if config.rework_mode == "folded" and stats.wq_ci_half_width > 0.0:
            deltas = {
                "wq_pk": (stats.wq_mean - analytic["wq_pk"]) / stats.wq_ci_half_width,
                "wq_kingman": (stats.wq_mean - analytic["wq_kingman"])
                / stats.wq_ci_half_width,
            }
    if config.theta_star is not None:
        analytic["theta_star"] = config.theta_star
    payload = {
        "command": "simulate",
        "inputs": _inputs_block(spec),
        "settings": {
            **{setting.name: getattr(config, setting.name) for setting in fields(SimSettings)},
            "arrival_family": config.arrival_family,
            "ci_level": CI_LEVEL,
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first main() call and reused after.

    Parsing keeps no state on the parser: each parse_args call fills a new
    namespace, so one tree serves every main() call in a process.
    """
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
            if isinstance(value, (float, str)):
                payload[extra] = value
        sys.stderr.write(render_json(payload))
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
