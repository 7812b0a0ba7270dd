"""End-to-end acceptance checks with pinned tolerances.

Each criterion records exactly one PASS/FAIL summary line; the terminal
hook in conftest.py prints the scoreboard after the run (file-descriptor
capture would swallow direct prints).  Failures also surface as ordinary
assertion errors with details.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import wedgeq
from wedgeq import (
    FULL_AI,
    FULL_MANUAL,
    INDIFFERENT,
    ErrorCurve,
    ManualRoute,
    QueueInputs,
    ReworkModel,
    RiskMap,
    RouteMoments,
    SignalEnvironment,
    SimConfig,
    WorkflowSpec,
    ai_route_moments,
    bang_bang,
    fixture_path,
    lambda_star,
    mixed_moments,
    residual_risk,
    review_effort,
    run,
    sample_ai,
    solve_equilibrium,
    stabilization,
    threshold_signal,
    variance_budget,
    wq_pk,
)
from wedgeq.cli import main

MANUAL = ManualRoute(tau_H=1.0, c2_H=0.10)
AI = RouteMoments(mean=0.85, m2=1.625625)
RISK = RiskMap(a=0.02, b=0.88, g=10.0, s0=0.55)
REWORK = ReworkModel(mu_R=1.5, mu_R2=4.0)


SCOREBOARD: list[str] = []


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:>2}  {name:<44} {status}"
    if detail:
        line += f"  [{detail}]"
    SCOREBOARD.append(line)


def _env(alpha, beta):
    return SignalEnvironment(
        risk_map=RISK, signal_alpha=alpha, signal_beta=beta,
        K=2.0, kappa=2.0, c_w=0.5,
    )


def _wq(lam, service, capacity=1.0):
    return wq_pk(QueueInputs(lam=lam, capacity=capacity, service=service)).wq


def test_criterion_01_crossing_rate_and_sweep_bracket(tmp_path):
    star = lambda_star(MANUAL, AI, 1.0)
    value_ok = abs(star - 0.76110) <= 0.0005

    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(fixture_path("fig4.json")),
        "--grid", "0.758:0.765:0.001", "--format", "csv", "--out", str(out),
    ])
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    bracket = None
    for low, high in zip(rows, rows[1:]):
        gap_low = float(low[2]) - float(low[1])
        gap_high = float(high[2]) - float(high[1])
        if (gap_low > 0) != (gap_high > 0):
            bracket = (float(low[0]), float(high[0]))
    bracket_ok = code == 0 and bracket is not None and bracket[0] < star < bracket[1]

    ok = value_ok and bracket_ok
    _report(1, "crossing rate and sweep bracket", ok,
            f"lambda*={star:.6f}, flip in {bracket}")
    assert value_ok, f"lambda* = {star!r} not within 0.76110 +/- 0.0005"
    assert bracket_ok, f"sweep flip bracket {bracket} does not straddle {star!r}"


def _check_equilibrium(number, name, alpha, targets, budget_s):
    start = time.perf_counter()
    solution = solve_equilibrium(_env(alpha, 2.0), REWORK, 0.75, 1.0)
    elapsed = time.perf_counter() - start
    eq = solution.primary
    got = (eq.theta_star, eq.pi_star, eq.tau_A, eq.q_A, eq.rho, eq.wq)
    errors = [abs(g - t) / t for g, t in zip(got, targets)]
    values_ok = max(errors) <= 0.005
    time_ok = elapsed < budget_s
    _report(number, name, values_ok and time_ok,
            f"max rel err {max(errors):.2e}, {elapsed:.2f}s")
    assert values_ok, f"sextuple {got} vs targets {targets}: rel errors {errors}"
    assert time_ok, f"took {elapsed:.2f}s (budget {budget_s}s)"


def test_criterion_02_equilibrium_symmetric_signal():
    _check_equilibrium(
        2, "equilibrium, Beta(2,2) signal", 2.0,
        (0.426, 0.106, 0.671, 0.995, 0.503, 0.751), budget_s=5.0,
    )


def test_criterion_03_equilibrium_skewed_signal():
    _check_equilibrium(
        3, "equilibrium, Beta(5,2) signal", 5.0,
        (1.316, 0.329, 0.831, 1.770, 0.623, 1.762), budget_s=5.0,
    )


def test_criterion_04_route_moments_analytic_and_sampled():
    start = time.perf_counter()
    curve = ErrorCurve(p0=0.15, p_inf=0.15, kappa=2.0)
    rework = ReworkModel(mu_R=7.0 / 3.0, mu_R2=6.8375)
    ai = ai_route_moments(curve, rework, 0.5)
    exact_ok = (
        abs(ai.mean - 0.85) <= 1e-12 * 0.85
        and abs(ai.c2 - 1.25) <= 1e-12 * 1.25
    )

    rng = np.random.default_rng(20260813)
    times, _ = sample_ai(curve, rework, 0.5, rng, size=1_000_000)
    mean_hat = float(times.mean())
    c2_hat = float(times.var() / mean_hat**2)
    sample_ok = abs(mean_hat - 0.85) <= 0.01 * 0.85 and abs(c2_hat - 1.25) <= 0.03 * 1.25
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 10.0

    ok = exact_ok and sample_ok and time_ok
    _report(4, "AI route moments, analytic + 1e6 samples", ok,
            f"tau={ai.mean!r}, c2={ai.c2!r}, hat=({mean_hat:.4f}, {c2_hat:.4f}), {elapsed:.1f}s")
    assert exact_ok, f"analytic moments ({ai.mean!r}, {ai.c2!r}) not exact"
    assert sample_ok, f"sampled ({mean_hat}, {c2_hat}) outside 1%/3% of (0.85, 1.25)"
    assert time_ok, f"took {elapsed:.2f}s (budget 10s)"


def test_criterion_05_variance_budget_boundary():
    rho_grid = (0.2, 0.4, 0.6, 0.8)
    exact_ok = all(variance_budget(0.10, 1.0, rho) == 0.10 for rho in rho_grid)

    worst = 0.0
    for s in np.linspace(0.5, 0.95, 5):
        for rho in rho_grid:
            budget = variance_budget(0.10, float(s), rho)
            ai = RouteMoments(mean=s, m2=s * s * (1.0 + budget))
            w_h = _wq(rho, MANUAL.moments)
            w_a = _wq(rho, ai)
            worst = max(worst, abs(w_a - w_h) / w_h)
    boundary_ok = worst < 1e-9

    ok = exact_ok and boundary_ok
    _report(5, "variance budget boundary reconstruction", ok,
            f"s=1 exact, max |W_A-W_H|/W_H = {worst:.2e} on 20 points")
    assert exact_ok, "budget at s=1 is not exactly c2_H"
    assert boundary_ok, f"boundary reconstruction off by {worst:.3e}"


def test_criterion_06_simulator_coverage():
    start = time.perf_counter()
    curve = ErrorCurve(p0=0.15, p_inf=0.15, kappa=2.0)
    rework = ReworkModel(mu_R=2.0, mu_R2=6.0)

    def _run_case(rho, c2_s, seed):
        workflow = WorkflowSpec(
            lam=rho, capacity=1.0,
            manual=ManualRoute(tau_H=1.0, c2_H=c2_s),
            rework=rework, x=0.0, curve=curve, review_r=0.5,
        )
        stats = run(SimConfig(workflow=workflow, n_arrivals=400_000, seed=seed))
        target = _wq(rho, workflow.manual.moments)
        return abs(stats.wq_mean - target) <= stats.wq_ci_half_width

    rng = np.random.default_rng(64221)
    hits = 0
    for i in range(20):
        rho = float(rng.uniform(0.3, 0.9))
        c2_s = float(rng.uniform(0.05, 3.0))
        hits += _run_case(rho, c2_s, seed=1000 + i)

    # Poisson arrivals on an exponential unit-mean server: wq = rho/(mu-lam).
    mm1_ok = _run_case(0.5, 1.0, seed=77)
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 180.0

    ok = hits >= 18 and mm1_ok and time_ok
    _report(6, "simulated waits cover exact means", ok,
            f"{hits}/20 in 99% CI, M/M/1 {'in' if mm1_ok else 'OUT OF'} CI, {elapsed:.1f}s")
    assert hits >= 18, f"only {hits}/20 random configs covered the exact wait"
    assert mm1_ok, "M/M/1 special case missed its confidence interval"
    assert time_ok, f"took {elapsed:.1f}s (budget 180s)"


def test_criterion_07_mixing_monotonicity():
    rng = np.random.default_rng(7351)
    x_grid = np.linspace(0.0, 1.0, 11)
    failures = []
    for i in range(50):
        tau_h = float(rng.uniform(0.5, 1.5))
        c2_h = float(rng.uniform(0.0, 2.0))
        tau_a = float(rng.uniform(0.3, 1.2)) * tau_h
        c2_a = float(rng.uniform(0.0, 4.0))
        manual = ManualRoute(tau_H=tau_h, c2_H=c2_h)
        ai = RouteMoments(mean=tau_a, m2=tau_a**2 * (1.0 + c2_a))
        lam = float(rng.uniform(0.05, 0.95)) / max(tau_h, tau_a)

        q_h, q_a = manual.q_H, ai.m2
        numerator = (q_a - q_h) + lam * (q_h * tau_a - q_a * tau_h)
        direction = bang_bang(manual, ai, lam, 1.0)
        waits = np.array([_wq(lam, mixed_moments(manual, ai, float(x))) for x in x_grid])
        diffs = np.diff(waits)
        tol = 1e-12 * max(1.0, float(np.abs(waits).max()))

        if abs(numerator) <= 1e-12:
            case_ok = direction == INDIFFERENT and np.all(np.abs(diffs) <= 1e-9)
        elif numerator < 0.0:
            case_ok = direction == FULL_AI and np.all(diffs <= tol)
        else:
            case_ok = direction == FULL_MANUAL and np.all(diffs >= -tol)
        if not case_ok:
            failures.append((i, lam, tau_h, c2_h, tau_a, c2_a, direction))

    ok = not failures
    _report(7, "wait is monotone in the AI share", ok,
            f"{50 - len(failures)}/50 calibrations monotone with matching sign")
    assert ok, f"non-monotone or mislabeled cases: {failures}"


def test_criterion_08_stabilizing_share():
    ai_fast = RouteMoments(mean=0.8, m2=1.0)
    result = stabilization(MANUAL, ai_fast, 1.1, 1.0)
    x_exact = abs(result.x_c - 5.0 / 11.0) <= 1e-12 * (5.0 / 11.0)
    above = 1.1 * mixed_moments(MANUAL, ai_fast, result.x_c + 1e-6).mean
    below = 1.1 * mixed_moments(MANUAL, ai_fast, result.x_c - 1e-6).mean
    straddle = above < 1.0 < below

    hopeless = stabilization(MANUAL, AI, 1.2, 1.0)
    infeasible_ok = hopeless.x_c is None and not hopeless.feasible

    ok = x_exact and straddle and infeasible_ok
    _report(8, "stabilizing AI share", ok,
            f"x_c={result.x_c:.12f}, load straddle ({above:.8f}, {below:.8f})")
    assert x_exact, f"x_c = {result.x_c!r}, want 5/11"
    assert straddle, f"loads at x_c +/- 1e-6: {above!r}, {below!r} do not straddle 1"
    assert infeasible_ok, "overload with tau_A=0.85 at lam=1.2 must be infeasible"


def test_criterion_09_review_policy_identities():
    env = SignalEnvironment(
        risk_map=RISK, signal_alpha=2.0, signal_beta=2.0,
        K=10.0, kappa=2.0, c_w=0.5,
    )
    rng = np.random.default_rng(99173)
    s_draws = rng.random(10_000)
    theta_draws = rng.uniform(0.01, 8.0, 10_000)
    worst = 0.0
    for s, theta in zip(s_draws, theta_draws):
        r = review_effort(env, theta, float(s))
        direct = RISK.value(float(s)) * math.exp(-env.kappa * r)
        worst = max(worst, abs(residual_risk(env, theta, float(s)) - direct))
    clip_ok = worst <= 1e-12

    thetas = (0.2, 0.5, 1.0, 2.0)
    splits = [threshold_signal(env, t) for t in thetas]
    continuity_ok = True
    for theta, split in zip(thetas, splits):
        if not 0.0 < split < 1.0:
            continue
        lo = review_effort(env, theta, split - 1e-9)
        hi = review_effort(env, theta, split + 1e-9)
        continuity_ok &= lo == 0.0 and hi < 1e-7

    s_grid = np.linspace(0.0, 1.0, 101)
    curves = np.array([review_effort(env, t, s_grid) for t in thetas])
    ordering_ok = bool(
        np.all(np.diff(curves, axis=0) <= 1e-15)
        and all(a <= b for a, b in zip(splits, splits[1:]))
    )

    ok = clip_ok and continuity_ok and ordering_ok
    _report(9, "review-policy clipping/threshold/ordering", ok,
            f"max clip err {worst:.2e}, thresholds {['%.3f' % s for s in splits]}")
    assert clip_ok, f"clipping identity violated by {worst:.3e}"
    assert continuity_ok, "review effort is not continuous at the threshold"
    assert ordering_ok, "higher price must lower effort and push the threshold right"


def test_criterion_10_byte_identical_reruns():
    fig2 = str(fixture_path("fig2.json"))
    fig5 = str(fixture_path("fig5-beta22.json"))
    fig6 = str(fixture_path("fig6.json"))
    fig3 = str(fixture_path("fig3.json"))
    commands = [
        ["moments", "--config", fig2],
        ["wait", "--config", fig2],
        ["wedge", "--config", fig2],
        ["stabilize", "--config", fig2],
        ["sweep", "--config", fig2, "--grid", "0.70:0.80:0.01"],
        ["design", "--config", fig2],
        ["dist", "--config", fig2, "--n-samples", "20000"],
        ["equilibrium", "--config", fig5],
        ["review-curve", "--config", fig6],
        ["simulate", "--config", fig3],
    ]

    # The child processes import the same wedgeq as this one, installed or not.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wedgeq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))
    mismatched = []
    for argv in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "wedgeq.cli", *argv],
                capture_output=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            mismatched.append(argv[0])

    ok = not mismatched
    _report(10, "byte-identical outputs on rerun", ok,
            f"{len(commands) - len(mismatched)}/{len(commands)} commands stable")
    assert ok, f"commands with unstable output: {mismatched}"
