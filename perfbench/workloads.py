"""Workload definitions and seeded input generation.

This module imports nothing from wedgeq: it reads the shipped fixture
files as plain JSON and turns a seed into the exact inputs a run feeds
to wedgeq.  The same seed always yields the same inputs.

Each workload has a *pool*: a fixed-composition list of inputs (every
command/fixture pair, every lambda stratum and every grid size is the
same whatever the seed), shuffled and parameterised by the seed.  A
run cycles through its pool in a closed loop, so op mix barely depends
on the seed while the concrete inputs do.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

FIXTURE_DIR = Path("src") / "wedgeq" / "fixtures"
FIXED_FIXTURES = ("fig2", "fig3", "fig4")
POLICY_FIXTURES = ("fig5-beta22", "fig5-beta52", "fig6")
FIXED_COMMANDS = ("moments", "wait", "wedge", "stabilize", "sweep", "design", "dist")
POLICY_COMMANDS = ("equilibrium", "review-curve")
CSV_COMMANDS = ("sweep", "design", "dist", "review-curve")

# Lambda range of policy-solve: covers the 3-root case (fig5-beta52 near
# 0.75) and the analytic tail root (fig5-beta52 above about 0.85).
LAMBDA_RANGE = (0.3, 0.95)
LAMBDA_STRATA = 16

# "gated": listed in BENCHMARK.json; the others run by hand with --workload.
# On the shared 2-core VM (Intel Xeon, 105 MiB L3) the benchmark was tuned
# on, whole minutes ran 20-90% slower than others, pure-Python loops worst.
# So each run is long (50 s), which leaves time for two gated workloads,
# and those are the two whose op time in ms (op_best_ms) spread least
# between runs:
#   sim-feedback  its Python merge loop slowed 1.7-1.9x for minutes at a
#                 time (IQR/median of op_best_ms 0.38 over 8 runs);
#   cli-cold      a cold op takes about 1.5 s, too few per run (IQR/median
#                 0.26-0.28 over 6 runs of 15 s); import cost is gated
#                 through setup_s on every workload;
#   policy-solve  its solver is gated through cli-warm's equilibrium ops.
WORKLOADS = {
    "cli-warm": {
        "why": "the 9 analytic commands on every fixture through wedgeq.cli.main in one warm "
               "process: cli, config, report, diagnostics, equilibrium; predicts kernels.jobs = 0",
        "predictions": {"kernels.jobs": 0},
        "gated": True,
    },
    "sim-folded": {
        "why": "warm simulator.run, folded rework, fig2-4 at 4e5/1e6 arrivals: RNG, reflect "
               "kernel, estimation; predicts verification.pdf_evals = 0 (bypasses verification)",
        "predictions": {"verification.pdf_evals": 0},
        "gated": True,
    },
    "sim-feedback": {
        "why": "same inputs with rework_mode feedback: ~15% of jobs re-enter via the merge loop; "
               "predicts verification.pdf_evals = 0 (bypasses verification)",
        "predictions": {"verification.pdf_evals": 0},
        "gated": False,
    },
    "policy-solve": {
        "why": "warm solve_equilibrium + policy_route_moments over seeded lambda in [0.3, 0.95]; "
               "loads verification; predicts kernels.jobs = 0 (bypasses simulator and kernel)",
        "predictions": {"kernels.jobs": 0},
        "gated": False,
    },
    "cli-cold": {
        "why": "fresh `python -m wedgeq.cli` per op over the 9 analytic commands, as users and "
               "criterion 10 run it; about 85% import",
        "predictions": {"kernels.jobs": 0},
        "gated": False,
    },
}

# Gated end-to-end metrics.  An op's cost is gated as op_ref_ratio, its
# wall time over that of reference.py's fixed computation run just before
# it: on the shared VM the core's speed drifted by up to 1.5x within ten
# minutes, which moved the best-of-k op time (op_best_ms, still printed)
# by an IQR/median of 0.17-0.26 across runs, while the ratio stayed
# within 0.01-0.03 (sim) and 0.02 (cli) over the same stretches.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ref_ratio", "unit": "ratio", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# Per-layer metrics of a traced run (--trace 1), named after wedgeq's
# modules.  Times are ms per traced op; counts are per pass over the pool,
# so they repeat exactly for a seed.  import.* come from -X importtime.
LAYER_METRICS = [
    ("import.wedgeq_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    ("import.wedgeq_self_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    *[(f"cli.main_ms.{cmd}", "ms", "lower") for cmd in FIXED_COMMANDS + POLICY_COMMANDS],
    ("config.load_ms", "ms", "lower"),
    ("config.calls", "count", "lower"),
    ("report.render_ms", "ms", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("diagnostics.ms", "ms", "lower"),
    ("queueing.wq_calls", "count", "lower"),
    ("verification.solve_ms", "ms", "lower"),
    ("verification.policy_moments_ms", "ms", "lower"),
    ("verification.pdf_evals", "count", "lower"),
    ("verification.pdf_points", "count", "lower"),
    ("verification.roots", "count", "higher"),
    ("verification.evals_per_root", "count", "lower"),
    ("service_model.sample_ms", "ms", "lower"),
    ("service_model.draws", "count", "lower"),
    ("simulator.run_ms", "ms", "lower"),
    ("simulator.self_ms", "ms", "lower"),
    ("kernels.fifo_ms", "ms", "lower"),
    ("kernels.jobs", "count", "lower"),
    ("kernels.jobs_per_s", "1/s", "higher"),
    ("kernels.rework_share", "ratio", "lower"),
    ("kernels.bytes_computed", "bytes", "lower"),
    *[(f"self_ms.{layer}", "ms", "lower") for layer in (
        "bench", "cli", "config", "report", "diagnostics", "queueing",
        "verification", "service_model", "kernels",
    )],
    ("trace.untraced_p50_ms", "ms", "lower"),
    ("trace.traced_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("bypass.violations", "count", "lower"),
]


def benchmark_spec(run_seconds: int) -> dict:
    """The BENCHMARK.json document; `run.py --write-benchmark-json` writes it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items() if spec["gated"]
        ],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in LAYER_METRICS],
    }


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _cli_argv(rng: random.Random, command: str, fixture: str) -> list[str]:
    """One cli op; the seed draws the grids and --seed, never their sizes."""
    argv = [command, "--config", str(FIXTURE_DIR / f"{fixture}.json")]
    if command == "sweep":
        start = round(rng.uniform(0.05, 0.3), 4)
        stop = round(start + rng.uniform(0.4, 0.6), 4)
        argv += ["--grid", f"{start}:{stop}:{(stop - start) / 50:.6f}"]
    elif command == "design":
        s0 = round(rng.uniform(0.4, 0.6), 4)
        rhos = sorted(round(rng.uniform(0.1, 0.9), 3) for _ in range(4))
        argv += ["--grid", f"{s0}:1.0:{(1.0 - s0) / 20:.6f}", "--rho-h", ",".join(map(str, rhos))]
    elif command == "dist":
        argv += ["--seed", str(rng.randrange(1, 2**31))]
    elif command == "review-curve":
        start = round(rng.uniform(0.005, 0.02), 4)
        thetas = sorted(round(rng.uniform(0.1, 3.0), 3) for _ in range(4))
        argv += ["--grid", f"{start}:1.0:{(1.0 - start) / 99:.6f}",
                 "--theta-list", ",".join(map(str, thetas))]
    if command in CSV_COMMANDS and fixture in ("fig3", "fig5-beta52"):
        argv += ["--format", "json"]
    return argv


def make_inputs(workload: str, seed: int) -> dict:
    """Seeded inputs of one workload: {"workload", "configs", "pool"}.

    `configs` maps a name to a workflow document (policy-solve and the sim
    workloads); `pool` is the shuffled list of ops.  A cli op is an
    argv for wedgeq.cli.main; a policy-solve op is
    {"config", "lam"}; a sim op is {"config"} whose document carries the
    drawn sim seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    configs: dict = {}
    if workload == "cli-warm":
        pool = [
            _cli_argv(rng, cmd, fixture)
            for commands, fixtures in ((FIXED_COMMANDS, FIXED_FIXTURES),
                                       (POLICY_COMMANDS, POLICY_FIXTURES))
            for cmd in commands
            for fixture in fixtures
        ]
    elif workload == "cli-cold":
        pool = [_cli_argv(rng, cmd, rng.choice(FIXED_FIXTURES)) for cmd in FIXED_COMMANDS]
        pool += [_cli_argv(rng, cmd, rng.choice(POLICY_FIXTURES)) for cmd in POLICY_COMMANDS]
    elif workload == "policy-solve":
        lo, hi = LAMBDA_RANGE
        width = (hi - lo) / LAMBDA_STRATA
        configs = {name: _fixture(name) for name in POLICY_FIXTURES}
        pool = [
            {"config": name, "lam": lo + width * (k + rng.random())}
            for name in POLICY_FIXTURES
            for k in range(LAMBDA_STRATA)
        ]
    else:
        mode = workload.removeprefix("sim-")
        pool = []
        for name in FIXED_FIXTURES:
            doc = _fixture(name)
            doc["sim"] = dict(doc["sim"], seed=rng.randrange(1, 2**31), rework_mode=mode)
            key = f"{name}-{doc['sim']['seed']}"
            configs[key] = doc
            pool.append({"config": key})
    rng.shuffle(pool)
    return {"workload": workload, "configs": configs, "pool": pool}


def output_problem(argv, code: int, text: str) -> str | None:
    """Why a cli op's result is wrong (nonzero exit, unparseable output), or None."""
    if code != 0:
        return f"exit {code}"
    try:
        if argv[0] in CSV_COMMANDS and "json" not in argv:
            rows = list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))
            if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
                return "ragged or empty CSV"
        else:
            json.loads(text)
    except (ValueError, csv.Error) as exc:
        return f"unparseable output: {exc}"
    return None
