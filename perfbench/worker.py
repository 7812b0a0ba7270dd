"""Benchmark worker: one fresh interpreter that imports wedgeq and runs ops.

Reads one JSON request on stdin:
    {"mode": "setup" | "run" | "trace" | "cli-repeat", "inputs": {...}, "seconds": s}
imports wedgeq, loads and validates the inputs, prints "READY" (the
parent times set-up up to that line), then a provenance line, then for
every mode except "setup" one "RESULT {...}" line.

  run         closed loop over the pool for `seconds`, untraced; every op
              is preceded by a timed run of reference.py's computation
  trace       whole passes over the pool, each op run untraced then traced,
              until `seconds` have passed
  cli-repeat  every cli argv of the pool run once in-process; the parent
              compares the cold runs of cli-cold with these

Output checks run after the timed loop and never inside an op.
"""

import json
import sys
import time


def _setup(request):
    """Import wedgeq and load the inputs; returns the per-workload state."""
    import wedgeq  # noqa: F401  (the import is part of set-up)

    inputs = request["inputs"]
    workload = inputs["workload"]
    if workload.startswith("cli-"):
        from wedgeq import cli

        return {"configs": {argv[2]: cli.load_config(argv[2]) for argv in inputs["pool"]}}
    from wedgeq import config, simulator

    specs = {name: config.workflow_from_dict(doc) for name, doc in inputs["configs"].items()}
    if workload == "policy-solve":
        return {"specs": specs}
    return {
        "specs": specs,
        "sims": {name: simulator.SimConfig.from_workflow(spec) for name, spec in specs.items()},
    }


def _provenance():
    import platform
    from importlib import metadata

    import numpy
    import wedgeq
    from wedgeq import _kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "wedgeq": wedgeq.__version__,
        "wedgeq_file": wedgeq.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "scipy_imported": "scipy" in sys.modules,
        "kernels_impl": _kernels.IMPL,
    }


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# ops and their checks

class CliInProcess:
    """One cli command through wedgeq.cli.main, stdout captured."""

    def __init__(self, state):
        from wedgeq import cli

        self.cli = cli

    def key(self, argv):
        return " ".join(argv)

    def label(self, argv):
        return argv[0]

    def run(self, argv):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(list(argv))
        return code, buffer.getvalue()

    def fingerprint(self, out):
        return repr(out)

    def check(self, argv, out) -> str | None:
        """Exit 0 and parseable JSON/CSV; repeats are compared by fingerprint."""
        from workloads import output_problem

        return output_problem(argv, *out)

    def arrivals(self, argv):
        return 0


class PolicySolve:
    def __init__(self, state):
        from wedgeq import verification

        self.v = verification
        self.specs = state["specs"]

    def key(self, item):
        return f"{item['config']}@{item['lam']!r}"

    def label(self, item):
        return None

    def run(self, item):
        spec = self.specs[item["config"]]
        solution = self.v.solve_equilibrium(spec.env, spec.rework, item["lam"], spec.capacity)
        moments = self.v.policy_route_moments(
            spec.env, solution.primary.theta_star, spec.rework
        )
        return solution, moments

    def fingerprint(self, out):
        solution, moments = out
        return repr((solution, moments))

    def check(self, item, out) -> str | None:
        """|theta - Phi(theta)| <= 1e-8 max(1, theta) at every root, by the public phi."""
        solution, moments = out
        if not solution.roots:
            return "no root"
        spec = self.specs[item["config"]]
        for root in solution.roots:
            theta = root.theta_star
            residual = abs(
                theta - self.v.phi(spec.env, theta, spec.rework, item["lam"], spec.capacity)
            )
            if not residual <= 1e-8 * max(1.0, theta):
                return f"residual {residual!r} at theta={theta!r}"
        if not (moments.mean > 0.0 and moments.m2 > 0.0):
            return f"bad policy moments {moments!r}"
        return None

    def arrivals(self, item):
        return 0


class Simulate:
    def __init__(self, state):
        from wedgeq import queueing, service_model, simulator

        self.simulator = simulator
        self.sims = state["sims"]
        self.wq_pk = {}
        for name, spec in state["specs"].items():
            ai = service_model.ai_route_moments(spec.curve, spec.rework, spec.review_r)
            mixed = service_model.mixed_moments(spec.manual, ai, spec.x)
            inputs = queueing.QueueInputs(
                lam=spec.lam, capacity=spec.capacity, service=mixed, c2_a=spec.c2_a
            )
            self.wq_pk[name] = queueing.wq_pk(inputs).wq

    def key(self, item):
        return item["config"]

    def label(self, item):
        return None

    def run(self, item):
        return self.simulator.run(self.sims[item["config"]])

    def fingerprint(self, stats):
        import dataclasses
        import hashlib

        return hashlib.sha256(repr(dataclasses.astuple(stats)).encode()).hexdigest()

    def check(self, item, stats) -> str | None:
        """Loose band around the P-K wait; never fails a correct run by chance."""
        config = self.sims[item["config"]]
        pk = self.wq_pk[item["config"]]
        if stats.n_arrivals != config.n_arrivals:
            return f"n_arrivals {stats.n_arrivals} != {config.n_arrivals}"
        if (stats.n_rework_jobs > 0) != (config.rework_mode == "feedback"):
            return f"{stats.n_rework_jobs} rework jobs in {config.rework_mode} mode"
        if not 0.5 * pk <= stats.wq_mean <= 1.5 * pk:
            return f"wq_mean {stats.wq_mean!r} outside [0.5, 1.5] x wq_pk {pk!r}"
        return None

    def arrivals(self, item):
        return self.sims[item["config"]].n_arrivals


# ---------------------------------------------------------------------------
# modes

def _run_mode(ops, pool, seconds, post_setup_rss):
    """Closed loop for `seconds`: the next op starts when the previous ends."""
    first = {}  # key -> (item, output, fingerprint, repeated)
    failures = []  # (key, problem)

    def record(item, out):
        key = ops.key(item)
        digest = ops.fingerprint(out)
        if key not in first:
            first[key] = [item, out, digest, False]
        elif first[key][2] != digest:
            failures.append((key, "same-input rerun differs"))
        else:
            first[key][3] = True

    from reference import reference_seconds

    reference_seconds()  # warm-up, untimed
    record(pool[0], ops.run(pool[0]))
    walls, cpus, slots, refs = [], [], [], []
    index = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        item = pool[index % len(pool)]
        refs.append(reference_seconds())
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = ops.run(item)
        t1 = time.perf_counter()
        cpus.append(time.process_time() - c0)
        walls.append(t1 - t0)
        slots.append(index % len(pool))
        index += 1
        record(item, out)
        if t1 >= deadline and index >= len(pool):
            break
    elapsed = t1 - start - sum(refs)  # time spent in ops, reference runs excluded
    peak = _peak_rss_mib()

    # Checks, untimed: every distinct input is rerun once if the loop did not.
    for key, (item, out, digest, repeated) in first.items():
        if not repeated and ops.fingerprint(ops.run(item)) != digest:
            failures.append((key, "same-input rerun differs"))
        problem = ops.check(item, out)
        if problem:
            failures.append((key, problem))
    failed_keys = {key for key, _ in failures}
    ran = [pool[slot] for slot in slots]
    return {
        "walls": walls,
        "cpus": cpus,
        "slots": slots,
        "refs": refs,
        "elapsed": elapsed,
        "failed": sum(1 for item in ran if ops.key(item) in failed_keys),
        "failures": [f"{key}: {problem}" for key, problem in failures[:20]],
        "peak_rss_mib": peak,
        "post_setup_rss_mib": post_setup_rss,
        "arrivals": sum(ops.arrivals(item) for item in ran),
        "max_arrivals": max(ops.arrivals(item) for item in pool),
    }


def _trace_mode(ops, pool, seconds):
    """Whole passes over the pool; each op untraced, then traced."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer().install()
    untraced, traced, pass_counts = [], [], []
    failures = []  # (key, problem)
    labels, keys = {}, []
    op_id = 0
    deadline = time.perf_counter() + seconds
    while True:
        tracer.counters.clear()
        spans_before = len(tracer.spans)
        for item in pool:
            t0 = time.perf_counter()
            plain = ops.run(item)
            untraced.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            with tracer.op(op_id):
                out = ops.run(item)
            traced.append(time.perf_counter() - t0)
            labels[op_id] = ops.label(item)
            keys.append(ops.key(item))
            op_id += 1
            if ops.fingerprint(plain) != ops.fingerprint(out):
                failures.append((keys[-1], "traced rerun differs"))
            if len(pass_counts) == 0:
                problem = ops.check(item, plain)
                if problem:
                    failures.append((keys[-1], problem))
        pass_counts.append(dict(tracer.counters))
        pass_spans = len(tracer.spans) - spans_before
        if time.perf_counter() >= deadline:
            break
    failed_keys = {key for key, _ in failures}
    failed = sum(1 for key in keys if key in failed_keys)
    if any(counts != pass_counts[0] for counts in pass_counts):
        failures.append(("all passes", "counts differ between identical passes"))
        failed = len(keys)
    metrics = layer_metrics(
        [tracer.spans], pass_counts[0], n_ops=len(traced),
        missing_layers=tracer.missing_layers(), op_labels=labels,
    )
    return {
        "metrics": metrics,
        "untraced": untraced,
        "traced": traced,
        "passes": len(pass_counts),
        "pass_spans": pass_spans,
        "spans": tracer.spans,
        "missing": tracer.missing,
        "missing_layers": sorted(tracer.missing_layers()),
        "failed": failed,
        "failures": [f"{key}: {problem}" for key, problem in failures[:20]],
    }


def main():
    request = json.loads(sys.stdin.read())
    state = _setup(request)
    print("READY", flush=True)
    post_setup_rss = _peak_rss_mib()
    print("PROVENANCE " + json.dumps(_provenance()), flush=True)
    mode = request["mode"]
    if mode == "setup":
        return
    pool = request["inputs"]["pool"]
    workload = request["inputs"]["workload"]
    kind = CliInProcess if workload.startswith("cli-") else (
        PolicySolve if workload == "policy-solve" else Simulate)
    ops = kind(state)
    if mode == "cli-repeat":
        result = {"outputs": [ops.run(argv) for argv in pool]}
    elif mode == "run":
        result = _run_mode(ops, pool, request["seconds"], post_setup_rss)
    else:
        result = _trace_mode(ops, pool, request["seconds"])
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
