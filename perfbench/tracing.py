"""In-memory spans and counters around wedgeq's public functions.

Nothing under src/ is changed: `Tracer.install` replaces the names that
callers look up (for example `wedgeq.simulator.simulate_fifo`, the name
the simulator calls) with wrappers that record a span and update
counters.  Spans are recorded only inside `Tracer.op`, so set-up and
output checks never count.  A span is (name, start, end, parent, op):
parent is the index of the enclosing span in the same list, or -1.

If a wrapped name no longer exists, its layer is reported as missing
(None), never as 0.  This module imports wedgeq only inside `install`.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _count_pdf(counters, args, kwargs, result):
    counters["verification.pdf_evals"] += 1
    counters["verification.pdf_points"] += _size(result)


def _count_roots(counters, args, kwargs, result):
    counters["verification.roots"] += len(result.roots)


def _count_config(counters, args, kwargs, result):
    counters["config.calls"] += 1


def _count_report(counters, args, kwargs, result):
    counters["report.bytes"] += len(result.encode("utf-8"))


def _count_wq(counters, args, kwargs, result):
    counters["queueing.wq_calls"] += 1


def _count_draws(counters, args, kwargs, result):
    counters["service_model.draws"] += _size(result[0] if isinstance(result, tuple) else result)


def _count_fifo(counters, args, kwargs, result):
    arrivals, services, spawn_mask, rework_services = args[:4]
    counters["kernels.jobs"] += int(arrivals.size) + int(spawn_mask.sum())
    counters["kernels.rework_jobs"] += int(spawn_mask.sum())
    counters["kernels.bytes_computed"] += sum(a.nbytes for a in args[:4]) + sum(
        getattr(out, "nbytes", 8) for out in result
    )


# (target "module:attribute.path", span name or None for counter-only, counter hook).
# A name appears once per module that calls it, because each caller looks
# up its own binding.
WRAPS = (
    ("wedgeq.cli:main", "cli.main", None),
    ("wedgeq.cli:load_config", "config.load_config", _count_config),
    ("wedgeq.cli:render_json", "report.render_json", _count_report),
    ("wedgeq.cli:render_csv", "report.render_csv", _count_report),
    ("wedgeq.diagnostics:wedge_test", "diagnostics.wedge_test", None),
    ("wedgeq.diagnostics:stabilization", "diagnostics.stabilization", None),
    ("wedgeq.diagnostics:variance_budget", "diagnostics.variance_budget", None),
    ("wedgeq.diagnostics:lambda_star", "diagnostics.lambda_star", None),
    ("wedgeq.diagnostics:bang_bang", "diagnostics.bang_bang", None),
    ("wedgeq.queueing:wq_pk", "queueing.wq_pk", _count_wq),
    ("wedgeq.queueing:wq_kingman", "queueing.wq_kingman", _count_wq),
    ("wedgeq.diagnostics:wq_pk", "queueing.wq_pk", _count_wq),
    ("wedgeq.verification:wq_pk", "queueing.wq_pk", _count_wq),
    ("wedgeq.verification:solve_equilibrium", "verification.solve_equilibrium", _count_roots),
    ("wedgeq.cli:solve_equilibrium", "verification.solve_equilibrium", _count_roots),
    ("wedgeq.simulator:solve_equilibrium", "verification.solve_equilibrium", _count_roots),
    ("wedgeq.verification:policy_route_moments", "verification.policy_route_moments", None),
    ("wedgeq.simulator:policy_route_moments", "verification.policy_route_moments", None),
    ("wedgeq.cli:effort_for_risk", "verification.effort_for_risk", None),
    ("wedgeq.cli:irreducible_escape_rate", "verification.irreducible_escape_rate", None),
    ("wedgeq.verification:SignalEnvironment.signal_pdf", None, _count_pdf),
    ("wedgeq.service_model:sample_manual", "service_model.sample_manual", _count_draws),
    ("wedgeq.service_model:sample_rework", "service_model.sample_rework", _count_draws),
    ("wedgeq.service_model:sample_ai", "service_model.sample_ai", _count_draws),
    ("wedgeq.cli:sample_manual", "service_model.sample_manual", _count_draws),
    ("wedgeq.cli:sample_ai", "service_model.sample_ai", _count_draws),
    ("wedgeq.simulator:sample_manual", "service_model.sample_manual", _count_draws),
    ("wedgeq.simulator:sample_rework", "service_model.sample_rework", _count_draws),
    ("wedgeq.simulator:run", "simulator.run", None),
    ("wedgeq.simulator:replicate", "simulator.replicate", None),
    ("wedgeq.simulator:simulate_fifo", "kernels.simulate_fifo", _count_fifo),
)

# Span-time metrics: metric -> span-name prefixes it sums (outermost spans only).
TIME_METRICS = {
    "cli.main_ms": ("cli.main",),
    "config.load_ms": ("config.",),
    "report.render_ms": ("report.",),
    "diagnostics.ms": ("diagnostics.",),
    "verification.solve_ms": ("verification.solve_equilibrium",),
    "verification.policy_moments_ms": ("verification.policy_route_moments",),
    "service_model.sample_ms": ("service_model.",),
    "simulator.run_ms": ("simulator.",),
    "kernels.fifo_ms": ("kernels.",),
}
COUNT_METRICS = (
    "config.calls", "report.bytes", "queueing.wq_calls", "verification.pdf_evals",
    "verification.pdf_points", "verification.roots", "service_model.draws",
    "kernels.jobs", "kernels.bytes_computed",
)
SELF_LAYERS = (
    "bench", "cli", "config", "report", "diagnostics", "queueing",
    "verification", "service_model", "kernels",
)


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return "bench" if head == "op" else head


def missing_layers(targets) -> set[str]:
    """Layers with at least one WRAPS target that could not be wrapped."""
    spans = {target: span for target, span, _ in WRAPS}
    return {
        _layer(spans[t]) if spans[t] else t.split(":")[0].rsplit(".", 1)[-1] for t in targets
    }


class Tracer:
    """Spans and counters for the ops of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._originals: list[tuple] = []

    def install(self):
        """Wrap every name in WRAPS that exists; record the rest as missing."""
        for target, span, hook in WRAPS:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None) if owner is not None else None
            if func is None:
                self.missing.append(target)
                continue
            self._originals.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, span, hook))
        return self

    def uninstall(self):
        """Put the original functions back."""
        for owner, attr, func in reversed(self._originals):
            setattr(owner, attr, func)
        self._originals.clear()

    def missing_layers(self) -> set[str]:
        return missing_layers(self.missing)

    def _wrap(self, func, span, hook):
        tracer = self

        @wraps(func)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            index = tracer._open(span) if span else None
            try:
                result = func(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def op(self, op_id):
        """Record the spans and counts of one op under a root span named "op"."""
        self._op = op_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None


# ---------------------------------------------------------------------------
# span arithmetic

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def _matches(name: str, prefixes) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)


def outer_time(spans, prefixes) -> float:
    """Summed duration of matching spans not nested inside another matching span."""
    total = 0.0
    for name, start, end, parent, op in spans:
        if not _matches(name, prefixes):
            continue
        while parent >= 0 and not _matches(spans[parent][0], prefixes):
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(span_lists, counters, n_ops: int, missing_layers=(), op_labels=None) -> dict:
    """Per-layer metrics: span times in ms per op, counts as given.

    span_lists is a list of span lists (one per process); counters are the
    counts of one pass over the workload's pool.  op_labels maps an op id
    to a cli command for the cli.main_ms.<command> split.
    """
    ms = 1000.0 / max(n_ops, 1)
    out = {metric: 0.0 for metric in TIME_METRICS}
    out.update({f"self_ms.{layer}": 0.0 for layer in SELF_LAYERS})
    simulator_self = 0.0
    per_command = defaultdict(float)
    command_ops = defaultdict(set)
    for spans in span_lists:
        for metric, prefixes in TIME_METRICS.items():
            out[metric] += outer_time(spans, prefixes) * ms
        for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
            layer = _layer(name)
            if layer == "simulator":
                simulator_self += own
            elif layer in SELF_LAYERS:
                out[f"self_ms.{layer}"] += own * ms
            if name == "cli.main" and op_labels and op_labels.get(op):
                per_command[op_labels[op]] += (end - start) * 1000.0
                command_ops[op_labels[op]].add(op)
    out["simulator.self_ms"] = simulator_self * ms
    for command, total in per_command.items():
        out[f"cli.main_ms.{command}"] = total / len(command_ops[command])
    for metric in COUNT_METRICS:
        out[metric] = counters.get(metric, 0)
    jobs = counters.get("kernels.jobs", 0)
    fifo_s = out["kernels.fifo_ms"] * n_ops / 1000.0
    out["kernels.jobs_per_s"] = jobs / fifo_s if fifo_s > 0 else 0.0
    out["kernels.rework_share"] = counters.get("kernels.rework_jobs", 0) / jobs if jobs else 0.0
    roots = counters.get("verification.roots", 0)
    out["verification.evals_per_root"] = (
        counters.get("verification.pdf_evals", 0) / roots if roots else 0.0
    )
    for metric in list(out):
        head = metric.split(".")[1] if metric.startswith("self_ms.") else metric.split(".")[0]
        if head in missing_layers:
            out[metric] = None
    return out


# ---------------------------------------------------------------------------
# python -X importtime

def parse_importtime(text: str) -> list[tuple]:
    """Entries (name, self_us, cumulative_us, parent) from -X importtime output.

    The interpreter prints an import when it finishes, so children come
    before their parent and one level deeper (two more spaces of indent).
    parent is an index into the returned list, or -1 at top level.
    """
    entries: list[list] = []
    pending: dict[int, list[int]] = defaultdict(list)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        raw = fields[2][1:]
        name = raw.lstrip(" ")
        level = (len(raw) - len(name)) // 2
        index = len(entries)
        entries.append([name, int(fields[0]), int(fields[1]), -1])
        for child in pending.pop(level + 1, []):
            entries[child][3] = index
        pending[level].append(index)
    return [tuple(entry) for entry in entries]


def import_metrics(entries) -> dict:
    """import.<pkg>_ms (outermost cumulative time) and import.wedgeq_self_ms."""
    def top(name):
        return name.split(".", 1)[0]

    def outer_ms(package):
        total = 0
        for name, own, cumulative, parent in entries:
            if top(name) != package:
                continue
            while parent >= 0 and top(entries[parent][0]) != package:
                parent = entries[parent][3]
            if parent < 0:
                total += cumulative
        return total / 1000.0

    if not any(top(name) == "wedgeq" for name, *_ in entries):
        raise ValueError("no wedgeq import in the -X importtime output")
    return {
        "import.wedgeq_ms": outer_ms("wedgeq"),
        "import.numpy_ms": outer_ms("numpy"),
        "import.scipy_ms": outer_ms("scipy"),
        "import.wedgeq_self_ms": sum(own for name, own, _, _ in entries if top(name) == "wedgeq")
        / 1000.0,
    }
