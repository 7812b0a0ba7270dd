"""wedgeq benchmark: end-to-end and per-layer metrics on the workloads of workloads.py.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root; wedgeq is imported from ./src.  This
process never imports wedgeq: every op runs in a child interpreter, one
at a time, by a single closed-loop client (the next op starts when the
previous one has finished), so at most two processes exist at once.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a separate traced run.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are a human-readable table and the provenance.  A full record (samples,
failures, provenance, spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import reference_seconds
from stats import fastest_per_input, highest_tail, ratio_per_input, reportable
from tracing import import_metrics, layer_metrics, missing_layers, parse_importtime
from workloads import (
    END_TO_END, LAYER_METRICS, WORKLOADS, benchmark_spec, make_inputs, output_problem,
)

RUN_SECONDS = 50
SETUP_PROBES = 3          # timed set-up probes per run; the worker's own set-up is a fourth
IMPORTTIME_PROBES = 3     # -X importtime probes per traced run of a warm workload
CHILD_TIMEOUT_S = 150

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no wedgeq sources, a worker crashed)."""


# ---------------------------------------------------------------------------
# child processes

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Child:
    """A finished child: wall time, time to its READY line, rusage, output."""

    def __init__(self, argv, stdin_text=None):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        errors = []
        reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
        reader.start()
        try:
            if stdin_text is not None:
                proc.stdin.write(stdin_text.encode())
                proc.stdin.close()
            self.ready_s = None
            chunks = []
            for line in proc.stdout:
                if self.ready_s is None and line == b"READY\n":
                    self.ready_s = time.perf_counter() - start
                chunks.append(line)
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.stdout = b"".join(chunks)
        self.stderr = errors[0] if errors else b""

    def tagged(self, tag: str):
        """The JSON payload of this child's "<tag> ..." stdout line."""
        for line in self.stdout.decode().splitlines():
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        detail = self.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"worker exited {self.code} without {tag}: " + " | ".join(detail))


def _worker(mode: str, inputs: dict, seconds: float = 0.0, importtime: bool = False) -> Child:
    request = json.dumps({"mode": mode, "inputs": inputs, "seconds": seconds})
    flags = ["-X", "importtime"] if importtime else []
    child = Child([sys.executable, *flags, str(HERE / "worker.py")], stdin_text=request)
    if child.ready_s is None:
        child.tagged("READY")  # raises with the worker's stderr
    return child


def _cli(argv) -> Child:
    return Child([sys.executable, "-m", "wedgeq.cli", *argv])


def _spans_record(child: Child) -> dict:
    """The "SPANS {...}" stderr line of a traced cli child."""
    for line in child.stderr.decode().splitlines():
        if line.startswith("SPANS "):
            return json.loads(line[len("SPANS "):])
    raise BenchError(f"traced cli op exited {child.code} without spans")


# ---------------------------------------------------------------------------
# checks

def _cold_problem(argv, child: Child, expected) -> str | None:
    """A cold op's output is correct and byte-identical to a repeat with the same args."""
    text = child.stdout.decode()
    problem = output_problem(argv, child.code, text)
    if problem:
        return f"{problem}: {child.stderr.decode(errors='replace')[-300:]}"
    if list(expected) != [0, text]:
        return "stdout differs from a repeat with the same args"
    return None


# ---------------------------------------------------------------------------
# workloads

def _setup_samples(inputs: dict):
    """Timed set-up probes: fresh interpreters that import wedgeq and load the inputs."""
    probes = [_worker("setup", inputs) for _ in range(SETUP_PROBES)]
    return [p.ready_s for p in probes], probes[0].tagged("PROVENANCE")


def _cli_window(inputs: dict, seconds: float):
    """Cold CLI ops in a closed loop for `seconds`, and at least one pass."""
    pool = inputs["pool"]
    ops, refs = [], []
    reference_seconds()  # warm-up, untimed
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < len(pool):
        argv = pool[len(ops) % len(pool)]
        refs.append(reference_seconds())
        ops.append((argv, _cli(argv)))
    elapsed = time.perf_counter() - start - sum(refs)
    repeat = _worker("cli-repeat", inputs)
    expected = repeat.tagged("RESULT")["outputs"]
    failures = []
    for index, (argv, child) in enumerate(ops):
        problem = _cold_problem(argv, child, expected[index % len(pool)])
        if problem:
            failures.append(f"{' '.join(argv)}: {problem}")
    return {
        "walls": [c.wall_s for _, c in ops],
        "cpus": [c.cpu_s for _, c in ops],
        "slots": [i % len(pool) for i in range(len(ops))],
        "refs": refs,
        "rss": [c.rss_mib for _, c in ops],
        "elapsed": elapsed,
        "failed": len(failures),
        "failures": failures[:20],
    }, repeat.ready_s


def _end_to_end(workload: str, seed: int, seconds: float):
    inputs = make_inputs(workload, seed)
    setup, provenance = _setup_samples(inputs)
    if workload == "cli-cold":  # each op is a child process of this one
        run, last_setup = _cli_window(inputs, seconds)
        peak = max(run["rss"])
    else:
        child = _worker("run", inputs, seconds)
        run, last_setup = child.tagged("RESULT"), child.ready_s
        peak = run["peak_rss_mib"]
    setup.append(last_setup)
    walls, n = run["walls"], len(run["walls"])
    best = fastest_per_input(run["slots"], walls, run["cpus"])
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ref_ratio": ratio_per_input(run["slots"], walls, run["refs"]),
        "peak_rss_mb": peak,
    }
    p90 = reportable(walls, 90.0)
    tail = highest_tail(walls)
    repeats = n / len(best)
    extra = {
        "op_p50_ms": ("ms", statistics.median(walls) * 1000.0, f"n={n}"),
        "op_p90_ms": ("ms", None if p90 is None else p90 * 1000.0,
                      f"n={n}; needs >= 100 samples for 10 beyond p90"),
        "op_tail_ms": ("ms", None if tail is None else tail[1] * 1000.0,
                       "n/a" if tail is None else f"p{tail[0]:g}, n={n}"),
        "ops_per_s": ("1/s", n / run["elapsed"],
                      f"closed loop, one client, {run['elapsed']:.1f} s in ops"),
        "reference_ms": ("ms", statistics.median(run["refs"]) * 1000.0,
                         "median wall of reference.py's computation, run before every op"),
        "cpu_per_op_ms": ("ms", statistics.median(run["cpus"]) * 1000.0, "median user+sys"),
        "op_best_ms": ("ms", statistics.fmean(w for w, _ in best.values()) * 1000.0,
                       "wall of each input's fastest run, mean over inputs"),
        "op_best_cpu_ms": ("ms", statistics.fmean(c for _, c in best.values()) * 1000.0,
                           "user+sys of each input's fastest run, mean over inputs"),
        "failed_ratio": ("ratio", run["failed"] / n, f"{run['failed']}/{n}"),
        "best_of": ("count", repeats, f"mean runs per distinct input ({len(best)} inputs)"),
    }
    if workload.startswith("sim-"):
        extra["sim_arrivals_per_s"] = ("1/s", run["arrivals"] / run["elapsed"], "")
        extra["rss_bytes_per_arrival"] = (
            "B", (run["peak_rss_mib"] - run["post_setup_rss_mib"]) * 2**20 / run["max_arrivals"],
            "(peak - post-setup RSS) / arrivals of the largest op",
        )
    else:
        extra["sim_arrivals_per_s"] = ("1/s", None, "no simulation")
        extra["rss_bytes_per_arrival"] = ("B", None, "no simulation")
    extra["equilibria_per_s"] = (
        ("1/s", n / run["elapsed"], "one solve_equilibrium per op")
        if workload == "policy-solve" else ("1/s", None, "not a solve workload")
    )
    record = {"samples": {"setup_s": setup, **{k: run[k] for k in ("walls", "cpus", "refs")}},
              "failures": run["failures"], "extra": extra}
    return metrics, n, run["failed"], provenance, record


def _median_dict(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _traced(workload: str, seed: int, seconds: float):
    inputs = make_inputs(workload, seed)
    pool = inputs["pool"]
    if workload == "cli-cold":
        untraced, traced, spans, imports, failures = [], [], [], [], []
        counters, missing = {}, set()
        labels = {}
        for op_id, argv in enumerate(pool):
            plain = _cli(argv)
            child = Child([sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                           str(op_id), *argv])
            untraced.append(plain.wall_s)
            traced.append(child.wall_s)
            labels[op_id] = argv[0]
            imports.append(import_metrics(parse_importtime(child.stderr.decode())))
            record = _spans_record(child)
            spans.append(record["spans"])
            missing.update(record["missing"])
            for key, value in record["counters"].items():
                counters[key] = counters.get(key, 0) + value
            problem = _cold_problem(argv, plain, [child.code, child.stdout.decode()])
            if problem:
                failures.append(f"{' '.join(argv)}: {problem}")
        metrics = layer_metrics(spans, counters, n_ops=len(pool),
                                missing_layers=missing_layers(missing), op_labels=labels)
        metrics.update(_median_dict(imports))
        provenance = _worker("setup", inputs).tagged("PROVENANCE")
        result = {"untraced": untraced, "traced": traced, "spans": spans,
                  "missing": sorted(missing), "failed": len(failures), "failures": failures,
                  "pass_spans": sum(len(s) for s in spans),
                  "missing_layers": sorted(missing_layers(missing))}
    else:
        probes = [_worker("setup", inputs, importtime=True) for _ in range(IMPORTTIME_PROBES)]
        provenance = probes[0].tagged("PROVENANCE")
        child = _worker("trace", inputs, seconds)
        result = child.tagged("RESULT")
        metrics = result["metrics"]
        metrics.update(_median_dict(
            [import_metrics(parse_importtime(p.stderr.decode())) for p in probes]))
    untraced_p50 = statistics.median(result["untraced"]) * 1000.0
    traced_p50 = statistics.median(result["traced"]) * 1000.0
    metrics.update({
        "trace.untraced_p50_ms": untraced_p50,
        "trace.traced_p50_ms": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.ops": len(pool),
        "trace.spans": result["pass_spans"],
    })
    absent = set(result["missing_layers"])
    values = {}
    for name, _, _ in LAYER_METRICS:
        head = name.split(".")[1] if name.startswith("self_ms.") else name.split(".")[0]
        values[name] = None if head in absent else metrics.get(name, 0.0)
    notes = []
    violations = 0
    for metric, expected in WORKLOADS[workload]["predictions"].items():
        if values[metric] is None:
            notes.append(f"bypass prediction {metric} = {expected}: unverifiable (layer missing)")
        elif values[metric] != expected:
            violations += 1
            notes.append(f"bypass prediction {metric} = {expected}: VIOLATED ({values[metric]})")
        else:
            notes.append(f"bypass prediction {metric} = {expected}: held")
    values["bypass.violations"] = violations
    if result.get("missing"):
        notes.append("missing wrapped names: " + ", ".join(result["missing"]))
    n = len(result["traced"])
    record = {"failures": result["failures"], "notes": notes,
              "samples": {"untraced": result["untraced"], "traced": result["traced"]}}
    spans = result["spans"]
    return values, n, result["failed"], provenance, record, spans


# ---------------------------------------------------------------------------
# provenance and output

def _machine() -> dict:
    cpu_model = l3 = commit = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "l3": l3, "git_commit": commit}


def _units() -> dict:
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({name: unit for name, unit, _ in LAYER_METRICS})
    return units


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if trace:
        metrics, attempted, failed, provenance, record, spans = _traced(workload, seed, seconds)
    else:
        metrics, attempted, failed, provenance, record = _end_to_end(workload, seed, seconds)
        spans = None
    provenance = {**provenance, **_machine(), "seed": seed, "workload": workload,
                  "seconds": seconds, "trace": int(trace)}
    units = _units()
    print(f"== {workload} seed={seed} trace={int(trace)} ops={attempted} failed={failed} "
          f"wall={time.perf_counter() - started:.1f}s")
    for name, value in metrics.items():
        print(f"  {name:<34} {_fmt(value):>14} {units[name]}")
    for name, (unit, value, note) in record.get("extra", {}).items():
        print(f"  {name:<34} {_fmt(value):>14} {unit}  {note}")
    for line in record.get("notes", []) + record["failures"]:
        print(f"  {line}")
    print("provenance " + json.dumps(provenance))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": provenance, "result": result, **record}, indent=1, default=str))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from the workload table and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(RUN_SECONDS), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "wedgeq" / "__init__.py").is_file():
        print(f"error: no wedgeq sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
