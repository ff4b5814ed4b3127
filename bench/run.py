"""Benchmark of the boatshape package: one workload per run, closed loop.

    python3 bench/run.py --workload {sweep,fresh_sets,credibility,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; it uses the package under ``src/`` of the checkout that
holds this file and exits with code 2 if there is none.  One caller runs the
workload's operations back to back for ``--seconds`` (whole rounds), checks
every output against ``reference.py`` after the loop, and prints one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
``SETUP_SAMPLES`` fresh processes, each timed from its start to the point
where it would begin the timed loop; the last of them does the run.
``--trace 1`` alternates rounds without and with a span around every call
into the package, and reports the per-layer metrics (see ``PER_LAYER``) and
the tracing overhead; spans go to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "fresh_sets", "credibility", "cli")
SETUP_SAMPLES = 3
#: Environment of every process the benchmark starts.  One BLAS/OpenMP
#: thread: with a default pool, ``import boatshape`` burns more CPU than wall
#: time and set-up wanders.  A fixed hash seed, so that no two processes
#: differ by their dict layouts.
RUN_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

#: per-layer metric -> (workload it is measured on, unit).  A traced run of
#: another workload measures it on a probe of that workload (``probe_metrics``).
PER_LAYER = {
    "params.BinomialData.p50_us": ("sweep", "us"),
    "shapes.updated.p50_us": ("sweep", "us"),
    "touchpoint.shadow.axis_boat.p50_us": ("sweep", "us"),
    "touchpoint.shadow.rotated_boat.p50_us": ("sweep", "us"),
    "touchpoint.shadow.rectangle.p50_us": ("sweep", "us"),
    "touchpoint.shadow.segment.p50_us": ("sweep", "us"),
    "sweep.params.self_ms_per_op": ("sweep", "ms"),
    "sweep.shapes.self_ms_per_op": ("sweep", "ms"),
    "sweep.touchpoint.self_ms_per_op": ("sweep", "ms"),
    "shapes.boat_set.p50_us": ("fresh_sets", "us"),
    "shapes.rectangle_set.p50_us": ("fresh_sets", "us"),
    "shapes.segment_set.p50_us": ("fresh_sets", "us"),
    "touchpoint.shadow.new_spec.p50_us": ("fresh_sets", "us"),
    "touchpoint.agreement_thresholds.p50_us": ("fresh_sets", "us"),
    "touchpoint.learning_phase.p50_us": ("fresh_sets", "us"),
    "fresh_sets.params.self_ms_per_op": ("fresh_sets", "ms"),
    "fresh_sets.shapes.self_ms_per_op": ("fresh_sets", "ms"),
    "fresh_sets.touchpoint.self_ms_per_op": ("fresh_sets", "ms"),
    "inference.credibility_union.small_n.p50_ms": ("credibility", "ms"),
    "inference.credibility_union.large_n.p50_ms": ("credibility", "ms"),
    "inference.beta_quantile.small_shape.p50_us": ("credibility", "us"),
    "inference.beta_quantile.large_shape.p50_us": ("credibility", "us"),
    "inference.beta_cdf.small_shape.p50_us": ("credibility", "us"),
    "inference.beta_cdf.large_shape.p50_us": ("credibility", "us"),
    "credibility.params.self_ms_per_op": ("credibility", "ms"),
    "credibility.inference.self_ms_per_op": ("credibility", "ms"),
    "oracle.grid_shadow.p50_ms": ("cli", "ms"),
    "cli.import_ms": ("cli", "ms"),
    "cli.main.p50_ms": ("cli", "ms"),
    "cli.cli.self_ms_per_op": ("cli", "ms"),
    "cli.oracle.self_ms_per_op": ("cli", "ms"),
    "trace.overhead_pct": (None, "%"),
}
SCALE = {"us": 1e6, "ms": 1e3}
IMPORT_PROBES = 5


def worker_timeout(seconds: float) -> float:
    """A cap on one worker: the loop ends with a whole round after
    ``seconds``, and a traced run adds its probes."""
    return 2.0 * seconds + 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--role", default="main", choices=("main", "setup", "work"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# orchestration: set-up samples and the worker, one child at a time


def orchestrate(args: argparse.Namespace) -> int:
    os.environ.update(RUN_ENV)
    samples = 1 if args.trace else SETUP_SAMPLES
    setup = []
    result = None
    for k in range(samples):
        role = "work" if k == samples - 1 else "setup"
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--role", role]
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=worker_timeout(args.seconds))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            print(f"error: {role} process exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = out.splitlines()
        ready = [line for line in lines if line.startswith("ready ")]
        setup.append(float(ready[0].split()[1]) - started)
        if role == "work":
            result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END_UNITS}
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# worker


def direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_time_by_layer(self, roots: tuple[str, ...]) -> dict[str, float]:
        """Summed self time (span minus its child spans) per layer, over the
        trees whose root span's layer is in ``roots``."""
        child_time = [0.0] * len(self.spans)
        root = [""] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = name.split(".", 1)[0]
        total: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if root[i] in roots:
                layer = name.split(".", 1)[0]
                total[layer] = total.get(layer, 0.0) + (end - start) - child_time[i]
        return total


class Record:
    __slots__ = ("op", "latency", "output", "error", "traced")

    def __init__(self, op, latency, output, error, traced):
        self.op, self.latency, self.output, self.error = op, latency, output, error
        self.traced = traced


def timed_loop(wl, seconds: float, errors: tuple, tracer: Tracer | None = None):
    """Whole rounds, one operation at a time, until ``seconds`` have passed.

    With a tracer, odd rounds are traced and even rounds are not (at least
    one of each), so the two halves see the same mix and the same drift of
    the machine.
    """
    records = []
    started = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for op in wl.next_round():
            t0 = time.perf_counter()
            try:
                if traced:
                    output = tracer.call("op." + op.kind, op.run, tracer.call)
                else:
                    output = op.run(direct)
                error = None
            except errors as exc:
                # keep no traceback: its frames would pin the solver's arrays
                output, error = None, (type(exc).__name__, str(exc))
            records.append(Record(op, time.perf_counter() - t0, output, error, traced))
            if traced and error is None:
                run_extra(tracer, op, output)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (tracer is None or rounds >= 2):
            return records, elapsed


def run_extra(tracer: Tracer, op, output) -> None:
    """The operation's traced-only extra, outside its latency."""
    if op.extra is not None:
        root = "replay." if op.replay else "probe."
        tracer.call(root + op.kind, op.extra, tracer.call, output)


def judge(records) -> tuple[bool, int, list[str]]:
    """Check every output; returns (correct, failed, unexpected problems).

    An operation that repeats (same inputs in a later round) must give the
    same output as its first run, which is checked against the reference.
    """
    verdicts: dict[object, tuple[list, object]] = {}
    failed = 0
    unexpected: list[str] = []
    for rec in records:
        outcome = ("raised", rec.error[0]) if rec.error is not None else rec.output
        if rec.op not in verdicts:
            if rec.error is not None:
                problems = [(f"raised:{rec.error[0]}", rec.error[1])]
            else:
                problems = rec.op.check(rec.output)
            verdicts[rec.op] = (problems, outcome)
        problems, first = verdicts[rec.op]
        if outcome != first:
            problems = problems + [("repeat", "output differs from the first run")]
        if problems:
            failed += 1
            unexpected += [f"{rec.op.kind}: {label}: {msg}" for label, msg in problems
                           if label not in rec.op.known_fault]
    return not unexpected, failed, unexpected


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def loop_metrics(records, elapsed: float) -> dict[str, float]:
    """Throughput, median and 90th-percentile latency of a timed loop.

    The latency figures are taken over the run's distinct operations, each
    at its median over the rounds it ran in (an operation that never repeats,
    as in ``fresh_sets``, counts with its one latency).  A ``cli`` run has 30
    operations, 10 distinct ones, and its p90 over all 30 was the slowest of
    the 9 non-axis ``sweep`` children: a maximum, which spread by up to 27 %
    between runs of the same code.

    The tail is the p90, not the p99: on a shared machine, stalls of
    several ms hit a small share of operations in busy spells, and the p99
    then measures the stalls.  Between two sets of ten runs of the
    same code, the ``fresh_sets`` p99 spread by 38 % and 54 % and moved by
    30 %, while its median moved by 4 %.
    """
    by_op: dict[object, list[float]] = {}
    for rec in records:
        by_op.setdefault(rec.op, []).append(rec.latency)
    latencies = sorted(statistics.median(values) for values in by_op.values())
    return {
        "ops_per_s": len(records) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": nearest_rank(latencies, 90.0) * 1e3,
    }


def prepare(name: str, seed: int, warm_children: bool = True):
    import workloads

    wl = workloads.FACTORIES[name](seed % (1 << 64))  # numpy seeds are non-negative
    if not wl.children:
        import boatshape

        if not os.path.abspath(boatshape.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"error: boatshape imported from {boatshape.__file__}, not {SRC}")
        errors = (boatshape.InvalidParameterError, boatshape.NumericError)
    else:
        errors = ()
        if not warm_children:
            return wl, errors
    for op in wl.warmup:
        try:
            op.run(direct)
        except errors:
            pass
    return wl, errors


def probe_metrics(name: str, seed: int) -> dict[str, float]:
    """Per-layer metrics of workload ``name`` from its second round, traced
    whole after the workload's untraced warm-up, as its own traced rounds
    are.  No operation of that round has run before: the warm-up takes the
    first round's operations (``sweep``) or operations of its own, and
    ``fresh_sets`` specs are new, so they miss the geometry cache.  For
    ``cli`` only the in-process replays run, with no warm-up children: a
    child opens no span, so its metrics come from the replays alone."""
    wl, errors = prepare(name, seed, warm_children=False)
    wl.next_round()
    ops = wl.next_round()
    tracer = Tracer()
    for op in ops:
        if op.replay:
            run_extra(tracer, op, None)
            continue
        try:
            output = tracer.call("op." + op.kind, op.run, tracer.call)
        except errors:
            continue
        run_extra(tracer, op, output)
    return layer_metrics(name, tracer, len(ops))


def layer_metrics(name: str, tracer: Tracer, ops: int) -> dict[str, float]:
    durations = tracer.durations()
    self_time = tracer.self_time_by_layer(("op", "replay"))
    out = {}
    for metric, (home, unit) in PER_LAYER.items():
        if home != name:
            continue
        if metric.endswith(".self_ms_per_op"):
            layer = metric.split(".")[1]
            out[metric] = self_time.get(layer, 0.0) * 1e3 / ops
        elif metric == "cli.import_ms":
            out[metric] = import_ms()
        else:
            span = metric.rsplit(".", 1)[0]
            out[metric] = statistics.median(durations[span]) * SCALE[unit]
    return out


def import_ms() -> float:
    import workloads

    probe = ("import time; t = time.perf_counter(); import boatshape.cli; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        code, out = workloads.run_child(["-c", probe])
        if code != 0:
            raise SystemExit(f"error: import probe failed: {out}")
        times.append(float(out.split()[-1]) * 1e3)
    return statistics.median(times)


def work(args: argparse.Namespace) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    wl, errors = prepare(args.workload, args.seed)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.role == "setup":
        return 0

    if not args.trace:
        records, elapsed = timed_loop(wl, args.seconds, errors)
        if wl.children:
            peak_rss_mb = max(wl.child_peaks_mb)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {**loop_metrics(records, elapsed), "peak_rss_mb": peak_rss_mb}
    else:
        tracer = Tracer()
        records, _ = timed_loop(wl, args.seconds, errors, tracer)
        traced = [r.latency for r in records if r.traced]
        plain = [r.latency for r in records if not r.traced]
        metrics = layer_metrics(args.workload, tracer, len(traced))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
        for other in WORKLOADS:
            if other != args.workload:
                metrics.update(probe_metrics(other, args.seed))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
        metrics = {k: metrics[k] for k in PER_LAYER}

    correct, failed, unexpected = judge(records)
    for line in unexpected[:10]:
        print("check failed: " + line, file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else {k: v[1] for k, v in PER_LAYER.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boatshape", "__init__.py")) or not os.path.isdir(
        os.path.join(ROOT, "configs")
    ):
        print(f"error: no boatshape package under {SRC}", file=sys.stderr)
        return 2
    if args.role == "main":
        return orchestrate(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
