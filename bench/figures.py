"""Regenerate every figure quoted in bench/README.md.

    python3 bench/figures.py

Part 1 (reference figures): per-family ``shadow`` times with their accuracy
against ``reference.py``, the sticking thresholds and credibility unions
against their references, and ``beta_cdf`` against ``scipy.special.betainc``
over a shape ladder up to a = b = 1e8.

Part 2 (steadiness): ``SETS`` sets of ``RUNS`` runs of ``run.py`` on every
workload of ``BENCHMARK.json``, each ``run_seconds`` long as that file says
and with its own seed (set k uses seeds k*100 + 1, ...).  For
every end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and the shift of the median
between the first and the last set.

Part 3 (traced run): one ``--trace 1`` run per workload at seed
``TRACE_SEED``, with its wall time and ``trace.overhead_pct``.  Results also
go to ``bench/out/figures.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
SETS = 2
RUNS = 10
TRACE_SEED = 7


def reference_figures() -> dict:
    import numpy as np
    from scipy.special import betainc

    import boatshape as bs
    import reference as ref
    import workloads

    specs = workloads.load_configs()
    out: dict = {"shadow": {}, "beta_cdf": []}
    for name in ("boat_long", "boat_skewed", "boat_long_rect", "boat_long_seg1"):
        spec = specs[name]
        prior = bs.from_record(dict(spec))
        post = bs.updated(prior, bs.BinomialData(10.0, 5.0))
        bs.shadow(post)
        times = []
        for _ in range(200):
            t0 = time.perf_counter()
            bs.shadow(post)
            times.append(time.perf_counter() - t0)
        worst = 0.0
        for n in workloads.SWEEP_NS:
            for s in np.linspace(0.0, n, 21):
                r = bs.shadow(bs.updated(prior, bs.BinomialData(n, float(s))))
                if spec["kind"] == "boat":
                    lo, hi, _, _ = ref.boat_bounds(spec, n, float(s))
                else:
                    lo, hi = ref.vertex_bounds(spec, n, float(s))
                worst = max(worst, abs(r.y_lo - lo), abs(r.y_hi - hi))
        out["shadow"][workloads.family(spec)] = {
            "config": name, "p50_us": statistics.median(times) * 1e6, "max_abs_err": worst,
        }
    worst = 0.0
    for name in ("boat_long", "boat_small"):
        for n in (2.0, 4.0, 10.0, 100.0, 1e4, 1e6):
            th = bs.agreement_thresholds(bs.from_record(dict(specs[name])).spec, n)
            s_u, s_l = ref.thresholds(specs[name], n)
            worst = max(worst, abs(th.s_u - s_u), abs(th.s_l - s_l))
    out["thresholds_max_abs_err"] = worst
    worst = 0.0
    for name, n, frac in (*workloads.CRED_STUDY, *workloads.CRED_LADDER):
        u = bs.credibility_union(bs.from_record(dict(specs[name])), bs.BinomialData(n, frac * n),
                                 workloads.CRED_GAMMA)
        lo, hi = ref.credibility_union(specs[name], n, frac * n, workloads.CRED_GAMMA)
        worst = max(worst, abs(u.lo - lo), abs(u.hi - hi))
    out["credibility_max_abs_err"] = worst
    for a in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        try:
            got = bs.beta_cdf(bs.BetaShape(a, a), 0.5001)
            err = abs(got - float(betainc(a, a, 0.5001)))
        except bs.NumericError as exc:
            err = f"NumericError: {exc}"
        out["beta_cdf"].append({"a": a, "x": 0.5001, "abs_err": err})
    return out


def run_sets(workloads: list[str], seconds: int) -> dict:
    out: dict = {}
    for w in workloads:
        out[w] = []
        for k in range(1, SETS + 1):
            results = []
            for seed in range(k * 100 + 1, k * 100 + RUNS + 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
                results.append(json.loads(proc.stdout.splitlines()[-1]))
                print(f"{w} set {k} seed {seed}: {proc.stdout.splitlines()[-1]}", file=sys.stderr)
            out[w].append(results)
    return out


def run_traced(workloads: list[str], seconds: int) -> dict:
    out: dict = {}
    for w in workloads:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
               "--seed", str(TRACE_SEED), "--seconds", str(seconds), "--trace", "1"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        out[w] = {"wall_s": time.monotonic() - started, "correct": result["correct"],
                  "overhead_pct": result["metrics"]["trace.overhead_pct"]["value"]}
    return out


def summarize(results: dict) -> str:
    lines = ["| workload | metric | set | median | q1 | q3 | spread | shift | failed/attempted |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for w, sets in results.items():
        first_median = {}
        for k, runs in enumerate(sets, start=1):
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
            for metric in runs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                first_median.setdefault(metric, med)
                shift = med / first_median[metric] - 1.0
                lines.append(
                    f"| {w} | {metric} | {k} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                    f"{(q3 - q1) / med:.1%} | {shift:+.1%} | {' '.join(shares)} |"
                )
    return "\n".join(lines)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    figures: dict = {"reference": reference_figures()}
    print(json.dumps(figures["reference"], indent=2))
    names = [w["name"] for w in bench["workloads"]]
    figures["runs"] = run_sets(names, bench["run_seconds"])
    print(summarize(figures["runs"]))
    figures["traced"] = run_traced(names, bench["run_seconds"])
    print(json.dumps(figures["traced"], indent=2))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "figures.json"), "w", encoding="utf-8") as fh:
        json.dump(figures, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
