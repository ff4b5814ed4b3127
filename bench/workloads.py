"""The benchmark's workloads: seeded inputs, operations, and output checks.

A workload hands out *rounds*: lists of operations that the timed loop runs in
order, one at a time.  Every round of a workload holds the same kinds of
operations in the same order, so the share of failed operations is the same
in every run.  An operation calls the program through ``call(name, fn,
*args)``, which is a plain call in a timed run and opens a span in a traced
run; the span names are the per-layer metric names.

After the timed loop every output is checked against ``reference`` (which
does not import the program) or against properties the method must have.
A check returns ``(label, message)`` problems.  An operation may name the
labels of one known fault it shows today (``known_fault``): those problems
count the operation as failed but leave the run correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
CONFIG_NAMES = (
    "boat_long", "boat_long_rect", "boat_long_seg1", "boat_long_seg2",
    "boat_skewed", "boat_skewed_rect", "boat_skewed_seg1", "boat_skewed_seg2",
    "boat_small", "boat_small_rect", "segment_demo",
)


def child_env() -> dict[str, str]:
    """This process's environment (set by ``run.py``) with the package
    taken from this checkout."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


Call = Callable[..., Any]
Problem = tuple[str, str]


@dataclass(eq=False)
class Op:
    """One operation: ``run(call)`` returns the output that ``check`` judges.

    ``extra(call, output)`` runs after the operation in a traced run only,
    outside its latency; ``replay`` marks an extra that redoes the operation
    in-process (its spans count towards the layers' self time per operation).
    """

    kind: str
    run: Callable[[Call], Any]
    check: Callable[[Any], list[Problem]]
    known_fault: frozenset[str] = frozenset()
    extra: Callable[[Call, Any], None] | None = None
    replay: bool = False


@dataclass
class Workload:
    warmup: list[Op]
    next_round: Callable[[], list[Op]]
    #: set when the process that does the work is a child per operation
    #: (cli): each child's own peak resident set, in MB
    child_peaks_mb: list[float] | None = None

    @property
    def children(self) -> bool:
        return self.child_peaks_mb is not None


def _bs():
    import boatshape

    return boatshape


def read_config(path: str) -> dict:
    """A ``key = value`` shape file as a dict of floats plus ``kind``."""
    spec: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                spec[key] = value if key == "kind" else float(value)
    if spec["kind"] == "boat":
        spec.setdefault("y_c", 0.5)
    return spec


def load_configs() -> dict[str, dict]:
    return {name: read_config(os.path.join(CONFIG_DIR, name + ".cfg")) for name in CONFIG_NAMES}


def family(spec: dict) -> str:
    if spec["kind"] == "boat":
        return "axis_boat" if spec["y_c"] == 0.5 else "rotated_boat"
    return spec["kind"]


# --------------------------------------------------------------------------
# checks shared by the library workloads


def _ref():
    import reference

    return reference


def _check_rows(spec: dict, n: float, rows: list[tuple]) -> list[Problem]:
    """Rows ``(s, y_lo, y_hi, phase)`` in ascending ``s`` of one table."""
    ref = _ref()
    problems: list[Problem] = []
    for s, y_lo, y_hi, phase in rows:
        problems += [("bounds", m) for m in ref.check_bounds(spec, n, s, y_lo, y_hi)]
        problems += [("phase", m) for m in ref.check_phase(spec, n, s, phase)]
    svals, los, his, _ = zip(*rows)
    problems += [("monotone", m) for m in ref.check_monotone(svals, los, his)]
    return problems


def _check_phase_agreement(
    n: float, rows: list[tuple], learning: list[str], s_u: float, s_l: float
) -> list[Problem]:
    """``learning_phase`` must equal ``shadow(...).phase``, and the shadow's
    stuck flags must switch at the reported thresholds."""
    ref = _ref()
    problems = []
    margin = ref.PHASE_MARGIN * max(1.0, n)
    for (s, _, _, phase), lp in zip(rows, learning):
        if lp != phase:
            problems.append(("phase_agreement", f"s={s}: learning_phase {lp} vs shadow {phase}"))
        t = max(s, n - s)
        first, second = (s_u, s_l) if s >= 0.5 * n else (s_l, s_u)
        if abs(t - first) < margin or abs(t - second) < margin:
            continue
        if ref.phase_name(t >= first, t >= second) != phase:
            problems.append(
                ("phase_agreement", f"s={s}: shadow {phase} vs thresholds ({s_u}, {s_l})")
            )
    return problems


# --------------------------------------------------------------------------
# sweep: the study tables through the library

SWEEP_NS = (4.0, 10.0, 100.0, 1e4, 1e6)
SWEEP_INNER = 19  # jittered s values strictly inside (0, n), plus both ends


def build_sweep(seed: int) -> Workload:
    bs = _bs()
    rng = np.random.default_rng([seed, 1])
    specs = load_configs()
    sets = {name: bs.from_record(dict(spec)) for name, spec in specs.items()}
    tables = []
    for name in CONFIG_NAMES:
        spec, prior = specs[name], sets[name]
        for n in SWEEP_NS:
            fracs = (np.arange(SWEEP_INNER) + rng.uniform(0.05, 0.95, SWEEP_INNER)) / SWEEP_INNER
            svals = [0.0, *(float(f * n) for f in fracs), n]
            seen: dict[int, tuple] = {}
            tables.append([_sweep_row(spec, prior, n, svals, k, seen) for k in range(len(svals))])
    # Round k holds row k of every table, so a run that stops after any round
    # has the full family mix, and rows reach the checks in ascending s.
    rounds = [list(rows) for rows in zip(*tables)]
    firsts: dict[str, Op] = {}
    for op in (op for rows in rounds for op in rows):
        firsts.setdefault(op.kind, op)
    cycle = itertools.cycle(rounds)
    return Workload(list(firsts.values()), lambda: next(cycle))


def _sweep_row(spec: dict, prior, n: float, svals: list[float], k: int,
               seen: dict[int, tuple]) -> Op:
    """Row ``k`` of one table; like CLI ``sweep``, the first row of an axis
    boat table also computes the table's sticking thresholds."""
    bs = _bs()
    fam = family(spec)
    s = svals[k]
    thresholds = k == 0 and fam == "axis_boat"
    shadow_name = "touchpoint.shadow." + fam

    def run(call: Call):
        data = call("params.BinomialData", bs.BinomialData, n, s)
        post = call("shapes.updated", bs.updated, prior, data)
        r = call(shadow_name, bs.shadow, post)
        th = None
        if thresholds:
            t = call("touchpoint.agreement_thresholds", bs.agreement_thresholds, prior.spec, n)
            th = (t.s_u, t.s_l)
        return r.y_lo, r.y_hi, r.phase.value, th

    def check(out) -> list[Problem]:
        ref = _ref()
        y_lo, y_hi, phase, th = out
        seen[k] = out
        problems = [("bounds", m) for m in ref.check_bounds(spec, n, s, y_lo, y_hi)]
        problems += [("phase", m) for m in ref.check_phase(spec, n, s, phase)]
        if k - 1 in seen:
            prev = seen[k - 1]
            problems += [("monotone", m) for m in ref.check_monotone(
                svals[k - 1:k + 1], (prev[0], y_lo), (prev[1], y_hi))]
        if th is not None:
            problems += [("thresholds", m) for m in ref.check_thresholds(spec, n, *th)]
        return problems

    return Op(fam + "_table" if thresholds else fam, run, check)


# --------------------------------------------------------------------------
# fresh_sets: seeded random specs, each built new

FRESH_S_PER_OP = 2
#: one round: families in this order, then the fixed rotated-boat phase case
FRESH_MIX = ("axis_boat", "axis_boat", "rotated_boat", "rectangle", "segment") * 2
#: ``boat_skewed.cfg`` with n = 10: ``learning_phase`` and
#: ``agreement_thresholds`` ignore y_c, so they contradict ``shadow`` here on
#: every run (s = 5 gives HappyBoth against UnhappyUpper).
SKEWED_CASE = ({"kind": "boat", "eta0_lo": -1.0, "eta0_hi": 20.0, "a": 1.0, "b": 0.4,
                "y_c": 0.75}, 10.0, (5.0, 8.0))


def random_spec(rng: np.random.Generator, fam: str) -> dict:
    """An admissible spec of the family; boats keep a*b below the wedge
    half-angle left after rotation, so they never leave the wedge."""
    if fam in ("axis_boat", "rotated_boat"):
        y_c = 0.5
        if fam == "rotated_boat":
            y_c = 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.08, 0.3)
        room = math.tan(math.atan(0.5) - abs(math.atan(y_c - 0.5)))
        lo = rng.uniform(-1.5, 6.0)
        b = rng.uniform(0.15, 1.5)
        a = rng.uniform(0.3, 0.9) * room / b
        return {"kind": "boat", "eta0_lo": lo, "eta0_hi": lo + rng.uniform(2.0, 30.0),
                "a": a, "b": b, "y_c": y_c}
    y_lo = rng.uniform(0.05, 0.75)
    y_hi = y_lo + rng.uniform(0.02, 0.95 - y_lo)
    if fam == "rectangle":
        n_lo = rng.uniform(0.5, 10.0)
        return {"kind": "rectangle", "n_lo": n_lo, "n_hi": n_lo + rng.uniform(0.5, 30.0),
                "y_lo": y_lo, "y_hi": y_hi}
    return {"kind": "segment", "n0": rng.uniform(0.5, 20.0), "y_lo": y_lo, "y_hi": y_hi}


def _fresh_op(spec: dict, n: float, svals: tuple[float, ...], known_fault=frozenset()) -> Op:
    bs = _bs()
    fam = family(spec)
    kind = spec["kind"]
    # the phase APIs take a BoatshapeSpec and ignore y_c; they are called on
    # axis boats and on the one fixed rotated case that shows the fault
    phases = fam == "axis_boat" or bool(known_fault)
    if kind == "boat":
        factory, args = bs.boat_set, [spec[k] for k in ("eta0_lo", "eta0_hi", "a", "b", "y_c")]
    elif kind == "rectangle":
        factory, args = bs.rectangle_set, [spec[k] for k in ("n_lo", "n_hi", "y_lo", "y_hi")]
    else:
        factory, args = bs.segment_set, [spec[k] for k in ("n0", "y_lo", "y_hi")]
    factory_name = "shapes." + factory.__name__

    def run(call: Call):
        prior = call(factory_name, factory, *args)
        th = None
        if phases:
            t = call("touchpoint.agreement_thresholds", bs.agreement_thresholds, prior.spec, n)
            th = (t.s_u, t.s_l)
        rows, learning = [], []
        for k, s in enumerate(svals):
            data = call("params.BinomialData", bs.BinomialData, n, s)
            post = call("shapes.updated", bs.updated, prior, data)
            # the fixed case repeats every round, so its spec is cached
            new = k == 0 and not known_fault
            name = "touchpoint.shadow.new_spec" if new else "touchpoint.shadow." + fam
            r = call(name, bs.shadow, post)
            rows.append((s, r.y_lo, r.y_hi, r.phase.value))
            if phases:
                lp = call("touchpoint.learning_phase", bs.learning_phase, prior.spec, data)
                learning.append(lp.value)
        return rows, learning, th

    def check(out):
        rows, learning, th = out
        problems = _check_rows(spec, n, rows)
        if th is not None:
            if fam == "axis_boat":
                problems += [("thresholds", m) for m in _ref().check_thresholds(spec, n, *th)]
            problems += _check_phase_agreement(n, rows, learning, *th)
        return problems

    return Op(fam if not known_fault else "skewed_phase", run, check, frozenset(known_fault))


def build_fresh_sets(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])

    def one(fam: str, rng: np.random.Generator) -> Op:
        spec = random_spec(rng, fam)
        n = float(rng.choice((10.0, 100.0)))
        svals = tuple(sorted(float(v) for v in rng.uniform(0.0, n, FRESH_S_PER_OP)))
        return _fresh_op(spec, n, svals)

    def skewed() -> Op:
        spec, n, svals = SKEWED_CASE
        return _fresh_op(spec, n, svals, known_fault={"phase_agreement"})

    # warm-up specs come from their own stream, so timed specs stay unseen
    warm_rng = np.random.default_rng([seed, 2, 0])
    warmup = [one(fam, warm_rng) for fam in dict.fromkeys(FRESH_MIX)] + [skewed()]

    def next_round() -> list[Op]:
        return [one(fam, rng) for fam in FRESH_MIX] + [skewed()]

    return Workload(warmup, next_round)


# --------------------------------------------------------------------------
# credibility: unions of central credibility intervals

CRED_GAMMA = 0.5
#: (config, n, s/n); the ladder jitters s/n by up to CRED_JITTER per seed
CRED_STUDY = (
    ("boat_small", 4.0, 0.5), ("boat_small_rect", 4.0, 0.5),
    ("boat_long", 10.0, 0.5), ("boat_long_rect", 10.0, 0.5),
    ("boat_long_seg1", 10.0, 0.5), ("boat_long_seg2", 10.0, 0.5),
    ("boat_skewed", 10.0, 0.5),
)
CRED_LADDER = tuple(("boat_long", n, f) for n in (100.0, 1e3, 1e4) for f in (0.5, 0.7))
CRED_JITTER = 0.005
#: continued fraction stops converging: NumericError after ~0.13 s today
CRED_LARGE = (("boat_long", 1e6, 0.5), ("boat_long", 1e7, 0.5))
CRED_WARMUP = (("boat_long_rect", 10.0, 0.5), ("boat_long", 1e3, 0.5))


def _cred_op(spec: dict, prior, n: float, s: float, known_fault=frozenset()) -> Op:
    bs = _bs()
    size = "small_n" if n <= 100.0 else "large_n"

    def run(call: Call):
        data = call("params.BinomialData", bs.BinomialData, n, s)
        u = call("inference.credibility_union." + size, bs.credibility_union, prior, data,
                 CRED_GAMMA)
        return u.lo, u.hi

    def check(out):
        return [("credibility", m)
                for m in _ref().check_credibility(spec, n, s, CRED_GAMMA, *out)]

    def extra(call: Call, out) -> None:
        # the public special functions on one posterior the union ranges
        # over: that of the set's bow (boats) or low corner
        n0, y0 = _first_member(spec)
        shape = bs.BetaShape(n0 * y0 + s, n0 * (1.0 - y0) + n - s)
        label = "small_shape" if n <= 100.0 else "large_shape"
        q = call("inference.beta_quantile." + label, bs.beta_quantile, shape,
                 0.5 * (1.0 - CRED_GAMMA))
        call("inference.beta_cdf." + label, bs.beta_cdf, shape, q)

    # no extra for the failing sizes: beta_quantile takes seconds or raises there
    return Op(size, run, check, frozenset(known_fault), None if known_fault else extra)


def _first_member(spec: dict) -> tuple[float, float]:
    """(strength, mean) of the bow of a boat, or the low corner otherwise."""
    if spec["kind"] == "boat":
        theta = math.atan(spec["y_c"] - 0.5)
        x = spec["eta0_lo"] + 2.0
        return x * math.cos(theta), 0.5 + math.tan(theta)
    if spec["kind"] == "rectangle":
        return spec["n_lo"], spec["y_lo"]
    return spec["n0"], spec["y_lo"]


def build_credibility(seed: int) -> Workload:
    bs = _bs()
    rng = np.random.default_rng([seed, 3])
    specs = load_configs()
    sets = {}

    def op(name: str, n: float, frac: float, known_fault=frozenset()) -> Op:
        if name not in sets:
            sets[name] = bs.from_record(dict(specs[name]))
        return _cred_op(specs[name], sets[name], n, frac * n, known_fault)

    ladder = [(name, n, f + rng.uniform(-CRED_JITTER, CRED_JITTER)) for name, n, f in CRED_LADDER]
    ops = [op(*c) for c in (*CRED_STUDY, *ladder)]
    ops += [op(*c, known_fault={"raised:NumericError"}) for c in CRED_LARGE]
    warmup = [op(*c) for c in CRED_WARMUP]
    return Workload(warmup, lambda: ops)


# --------------------------------------------------------------------------
# cli: one `python -m boatshape.cli` child per operation

CLI_TIMEOUT_S = 120.0


def _cfg(name: str) -> list[str]:
    return ["--shape-config", os.path.join("configs", name + ".cfg")]


def run_child(args: list[str]) -> tuple[int, str]:
    """Run ``python <args>`` from the checkout root, wait for it, and return
    its exit code and its stdout and stderr merged."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=CLI_TIMEOUT_S, check=False,
    )
    return proc.returncode, proc.stdout


def _opts(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs of a command line; bare flags map to ""."""
    opts = {}
    for k, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else "--"
            opts[token] = "" if nxt.startswith("--") else nxt
    return opts


def _parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


#: CSV floats carry 12 significant digits
PRINT_TOL = 2e-11


def _cli_checks(argv: list[str], specs: dict[str, dict]) -> Callable[[str], list[Problem]]:
    """The check for one command's stdout.  The references are imported
    when the check first runs, after the timed loop, not when it is built."""
    cmd = argv[0]
    opts = _opts(argv)
    spec = None
    if "--shape-config" in opts:
        spec = specs[os.path.basename(opts["--shape-config"])[:-4]]
    n = float(opts.get("--n", "nan"))

    def bounds_row(row: dict, s: float) -> list[Problem]:
        ref = _ref()
        y_lo, y_hi = float(row["y_lo"]), float(row["y_hi"])
        p = [("bounds", m) for m in ref.check_bounds(
            spec, n, s, y_lo, y_hi, tol=PRINT_TOL, outside_tol=PRINT_TOL)]
        if not _close(float(row["delta"]), y_hi - y_lo, PRINT_TOL):
            p.append(("bounds", f"delta {row['delta']} vs {y_hi - y_lo}"))
        p += [("phase", m) for m in ref.check_phase(spec, n, s, row["phase"])]
        return p

    def check(text: str) -> list[Problem]:
        ref = _ref()
        rows = _parse(text)
        if cmd == "sweep":
            step = float(opts["--s-step"])
            svals = [min(k * step, n) for k in range(int(round(n / step)) + 1)]
            if [float(r["s"]) for r in rows] != [float(format(s, ".12g")) for s in svals]:
                return [("rows", f"unexpected s column for {argv}")]
            p = []
            for row, s in zip(rows, svals):
                p += bounds_row(row, s)
            los = [float(r["y_lo"]) for r in rows]
            his = [float(r["y_hi"]) for r in rows]
            p += [("monotone", m) for m in ref.check_monotone(svals, los, his)]
            if family(spec) == "axis_boat":
                s_u, s_l = ref.thresholds(spec, n)
                for row in rows:
                    if not (_close(float(row["s_u"]), s_u, ref.THRESHOLD_TOL)
                            and _close(float(row["s_l"]), s_l, ref.THRESHOLD_TOL)):
                        p.append(("thresholds", f"sweep columns {row['s_u']}, {row['s_l']}"))
                        break
            elif any(row["s_u"] or row["s_l"] for row in rows):
                p.append(("thresholds", "threshold columns filled for a non-axis shape"))
            return p
        if len(rows) != 1:
            return [("rows", f"{len(rows)} rows from {argv}")]
        row = rows[0]
        if cmd == "bounds":
            s = float(opts["--s"])
            p = bounds_row(row, s)
            for tp in ("tp_lo", "tp_hi"):
                if not spec["eta0_lo"] + n - 1e-9 <= float(row[tp]) <= spec["eta0_hi"] + n + 1e-9:
                    p.append(("bounds", f"{tp} {row[tp]} outside the posterior set"))
            if "--verify" in argv:
                lo, hi = float(row["y_lo"]), float(row["y_hi"])
                g_lo, g_hi = float(row["grid_y_lo"]), float(row["grid_y_hi"])
                dis = max(abs(g_lo - lo), abs(g_hi - hi))
                if not (g_lo >= lo - PRINT_TOL and g_hi <= hi + PRINT_TOL and dis <= 1e-3):
                    p.append(("oracle", f"grid bounds [{g_lo}, {g_hi}] vs [{lo}, {hi}]"))
                if not _close(float(row["disagreement"]), dis, 1e-9):
                    p.append(("oracle", f"disagreement {row['disagreement']} vs {dis}"))
            return p
        if cmd == "thresholds":
            s_u, s_l = ref.thresholds(spec, n)
            want = {"s_u": s_u, "s_l": s_l, "happy_lo": n - min(s_u, s_l),
                    "happy_hi": min(s_u, s_l), "upper_slope": 1.0 / (spec["eta0_lo"] + n + 2.0),
                    "lower_slope": 1.0 / (spec["eta0_hi"] + n + 2.0)}
            return [("thresholds", f"{k} {row[k]} vs {v!r}") for k, v in want.items()
                    if not _close(float(row[k]), v, ref.THRESHOLD_TOL)]
        if cmd == "transform":
            n0, y0 = float(opts["--n0"]), float(opts["--y0"])
            want = {"n0": n0, "y0": y0, "eta0": n0 - 2.0, "eta1": n0 * (y0 - 0.5)}
            return [("transform", f"{k} {row[k]} vs {v!r}") for k, v in want.items()
                    if not _close(float(row[k]), v, PRINT_TOL)]
        if cmd == "validate":
            margin = ref.worst_margin(spec)
            got = float(row["worst_margin"])
            if row["ok"] != "true" or int(row["samples"]) < 10000 or not _close(got, margin, 1e-5):
                return [("validate", f"{row} vs dense worst margin {margin!r}")]
            return []
        if cmd == "credibility":
            s, gamma = float(opts["--s"]), float(opts["--gamma"])
            return [("credibility", m) for m in ref.check_credibility(
                spec, n, s, gamma, float(row["lo"]), float(row["hi"]))]
        return [("rows", f"no check for {cmd}")]

    return check


#: What each cli child runs in place of ``-m boatshape.cli``: the module as
#: ``-m`` runs it, then the child's own peak resident set (VmHWM, kB) as the
#: last line of stderr.  ``ru_maxrss`` would not do: Linux carries the
#: parent's peak over fork and exec into the child's.
CLI_CHILD = """
import runpy, sys
sys.argv[0] = "boatshape.cli"
try:
    runpy.run_module("boatshape.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write(next(x for x in fh if x.startswith("VmHWM:")).split()[1] + "\\n")
"""


def run_cli(argv: list[str], peaks_mb: list[float]) -> tuple[int, str]:
    """Run one cli command as a child from the checkout root and wait for
    it; returns its exit code and stdout (with stderr if it failed), and
    appends its peak resident set to ``peaks_mb``."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S,
        check=False,
    )
    err = proc.stderr.rsplit("\n", 2)
    peaks_mb.append(int(err[-2]) / 1024.0)
    return proc.returncode, proc.stdout if proc.returncode == 0 else proc.stdout + err[0]


def _cli_op(argv: list[str], specs: dict[str, dict], peaks_mb: list[float]) -> Op:
    text_check = _cli_checks(argv, specs)

    def run(call: Call):
        return run_cli(argv, peaks_mb)

    def check(output) -> list[Problem]:
        code, out = output
        if code != 0:
            return [("exit", f"{argv} exited {code}: {out.strip()}")]
        return text_check(out)

    def extra(call: Call, output) -> None:
        # the same command in-process, and the oracle call behind --verify
        from boatshape import cli

        with contextlib.redirect_stdout(io.StringIO()):
            call("cli.main", cli.main, argv)
        if "--verify" in argv:
            lib = _bs()
            opts = _opts(argv)
            record = dict(specs[os.path.basename(opts["--shape-config"])[:-4]])
            prior = call("shapes.from_record", lib.from_record, record)
            data = call("params.BinomialData", lib.BinomialData, float(opts["--n"]),
                        float(opts["--s"]))
            post = call("shapes.updated", lib.updated, prior, data)
            grid = call("oracle.GridSpec", lib.GridSpec, int(opts["--grid"]))
            call("oracle.grid_shadow", lib.grid_shadow, post, grid)

    return Op(argv[0] + ("_verify" if "--verify" in argv else ""), run, check,
              extra=extra, replay=True)


def build_cli(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    specs = load_configs()

    def num(v: float) -> str:
        return format(v, ".6f")

    commands = [
        ["sweep", *_cfg(name), "--n", "10", "--s-step", "0.1"]
        for name in ("boat_long", "boat_long_rect", "boat_long_seg1", "boat_long_seg2")
    ]
    commands += [
        ["bounds", *_cfg("boat_long"), "--n", "10", "--s", num(rng.uniform(0.0, 10.0))],
        ["thresholds", *_cfg("boat_long"), "--n", "10"],
        ["transform", "--n0", num(rng.uniform(0.5, 20.0)), "--y0", num(rng.uniform(0.05, 0.95))],
        ["validate", *_cfg("boat_skewed")],
        ["credibility", *_cfg("boat_small"), "--n", "4", "--s", "2", "--gamma", "0.5"],
        ["bounds", *_cfg("boat_long"), "--n", "10", "--s", num(rng.uniform(0.0, 10.0)),
         "--verify", "--grid", "200"],
    ]
    peaks_mb: list[float] = []
    ops = [_cli_op(argv, specs, peaks_mb) for argv in commands]
    # one warm-up child per subcommand; credibility on the cheapest study set
    warm = [commands[0], *commands[4:8],
            ["credibility", *_cfg("boat_skewed"), "--n", "10", "--s", "5", "--gamma", "0.5"],
            commands[9]]
    warmup = [_cli_op(argv, specs, peaks_mb) for argv in warm]
    return Workload(warmup, lambda: ops, child_peaks_mb=peaks_mb)


FACTORIES = {
    "sweep": build_sweep,
    "fresh_sets": build_fresh_sets,
    "credibility": build_credibility,
    "cli": build_cli,
}
