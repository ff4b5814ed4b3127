"""Tests of the benchmark's own checks: each accepts the program's output and
rejects a perturbed bound or a wrong phase.

    python3 bench/selfcheck.py

Exits 0 when every case behaves, 1 otherwise.  (Not named ``test_*.py`` so
that the package's pytest run does not collect it.)
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import boatshape as bs  # noqa: E402
import reference as ref  # noqa: E402
from boatshape import cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def shadow_of(spec: dict, n: float, s: float):
    return bs.shadow(bs.updated(bs.from_record(dict(spec)), bs.BinomialData(n, s)))


SPECS = workloads.load_configs()


@case
def bounds_accept_program_and_reject_perturbation():
    for name in ("boat_long", "boat_skewed", "boat_small_rect", "segment_demo"):
        spec = SPECS[name]
        for n, s in ((10.0, 3.7), (1e4, 7123.0)):
            r = shadow_of(spec, n, s)
            expect(not ref.check_bounds(spec, n, s, r.y_lo, r.y_hi), f"{name} rejected")
            for d_lo, d_hi in ((-1e-9, 0.0), (0.0, 1e-9), (1e-9, 0.0)):
                expect(ref.check_bounds(spec, n, s, r.y_lo + d_lo, r.y_hi + d_hi),
                       f"{name} accepted a bound moved by {d_lo or d_hi}")


@case
def boat_members_may_not_lie_outside_the_bounds():
    spec = SPECS["boat_long"]
    r = shadow_of(spec, 10.0, 6.0)
    # moved inward by far less than the two-sided tolerance
    expect(ref.check_bounds(spec, 10.0, 6.0, r.y_lo + 1e-13, r.y_hi, tol=1.0),
           "a member below the lower bound went unnoticed")


@case
def thresholds_accept_program_and_reject_perturbation():
    for name in ("boat_long", "boat_small"):
        spec = SPECS[name]
        th = bs.agreement_thresholds(bs.from_record(dict(spec)).spec, 10.0)
        expect(not ref.check_thresholds(spec, 10.0, th.s_u, th.s_l), f"{name} rejected")
        expect(ref.check_thresholds(spec, 10.0, th.s_u, th.s_l + 1e-7), f"{name} s_l + 1e-7")


@case
def phases_accept_program_and_reject_a_wrong_phase():
    for name in ("boat_long", "boat_small", "boat_long_rect", "boat_small_rect", "segment_demo"):
        spec = SPECS[name]
        for s in (0.4, 2.5, 5.0, 6.3, 8.8, 10.0):
            phase = shadow_of(spec, 10.0, s).phase.value
            expect(not ref.check_phase(spec, 10.0, s, phase), f"{name} s={s} {phase} rejected")
            want = ref.expected_phase(spec, 10.0, s)
            if want is not None:
                wrong = next(p for p in ("HappyBoth", "UnhappyBoth") if p != want)
                expect(ref.check_phase(spec, 10.0, s, wrong), f"{name} s={s} accepted {wrong}")


@case
def learning_phase_agreement_shows_the_rotated_boat_fault():
    axis = workloads._fresh_op(SPECS["boat_long"], 10.0, (2.0, 5.0, 9.5))
    out = axis.run(run.direct)
    expect(not axis.check(out), "axis boat phases rejected")
    rows, learning, th = out
    wrong = ["HappyBoth" if p != "HappyBoth" else "UnhappyUpper" for p in learning]
    expect(workloads._check_phase_agreement(10.0, rows, wrong, *th), "wrong phases accepted")
    skewed = workloads._fresh_op(*workloads.SKEWED_CASE, known_fault={"phase_agreement"})
    labels = {label for label, _ in skewed.check(skewed.run(run.direct))}
    expect(labels == {"phase_agreement"}, f"skewed case gave {labels}")


@case
def credibility_accepts_program_and_rejects_perturbation():
    for name, n in (("boat_small", 4.0), ("boat_long_rect", 10.0), ("boat_skewed", 10.0)):
        spec = SPECS[name]
        u = bs.credibility_union(bs.from_record(dict(spec)), bs.BinomialData(n, n / 2), 0.5)
        expect(not ref.check_credibility(spec, n, n / 2, 0.5, u.lo, u.hi), f"{name} rejected")
        expect(ref.check_credibility(spec, n, n / 2, 0.5, u.lo + 1e-5, u.hi), f"{name} lo+1e-5")


@case
def monotonicity_rejects_a_decrease():
    expect(not ref.check_monotone([0, 1, 2], [0.1, 0.2, 0.3], [0.5, 0.6, 0.7]), "rejected")
    expect(ref.check_monotone([0, 1, 2], [0.1, 0.2, 0.3], [0.5, 0.6, 0.59]), "accepted")


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    expect(code == 0, f"{argv} exited {code}")
    return buf.getvalue()


@case
def cli_checks_accept_output_and_reject_edits():
    os.chdir(ROOT)
    argv = ["sweep", "--shape-config", "configs/boat_long.cfg", "--n", "10", "--s-step", "0.5"]
    text = _cli_stdout(argv)
    check = workloads._cli_checks(argv, SPECS)
    expect(not check(text), f"sweep output rejected: {check(text)[:2]}")
    lines = text.splitlines()
    row = lines[5].split(",")
    bumped = row[:2] + [format(float(row[2]) + 1e-9, ".12g")] + row[3:]
    expect(check("\n".join(lines[:5] + [",".join(bumped)] + lines[6:]) + "\n"),
           "a bumped y_hi was accepted")
    flipped = row[:4] + ["UnhappyBoth" if row[4] != "UnhappyBoth" else "HappyBoth"] + row[5:]
    expect(check("\n".join(lines[:5] + [",".join(flipped)] + lines[6:]) + "\n"),
           "a wrong phase was accepted")
    argv = ["bounds", "--shape-config", "configs/boat_long.cfg", "--n", "10", "--s", "6.3",
            "--verify", "--grid", "200"]
    text = _cli_stdout(argv)
    expect(not workloads._cli_checks(argv, SPECS)(text), "bounds --verify output rejected")


@case
def judge_counts_known_faults_as_failed_but_correct():
    ok = workloads.Op("k", run=lambda call: 1.0, check=lambda out: [])
    known = workloads.Op("k", run=lambda call: 1.0, check=lambda out: [("x", "known")],
                         known_fault=frozenset({"x"}))
    wrong = workloads.Op("k", run=lambda call: 1.0, check=lambda out: [("y", "new")])
    rec = run.Record
    correct, failed, _ = run.judge([rec(ok, 0.1, 1.0, None, False),
                                    rec(known, 0.1, 1.0, None, False)])
    expect(correct and failed == 1, "known fault not counted as a correct failure")
    correct, failed, _ = run.judge([rec(wrong, 0.1, 1.0, None, False)])
    expect(not correct and failed == 1, "an unknown problem left the run correct")
    correct, failed, _ = run.judge([rec(ok, 0.1, 1.0, None, False),
                                    rec(ok, 0.1, 2.0, None, False)])
    expect(not correct and failed == 1, "a changed repeat went unnoticed")
    err = ("NumericError", "did not converge")
    correct, failed, _ = run.judge([rec(ok, 0.1, None, err, False)])
    expect(not correct and failed == 1, "an unexpected raise left the run correct")


def main() -> int:
    bad = 0
    for fn in CASES:
        try:
            fn()
            print(f"ok   {fn.__name__}")
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {fn.__name__}: {exc}")
    print(f"{len(CASES) - bad} of {len(CASES)} passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
