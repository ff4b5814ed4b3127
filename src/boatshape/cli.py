"""Command-line interface: bounds, sweeps, credibility unions, thresholds,
coordinate transforms, and set validation.

Each subcommand is one entry of ``_COMMANDS``: its handler, help text, number
flags and output columns, and for ``bounds``, ``sweep`` and ``credibility`` the
grid-oracle columns that ``--verify`` appends (only those three take
``--verify``/``--grid``).  Shapes come from a flat ``key = value`` config file
(``--shape-config``) or equivalent inline flags.  A handler yields its table as
row dicts, and ``main`` prints it through ``_emit``, which selects the columns,
as CSV or JSON with floats printed to 12 significant digits, so reruns are
bit-identical.  Exit codes: 0 success, 2 validation failure (including a flag
the subcommand does not take and a sweep of more than ``_MAX_ROWS`` rows), 3
numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Any, Callable, Iterator, NamedTuple

from .errors import InvalidParameterError, NumericError
from .inference import credibility_union
from .oracle import GridSpec, grid_credibility_union, grid_shadow
from .params import (
    BinomialData,
    CanonicalParams,
    EtaPoint,
    canonical_to_eta,
    eta_to_canonical,
    update_eta,
)
from .shapes import (_SPEC_FIELDS, BoatshapeSpec, EtaSet, _require_admissible, from_record,
                     updated, validate)
from .touchpoint import agreement_thresholds, shadow, terminal_slopes

#: Every inline shape flag, each once, in the order of ``_SPEC_FIELDS``.
_SHAPE_NAMES = tuple(dict.fromkeys(name for names in _SPEC_FIELDS.values() for name in names))
#: Most rows one ``sweep`` prints; a longer sweep is refused before any row is built.
_MAX_ROWS = 1_000_000

_Table = list[dict[str, Any]]


def _finite_float(text: str) -> float:
    """Argument type: a finite float (``nan`` and ``inf`` are refused)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value violates finiteness: got {text!r}")
    return value


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_value(value: Any) -> Any:
    if isinstance(value, float):
        return float(format(value, ".12g"))
    return value


def _emit(rows: _Table, columns: list[str], args) -> None:
    if args.format == "json":
        payload = [{k: _json_value(row.get(k)) for k in columns} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(k)) for k in columns))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_config(path: str) -> dict[str, str]:
    record: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            record[key.strip()] = value.strip()
    return record


def _load_set(args, check: bool = True) -> EtaSet:
    inline = {
        name: getattr(args, name) for name in _SHAPE_NAMES if getattr(args, name) is not None
    }
    if args.shape_config:
        if args.kind or inline:
            raise InvalidParameterError(
                "give either --shape-config or inline shape flags, not both"
            )
        record: dict[str, Any] = dict(_parse_config(args.shape_config))
    else:
        if not args.kind:
            raise InvalidParameterError("a shape is required: --shape-config or --kind")
        record = {"kind": args.kind, **inline}
    shifts = {k: getattr(args, k) for k in ("shift0", "shift1") if getattr(args, k) is not None}
    return from_record({**record, **shifts}, check=check)


def _require(args, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise InvalidParameterError(f"missing required flags: {', '.join(missing)}")


def _shadow_row(set_: EtaSet, data: BinomialData, args) -> dict[str, Any]:
    """Bounds, width, touchpoints and phase of the posterior set, plus the
    grid-oracle columns under ``--verify``: the row of ``bounds`` and, with
    ``s`` and the thresholds added, of ``sweep``."""
    post = updated(set_, data)
    result = shadow(post)
    row = {**vars(result), "delta": result.y_hi - result.y_lo, "phase": result.phase.value}
    if args.verify:
        g_lo, g_hi = grid_shadow(post, GridSpec(args.grid))
        row.update(grid_y_lo=g_lo, grid_y_hi=g_hi,
                   disagreement=max(abs(g_lo - result.y_lo), abs(g_hi - result.y_hi)))
    return row


def _cmd_bounds(args) -> Iterator[_Table]:
    _require(args, "n", "s")
    yield [_shadow_row(_load_set(args), BinomialData(args.n, args.s), args)]


def _sweep_values(args) -> list[float]:
    start = args.s_from if args.s_from is not None else 0.0
    stop = args.s_to if args.s_to is not None else args.n
    step = args.s_step if args.s_step is not None else 1.0
    if step <= 0.0:
        raise InvalidParameterError(f"sweep step violates step > 0: got {step}")
    span = (stop - start) / step
    if span >= _MAX_ROWS:
        raise InvalidParameterError(f"sweep of {span + 1:.0f} rows violates rows <= {_MAX_ROWS}")
    grid = (start + k * step for k in itertools.count())
    return [min(s, stop) for s in itertools.takewhile(lambda s: s <= stop + 1e-12, grid)]


def _cmd_sweep(args) -> Iterator[_Table]:
    _require(args, "n")
    set_ = _load_set(args)
    th = {}  # sticking thresholds for boats; blank for shapes without them
    if isinstance(set_.spec, BoatshapeSpec):
        th = vars(agreement_thresholds(set_.spec, args.n))
    yield [
        {"s": s, **th, **_shadow_row(set_, BinomialData(args.n, s), args)}
        for s in _sweep_values(args)
    ]


def _cmd_credibility(args) -> Iterator[_Table]:
    _require(args, "n", "s", "gamma")
    set_ = _load_set(args)
    data = BinomialData(args.n, args.s)
    union = credibility_union(set_, data, args.gamma)
    row = {**vars(union)}
    if args.verify:
        ref = grid_credibility_union(set_, data, args.gamma, GridSpec(args.grid))
        row.update(grid_lo=ref.lo, grid_hi=ref.hi,
                   disagreement=max(abs(ref.lo - union.lo), abs(ref.hi - union.hi)))
    yield [row]


def _cmd_thresholds(args) -> Iterator[_Table]:
    _require(args, "n")
    set_ = _load_set(args)
    th = agreement_thresholds(set_.spec, args.n)
    upper_slope, lower_slope = terminal_slopes(set_.spec, args.n)
    yield [{**vars(th), "upper_slope": upper_slope, "lower_slope": lower_slope}]


def _cmd_transform(args) -> Iterator[_Table]:
    has_canonical = args.n0 is not None and args.y0 is not None
    has_eta = args.eta0 is not None and args.eta1 is not None
    if has_canonical == has_eta:
        raise InvalidParameterError("give exactly one of (--n0, --y0) or (--eta0, --eta1)")
    if has_canonical:
        c = CanonicalParams(args.n0, args.y0)
        p = canonical_to_eta(c)
    else:
        p = EtaPoint(args.eta0, args.eta1)
        c = eta_to_canonical(p)
    if args.n is not None or args.s is not None:
        _require(args, "n", "s")
        p = update_eta(p, BinomialData(args.n, args.s))
        c = eta_to_canonical(p)
    yield [{**vars(c), **vars(p)}]


def _cmd_validate(args) -> Iterator[_Table]:
    """The sampled report; ``ok`` and the exit code come from the exact check,
    and a refused set's report (``ok`` false) is printed before the refusal."""
    set_ = _load_set(args, check=False)
    report = validate(set_)
    row = {
        "ok": False,
        "worst_margin": report.worst_margin,
        "worst_eta0": report.worst_point[0],
        "worst_eta1": report.worst_point[1],
        "samples": report.samples,
    }
    try:
        _require_admissible(set_)
        row["ok"] = True
    finally:
        yield [row]


class _Command(NamedTuple):
    """One subcommand: its handler and help text, its number flags (each a
    finite float), the columns it prints, the columns ``--verify`` appends
    (none: it takes no ``--verify``/``--grid``), and whether it reads a shape."""

    func: Callable[[argparse.Namespace], Iterator[_Table]]
    help: str
    numbers: tuple[str, ...]
    columns: tuple[str, ...]
    oracle: tuple[str, ...] = ()
    shape: bool = True


_GRID_SHADOW = ("grid_y_lo", "grid_y_hi", "disagreement")
_COMMANDS = {
    "bounds": _Command(_cmd_bounds, "posterior mean bounds for one observation record",
                       ("n", "s"), ("y_lo", "y_hi", "delta", "tp_lo", "tp_hi", "phase"),
                       _GRID_SHADOW),
    "sweep": _Command(_cmd_sweep, "bounds table over a range of success counts",
                      ("n", "s_from", "s_to", "s_step"),
                      ("s", "y_lo", "y_hi", "delta", "phase", "s_u", "s_l"), _GRID_SHADOW),
    "credibility": _Command(_cmd_credibility, "union of central credibility intervals",
                            ("n", "s", "gamma"), ("lo", "hi", "gamma"),
                            ("grid_lo", "grid_hi", "disagreement")),
    "thresholds": _Command(_cmd_thresholds, "sticking thresholds and terminal slopes", ("n",),
                           ("s_u", "s_l", "happy_lo", "happy_hi", "upper_slope", "lower_slope")),
    "transform": _Command(_cmd_transform, "convert between parametrizations",
                          ("n0", "y0", "eta0", "eta1", "n", "s"), ("n0", "y0", "eta0", "eta1"),
                          shape=False),
    "validate": _Command(_cmd_validate, "check a set against the admissible wedge", (),
                         ("ok", "worst_margin", "worst_eta0", "worst_eta1", "samples")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boatshape",
        description="Interval-valued Beta-Binomial inference over sets of priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.shape:
            group = p.add_argument_group("shape")
            group.add_argument("--shape-config", metavar="PATH", help="key = value shape file")
            group.add_argument("--kind", choices=sorted(_SPEC_FIELDS), help="inline shape kind")
            for field in _SHAPE_NAMES:
                group.add_argument(f"--{field.replace('_', '-')}", dest=field, type=_finite_float)
            group.add_argument("--shift0", type=_finite_float,
                               help="pre-applied translation, first axis")
            group.add_argument("--shift1", type=_finite_float,
                               help="pre-applied translation, second axis")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        if command.oracle:
            p.add_argument("--verify", action="store_true",
                           help="cross-check against the grid oracle")
            p.add_argument("--grid", type=int, default=2000, metavar="N", help="oracle resolution")
        for field in command.numbers:
            p.add_argument(f"--{field.replace('_', '-')}", type=_finite_float)
        p.set_defaults(verify=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = _COMMANDS[args.command]
    columns = [*command.columns, *(command.oracle if args.verify else ())]
    try:
        for table in command.func(args):
            _emit(table, columns, args)
        return 0
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
