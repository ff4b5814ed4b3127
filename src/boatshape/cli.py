"""Command-line interface: bounds, sweeps, credibility unions, thresholds,
coordinate transforms, and set validation.

Shapes come from a flat ``key = value`` config file (``--shape-config``) or
equivalent inline flags.  Tables are emitted as CSV or JSON with floats
printed to 12 significant digits, so reruns are bit-identical.  Exit codes:
0 success, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

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
from .shapes import _SPEC_FIELDS, BoatshapeSpec, EtaSet, from_record, updated, validate
from .touchpoint import _require_admissible, agreement_thresholds, shadow, terminal_slopes

#: Every inline shape flag, each once, in the order of ``_SPEC_FIELDS``.
_SHAPE_NAMES = tuple(dict.fromkeys(name for names in _SPEC_FIELDS.values() for name in names))


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


def _emit(rows: list[dict[str, Any]], columns: list[str], args) -> None:
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
    if args.shift0 is not None:
        record["shift0"] = args.shift0
    if args.shift1 is not None:
        record["shift1"] = args.shift1
    return from_record(record, check=check)


def _require(args, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise InvalidParameterError(f"missing required flags: {', '.join(missing)}")


def _boat_extras(set_: EtaSet, n: float) -> tuple[float | None, float | None]:
    """Sticking thresholds for boats; blank for shapes without them."""
    if isinstance(set_.spec, BoatshapeSpec):
        th = agreement_thresholds(set_.spec, n)
        return th.s_u, th.s_l
    return None, None


def _cmd_bounds(args) -> int:
    _require(args, "n", "s")
    set_ = _load_set(args)
    data = BinomialData(args.n, args.s)
    result = shadow(updated(set_, data))
    row: dict[str, Any] = {
        "y_lo": result.y_lo,
        "y_hi": result.y_hi,
        "delta": result.y_hi - result.y_lo,
        "tp_lo": result.tp_lo,
        "tp_hi": result.tp_hi,
        "phase": result.phase.value,
    }
    columns = ["y_lo", "y_hi", "delta", "tp_lo", "tp_hi", "phase"]
    if args.verify:
        g_lo, g_hi = grid_shadow(updated(set_, data), GridSpec(args.grid))
        row["grid_y_lo"] = g_lo
        row["grid_y_hi"] = g_hi
        row["disagreement"] = max(abs(g_lo - result.y_lo), abs(g_hi - result.y_hi))
        columns += ["grid_y_lo", "grid_y_hi", "disagreement"]
    _emit([row], columns, args)
    return 0


def _sweep_values(args) -> list[float]:
    start = args.s_from if args.s_from is not None else 0.0
    stop = args.s_to if args.s_to is not None else args.n
    step = args.s_step
    if step <= 0.0:
        raise InvalidParameterError(f"sweep step violates step > 0: got {step}")
    values = []
    k = 0
    while True:
        s = start + k * step
        if s > stop + 1e-12:
            break
        values.append(min(s, stop))
        k += 1
    return values


def _cmd_sweep(args) -> int:
    _require(args, "n")
    set_ = _load_set(args)
    s_u, s_l = _boat_extras(set_, args.n)
    rows = []
    columns = ["s", "y_lo", "y_hi", "delta", "phase", "s_u", "s_l"]
    if args.verify:
        columns += ["grid_y_lo", "grid_y_hi", "disagreement"]
    for s in _sweep_values(args):
        data = BinomialData(args.n, s)
        result = shadow(updated(set_, data))
        row: dict[str, Any] = {
            "s": s,
            "y_lo": result.y_lo,
            "y_hi": result.y_hi,
            "delta": result.y_hi - result.y_lo,
            "phase": result.phase.value,
            "s_u": s_u,
            "s_l": s_l,
        }
        if args.verify:
            g_lo, g_hi = grid_shadow(updated(set_, data), GridSpec(args.grid))
            row["grid_y_lo"] = g_lo
            row["grid_y_hi"] = g_hi
            row["disagreement"] = max(abs(g_lo - result.y_lo), abs(g_hi - result.y_hi))
        rows.append(row)
    _emit(rows, columns, args)
    return 0


def _cmd_credibility(args) -> int:
    _require(args, "n", "s", "gamma")
    set_ = _load_set(args)
    data = BinomialData(args.n, args.s)
    union = credibility_union(set_, data, args.gamma)
    row: dict[str, Any] = {"lo": union.lo, "hi": union.hi, "gamma": union.gamma}
    columns = ["lo", "hi", "gamma"]
    if args.verify:
        ref = grid_credibility_union(set_, data, args.gamma, GridSpec(args.grid))
        row["grid_lo"] = ref.lo
        row["grid_hi"] = ref.hi
        row["disagreement"] = max(abs(ref.lo - union.lo), abs(ref.hi - union.hi))
        columns += ["grid_lo", "grid_hi", "disagreement"]
    _emit([row], columns, args)
    return 0


def _cmd_thresholds(args) -> int:
    _require(args, "n")
    set_ = _load_set(args)
    if not isinstance(set_.spec, BoatshapeSpec):
        raise InvalidParameterError("thresholds are defined for boat shapes only")
    th = agreement_thresholds(set_.spec, args.n)
    upper_slope, lower_slope = terminal_slopes(set_.spec, args.n)
    row = {
        "s_u": th.s_u,
        "s_l": th.s_l,
        "happy_lo": th.happy_lo,
        "happy_hi": th.happy_hi,
        "upper_slope": upper_slope,
        "lower_slope": lower_slope,
    }
    _emit([row], list(row.keys()), args)
    return 0


def _cmd_transform(args) -> int:
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
    row = {"n0": c.n0, "y0": c.y0, "eta0": p.eta0, "eta1": p.eta1}
    _emit([row], list(row.keys()), args)
    return 0


def _cmd_validate(args) -> int:
    """The sampled report; ``ok`` and the exit code come from the exact check."""
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
        _emit([row], list(row.keys()), args)
    return 0


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("shape")
    group.add_argument("--shape-config", metavar="PATH", help="key = value shape file")
    group.add_argument("--kind", choices=sorted(_SPEC_FIELDS), help="inline shape kind")
    for name in _SHAPE_NAMES:
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, type=_finite_float)
    group.add_argument("--shift0", type=_finite_float, help="pre-applied translation, first axis")
    group.add_argument("--shift1", type=_finite_float, help="pre-applied translation, second axis")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--verify", action="store_true", help="cross-check against the grid oracle")
    parser.add_argument("--grid", type=int, default=2000, metavar="N", help="oracle resolution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boatshape",
        description="Interval-valued Beta-Binomial inference over sets of priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="posterior mean bounds for one observation record")
    _add_shape_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=_finite_float)
    p.add_argument("--s", type=_finite_float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="bounds table over a range of success counts")
    _add_shape_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=_finite_float)
    p.add_argument("--s-from", dest="s_from", type=_finite_float)
    p.add_argument("--s-to", dest="s_to", type=_finite_float)
    p.add_argument("--s-step", dest="s_step", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("credibility", help="union of central credibility intervals")
    _add_shape_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=_finite_float)
    p.add_argument("--s", type=_finite_float)
    p.add_argument("--gamma", type=_finite_float)
    p.set_defaults(func=_cmd_credibility)

    p = sub.add_parser("thresholds", help="sticking thresholds and terminal slopes")
    _add_shape_flags(p)
    _add_common_flags(p)
    p.add_argument("--n", type=_finite_float)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("transform", help="convert between parametrizations")
    _add_common_flags(p)
    p.add_argument("--n0", type=_finite_float)
    p.add_argument("--y0", type=_finite_float)
    p.add_argument("--eta0", type=_finite_float)
    p.add_argument("--eta1", type=_finite_float)
    p.add_argument("--n", type=_finite_float)
    p.add_argument("--s", type=_finite_float)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("validate", help="check a set against the admissible wedge")
    _add_shape_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
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
