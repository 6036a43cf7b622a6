"""Command-line interface.

Exit codes: 0 on success / VALID / condition satisfied, 1 on a clean
NOT-SATISFIED / INVALID outcome, 2 on usage errors (including violated
preconditions, which are reported with the offending condition).

The search pipeline, and with it numpy, is imported only by the
``find-periodic`` and ``cross-validate`` commands, so the other commands
start without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .conditions import HyperellipticParams, cayley_test
from .confocal import (
    _CASE_INTERVALS,
    CausticCase,
    CausticPair,
    Ellipsoid,
    classify_case,
    line_caustics,
)
from .errors import BilliardError
from .minkowski import LineType, Vec3, classify_direction
from .pell import PellSolution, verify_pell
from .simulator import detect_period, trace

_LINETYPE_NAMES = {LineType.SPACELIKE: "space-like",
                   LineType.TIMELIKE: "time-like",
                   LineType.LIGHTLIKE: "light-like"}


def _parse_triple(s: str) -> tuple[float, float, float]:
    parts = [float(x) for x in s.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {s!r}")
    return (parts[0], parts[1], parts[2])


def _trajectory_json(traj, period) -> dict:
    cp = traj.caustics
    return {
        "ellipsoid": [traj.ellipsoid.a1, traj.ellipsoid.a2, traj.ellipsoid.a3],
        "linetype": traj.linetype.value,
        "caustics": None if cp is None else {
            "gamma1": cp.gamma1,
            "gamma2": "inf" if cp.gamma2 is None else cp.gamma2,
        },
        "case": None if traj.case is None else traj.case.value,
        "bounces": [
            {
                "t": b.param_t,
                "point": [b.point.x1, b.point.x2, b.point.x3],
                "component": b.component.value,
                "lambda": None if b.coords is None else list(b.coords.as_tuple()),
            }
            for b in traj.bounces
        ],
        "period": None if period is None else {
            "n": period.n, "m1": period.m1, "n1": period.n1, "n2": period.n2,
        },
    }


def _cmd_classify(args) -> int:
    v = Vec3(args.vx, args.vy, args.vz)
    print(_LINETYPE_NAMES[classify_direction(v)])
    return 0


def _cmd_caustics(args) -> int:
    ell = Ellipsoid(*args.ellipsoid)
    cp = line_caustics(Vec3(*args.point), Vec3(*args.dir), ell)
    out = {"gamma1": cp.gamma1,
           "gamma2": "inf" if cp.gamma2 is None else cp.gamma2,
           "linetype": cp.linetype.value,
           "epsilon": cp.epsilon}
    try:
        out["case"] = classify_case(cp, ell).value
    except BilliardError:
        out["case"] = None
    print(json.dumps(out, indent=2))
    return 0


def _cmd_trace(args) -> int:
    ell = Ellipsoid(*args.ellipsoid)
    traj = trace(Vec3(*args.point), Vec3(*args.dir), ell, args.bounces)
    period = detect_period(traj) if traj.error is None else None
    doc = _trajectory_json(traj, period)
    if args.out:
        with open(args.out, "w", encoding="utf8") as fh:
            json.dump(doc, fh, indent=2)
    else:
        print(json.dumps(doc, indent=2))
    if args.csv:
        with open(args.csv, "w", encoding="utf8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x1", "x2", "x3", "component", "lambda1", "lambda2", "lambda3"])
            for b in doc["bounces"]:
                lam = b["lambda"] or [None, None, None]
                w.writerow([b["t"], *b["point"], b["component"], *lam])
    if traj.error is not None:
        print(f"trajectory truncated: {traj.error}", file=sys.stderr)
        return 1
    return 0


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"--params entry {s!r} has a zero denominator") from None


def _cmd_check_cayley(args) -> int:
    vals = [_fraction(x) for x in args.params.split(",")]
    if len(vals) not in (4, 5):
        raise BilliardError("--params needs a1,a2,a3,gamma1[,gamma2]")
    if args.light and len(vals) == 5:
        raise BilliardError("--light puts gamma2 at infinity: give a1,a2,a3,gamma1 only")
    params = HyperellipticParams(*vals[:4], vals[4] if len(vals) == 5 else None)
    ok = cayley_test(params, CausticCase(args.case), args.n)
    print("SATISFIED" if ok else "NOT-SATISFIED")
    return 0 if ok else 1


def _cmd_verify_pell(args) -> int:
    with open(args.cert, encoding="utf8") as fh:
        sol = PellSolution.from_json_dict(json.load(fh))
    ok = verify_pell(sol)
    print("VALID" if ok else "INVALID")
    return 0 if ok else 1


def _load_search_spec(path: str):
    from .search import SearchSpec

    with open(path, encoding="utf8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("a search spec is a JSON object")

    def number(x, key: str, kind=float):
        if isinstance(x, bool) or not isinstance(x, (int, kind)):
            raise ValueError(f"spec key {key!r} needs {kind.__name__} values, got {d.get(key)!r}")
        try:
            value = float(x)
        except OverflowError:
            raise ValueError(f"spec key {key!r} holds a number too large for a float") from None
        return value if kind is float else x

    def numbers(key: str, count: int):
        value = d.get(key)
        if not (isinstance(value, list) and len(value) == count):
            raise ValueError(f"spec key {key!r} needs {count} numbers, got {value!r}")
        return tuple(number(x, key) for x in value)

    return SearchSpec(
        ellipsoid=numbers("ellipsoid", 3),
        case=CausticCase(d.get("case")),
        n=number(d.get("n"), "n", int),
        g1_range=None if d.get("g1_range") is None else numbers("g1_range", 2),
        g2_range=None if d.get("g2_range") is None else numbers("g2_range", 2),
        grid=number(d.get("grid", 48), "grid", int),
        refine_tol=number(d.get("refine_tol", 1e-13), "refine_tol"),
    )


def _cmd_find_periodic(args) -> int:
    from .search import find_periodic

    spec = _load_search_spec(args.spec)
    cands = find_periodic(spec)
    out = [{
        "gamma1": c.gamma1,
        "gamma2": "inf" if c.gamma2 is None else c.gamma2,
        "case": c.case.value, "n": c.n,
        "condition_residual": c.condition_residual,
        "exact_cayley": c.exact_cayley,
    } for c in cands]
    print(json.dumps(out, indent=2))
    return 0 if cands else 1


def _cmd_cross_validate(args) -> int:
    from .search import cross_validate, find_periodic

    spec = _load_search_spec(args.spec)
    cands = find_periodic(spec)
    if not cands:
        print(json.dumps({"candidates": 0, "valid": False}))
        return 1
    ell = Ellipsoid(*spec.ellipsoid)
    linetype, _ = _CASE_INTERVALS[spec.case]
    epsilon = -1 if linetype is LineType.SPACELIKE else +1
    reports = [cross_validate(ell, CausticPair(c.gamma1, c.gamma2, linetype, epsilon), spec.n)
               for c in cands]
    print(json.dumps([rep.to_json_dict() for rep in reports], indent=2))
    return 0 if all(rep.valid for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mbl",
                                 description="Billiards within an ellipsoid in 3D Minkowski space")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a direction vector")
    p.add_argument("vx", type=float)
    p.add_argument("vy", type=float)
    p.add_argument("vz", type=float)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("caustics", help="caustic parameters of a line")
    p.add_argument("--ellipsoid", type=_parse_triple, required=True, metavar="a1,a2,a3")
    p.add_argument("--point", type=_parse_triple, required=True, metavar="x1,x2,x3")
    p.add_argument("--dir", type=_parse_triple, required=True, metavar="v1,v2,v3")
    p.set_defaults(func=_cmd_caustics)

    p = sub.add_parser("trace", help="trace a billiard trajectory")
    p.add_argument("--ellipsoid", type=_parse_triple, required=True, metavar="a1,a2,a3")
    p.add_argument("--point", type=_parse_triple, required=True, metavar="x1,x2,x3")
    p.add_argument("--dir", type=_parse_triple, required=True, metavar="v1,v2,v3")
    p.add_argument("--bounces", type=int, default=100)
    p.add_argument("--out", help="write trajectory JSON here")
    p.add_argument("--csv", help="write bounce rows as CSV here")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("check-cayley", help="exact rank-type periodicity test")
    p.add_argument("--params", required=True, metavar="a1,a2,a3,g1[,g2]",
                   help="exact rationals, e.g. 4,2,1,9/5,-1/2")
    p.add_argument("--case", required=True, choices=[c.value for c in CausticCase])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--light", action="store_true",
                   help="treat gamma2 as the at-infinity sentinel; --params then has no gamma2")
    p.set_defaults(func=_cmd_check_cayley)

    p = sub.add_parser("verify-pell", help="verify a Pell certificate file")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify_pell)

    p = sub.add_parser("find-periodic", help="search for periodic caustic pairs")
    p.add_argument("--spec", required=True, help="search spec JSON file")
    p.set_defaults(func=_cmd_find_periodic)

    p = sub.add_parser("cross-validate", help="search and fully validate candidates")
    p.add_argument("--spec", required=True, help="search spec JSON file")
    p.set_defaults(func=_cmd_cross_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BilliardError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
