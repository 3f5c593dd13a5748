"""Command-line front end.

Every number crosses the process boundary as a decimal string rendered
at the requested precision, grids and radii are parsed as exact
fractions, and all collections have fixed ordering, so identical flags
produce byte-identical output.  Exit codes: 0 success, 1 numeric
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .errors import ParameterError, PtspecError
from .nodes import find_nodes
from .observables import (
    build_contour,
    expectation,
    identity_checks,
    wavefunction_samples,
)
from .precision import PrecisionContext, as_fraction, real_str
from .quantize import (
    health_check,
    scan_im_c,
    spectrum,
)
from .series import (
    TruncationParams,
    build_tables,
    energy_polynomials,
    eval_energy_poly,
    eval_psi,
    wronskian,
)
from .wedges import angle_radians, pt_pairs

ENV_DIGITS = "PTSPEC_DIGITS"


def _default_digits() -> int:
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return 40
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_DIGITS} must be an integer, got {raw!r}")


_CSV_BY_DEFAULT = ("scan", "wavefunction")  # plot data


def _config(args) -> None:
    """Validate the common parameters of a command on one N in place:
    the radius becomes a Fraction and the format gets its default."""
    if args.N < 2:
        raise ParameterError(f"N must be an integer >= 2, got {args.N}")
    if args.pair < 0:
        raise ParameterError(f"pair index must be >= 0, got {args.pair}")
    args.radius = as_fraction(args.radius)
    if args.format is None:
        args.format = "csv" if args.command in _CSV_BY_DEFAULT else "json"


def _setup(args):
    """(pair, ctx, trunc) of a run on one wedge pair."""
    pairs = pt_pairs(args.N)
    if args.pair >= len(pairs):
        raise ParameterError(
            f"N={args.N} has {len(pairs)} wedge pairs; pair index "
            f"{args.pair} is out of range"
        )
    trunc = TruncationParams(args.pmax, args.radius)
    return pairs[args.pair], PrecisionContext(args.digits), trunc


def _num(x, digits: int) -> str:
    # no mp.mpf(x) here: conversion outside a workdps block would re-round
    if mp.isnan(x):
        return "nan"
    if mp.isinf(x):
        return "inf" if x > 0 else "-inf"
    return real_str(x, digits)


def _params_dict(args) -> dict:
    return {
        "N": args.N,
        "pmax": args.pmax,
        "radius": str(args.radius),
        "digits": args.digits,
        "pair": args.pair,
    }


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", args)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _emit_rows(args, doc: dict, columns: tuple, rows) -> int:
    """Write doc as JSON, or the rows' columns as CSV under the
    parameter comment and a header line."""
    if args.format == "json":
        _emit_json(doc, args)
    else:
        comment = (
            f"# ptspec {args.command} N={args.N} pmax={args.pmax} "
            f"radius={args.radius} digits={args.digits} pair={args.pair}"
        )
        lines = [comment, ",".join(columns)]
        lines += [",".join(_csv_cell(row[col]) for col in columns) for row in rows]
        _emit("\n".join(lines) + "\n", args)
    return 0


def _level_json(level, args) -> dict:
    return {
        "n": level.n,
        "E": _num(level.E, args.digits),
        "c": None if level.c is None else _num(level.c, args.digits),
        "parity": level.parity,
        "est_error": _num(level.est_error, 3),
        "stable": level.stable,
        "params": _params_dict(args),
    }


def _health_json(report) -> dict:
    return {
        "passed": report.passed,
        "e_max": str(report.e_max),
        "entries": [
            {
                "pair": report.pair.index,
                "theta_right_pi": str(report.pair.theta_right),
                "theta_left_pi": str(report.pair.theta_left),
                "tail": _num(report.tail, 3),
                "c_discrepancy": _num(report.c_discrepancy, 3),
                "passed": report.passed,
            }
        ],
    }


def _resolve_level(args, pair, ctx, trunc):
    index = args.level
    if index < 0:
        raise ParameterError(f"level index must be >= 0, got {index}")
    # level lookup always scans at the default energy grid; --step on
    # sampling commands refers to their own output grid
    return spectrum(pair, index + 1, trunc, ctx, parity=args.parity)[index]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_wedges(args) -> int:
    pairs = pt_pairs(args.N)
    ctx = PrecisionContext(args.digits)
    rows = [
        {
            "index": p.index,
            "theta_right_pi": str(p.theta_right),
            "theta_right_rad": _num(angle_radians(p.theta_right, ctx), args.digits),
            "theta_left_pi": str(p.theta_left),
            "theta_left_rad": _num(angle_radians(p.theta_left, ctx), args.digits),
            "half_width_pi": str(p.half_width),
            "p_symmetric": p.p_symmetric,
        }
        for p in pairs
    ]
    doc = {"N": args.N, "pairs": rows}
    return _emit_rows(args, doc, tuple(rows[0]), rows)


def _cmd_scan(args) -> int:
    pair, ctx, trunc = _setup(args)
    points = scan_im_c(pair, args.emin, args.emax, args.step, trunc, ctx)
    rows = [
        {
            "E": _num(p.E, args.digits),
            "re_c": _num(p.c_re, args.digits),
            "im_c": _num(p.c_im, args.digits),
            "flag": p.flag,
        }
        for p in points
    ]
    doc = {"params": _params_dict(args), "points": rows}
    return _emit_rows(args, doc, ("E", "re_c", "im_c", "flag"), rows)


def _cmd_spectrum(args) -> int:
    pair, ctx, trunc = _setup(args)
    health = health_check(pair, trunc, args.health_emax, ctx)
    if not health.passed and not args.force:
        _emit_json(
            {
                "error": "truncation health check failed; rerun with --force to override",
                "params": _params_dict(args),
                "health": _health_json(health),
            },
            args,
        )
        print(
            "ptspec: health check failed for "
            f"pmax={args.pmax} radius={args.radius} (see report); use --force to override",
            file=sys.stderr,
        )
        return 1
    levels = spectrum(pair, args.levels, trunc, ctx, args.emax, args.step, args.parity)
    rows = [_level_json(lv, args) for lv in levels]
    doc = {"params": _params_dict(args), "health": _health_json(health), "levels": rows}
    columns = ("n", "E", "c", "parity", "est_error", "stable")
    return _emit_rows(args, doc, columns, rows)


def _parse_region(raw: Optional[str]):
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 4:
        raise ParameterError(
            f"region must be 're_min,re_max,im_min,im_max', got {raw!r}"
        )
    return tuple(as_fraction(p.strip()) for p in parts)


def _cmd_nodes(args) -> int:
    level = _resolve_level(args, *_setup(args))
    nodeset = find_nodes(level, _parse_region(args.region))
    points = {
        key: [{"re": _num(z.real, args.digits), "im": _num(z.imag, args.digits)} for z in zs]
        for key, zs in (
            ("axis_nodes", nodeset.axis_nodes),
            ("arch_nodes", nodeset.arch_nodes),
            ("turning_points", nodeset.turning_points),
        )
    }
    doc = {"params": _params_dict(args), "level": _level_json(level, args), **points}
    # CSV rows carry the kind: axis, arch or turning
    rows = [{"kind": key.split("_")[0], **z} for key, zs in points.items() for z in zs]
    return _emit_rows(args, doc, ("kind", "re", "im"), rows)


def _parse_moments(raw: str):
    try:
        moments = tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise ParameterError(f"moments must be a comma list of integers, got {raw!r}")
    if not moments or any(m < 0 for m in moments):
        raise ParameterError(f"moment orders must be >= 0, got {raw!r}")
    return moments


def _cmd_expect(args) -> int:
    pair, ctx, trunc = _setup(args)
    lam = min(Fraction(5), trunc.radius) if args.lam is None else args.lam
    contour = build_contour(pair, lam, args.contour)
    level = _resolve_level(args, pair, ctx, trunc)
    moments = _parse_moments(args.moments)
    results = [expectation(level, m, contour) for m in moments]
    identities = identity_checks(level, contour)
    rows = [
        {
            "m": r.m,
            "re_value": _num(r.value.real, args.digits),
            "im_value": _num(r.value.imag, args.digits),
            "est_error": _num(r.est_error, 3),
        }
        for r in results
    ]
    doc = {
        "params": _params_dict(args),
        "contour": {"style": contour.style, "lambda": str(contour.lam)},
        "level": _level_json(level, args),
        "moments": rows,
        "identities": {
            "ehrenfest_abs": _num(identities.ehrenfest_abs, 3),
            "ehrenfest_ok": identities.ehrenfest_ok,
            "virial_abs": None
            if identities.virial_abs is None
            else _num(identities.virial_abs, 3),
            "virial_ok": identities.virial_ok,
        },
    }
    # the CSV rows also carry the level index n, which JSON keeps in "level"
    csv_rows = [{"n": r.n, **row} for r, row in zip(results, rows)]
    columns = ("n", "m", "re_value", "im_value", "est_error")
    return _emit_rows(args, doc, columns, csv_rows)


def _cmd_wavefunction(args) -> int:
    level = _resolve_level(args, *_setup(args))
    samples = wavefunction_samples(level, args.xmin, args.xmax, args.step)
    rows = [
        {
            "x": _num(x, args.digits),
            "re_psi": _num(v.real, args.digits),
            "im_psi": _num(v.imag, args.digits),
        }
        for x, v in samples
    ]
    doc = {"params": _params_dict(args), "level": _level_json(level, args), "samples": rows}
    return _emit_rows(args, doc, ("x", "re_psi", "im_psi"), rows)


def _cmd_selfcheck(args) -> int:
    """Fast internal consistency run: Wronskian, PT reflection, N=2 oracle."""
    ctx = PrecisionContext(args.digits)
    trunc = TruncationParams(60, Fraction(8))
    checks = []

    table3 = build_tables(3, 60)
    with ctx.workdps():
        tol = mp.mpf(10) ** (-(args.digits - 10))
        worst_w = mp.mpf(0)
        for z, e in (
            (mp.mpc("0.7", "0.3"), "0"),
            (mp.mpc("-1.1", "0.8"), "7.3"),
            (mp.mpc("2.0", "-1.0"), "15.5"),
        ):
            worst_w = max(worst_w, abs(wronskian(table3, z, mp.mpf(e), ctx) - mp.mpc(0, 1)))
        checks.append(("wronskian", worst_w < tol, f"max |W - i| = {_num(worst_w, 3)}"))

        worst_pt = mp.mpf(0)
        pair3 = pt_pairs(3)[0]
        for z, e in ((mp.mpc("0.9", "0.4"), "5.5"), (mp.mpc("-1.3", "2.1"), "11.0")):
            p1, _, p2, _ = eval_psi(table3, z, mp.mpf(e), ctx)
            q1, _, q2, _ = eval_psi(table3, -mp.conj(z), mp.mpf(e), ctx)
            worst_pt = max(worst_pt, abs(q1 - mp.conj(p1)), abs(q2 - mp.conj(p2)))
        right, left = (energy_polynomials(table3, trunc.radius, theta, ctx)
                       for theta in (pair3.theta_right, pair3.theta_left))
        for poly_r, poly_l in zip(right, left):
            p_r, p_l = (eval_energy_poly(poly, mp.mpf("5.5")) for poly in (poly_r, poly_l))
            worst_pt = max(worst_pt, abs(p_l - mp.conj(p_r)))
        checks.append(("pt_reflection", worst_pt < tol, f"max deviation = {_num(worst_pt, 3)}"))

        worst_o = mp.mpf(0)
        (pair2,) = [p for p in pt_pairs(2) if p.p_symmetric]
        for lv, ref in zip(spectrum(pair2, 4, trunc, ctx), (1, 3, 5, 7)):
            worst_o = max(worst_o, abs(lv.E - ref))
        checks.append(("n2_oracle", worst_o < mp.mpf("1e-12"), f"max |E - ref| = {_num(worst_o, 3)}"))

    all_ok = True
    for name, ok, detail in checks:
        print(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, required=True, help="potential exponent (>= 2)")
    common.add_argument("--pmax", type=int, default=100, help="truncation order p+q <= pmax")
    common.add_argument("--radius", default="8", help="evaluation radius (decimal or fraction)")
    common.add_argument(
        "--digits",
        type=int,
        default=None,
        help=f"significant digits (default {ENV_DIGITS} or 40)",
    )
    common.add_argument("--pair", type=int, default=0, help="wedge pair index")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="output format (default json; csv for the plot-data commands scan and wavefunction)",
    )
    common.add_argument("--output", default=None, help="output file (default stdout)")
    common.add_argument(
        "--parity",
        choices=("even", "odd", "both"),
        default="both",
        help="parity selection on the p-symmetric pair",
    )

    parser = argparse.ArgumentParser(
        prog="ptspec",
        description="High-precision spectra of -psi'' - (iz)^N psi = E psi "
        "via truncated double power series.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("spectrum", parents=[common], help="first n eigenvalues of a pair")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--emax", default="100", help="scan ceiling in E")
    p.add_argument("--step", default="0.05", help="scan grid step")
    p.add_argument("--health-emax", dest="health_emax", default="30")
    p.add_argument("--force", action="store_true", help="proceed despite failed health check")

    p = sub.add_parser("scan", parents=[common], help="sample Im c on an energy grid")
    p.add_argument("--emin", default="0")
    p.add_argument("--emax", default="30")
    p.add_argument("--step", default="0.05")

    p = sub.add_parser("nodes", parents=[common], help="zeros of one eigenfunction")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--region", default=None, help="re_min,re_max,im_min,im_max")

    p = sub.add_parser("expect", parents=[common], help="PT expectation values")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--moments", default="1,2,3,4", help="comma list of moment orders")
    p.add_argument("--contour", choices=("real_line", "wedge_rays"), default="real_line")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="contour extent (default min(5, radius))")

    sub.add_parser("wedges", parents=[common], help="list PT wedge pairs")

    p = sub.add_parser("wavefunction", parents=[common], help="psi samples on the real line")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--xmin", default="-5")
    p.add_argument("--xmax", default="5")
    p.add_argument("--step", default="0.05")

    p = sub.add_parser("selfcheck", help="internal consistency checks")
    p.add_argument("--digits", type=int, default=None)

    return parser


_DISPATCH = {
    "selfcheck": _cmd_selfcheck,
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "nodes": _cmd_nodes,
    "expect": _cmd_expect,
    "wedges": _cmd_wedges,
    "wavefunction": _cmd_wavefunction,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    try:
        if args.digits is None:
            args.digits = _default_digits()
        if args.command != "selfcheck":
            _config(args)
        return _DISPATCH[args.command](args)
    except ParameterError as exc:
        print(f"ptspec: {exc}", file=sys.stderr)
        return 2
    except PtspecError as exc:
        print(f"ptspec: {exc}", file=sys.stderr)
        return 1
