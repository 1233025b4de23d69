"""Command line front end.

Subcommands
    qpoly       spectral polynomial of one multiplicity tuple at one tau
    scan        root classification along tau = i*b for a range of b
    bands       real-axis trace profile and band table at one tau
    unitary     joint-trace unitarity classification over a complex E grid
    premodular  pre-modular form evaluation, boundary scans, zero finding

Conventions
    - grids are given as start:stop:count (linspace semantics, count >= 1)
    - complex numbers are written a+bi on the command line and in CSV;
      JSON uses {"re": ..., "im": ...} objects
    - CSV output is RFC 4180 (CRLF, minimal quoting) preceded by two
      comment lines: a timestamp header and the resolved tolerance set
    - JSON output holds the timestamp in a "generated" field on its own
      line; everything below it is deterministic for a fixed invocation
    - elliptic functions come from theta series truncated at a fixed
      relative tolerance of 1e-14 (reported as "truncation_tol" in every
      tolerance set); a point within 1e-6 of a pole is a PoleError
    - exit codes: 0 success, 1 usage error, 2 assertion failure,
      3 numerical non-convergence
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import re
import sys

import numpy as np

from . import __version__
from .elliptic import TRUNCATION_TOL, make_lattice
from .errors import (
    CheckError,
    NonConvergenceError,
    NotConstructibleError,
    PoleError,
)
from .hill import ROOT_FACTOR, make_problem, stability_set_1d, unitarity_grid
from .premodular import (
    WEIGHTS,
    boundary_nonvanishing_scan,
    classify_f0,
    is_half_torsion,
    z_n,
    zero_find,
    zero_find_multi,
)
from .spectral import (
    FACTOR_GAP_TOL,
    q_via_phi_ansatz,
    spectral_report,
    tau_scan,
)


class UsageError(ValueError):
    """Bad command line input; maps to exit code 1."""


# ── parsing helpers ───────────────────────────────────────────────────────

def parse_complex(text: str) -> complex:
    """Accept a+bi (also plain reals and bare imaginary parts like 1.5i)."""
    s = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}")


def parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {text!r} is not start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid {text!r} is not start:stop:count")
    if count < 1:
        raise UsageError("grid count must be >= 1")
    return np.linspace(start, stop, count)


def parse_n_tuple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--n wants four comma-separated integers, got {text!r}")
    try:
        n = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--n wants four comma-separated integers, got {text!r}")
    if any(v < 0 for v in n):
        raise UsageError("multiplicities must be non-negative")
    if max(n) < 1:
        raise UsageError("at least one multiplicity must be positive")
    return n


def parse_rs(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--rs wants r,s, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--rs wants r,s, got {text!r}")


# ── serialization helpers ─────────────────────────────────────────────────

def _fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def jsonable(obj):
    """Recursively convert to plain JSON types; complex -> {re, im}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.complexfloating,)):
        return jsonable(complex(obj))
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (complex, np.complexfloating)):
        return fmt_complex(value)
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(_csv_cell(v)) for v in value)
    return value


def emit(payload: dict, rows, fieldnames, args) -> None:
    """Write the command result.

    Rows hold plain Python values (complex, float, bool, None, lists);
    the format branch does the conversion.  JSON mode: one document with
    rows embedded under "rows" and the timestamp as the first key so it
    occupies its own line.  CSV mode: rows to --out (or stdout) behind a
    timestamp comment line and the resolved tolerance set; when --out is
    a file the row-free summary JSON goes to stdout.
    """
    if args.format == "json":
        doc = {"generated": _timestamp(), **payload}
        if rows is not None:
            doc["rows"] = rows
        _write_text(json.dumps(jsonable(doc), indent=2) + "\n", args.out)
        return

    buf = io.StringIO()
    buf.write(f"# generated: {_timestamp()}\r\n")
    tol = json.dumps(jsonable(payload.get("tolerances", {})), sort_keys=True)
    buf.write(f"# tolerances: {tol}\r\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for row in rows or ():
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    _write_text(buf.getvalue(), args.out)
    if args.out:
        doc = {"generated": _timestamp(), **payload, "csv_path": args.out,
               "rows_written": len(rows or ())}
        sys.stdout.write(json.dumps(jsonable(doc), indent=2) + "\n")


# ── subcommands ───────────────────────────────────────────────────────────

def cmd_qpoly(args) -> int:
    n = parse_n_tuple(args.n)
    tau = parse_complex(args.tau)
    L = make_lattice(tau)
    rep = spectral_report(
        L, n, route=args.route,
        tol_im=args.tol_im, tol_gap=args.tol_gap, route_tol=args.route_tol,
    )
    rr = rep.root_report
    payload = {
        "version": __version__,
        "command": "qpoly",
        "config": {"n": list(n), "tau": tau, "route": args.route},
        "tolerances": dict(rep.tolerances),
        "genus": rep.genus,
        "condition_class": rep.condition_class,
        "route_used": rep.route,
        "route_discrepancy": rep.route_discrepancy,
        "factor_degrees": rep.factor_degrees,
        "coefficients": list(rep.coeffs.coeffs),
        "roots": list(rr.roots),
        "classification": rr.classification,
        "has_complex": rr.classification == "has_complex",
        "residual_max": rr.residual_max,
        "min_gap": rr.min_gap,
        "max_imag": rr.max_imag,
        "diagnostics": dict(rep.diagnostics),
    }
    rows = [
        {"kind": "coefficient", "index": i, "value": c}
        for i, c in enumerate(rep.coeffs.coeffs)
    ] + [
        {"kind": "root", "index": i, "value": r}
        for i, r in enumerate(rr.roots)
    ]
    emit(payload, rows, ["kind", "index", "value"], args)
    return 0


def cmd_scan(args) -> int:
    n = parse_n_tuple(args.n)
    bs = parse_grid(args.b)
    if np.any(bs <= 0):
        raise UsageError("--b values must be positive (tau = i*b)")
    res = tau_scan(n, bs, tol_im=args.tol_im, tol_gap=args.tol_gap)
    payload = {
        "version": __version__,
        "command": "scan",
        "config": {"n": list(n), "b": args.b},
        "tolerances": {
            "tol_im": args.tol_im, "tol_gap": args.tol_gap,
            "factor_gap_tol": FACTOR_GAP_TOL, "truncation_tol": TRUNCATION_TOL,
        },
        "expected": res.expected,
        "points": len(res.points),
        "failures": res.failures,
        "passed": res.passed,
    }
    rows = [
        {
            "index": i, "b": p.b, "classification": p.classification,
            "ok": p.ok, "max_imag": p.max_imag, "min_gap": p.min_gap,
            "roots": list(p.roots) if p.roots else None,
            "error": p.error,
        }
        for i, p in enumerate(res.points)
    ]
    emit(
        payload, rows,
        ["index", "b", "classification", "ok", "max_imag", "min_gap",
         "roots", "error"],
        args,
    )
    return 0 if res.passed else 2


def cmd_bands(args) -> int:
    n = parse_n_tuple(args.n)
    tau = parse_complex(args.tau)
    grid = parse_grid(args.E)
    if len(grid) < 2:
        raise UsageError("--E grid needs at least 2 points")
    L = make_lattice(tau)
    prob = make_problem(L, n, rtol=args.rtol, atol=args.atol)
    bands = stability_set_1d(
        prob, grid[0], grid[-1], num=len(grid), direction=args.direction,
        edge_tol=args.edge_tol, im_tol=args.im_tol,
    )
    payload = {
        "version": __version__,
        "command": "bands",
        "config": {
            "n": list(n), "tau": tau, "E": args.E,
            "direction": args.direction,
        },
        "tolerances": {
            "rtol": args.rtol, "atol": args.atol,
            "edge_tol": args.edge_tol, "im_tol": args.im_tol,
            "truncation_tol": TRUNCATION_TOL,
        },
        "bands": [
            {"lo": b.lo, "hi": b.hi, "open_left": b.open_left,
             "open_right": b.open_right}
            for b in bands.bands
        ],
        "finite_edges": list(bands.finite_edges),
        "max_im_delta": bands.max_im_delta,
    }
    rows = [
        {
            "index": i, "E": float(e), "re_delta": float(d.real),
            "im_delta": float(d.imag), "inside": bool(abs(d.real) <= 2.0),
        }
        for i, (e, d) in enumerate(zip(bands.energies, bands.deltas))
    ]
    emit(payload, rows, ["index", "E", "re_delta", "im_delta", "inside"], args)
    return 0


def cmd_unitary(args) -> int:
    n = parse_n_tuple(args.n)
    tau = parse_complex(args.tau)
    re_vals = parse_grid(getattr(args, "re"))
    im_vals = parse_grid(args.im)
    L = make_lattice(tau)
    q = q_via_phi_ansatz(L, n)
    prob = make_problem(L, n, rtol=args.rtol, atol=args.atol)
    res = unitarity_grid(prob, q, re_vals, im_vals, tol_im=args.tol_im)
    total = res["unitary"].size
    payload = {
        "version": __version__,
        "command": "unitary",
        "config": {
            "n": list(n), "tau": tau, "re": args.re, "im": args.im,
        },
        "tolerances": {
            "rtol": args.rtol, "atol": args.atol, "tol_im": args.tol_im,
            "root_factor": ROOT_FACTOR, "truncation_tol": TRUNCATION_TOL,
        },
        "points": int(total),
        "unitary_count": int(np.sum(res["unitary"])),
        "at_root_count": int(np.sum(res["at_root"])),
        "any_unitary": bool(np.any(res["unitary"])),
    }
    rows = []
    for j, im in enumerate(im_vals):
        for i, re in enumerate(re_vals):
            rows.append(
                {
                    "index": j * len(re_vals) + i,
                    "re": float(re), "im": float(im),
                    "delta1": complex(res["delta1"][j, i]),
                    "delta2": complex(res["delta2"][j, i]),
                    "at_root": bool(res["at_root"][j, i]),
                    "unitary": bool(res["unitary"][j, i]),
                }
            )
    emit(
        payload, rows,
        ["index", "re", "im", "delta1", "delta2", "at_root", "unitary"],
        args,
    )
    return 0


def _premodular_n(args) -> int:
    try:
        n = int(args.n)
    except (TypeError, ValueError):
        raise UsageError(f"premodular --n wants a single integer, got {args.n!r}")
    if n not in WEIGHTS:
        raise UsageError(f"premodular index must be 1..4, got {n}")
    return n


def cmd_premodular(args) -> int:
    n = _premodular_n(args)
    base = {
        "version": __version__,
        "command": "premodular",
        "config": {"op": args.op, "n": n},
        "tolerances": {
            "floor": args.floor, "newton_tol": args.newton_tol,
            "truncation_tol": TRUNCATION_TOL,
        },
    }

    if args.op == "eval":
        if args.rs is None or args.tau is None:
            raise UsageError("eval needs --rs and --tau")
        r, s = parse_rs(args.rs)
        tau = parse_complex(args.tau)
        L = make_lattice(tau)
        val = z_n(L, r, s, n)
        base["config"].update({"rs": args.rs, "tau": args.tau})
        payload = {
            **base,
            "r": r, "s": s, "tau": tau,
            "weight": WEIGHTS[n],
            "half_torsion": is_half_torsion(r, s),
            "value": val,
            "abs": abs(val),
        }
        rows = [{"r": r, "s": s, "tau": tau, "value": val, "abs": abs(val)}]
        emit(payload, rows, ["r", "s", "tau", "value", "abs"], args)
        return 0

    if args.op == "boundary-scan":
        collect = args.format == "csv"
        res = boundary_nonvanishing_scan(n, floor=args.floor, collect=collect)
        argmin = res["argmin"]
        payload = {
            **base,
            "min_abs": res["min_abs"],
            "argmin": {"r": argmin[0], "s": argmin[1], "tau": argmin[2]},
            "points": res["points"],
            "floor": res["floor"],
            "passed": res["passed"],
        }
        rows = None
        if collect:
            rows = [
                {"index": i, "r": r, "s": s, "tau": t, "abs": v}
                for i, (r, s, t, v) in enumerate(res["rows"])
            ]
        emit(payload, rows, ["index", "r", "s", "tau", "abs"], args)
        return 0 if res["passed"] else 2

    if args.op == "zero-find":
        if args.rs is None or args.tau is None:
            raise UsageError("zero-find needs --rs and --tau (the seed)")
        r, s = parse_rs(args.rs)
        seed = parse_complex(args.tau)
        res = zero_find(n, r, s, seed, tol=args.newton_tol)
        base["config"].update({"rs": args.rs, "tau": args.tau})
        payload = {**base, "r": r, "s": s, **res}
        rows = [
            {"r": r, "s": s, "seed": seed, "tau_zero": res["tau_zero"],
             "residual": res["residual"], "location": res["location"],
             "inside_F0": res["inside_F0"], "iterations": res["iterations"]}
        ]
        emit(
            payload, rows,
            ["r", "s", "seed", "tau_zero", "residual", "location",
             "inside_F0", "iterations"],
            args,
        )
        return 0

    if args.op == "zero-find-multi":
        if args.rs is None:
            raise UsageError("zero-find-multi needs --rs")
        r, s = parse_rs(args.rs)
        seeds = None
        if args.seed is not None:
            rng = np.random.default_rng(args.seed)
            seeds = []
            for x in (0.1, 0.3, 0.5, 0.7, 0.9):
                for y in (0.3, 0.6, 1.0, 1.6, 2.5):
                    t = complex(x + rng.uniform(-0.05, 0.05),
                                y + rng.uniform(-0.05, 0.05))
                    if classify_f0(t).inside:
                        seeds.append(t)
        res = zero_find_multi(n, r, s, seeds=seeds, tol=args.newton_tol)
        base["config"].update({"rs": args.rs, "seed": args.seed})
        payload = {
            **base,
            "r": r, "s": s,
            "interior_zeros": list(res["interior_zeros"]),
            "any_interior_zero": res["any_interior_zero"],
            "runs": len(res["runs"]),
        }
        rows = [
            {
                "index": i,
                "seed": run["seed"],
                "converged": run["converged"],
                "tau_zero": run.get("tau_zero"),
                "residual": run.get("residual"),
                "location": run.get("location"),
                "error": run.get("error"),
            }
            for i, run in enumerate(res["runs"])
        ]
        emit(
            payload, rows,
            ["index", "seed", "converged", "tau_zero", "residual",
             "location", "error"],
            args,
        )
        return 0

    raise UsageError(f"unknown premodular op {args.op!r}")


# ── parser ────────────────────────────────────────────────────────────────

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


_TOL_GAP_HELP = (
    "relative root gap below which roots count as multiple; it governs "
    'only diagnostics root_source "coefficients" (route phi, or a tuple '
    'without a product form); "factor_union" roots use factor_gap_tol = '
    f"{FACTOR_GAP_TOL:g}"
)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="tvspec", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qpoly", help="spectral polynomial at one tau")
    p.add_argument("--n", required=True, help="n0,n1,n2,n3")
    p.add_argument("--tau", required=True, help="complex a+bi, Im > 0")
    p.add_argument("--route", choices=("phi", "factor", "both"),
                   default="both")
    p.add_argument("--tol-im", type=float, default=1e-6, dest="tol_im")
    p.add_argument("--tol-gap", type=float, default=1e-6, dest="tol_gap",
                   help=_TOL_GAP_HELP)
    p.add_argument("--route-tol", type=float, default=1e-8, dest="route_tol")
    _add_common(p)
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("scan", help="classification along tau = i*b")
    p.add_argument("--n", required=True, help="n0,n1,n2,n3")
    p.add_argument("--b", required=True, help="start:stop:count, b > 0")
    p.add_argument("--tol-im", type=float, default=1e-6, dest="tol_im")
    p.add_argument("--tol-gap", type=float, default=1e-6, dest="tol_gap",
                   help=_TOL_GAP_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bands", help="trace profile and band table")
    p.add_argument("--n", required=True, help="n0,n1,n2,n3")
    p.add_argument("--tau", required=True, help="complex a+bi, Im > 0")
    p.add_argument("--E", required=True, help="start:stop:count (real)")
    p.add_argument("--direction", choices=("1", "tau"), default="1")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--edge-tol", type=float, default=1e-8, dest="edge_tol")
    p.add_argument("--im-tol", type=float, default=1e-6, dest="im_tol")
    _add_common(p)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("unitary", help="unitarity over a complex E grid")
    p.add_argument("--n", required=True, help="n0,n1,n2,n3")
    p.add_argument("--tau", required=True, help="complex a+bi, Im > 0")
    p.add_argument("--re", required=True, help="start:stop:count for Re E")
    p.add_argument("--im", required=True, help="start:stop:count for Im E")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--tol-im", type=float, default=1e-6, dest="tol_im")
    _add_common(p)
    p.set_defaults(func=cmd_unitary)

    p = sub.add_parser("premodular", help="pre-modular form operations")
    p.add_argument("--op", required=True,
                   choices=("eval", "boundary-scan", "zero-find",
                            "zero-find-multi"))
    p.add_argument("--n", required=True, help="form index 1..4")
    p.add_argument("--rs", default=None, help="r,s")
    p.add_argument("--tau", default=None,
                   help="evaluation point, or seed for zero-find")
    p.add_argument("--floor", type=float, default=1e-8)
    p.add_argument("--newton-tol", type=float, default=1e-10,
                   dest="newton_tol")
    p.add_argument("--seed", type=int, default=None,
                   help="rng seed to jitter the multi-start seed lattice")
    _add_common(p)
    p.set_defaults(func=cmd_premodular)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


_DASH_VALUE = re.compile(r"^-(\d|\.)")


def _merge_dash_values(argv):
    """Join ``--flag -8:4:101`` into ``--flag=-8:4:101`` so argparse does
    not read a negative-leading grid or complex value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok.startswith("--")
            and "=" not in tok
            and i + 1 < len(argv)
            and _DASH_VALUE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_merge_dash_values(list(argv)))
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (CheckError, NotConstructibleError, PoleError) as exc:
        print(f"assertion failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
