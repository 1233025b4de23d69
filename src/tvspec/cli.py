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
      line and the rest of the document on the next line; everything
      below the timestamp is deterministic for a fixed invocation
    - elliptic functions come from theta series truncated at a fixed
      relative tolerance of 1e-14 (reported as "truncation_tol" in every
      tolerance set); a point within 1e-6 of a pole is a PoleError
    - exit codes: 0 success, 1 usage error, 2 assertion failure,
      3 numerical non-convergence
"""

from __future__ import annotations

import argparse
import datetime
import functools
import itertools
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
    SEED_LATTICE,
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
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise UsageError(f"grid {text!r} needs a finite start and stop")
    return np.linspace(start, stop, count)


def parse_n_tuple(text: str) -> tuple:
    """Four comma-separated integers; their range is checked where the
    tuple is used (``spectral._as_tuple``), as a usage error."""
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--n wants four comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--n wants four comma-separated integers, got {text!r}")


def parse_rs(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--rs wants r,s, got {text!r}")
    try:
        r, s = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--rs wants r,s, got {text!r}")
    if not (np.isfinite(r) and np.isfinite(s)):
        raise UsageError(f"--rs wants finite r,s, got {text!r}")
    return r, s


# ── serialization helpers ─────────────────────────────────────────────────

def _fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def _json_default(obj):
    """``json.dumps`` hook: complex (np.complex128 included) -> {re, im},
    numpy scalars and arrays -> their ``tolist()``."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(stamp: str, doc: dict) -> str:
    """JSON text of ``doc`` behind a "generated": ``stamp`` first key: "{"
    and the timestamp each on a line of their own, then the rest of the
    document on one line.  Without ``indent``, ``json.dumps`` runs
    CPython's C encoder."""
    rest = json.dumps(doc, default=_json_default)
    return f'{{\n  "generated": {json.dumps(stamp)},\n  {rest[1:]}\n'


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )


def _write_lines(lines, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


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


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_quote(text: str) -> str:
    """RFC 4180 minimal quoting, as ``csv.writer`` does it: a cell holding
    a comma, a double quote, CR or LF is quoted with its quotes doubled."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(col) -> list:
    """One column's CSV cells as text.  A float64 or complex128 array is
    formatted once per distinct bit pattern (so 0.0 and -0.0 stay apart),
    floats by one bound ``"{:.17g}".format``, and indexed back, its
    numbers needing no quotes; a range is its integers; any other column
    goes cell by cell."""
    if isinstance(col, range):
        return list(map(str, col))
    if isinstance(col, np.ndarray) and col.dtype in (np.float64,
                                                     np.complex128):
        bits = col.view(np.int64 if col.dtype == np.float64 else "V16")
        _, first, inverse = np.unique(bits, return_index=True,
                                      return_inverse=True)
        fmt = "{:.17g}".format if col.dtype == np.float64 else fmt_complex
        text = np.array(list(map(fmt, col[first].tolist())), dtype=object)
        return text[inverse].tolist()
    if isinstance(col, np.ndarray):
        col = col.tolist()
    return [_csv_quote(str(_csv_cell(v))) for v in col]


def emit(payload: dict, columns, args) -> None:
    """Write the command result.

    ``columns`` maps each row field, in output order, to its values (an
    array, a list or a range), or is None for a result without rows.
    Values are plain Python or numpy scalars: complex, float, bool, None,
    lists.  JSON mode: one document whose first key, "generated", holds
    the timestamp on a line of its own; the next line holds the rest:
    "version" and "command", the payload, and the rows, if any, as objects
    under "rows" (arrays become lists once, by ``tolist``), written by the
    C encoder, which converts complex and numpy values through
    ``_json_default``.  ``qpoly`` and ``premodular`` eval and zero-find,
    whose rows restate payload fields, pass columns only for CSV, as
    boundary-scan does.  CSV mode: a timestamp comment line, the resolved
    tolerance set, a header of the field names and one line per row,
    streamed to --out (or stdout); each column is formatted once by
    ``_csv_column``, with the cells of ``_csv_cell`` under RFC 4180
    minimal quoting.  When --out is a file the row-free summary JSON goes
    to stdout.
    """
    stamp = _timestamp()
    head = {"version": __version__, "command": args.command}
    if args.format == "json":
        doc = {**head, **payload}
        if columns is not None:
            cols = [c.tolist() if isinstance(c, np.ndarray) else c
                    for c in columns.values()]
            doc["rows"] = [dict(zip(columns, vals))
                           for vals in zip(*cols, strict=True)]
        _write_lines([_dumps(stamp, doc)], args.out)
        return

    cells = [_csv_column(c) for c in (columns or {}).values()]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    tol = json.dumps(payload.get("tolerances", {}), sort_keys=True,
                     default=_json_default)
    top = [f"# generated: {stamp}\r\n", f"# tolerances: {tol}\r\n",
           ",".join(map(_csv_quote, columns or ())) + "\r\n"]
    rows = (",".join(row) + "\r\n" for row in zip(*cells))
    _write_lines(itertools.chain(top, rows), args.out)
    if args.out:
        sys.stdout.write(_dumps(stamp, {
            **head, **payload, "csv_path": args.out,
            "rows_written": len(cells[0]) if cells else 0}))


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
        "config": {"n": list(n), "tau": tau, "route": args.route},
        "tolerances": dict(rep.tolerances),
        "genus": rep.genus,
        "condition_class": rep.condition_class,
        "route_used": rep.route,
        "route_discrepancy": rep.route_discrepancy,
        "factor_degrees": rep.factor_degrees,
        "coefficients": rep.coeffs.tolist(),
        "roots": list(rr.roots),
        "classification": rr.classification,
        "has_complex": rr.classification == "has_complex",
        "residual_max": rr.residual_max,
        "min_gap": rr.min_gap,
        "max_imag": rr.max_imag,
        "diagnostics": dict(rep.diagnostics),
    }
    coeffs, roots = payload["coefficients"], payload["roots"]
    columns = {
        "kind": ["coefficient"] * len(coeffs) + ["root"] * len(roots),
        "index": [*range(len(coeffs)), *range(len(roots))],
        "value": coeffs + roots,
    }
    emit(payload, columns if args.format == "csv" else None, args)
    return 0


def cmd_scan(args) -> int:
    n = parse_n_tuple(args.n)
    bs = parse_grid(args.b)
    if np.any(bs <= 0):
        raise UsageError("--b values must be positive (tau = i*b)")
    res = tau_scan(n, bs, tol_im=args.tol_im, tol_gap=args.tol_gap)
    payload = {
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
    pts = res.points
    emit(payload, {
        "index": range(len(pts)),
        **{k: [getattr(p, k) for p in pts]
           for k in ("b", "classification", "ok", "max_imag", "min_gap")},
        "roots": [list(p.roots) if p.roots else None for p in pts],
        "error": [p.error for p in pts],
    }, args)
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
        "diagnostics": {
            "magnus_steps": bands.magnus_steps,
            "trace_calls": bands.trace_calls,
        },
    }
    d = bands.deltas
    emit(payload, {
        "index": range(len(d)), "E": bands.energies, "re_delta": d.real,
        "im_delta": d.imag, "inside": np.abs(d.real) <= 2.0,
    }, args)
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
        "diagnostics": {"magnus_steps": res["magnus_steps"]},
    }
    im_grid, re_grid = np.meshgrid(im_vals, re_vals, indexing="ij")
    emit(payload, {
        "index": range(total), "re": re_grid.ravel(), "im": im_grid.ravel(),
        **{k: res[k].ravel()
           for k in ("delta1", "delta2", "at_root", "unitary")},
    }, args)
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
        columns = {k: [payload[k]] for k in ("r", "s", "tau", "value", "abs")}
        emit(payload, columns if args.format == "csv" else None, args)
        return 0

    if args.op == "boundary-scan":
        res = boundary_nonvanishing_scan(n, floor=args.floor)
        argmin = res["argmin"]
        payload = {
            **base,
            "min_abs": res["min_abs"],
            "argmin": {"r": argmin[0], "s": argmin[1], "tau": argmin[2]},
            "points": res["points"],
            "floor": res["floor"],
            "passed": res["passed"],
        }
        columns = None
        if args.format == "csv":
            vals = res["values"]
            nt, ng = vals.shape
            columns = {
                "index": range(vals.size), "r": np.tile(res["r"], nt),
                "s": np.tile(res["s"], nt), "tau": np.repeat(res["taus"], ng),
                "abs": vals.ravel(),
            }
        emit(payload, columns, args)
        return 0 if res["passed"] else 2

    if args.op == "zero-find":
        if args.rs is None or args.tau is None:
            raise UsageError("zero-find needs --rs and --tau (the seed)")
        r, s = parse_rs(args.rs)
        seed = parse_complex(args.tau)
        res = zero_find(n, r, s, seed, tol=args.newton_tol)
        base["config"].update({"rs": args.rs, "tau": args.tau})
        payload = {**base, "r": r, "s": s, **res}
        columns = {
            "r": [r], "s": [s], "seed": [seed],
            **{k: [res[k]] for k in ("tau_zero", "residual", "location",
                                     "inside_F0", "iterations")},
        }
        emit(payload, columns if args.format == "csv" else None, args)
        return 0

    if args.op == "zero-find-multi":
        if args.rs is None:
            raise UsageError("zero-find-multi needs --rs")
        r, s = parse_rs(args.rs)
        seeds = None
        if args.seed is not None:
            rng = np.random.default_rng(args.seed)
            seeds = []
            for c in SEED_LATTICE:
                t = complex(c.real + rng.uniform(-0.05, 0.05),
                            c.imag + rng.uniform(-0.05, 0.05))
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
            "diagnostics": res["diagnostics"],
        }
        runs = res["runs"]
        emit(payload, {
            "index": range(len(runs)),
            **{k: [run.get(k) for run in runs]
               for k in ("seed", "converged", "iterations", "tau_zero",
                         "residual", "location", "error")},
        }, args)
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
