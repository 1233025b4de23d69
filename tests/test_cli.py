import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

from tvspec import __version__, cli
from tvspec.cli import fmt_complex, main, parse_complex, parse_grid
from tvspec.hill import trace_on_grid
from tvspec.premodular import boundary_nonvanishing_scan, z_n

from conftest import lattice, problem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_stamp_json(text):
    return "\n".join(l for l in text.splitlines() if '"generated"' not in l)


def strip_stamp_csv(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# generated"))


def csv_table(text):
    """Header and data rows of a CSV document, after its two comment lines."""
    lines = text.split("\r\n")
    assert lines[0].startswith("# generated:")
    assert lines[1].startswith("# tolerances:")
    header, *rows = csv.reader(lines[2:-1])
    assert lines[-1] == ""
    return header, rows


def assert_cell_is(cell, want):
    """A CSV cell parses back to its JSON value."""
    if want is None:
        assert cell == ""
    elif isinstance(want, bool):
        assert cell == ("true" if want else "false")
    elif isinstance(want, dict):
        assert parse_complex(cell) == complex(want["re"], want["im"])
    elif isinstance(want, list):
        parts = cell.split(";")
        assert len(parts) == len(want)
        for part, w in zip(parts, want):
            assert_cell_is(part, w)
    elif isinstance(want, float):
        got = float(cell)
        assert got == want or (math.isnan(got) and math.isnan(want))
    else:
        assert cell == str(want)


def test_parse_helpers():
    assert parse_complex("0+1.2i") == 1.2j
    assert parse_complex("-3.5") == -3.5
    assert fmt_complex(1.5 - 2.0j) == "1.5-2i"
    grid = parse_grid("0.5:2:4")
    assert list(grid) == [0.5, 1.0, 1.5, 2.0]


def test_qpoly_json_payload(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "1,0,0,1", "--tau", "0+1.2i")
    assert code == 0
    assert out.splitlines()[1].strip().startswith('"generated"')
    doc = json.loads(out)
    assert doc["command"] == "qpoly"
    assert doc["config"]["n"] == [1, 0, 0, 1]
    assert doc["genus"] == 1
    assert doc["condition_class"] == "C2"
    assert len(doc["roots"]) == 3
    assert doc["has_complex"] is True
    assert doc["classification"] == "has_complex"
    assert any(r["im"] != 0 for r in doc["roots"])
    # each coefficient and root is written once, not again as rows
    assert "rows" not in doc
    assert len(doc["coefficients"]) == 4


@pytest.mark.parametrize("n, tau", [("0,0,1,4", "0.000000+0.635897i"),
                                    ("0,0,4,1", "0.000000+0.743590i")])
def test_qpoly_near_double_roots_answered(capsys, n, tau):
    code, out, err = run(capsys, "qpoly", "--n", n, "--tau", tau)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["classification"] == "real_distinct"
    assert len(doc["roots"]) == 9


def test_parser_reused_after_usage_error(capsys):
    code, _, err = run(capsys, "qpoly", "--n", "2,0,0,0", "--tau", "0+1i",
                       "--route", "phi", "--bogus")
    assert code == 1 and "usage error" in err
    code, out, _ = run(capsys, "qpoly", "--n", "2,0,0,0", "--tau", "0+1i")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["route"] == "both"
    assert doc["route_used"] == "both"
    assert doc["classification"] == "real_distinct"
    assert len(doc["roots"]) == 5
    assert cli._parser() is cli._parser()


def test_qpoly_rejects_zero_tuple(capsys):
    code, _, err = run(capsys, "qpoly", "--n", "0,0,0,0", "--tau", "0+1i")
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("n, message", [
    ("0,0,0,0", "at least one multiplicity must be positive"),
    ("-1,0,0,0", "multiplicities must be non-negative"),
], ids=["zero", "negative"])
@pytest.mark.parametrize("argv", [
    ["qpoly", "--tau", "1i"],
    ["scan", "--b", "0.8:1.2:3"],
    ["bands", "--tau", "1i", "--E", "-8:8:5"],
    ["unitary", "--tau", "1i", "--re", "-6:6:3", "--im", "-2:2:2"],
], ids=lambda a: a[0])
def test_n_out_of_range_is_a_usage_error(capsys, argv, n, message):
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_qpoly_rejects_bad_tau(capsys):
    assert run(capsys, "qpoly", "--n", "1,0,0,0", "--tau", "0-1i")[0] == 1


def test_route_dispatch_on_odd_tuples(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "3,0,0,0", "--tau", "0+1i",
                       "--route", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["route_used"] == "phi"
    assert doc["factor_degrees"] is None

    code, _, err = run(capsys, "qpoly", "--n", "3,0,0,0", "--tau", "0+1i",
                       "--route", "factor")
    assert code == 2

    code, out, _ = run(capsys, "qpoly", "--n", "1,1,0,1", "--tau", "0+1i",
                       "--route", "factor")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["factor_degrees"]) == [1, 1, 1, 2]


def test_qpoly_deterministic_modulo_stamp(capsys):
    a = run(capsys, "qpoly", "--n", "2,0,0,0", "--tau", "0+1i")[1]
    b = run(capsys, "qpoly", "--n", "2,0,0,0", "--tau", "0+1i")[1]
    assert strip_stamp_json(a) == strip_stamp_json(b)


def test_scan_csv_file_and_summary(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--n", "2,0,0,0", "--b", "0.5:2:31",
                       "--format", "csv", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rows_written"] == 31
    assert summary["csv_path"] == str(out_path)
    raw = out_path.read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0].startswith("# generated:")
    assert lines[1].startswith("# tolerances:")
    header = lines[2].split(",")
    assert "classification" in header
    data = [l for l in lines[3:] if l]
    assert len(data) == 31
    assert all("real_distinct" in l for l in data)


def test_scan_csv_deterministic_modulo_stamp(capsys, tmp_path):
    bodies = []
    for k in (1, 2):
        p = tmp_path / f"scan{k}.csv"
        code, _, _ = run(capsys, "scan", "--n", "1,0,0,1", "--b", "0.8:1.2:5",
                         "--format", "csv", "--out", str(p))
        assert code == 0
        bodies.append(strip_stamp_csv(p.read_bytes().decode()))
    assert bodies[0] == bodies[1]


SUBCOMMANDS = [
    ["qpoly", "--n", "1,0,0,1", "--tau", "0+1i"],
    ["scan", "--n", "1,0,0,1", "--b", "0.8:1.2:3"],
    ["bands", "--n", "1,0,0,0", "--tau", "0+1i", "--E", "-8:8:5"],
    ["unitary", "--n", "2,0,0,0", "--tau", "0+1i", "--re", "-6:6:2",
     "--im", "-2:2:2"],
    ["premodular", "--op", "boundary-scan", "--n", "1"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_threads_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--threads", "2")
    assert code == 1
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_truncation_tol_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--truncation-tol", "1e-10")
    assert code == 1
    assert out == ""
    assert "--truncation-tol" in err


@pytest.mark.parametrize("argv", [
    ["--op", "zero-find-multi", "--rs", "0.15,0.15", "--newton-tol", "0"],
    ["--op", "zero-find-multi", "--rs", "0.15,0.15", "--newton-tol", "-1"],
    ["--op", "zero-find-multi", "--rs", "0.15,0.15", "--newton-tol", "nan"],
    ["--op", "zero-find", "--rs", "0.15,0.15", "--tau", "0.7+0.7i",
     "--newton-tol", "0"],
    ["--op", "boundary-scan", "--floor", "-1"],
    ["--op", "boundary-scan", "--floor", "0"],
])
def test_premodular_refuses_vacuous_tolerances(capsys, argv):
    code, out, err = run(capsys, "premodular", "--n", "2", *argv)
    assert code == 1
    assert out == ""
    assert "must be finite and > 0" in err


@pytest.mark.parametrize("argv", [
    ["qpoly", "--n", "0,1,1,0", "--tau", "1i", "--tol-im", "nan"],
    ["qpoly", "--n", "0,1,1,0", "--tau", "1i", "--tol-im", "0"],
    ["qpoly", "--n", "2,0,0,0", "--tau", "1i", "--tol-gap", "inf"],
    ["qpoly", "--n", "2,0,0,0", "--tau", "1i", "--tol-gap", "-1"],
    ["qpoly", "--n", "2,0,0,0", "--tau", "1i", "--route-tol", "nan"],
    ["scan", "--n", "1,0,0,1", "--b", "0.8:1.2:3", "--tol-im", "nan"],
    ["scan", "--n", "1,0,0,1", "--b", "0.8:1.2:3", "--tol-gap", "0"],
])
def test_spectral_commands_refuse_vacuous_tolerances(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be finite and > 0" in err


@pytest.mark.parametrize("argv", [
    ["bands", "--n", "2,0,0,0", "--tau", "0.2+1i", "--E", "-10:5:31",
     "--im-tol", "nan"],
    ["bands", "--n", "1,0,0,0", "--tau", "1i", "--E", "-8:8:5",
     "--rtol", "nan"],
    ["bands", "--n", "1,0,0,0", "--tau", "1i", "--E", "-8:8:5",
     "--atol", "0"],
    ["unitary", "--n", "2,0,0,0", "--tau", "1i", "--re", "-6:6:5",
     "--im", "-2:2:3", "--tol-im", "nan"],
    ["unitary", "--n", "2,0,0,0", "--tau", "1i", "--re", "-6:6:5",
     "--im", "-2:2:3", "--rtol", "-1"],
])
def test_hill_commands_refuse_vacuous_tolerances(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be finite and > 0" in err


def test_qpoly_c1_tuple_on_the_axis_has_complex(capsys):
    code, out, _ = run(capsys, "qpoly", "--n", "0,1,1,0", "--tau", "1i")
    assert code == 0
    doc = json.loads(out)
    assert doc["condition_class"] == "C1"
    assert doc["classification"] == "has_complex"


@pytest.mark.parametrize("argv", [("--n", "2,2,1,1", "--tau", "0.3+1.1i"),
                                  ("--n", "3,0,0,0", "--tau", "1i")])
def test_qpoly_reports_the_phi_solve(capsys, argv):
    code, out, _ = run(capsys, "qpoly", *argv)
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    steps = diag["refine_steps"]
    assert isinstance(steps, int) and 0 <= steps <= 4
    for key in ("lstsq_residual", "sv_ratio", "z_consistency",
                "holdout_error", "scale"):
        assert isinstance(diag[key], float), key


def test_gap_tolerance_that_classified_is_reported(capsys, tmp_path):
    code, out, _ = run(capsys, "qpoly", "--n", "2,0,0,0", "--tau", "1i")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["root_source"] == "factor_union"
    assert doc["tolerances"]["factor_gap_tol"] == 1e-10
    code, out, _ = run(capsys, "scan", "--n", "2,0,0,0", "--b", "0.8:1.2:3")
    assert code == 0
    assert json.loads(out)["tolerances"]["factor_gap_tol"] == 1e-10


def test_bands_payload(capsys):
    code, out, _ = run(capsys, "bands", "--n", "1,0,0,0", "--tau", "0+1i",
                       "--E", "-8:8:161")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["bands"]) == 2
    first, second = doc["bands"]
    assert first["open_left"] and not first["open_right"]
    assert not second["open_left"] and not second["open_right"]
    L = lattice(1j)
    assert abs(first["hi"] - L.e2.real) < 1e-5
    assert abs(second["lo"] - L.e3.real) < 1e-5
    assert abs(second["hi"] - L.e1.real) < 1e-5
    assert len(doc["rows"]) == 161
    assert doc["diagnostics"]["magnus_steps"] == 256
    assert 2 <= doc["diagnostics"]["trace_calls"] <= 1 + 8


def test_bands_rows_are_the_grid_traces(capsys):
    code, out, _ = run(capsys, "bands", "--n", "1,0,0,0", "--tau", "0+1i",
                       "--E", "-8:8:161")
    assert code == 0
    rows = json.loads(out)["rows"]
    grid = parse_grid("-8:8:161")
    deltas, _ = trace_on_grid(problem(1j, (1, 0, 0, 0)), grid)
    assert [r["E"] for r in rows] == grid.tolist()
    assert [r["re_delta"] for r in rows] == deltas.real.tolist()
    assert [r["im_delta"] for r in rows] == deltas.imag.tolist()


def test_bands_rejects_zero_edge_tol(capsys):
    code, out, err = run(capsys, "bands", "--n", "1,0,0,0", "--tau", "0+1i",
                         "--E", "-8:8:5", "--edge-tol", "0")
    assert code == 1
    assert out == ""
    assert "edge_tol" in err


def test_bands_unreachable_edge_tol_is_nonconvergence(capsys):
    code, out, err = run(capsys, "bands", "--n", "1,0,0,0", "--tau", "0+1i",
                         "--E", "-8:8:161", "--edge-tol", "1e-20")
    assert code == 3
    assert out == ""
    assert "edge_tol=1e-20" in err


@pytest.mark.parametrize("grid", ["10:-10:201", "1:1:5"])
def test_bands_rejects_empty_or_reversed_window(capsys, grid):
    code, out, err = run(capsys, "bands", "--n", "1,0,0,0", "--tau", "0+1i",
                         "--E", grid)
    assert code == 1
    assert out == ""
    assert "e_min < e_max" in err


def test_unitary_grid_negative(capsys):
    code, out, _ = run(capsys, "unitary", "--n", "2,0,0,0", "--tau", "0+1i",
                       "--re", "-6:6:5", "--im", "-2:2:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == 15
    assert doc["any_unitary"] is False
    assert len(doc["rows"]) == 15
    assert doc["diagnostics"] == {"magnus_steps": {"1": 256, "tau": 256}}


def test_premodular_eval_matches_library(capsys):
    code, out, _ = run(capsys, "premodular", "--op", "eval", "--n", "2",
                       "--rs", "0.3,0.2", "--tau", "0+1.1i")
    assert code == 0
    doc = json.loads(out)
    val = complex(doc["value"]["re"], doc["value"]["im"])
    ref = z_n(lattice(1.1j), 0.3, 0.2, 2)
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


def test_premodular_zero_find_paths(capsys):
    code, out, _ = run(capsys, "premodular", "--op", "zero-find", "--n", "2",
                       "--rs", "0.15,0.15", "--tau", "0.7+0.7i")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-10
    assert doc["inside_F0"] is True

    code, _, err = run(capsys, "premodular", "--op", "zero-find", "--n", "1",
                       "--rs", "0.6,0.1", "--tau", "0.3+1.5i")
    assert code == 3


def test_zero_find_multi_reports_runs_and_diagnostics(capsys):
    code, out, _ = run(capsys, "premodular", "--op", "zero-find-multi",
                       "--n", "2", "--rs", "0.3,0.3", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert doc["any_interior_zero"] is False
    assert len(rows) == doc["runs"]
    assert all(isinstance(row["iterations"], int) for row in rows)
    diag = doc["diagnostics"]
    assert diag["max_iterations"] == max(row["iterations"] for row in rows)
    assert 0 < diag["batched_steps"] <= 60 < diag["lattices"]


def test_zero_find_multi_former_crashes_answer(capsys):
    # a run stalled short of tol: its zero-length chord sent tau to NaN,
    # reported as a usage error; Z^(4) has zeros in F0 at this (r, s)
    code, _, err = run(capsys, "premodular", "--op", "zero-find-multi",
                       "--n", "4", "--rs", "0.15,0.15")
    assert code == 3
    assert "stalled" in err and "|Z| = " in err and "tol 1e-10" in err
    # a run bound for the real cusp 4 stalled the same way there; it now
    # ends at iteration 3, when it leaves the strip around F0
    code, out, _ = run(capsys, "premodular", "--op", "zero-find-multi",
                       "--n", "2", "--rs", "0.6,0.1", "--seed", "11")
    assert code == 0
    assert json.loads(out)["any_interior_zero"] is True


def test_premodular_rejects_tuple_n(capsys):
    assert run(capsys, "premodular", "--op", "eval", "--n", "1,0,0,1",
               "--rs", "0.3,0.2", "--tau", "0+1i")[0] == 1


def test_boundary_scan_exit_codes(capsys):
    code, out, _ = run(capsys, "premodular", "--op", "boundary-scan",
                       "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["min_abs"] > doc["floor"]
    assert doc["points"] == 400 * 60


def test_version_and_unknown_command(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "frobnicate")[0] == 1


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "2,0,0,0", "--b", "nan:1:3"],
    ["scan", "--n", "2,0,0,0", "--b", "1:inf:3"],
    ["bands", "--n", "1,0,0,0", "--tau", "1i", "--E", "-8:inf:5"],
])
def test_non_finite_grid_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "needs a finite start and stop" in err


ROW_COMMANDS = [
    ["qpoly", "--n", "1,0,0,1", "--tau", "0+1.2i"],
    ["scan", "--n", "1,0,0,1", "--b", "0.8:1.2:3"],
    ["bands", "--n", "1,0,0,0", "--tau", "0+1i", "--E", "-8:8:5"],
    ["unitary", "--n", "2,0,0,0", "--tau", "0+1i", "--re", "-6:6:3",
     "--im", "-2:2:2"],
    ["premodular", "--op", "eval", "--n", "2", "--rs", "0.3,0.2",
     "--tau", "0+1.1i"],
    ["premodular", "--op", "zero-find", "--n", "2", "--rs", "0.15,0.15",
     "--tau", "0.7+0.7i"],
    ["premodular", "--op", "zero-find-multi", "--n", "2", "--rs",
     "0.15,0.15", "--seed", "3"],
]


def _payload_rows(argv, doc):
    """The rows a JSON document carries, or, for the commands whose rows
    would restate payload fields and so are written only in CSV, those
    fields as rows."""
    if argv[0] == "qpoly":
        return [{"kind": kind, "index": i, "value": v}
                for kind, key in (("coefficient", "coefficients"),
                                  ("root", "roots"))
                for i, v in enumerate(doc[key])]
    op = argv[2] if argv[0] == "premodular" else None
    if op == "eval":
        return [{k: doc[k] for k in ("r", "s", "tau", "value", "abs")}]
    if op == "zero-find":
        seed = parse_complex(doc["config"]["tau"])
        return [{"r": doc["r"], "s": doc["s"],
                 "seed": {"re": seed.real, "im": seed.imag},
                 **{k: doc[k] for k in ("tau_zero", "residual", "location",
                                        "inside_F0", "iterations")}}]
    return doc["rows"]


@pytest.mark.parametrize("argv", ROW_COMMANDS, ids=lambda a: " ".join(a[:3]))
def test_csv_rows_agree_with_json_rows(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[:3] == ["generated", "version", "command"]
    assert (doc["version"], doc["command"]) == (__version__, argv[0])
    assert ("rows" in doc) == (argv[0] not in ("qpoly", "premodular")
                               or argv[2] == "zero-find-multi")
    rows = _payload_rows(argv, doc)
    assert rows
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, cells = csv_table(out)
    assert header == list(rows[0])
    assert len(cells) == len(rows)
    for line, row in zip(cells, rows):
        assert list(row) == header
        assert len(line) == len(header)
        for cell, want in zip(line, row.values()):
            assert_cell_is(cell, want)


def test_boundary_scan_csv_rows_are_the_scan_values(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "premodular", "--op", "boundary-scan",
                       "--n", "1", "--format", "csv", "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "premodular"
    res = boundary_nonvanishing_scan(1)
    vals = res["values"]
    assert summary["rows_written"] == vals.size == 24000
    header, cells = csv_table(out_path.read_bytes().decode())
    assert header == ["index", "r", "s", "tau", "abs"]
    assert len(cells) == vals.size
    ng = vals.shape[1]
    r, s, taus = res["r"].tolist(), res["s"].tolist(), res["taus"].tolist()
    for k, (index, rc, sc, tc, ac) in enumerate(cells):
        it, ig = divmod(k, ng)
        assert int(index) == k
        assert (float(rc), float(sc)) == (r[ig], s[ig])
        assert parse_complex(tc) == taus[it]
        assert float(ac) == vals[it, ig]


def test_emit_csv_matches_csv_writer(capsys):
    nan, inf = float("nan"), float("inf")
    floats = np.array([0.0, -0.0, nan, inf, -inf, 0.0, -0.0, 1.5, 1.5,
                       0.1, 0.1, 2.0 ** -1074, 1e300])
    k = len(floats)
    columns = {
        "index": range(k),
        "text": ["a,b", 'say "hi"', "two\r\nlines", '""', "", None, "x",
                 "cr\r", "lf\n", ",", '"', "plain", "end"],
        "flag": [True, False, None, True, False, True, False, True, False,
                 True, False, True, False],
        "nested": [[1.5, [2, "a,b"]], [], [None, True], ["q\"uote"], (1, 2),
                   [-0.0], [nan], [1j], [], [0.0], [""], ["x"], [inf]],
        "inside": np.array([v > 0 for v in floats.tolist()]),
        "count": np.arange(k, dtype=np.int64),
        "value": floats,
        "z": np.array([complex(a, b) for a, b in zip(floats, floats[::-1])]),
        "re": np.array([complex(a, -a) for a in floats]).real,
    }
    args = argparse.Namespace(command="test", format="csv", out=None)
    cli.emit({"tolerances": {"tol": 1e-6}}, columns, args)
    out = capsys.readouterr().out
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\r\n")
    writer.writerow(columns)
    cols = [c.tolist() if isinstance(c, np.ndarray) else c
            for c in columns.values()]
    writer.writerows(zip(*(map(cli._csv_cell, c) for c in cols)))
    lines = out.split("\r\n", 2)
    assert lines[0].startswith("# generated: ")
    assert lines[1] == '# tolerances: {"tol": 1e-06}'
    assert lines[2] == want.getvalue()
    # 0.0 and -0.0 are distinct cells, whichever is formatted first
    values = [row[6] for row in csv.reader(lines[2].split("\r\n")[1:-1])]
    assert values[:7] == ["0", "-0", "nan", "inf", "-inf", "0", "-0"]


def test_emit_csv_without_rows_is_an_empty_header(capsys):
    args = argparse.Namespace(command="test", format="csv", out=None)
    cli.emit({}, None, args)
    assert capsys.readouterr().out.split("\r\n")[2:] == ["", ""]
    cli.emit({}, {"a": [], "b": np.zeros(0)}, args)
    assert capsys.readouterr().out.split("\r\n")[2:] == ["a,b", ""]


def test_emit_csv_refuses_ragged_columns(capsys, tmp_path):
    out = tmp_path / "ragged.csv"
    args = argparse.Namespace(command="test", format="csv", out=str(out))
    with pytest.raises(ValueError, match="differ in length"):
        cli.emit({}, {"a": np.zeros(2), "b": [1, 2, 3]}, args)
    assert not out.exists()
    assert capsys.readouterr().out == ""


JSON_COMMANDS = ROW_COMMANDS + [
    ["premodular", "--op", "boundary-scan", "--n", "1"],
    ["premodular", "--op", "boundary-scan", "--n", "1", "--format", "csv",
     "--out", "{tmp}/scan.csv"],
    ["scan", "--n", "1,0,0,1", "--b", "0.8:1.2:3", "--format", "csv",
     "--out", "{tmp}/scan.csv"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: " ".join(a))
def test_json_layout(capsys, monkeypatch, tmp_path, argv):
    """An opening brace and the timestamp on lines of their own, the rest
    on one line; the same values, in the same order, as the indented
    encoding of the same document."""
    docs = []
    dumps = cli._dumps

    def spy(stamp, doc):
        docs.append({"generated": stamp, **doc})
        return dumps(stamp, doc)

    monkeypatch.setattr(cli, "_dumps", spy)
    code, out, _ = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert len(docs) == 1
    lines = out.split("\n")
    assert len(lines) == 4 and lines[3] == ""
    assert lines[0] == "{"
    assert lines[1].startswith('  "generated": "') and lines[1].endswith('",')
    indented = json.dumps(docs[0], indent=2, default=cli._json_default)
    got, want = json.loads(out), json.loads(indented)
    assert list(got) == list(want)
    assert json.dumps(got) == json.dumps(want)
