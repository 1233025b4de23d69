"""Smoke tests of the command line scripts on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,first", [
    ("premodular_boundary", ["1", "--rs", "4", "4", "--tau-count", "6"],
     "Z^(1): 16 (r, s) samples x 6 boundary tau = 96 evaluations"),
    ("qpoly_tau_scan", ["1", "0", "0", "1", "--b", "0.8:1.2:3"],
     "tuple (1, 0, 0, 1): genus 1, condition class C2"),
    ("band_diagram", ["1", "0", "0", "0", "--tau", "1i", "--num", "201"],
     "tuple (1, 0, 0, 0), tau = 1j: genus 1, roots classified real_distinct"),
])
def test_script_runs(capsys, name, argv, first):
    assert load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == first
    assert len(lines) > 2


@pytest.mark.parametrize("argv,message", [
    (["--b", "0.5:2:0"], "b_values must not be empty"),
    (["--b=-1:1:3"], "b must be finite and > 0"),
])
def test_tau_scan_script_rejects_bad_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        load("qpoly_tau_scan").main(["1", "0", "0", "1", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["--tau-count", "1"], "count must be >= 3"),
    (["--floor", "-1"], "unrecognized arguments: --floor"),
    (["--rs", "0", "5"], "rs_grid must not be empty"),
])
def test_boundary_script_rejects_bad_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        load("premodular_boundary").main(["2", "--rs", "2", "2", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_band_script_rejects_a_grid_without_cells(capsys):
    with pytest.raises(SystemExit) as exc:
        load("band_diagram").main(["1", "0", "0", "0", "--num", "1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--num must be >= 2" in err
