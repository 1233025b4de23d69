import importlib
import inspect
import pkgutil

import pytest

import tvspec

MODULES = sorted(m.name for m in pkgutil.iter_modules(tvspec.__path__))


@pytest.mark.parametrize("name", ["tvspec"] + [f"tvspec.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from tvspec import *", namespace)
    assert set(tvspec.__all__) <= set(namespace)


# tolerances and ranges that no caller varied are module constants now
FIXED = [
    ("premodular", "classify_f0", "tol"),
    ("premodular", "is_half_torsion", "tol"),
    ("premodular", "boundary_tau_samples", "h_min"),
    ("premodular", "boundary_tau_samples", "h_max"),
    ("hill", "commutator_check", "tol"),
    ("hill", "dual_torus_exclusion", "root_tol"),
    ("hill", "dual_torus_exclusion", "problem_kw"),
    ("heun", "interlacing_check", "tol_im"),
    ("heun", "interlacing_check", "tol_gap"),
    ("spectral", "modular_covariance_check", "match_tol"),
]


@pytest.mark.parametrize("module, func, param", FIXED)
def test_fixed_values_are_not_parameters(module, func, param):
    fn = getattr(importlib.import_module(f"tvspec.{module}"), func)
    assert param not in inspect.signature(fn).parameters
