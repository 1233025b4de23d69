import importlib
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
