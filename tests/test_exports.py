import importlib
import pkgutil

import pytest

import tracereg

MODULES = sorted(info.name for info in pkgutil.iter_modules(tracereg.__path__, "tracereg."))


def test_modules_found():
    assert {"tracereg.sampling", "tracereg.crossval", "tracereg.solvers"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
