import importlib

import pytest

MODULES = ("geninv", "geninv.linalg", "geninv.inverses", "geninv.theorems",
           "geninv.generators", "geninv.matrixio")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
