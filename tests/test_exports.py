"""Every name the package and its modules export resolves."""
import importlib

import pytest

MODULES = ["wsdepth", "wsdepth.analytic", "wsdepth.depth", "wsdepth.ot_core", "wsdepth.sim"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)

