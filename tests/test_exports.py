"""Every exported name exists and is exported once."""
import importlib
import pkgutil

import pytest

import resflow

MODULES = ["resflow"] + [f"resflow.{m.name}" for m in pkgutil.iter_modules(resflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_names_that_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"


def test_the_walk_finds_the_submodules():
    # a walk that found nothing would leave only the package to check
    assert {"resflow.diagnostics", "resflow.flow", "resflow.transport"} <= set(MODULES)
