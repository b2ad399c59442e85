"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import fockspace

# importing the entry-point module runs the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(fockspace.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["fockspace"] + [f"fockspace.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
