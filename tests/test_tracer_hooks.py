"""The benchmark's per-layer tracer wraps package functions and methods by
name (``perfbench.tracer.SPECS``), and its ``install()`` fails on a name
that no longer exists.  Every hooked name must keep resolving, so a rename
fails here instead of only breaking traced benchmark runs."""

import importlib

import pytest

from perfbench.tracer import SPECS


@pytest.mark.parametrize(
    "module,path", sorted({(m, p) for m, p, *_ in SPECS}), ids=lambda x: x
)
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    got = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(got), f"{module}.{path} is gone"
