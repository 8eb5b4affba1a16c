"""Every name in a module's `__all__` is bound in that module.

perfbench's span tracer walks each `akasim.<module>.__all__` and reads
`vars(module)[name]`, so a stale entry would crash every traced benchmark
run; this catches it in the unit tests instead.
"""

import importlib
from pathlib import Path

import pytest

import akasim

MODULES = sorted(
    "akasim" if path.stem == "__init__" else f"akasim.{path.stem}"
    for path in Path(akasim.__file__).parent.glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if attr not in vars(module)] == []
