"""The package layout: every submodule is reachable under its own name."""

from __future__ import annotations

import inspect
import pkgutil

import pytest

import intervalcat

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(intervalcat.__path__))


def test_submodules_found():
    assert {"cli", "closure", "counting", "intervals", "oracle", "posets"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_binds_the_submodule(name):
    # `import a.b as m` binds the attribute b of package a, so a package
    # attribute of the same name would hide the submodule.
    namespace: dict = {}
    exec(f"import intervalcat.{name} as m", namespace)
    assert inspect.ismodule(namespace["m"])
    assert namespace["m"].__name__ == f"intervalcat.{name}"
