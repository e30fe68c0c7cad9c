"""Every name a ``repro`` package lists in ``__all__`` resolves.

A module deleted or a name renamed while a package still re-exports it
fails here, for every package at once, instead of at a user's
``from repro.<package> import *``.
"""

import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(ROOT).parts))
    for init in ROOT.rglob("__init__.py")
)


def test_packages_found():
    assert {"repro", "repro.baselines", "repro.net", "repro.validation"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name, None) is not None, f"{package}.{name}"
