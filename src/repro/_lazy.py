"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule -- and everything those import, scipy included --
the moment anything under the package is imported.  Instead it declares
a literal ``{name: module}`` table and installs the hooks built here::

    _EXPORTS = {"CTMC": "repro.markov.ctmc", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

The first access to ``package.CTMC`` (including ``from package import
CTMC`` and star-imports, which go through ``__all__``) imports
``repro.markov.ctmc`` and caches the value in the package namespace, so
later lookups are plain attribute reads.  The project linter reads the
same table to resolve re-exported names (``repro.lint.flow.modules``).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``."""

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
