"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` declares which submodule provides each exported
name and installs the returned ``__getattr__``/``__dir__`` pair::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "driver": ("compile_source",),
        "parser": ("ParseError as CParseError", "parse_source"),
    })

Importing the package then loads none of its submodules: the first
access to an exported name imports the one submodule behind it and
caches the value in the package namespace, so later accesses are plain
attribute reads.  Any other attribute that names a submodule imports
it, as an eagerly importing ``__init__`` would have made it available.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it provides; ``"attr as name"`` exports ``attr`` under
    ``name``.
    """
    namespace = sys.modules[package].__dict__
    where: Dict[str, Tuple[str, str]] = {}
    for submodule, names in exports.items():
        for spec in names:
            attr, _, alias = spec.partition(" as ")
            where[alias or attr] = (submodule, attr)

    def __getattr__(name: str) -> object:
        if name not in where:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule, attr = where[name]
        value = getattr(importlib.import_module(f".{submodule}", package), attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    # A name exported by a submodule of the same name is bound now:
    # importing that submodule later would otherwise set the package
    # attribute to the module object, shadowing the export.
    for name, (submodule, _) in where.items():
        if name == submodule:
            __getattr__(name)
    return __getattr__, __dir__
