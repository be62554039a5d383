"""Every cross-reference in the package's docstrings names something that
exists, so a renamed or deleted function, class or attribute cannot stay
behind in the prose that describes it.

A role (``:func:``, ``:class:``, ``:meth:``, ``:attr:``, ``:data:``,
``:mod:``, with or without ``~``) resolves as an attribute of its module,
as an attribute of a class in that module, as a ``massgraph.`` dotted path,
or as a builtin."""

from __future__ import annotations

import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "massgraph"
ROLE = re.compile(r":(?:func|class|meth|attr|data|mod):`~?([^`]+)`")
MISSING = object()


def lookup(obj, dotted: str):
    """``obj``'s attribute at the dotted path, or :data:`MISSING`."""
    for name in dotted.split("."):
        obj = getattr(obj, name, MISSING)
        if obj is MISSING:
            break
    return obj


def dotted(path: str):
    """The object at a ``massgraph.`` dotted path: its longest prefix that
    imports as a module, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return lookup(module, ".".join(parts[cut:])) if cut < len(parts) else module
    return MISSING


def resolves(module, target: str) -> bool:
    if target.startswith("massgraph."):
        return dotted(target) is not MISSING
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
               if c.__module__ == module.__name__]
    return any(lookup(owner, target) is not MISSING
               for owner in (module, *classes, builtins))


def references(path: Path) -> list[str]:
    return ROLE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_cross_reference_resolves(path):
    module = importlib.import_module(f"massgraph.{path.stem}".removesuffix(".__init__"))
    stale = [target for target in references(path) if not resolves(module, target)]
    assert stale == []


def test_the_references_are_found():
    # the pattern finds every role the package writes, in both spellings
    found = [target for path in SRC.glob("*.py") for target in references(path)]
    assert len(found) > 90
    assert "massgraph.scenario.PhaseHistory" in found and "advance" in found
    assert not resolves(importlib.import_module("massgraph.engine"), "settle_delta")
