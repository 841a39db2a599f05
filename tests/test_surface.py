"""The package exports and keeps only what the package itself uses.

Every name in a module's ``__all__`` must be loaded by package code other
than its own ``def`` or ``class`` line and the export lists: a name that
only tests reach belongs in ``tests/helpers.py``, not in the package. The
same holds for every private module-level function, class and constant,
and every private method: dead private code fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import vortexlab

SRC = Path(vortexlab.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# Probes of the paper's cutoff and Young bounds that no run reads yet;
# ROADMAP item 18 decides whether a run measures them or they go.
ALLOWED = {"young_bound", "cutoff_ratio_sup"}


def loaded_names() -> set[str]:
    """Every name that package code loads, bare or as an attribute.

    Definitions, imports and assignments store names; the export lists
    are strings; docstrings and comments are not code. None of them counts.
    """
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def exports(name: str) -> list[str]:
    return list(getattr(importlib.import_module(f"vortexlab.{name}"), "__all__", ()))


@pytest.mark.parametrize("module", [m for m in MODULES if exports(m)])
def test_every_exported_name_is_used_by_the_package(module):
    unused = sorted(set(exports(module)) - loaded_names() - ALLOWED)
    assert not unused, f"vortexlab.{module} exports names no package code uses: {unused}"


def test_the_package_reexports_only_module_exports():
    # The error classes are the errors module's public names; it keeps no list.
    errors = importlib.import_module("vortexlab.errors")
    listed = set(MODULES) | {n for m in MODULES for n in exports(m)}
    listed |= {n for n in vars(errors) if not n.startswith("_")}
    assert sorted(set(vortexlab.__all__) - listed) == []


def private_definitions():
    """``(where, name)`` of every module-level function, class and constant
    and every method, ``where`` being ``module`` or ``module.Class``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}", item.name
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            yield path.stem, leaf.id


def test_every_private_definition_is_used_by_the_package():
    loaded = loaded_names()
    unused = sorted(
        f"{where}.{name}"
        for where, name in private_definitions()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    )
    assert not unused, f"private names no package code uses: {unused}"
