"""The package exports and keeps only what the package itself uses.

Every name in a module's ``__all__`` must be loaded by package code other
than its own ``def`` or ``class`` line and the export lists: a name that
only tests reach belongs in ``tests/helpers.py``, not in the package. The
same holds for every private module-level function, class and constant,
and every private method: dead private code fails here. An exported
function's defaulted parameter must be passed by some package call, or it
is a setting that no run uses.
"""

import ast
import importlib
from pathlib import Path

import pytest

import vortexlab

SRC = Path(vortexlab.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# Probes of the paper's cutoff and Young bounds that no run reads yet, with
# their defaults; ROADMAP item 18 decides whether a run measures them or
# they go.
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


def defaulted_parameters(function: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each parameter with a default; ``position``
    is ``None`` for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def passed_parameters(calls: list[ast.Call], params) -> set[str]:
    """The parameters among ``params`` that some call of ``calls`` passes:
    by keyword, by position, or possibly through ``*`` or ``**``."""
    passed = set()
    for call in calls:
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        keywords = {k.arg for k in call.keywords}
        for name, position in params:
            by_position = position is not None and (starred or position < len(call.args))
            if name in keywords or None in keywords or by_position:
                passed.add(name)
    return passed


def test_every_default_of_an_exported_function_is_passed_by_the_package():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module in MODULES:
        exported = set(exports(module)) - ALLOWED
        for node in modules[module].body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                params = defaulted_parameters(node)
                missing = {n for n, _ in params} - passed_parameters(calls.get(node.name, []), params)
                unpassed += [f"{module}.{node.name}({name})" for name in sorted(missing)]
    assert not unpassed, f"defaulted parameters no package call passes: {unpassed}"
