"""The error taxonomy: out-of-domain values raise ValidationError, and the
library neither raises nor catches a bare ValueError."""

import ast
from pathlib import Path

import pytest

from vortexlab import (
    Divisor,
    GeneralizedTerm,
    GridSpec,
    KWProblem,
    SolverConfig,
    TorusGeometry,
    constant_field,
    kw_solve,
    lp_norm,
)
from vortexlab.errors import ValidationError, VortexLabError
from vortexlab.greens import theta1
from vortexlab.vortex import ContinuationSchedule

SRC = Path(__file__).resolve().parent.parent / "src" / "vortexlab"
UNIT = TorusGeometry(1.0, 1.0)
GRID = GridSpec(8, 8)
POINT = Divisor(((0.5, 0.5),), (1,))

# Stdlib parsing of user text, which signals bad input with ValueError.
ALLOWED_VALUE_ERROR_HANDLERS = {("config.py", "_degree")}


def _zero_eps_problem():
    return KWProblem(
        0.0, ((constant_field(UNIT, GRID, 1.0), 1.0),), (), constant_field(UNIT, GRID, -1.0)
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: TorusGeometry(0.0, 1.0), id="torus-side"),
        pytest.param(lambda: GridSpec(7, 8), id="odd-grid"),
        pytest.param(lambda: Divisor(((0.5, 0.5),), (0,)), id="zero-multiplicity"),
        pytest.param(lambda: SolverConfig(max_newton=0), id="max-newton"),
        pytest.param(lambda: ContinuationSchedule((0.1, 0.2)), id="increasing-schedule"),
        pytest.param(lambda: GeneralizedTerm(POINT, 0), id="zero-weight"),
        pytest.param(
            lambda: KWProblem(-0.1, (), (), constant_field(UNIT, GRID, 0.0)),
            id="negative-epsilon",
        ),
        pytest.param(lambda: kw_solve(_zero_eps_problem()), id="kw-solve-at-zero"),
        pytest.param(
            lambda: ContinuationSchedule((1e-5,), max_grid=1024).grid(UNIT, 1e-5),
            id="past-max-grid",
        ),
        pytest.param(lambda: lp_norm(constant_field(UNIT, GRID, 1.0), 0.5), id="lp-below-1"),
        pytest.param(lambda: theta1(0.9, 1j), id="theta1-outside-cell"),
    ],
)
def test_out_of_domain_values_raise_validation_error(make):
    with pytest.raises(ValidationError) as info:
        make()
    assert isinstance(info.value, VortexLabError)
    assert isinstance(info.value, ValueError)


def _names(node) -> set[str]:
    """Names of the exception classes an expression refers to."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _enclosing_function(node, parents) -> str | None:
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.FunctionDef):
            return node.name
    return None


def test_library_neither_raises_nor_catches_value_error():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and "ValueError" in _names(node.exc):
                offenders.append(f"{path.name}:{node.lineno}: raise ValueError")
            elif isinstance(node, ast.ExceptHandler) and "ValueError" in _names(node.type):
                where = (path.name, _enclosing_function(node, parents))
                if where not in ALLOWED_VALUE_ERROR_HANDLERS:
                    offenders.append(f"{path.name}:{node.lineno}: except ValueError")
    assert not offenders, "\n".join(offenders)
