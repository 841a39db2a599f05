"""The error taxonomy: out-of-domain values raise ValidationError, and the
library neither raises nor catches a bare ValueError."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from vortexlab import (
    ClassicalVortexSpec,
    Divisor,
    GeneralizedTerm,
    GridSpec,
    KWProblem,
    SolverConfig,
    TorusGeometry,
    constant_field,
    curvature_mass,
    cutoff_ratio_sup,
    divisor_potential,
    kw_solve,
    l2_norm,
    solve_linearized,
    sup_norm,
    torus_green,
    young_bound,
)
from vortexlab.errors import NoConvergence, ValidationError, VortexLabError
from vortexlab.vortex import ContinuationSchedule

SRC = Path(__file__).resolve().parent.parent / "src" / "vortexlab"
UNIT = TorusGeometry(1.0, 1.0)
GRID = GridSpec(8, 8)
POINT = Divisor(((0.5, 0.5),), (1,))
ONE = constant_field(UNIT, GRID, 1.0)
EMPTY = np.zeros((8, 8), dtype=bool)

# Stdlib parsing of user text, which signals bad input with ValueError:
# a rational degree, a YAML scalar that PyYAML resolves but Python cannot
# build (an integer past the 4300-digit limit, a date out of range), and
# the echo of an integer too long to print in decimal.
ALLOWED_VALUE_ERROR_HANDLERS = {
    ("config.py", "_degree"),
    ("config.py", "parse_config"),
    ("config.py", "_shown"),
}


def _zero_eps_problem():
    return KWProblem(
        0.0, ((constant_field(UNIT, GRID, 1.0), 1.0),), (), constant_field(UNIT, GRID, -1.0)
    )


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda: TorusGeometry(0.0, 1.0),
            "torus side lengths must be positive",
            id="torus-side",
        ),
        pytest.param(
            lambda: GridSpec(7, 8),
            "grid counts must be even and at least 8",
            id="odd-grid",
        ),
        pytest.param(
            lambda: Divisor(((0.5, 0.5),), (0,)),
            "multiplicities must be positive, got (0,)",
            id="zero-multiplicity",
        ),
        pytest.param(
            lambda: SolverConfig(max_newton=0),
            "max_newton must be at least 1",
            id="max-newton",
        ),
        pytest.param(
            lambda: ContinuationSchedule((0.1, 0.2)),
            "epsilons must be strictly decreasing",
            id="increasing-schedule",
        ),
        pytest.param(
            lambda: GeneralizedTerm(POINT, 0),
            "weight must be nonzero",
            id="zero-weight",
        ),
        pytest.param(
            lambda: KWProblem(-0.1, (), (), constant_field(UNIT, GRID, 0.0)),
            "epsilon must be nonnegative",
            id="negative-epsilon",
        ),
        pytest.param(
            lambda: kw_solve(_zero_eps_problem()),
            "kw_solve needs epsilon > 0; use kw_limit at epsilon = 0",
            id="kw-solve-at-zero",
        ),
        pytest.param(
            lambda: ContinuationSchedule((1e-5,), max_grid=1024).grid(UNIT, 1e-5),
            "scale 1e-05 needs a grid beyond max_grid=1024",
            id="past-max-grid",
        ),
        pytest.param(
            lambda: curvature_mass(ONE, (0.5, 0.5), 0.3, 0.2),
            "need 0 < r_inner < r_outer < 0.5, got (0.3, 0.2)",
            id="bad-radii",
        ),
        pytest.param(
            lambda: torus_green((0.1, 0.1), TorusGeometry(1.0, 250.0)),
            "Im tau = 250.0 > 200.0: the nome underflows",
            id="tau-high",
        ),
        pytest.param(
            lambda: divisor_potential(POINT, TorusGeometry(250.0, 1.0), GRID),
            "Im tau = 250.0 > 200.0: the nome underflows",
            id="tau-high-reflected",
        ),
        pytest.param(
            lambda: ONE + constant_field(UNIT, GridSpec(16, 16), 1.0),
            "incompatible geometry/grid",
            id="grid-mismatch",
        ),
        pytest.param(
            lambda: sup_norm(ONE, np.ones((16, 16), dtype=bool)),
            "region shape (16, 16) does not match grid (8, 8)",
            id="region-shape",
        ),
        pytest.param(lambda: l2_norm(ONE, EMPTY), "region has no sample", id="l2-empty-region"),
        pytest.param(lambda: sup_norm(ONE, EMPTY), "region has no sample", id="sup-empty-region"),
        pytest.param(
            lambda: solve_linearized(1.0, constant_field(UNIT, GRID, 0.0), ONE),
            "potential minimum 0.0 is not positive",
            id="non-positive-potential",
        ),
        pytest.param(
            lambda: young_bound(0, 1, 1, 1),
            "a must be positive, got 0",
            id="young-bound",
        ),
        pytest.param(
            lambda: cutoff_ratio_sup(constant_field(UNIT, GRID, 0.0), 1.0),
            "no samples above the cutoff floor",
            id="cutoff-floor",
        ),
        pytest.param(
            lambda: ClassicalVortexSpec(TorusGeometry(1.0, 250.0), GRID, POINT, 0.2),
            "torus sides 1.0 x 250.0 differ by more than 200 times",
            id="over-long-torus",
        ),
    ],
)
def test_out_of_domain_values_raise_validation_error(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        make()
    assert isinstance(info.value, VortexLabError)
    assert isinstance(info.value, ValueError)


def test_cg_breakdown_is_no_convergence():
    # Valid input whose preconditioned residual underflows to zero: the
    # CG step denominator vanishes, a breakdown rather than a bad argument.
    huge = constant_field(UNIT, GRID, 1e300)
    with pytest.raises(NoConvergence, match="lost positive definiteness"):
        solve_linearized(0.1, huge, constant_field(UNIT, GRID, 1e-150))


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
