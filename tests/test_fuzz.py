"""Random configs through the whole pipeline: every run solves or fails typed.

Each draw is a classical, mixed or generalized config on a small grid. It
must end in one of three ways: a parse-time :class:`VortexLabError`, a
``status: ok`` run whose every number is finite and whose every stage is
converged and resolved, or a ``status: failed`` run naming a
:class:`VortexLabError`. Nothing may escape :func:`vortexlab.run`.
"""

import csv
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import pure_python_echo
from vortexlab import echo_config, errors, parse_config, run
from vortexlab.errors import ValidationError, VortexLabError
from vortexlab.kw import TAIL_TOL

NEWTON_TOL = 1e-10


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["classical", "mixed", "generalized"]))
    lx, ly = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    unit = st.floats(0.0, 1.0, exclude_max=True)

    def divisor():
        points = draw(st.lists(st.tuples(unit, unit, st.integers(1, 3)), max_size=3))
        return [{"x": fx * lx, "y": fy * ly, "m": m} for fx, fy, m in points]

    tau = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    if kind == "classical":
        model = {"divisor": divisor()}
    elif kind == "mixed":
        model = {"divisor_plus": divisor(), "divisor_minus": divisor(), "tau": tau}
    else:
        weights = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3))
        model = {"tau": tau, "terms": [{"weight": k, "divisor": divisor()} for k in weights]}
    n = draw(st.sampled_from([32, 64]))
    return {
        "kind": kind,
        "geometry": {"length_x": lx, "length_y": ly},
        "grid": {"nx": n, "ny": n},
        "epsilon": draw(st.sampled_from([0.3, 0.2, 0.1, 0.05])),
        "solver": {"newton_tol": NEWTON_TOL},
        "outputs": {"csv": True, "heatmaps": False, "svg": False},
        kind: model,
    }


def _numbers(node):
    """Every number in a JSON tree."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _bare_generalized(tau):
    """One weight-1 term with no divisor: the solution sits near log(-tau)."""
    return {
        "kind": "generalized",
        "geometry": {"length_x": 1.0, "length_y": 1.0},
        "grid": {"nx": 32, "ny": 32},
        "epsilon": 0.3,
        "solver": {"newton_tol": NEWTON_TOL},
        "outputs": {"csv": True, "heatmaps": False, "svg": False},
        "generalized": {"tau": tau, "terms": [{"weight": 1, "divisor": []}]},
    }


def _tiny_torus(side):
    """A classical config whose torus is so small that a 16^2 grid's
    largest ``|k|^2`` overflows at side 1e-153."""
    return {
        "kind": "classical",
        "geometry": {"length_x": side, "length_y": side},
        "grid": {"nx": 16, "ny": 16},
        "epsilon": 0.05,
        "solver": {"newton_tol": NEWTON_TOL},
        "outputs": {"csv": True, "heatmaps": False, "svg": False},
        "classical": {"divisor": []},
    }


def _beyond_floats(kind, model, grid=16):
    """A unit-torus config with ``model`` as its ``kind`` section, for a
    number beyond the float range, which once escaped as OverflowError."""
    return {
        "kind": kind,
        "geometry": {"length_x": 1.0, "length_y": 1.0},
        "grid": {"nx": grid, "ny": 16},
        "epsilon": 0.05,
        "solver": {"newton_tol": NEWTON_TOL},
        "outputs": {"csv": True, "heatmaps": False, "svg": False},
        kind: model,
    }


@settings(max_examples=100, deadline=None)
@given(configs())
@example(_bare_generalized(-5.018241260875924e-238))  # e^{-2f} overflows
@example(_bare_generalized(-5e-324))  # e^{-f} overflows
@example(_tiny_torus(1e-153))  # refused at parse time: |k|^2 overflows
# Refused at parse time, naming the key; the weight once failed in run().
@example(_beyond_floats("classical", {"divisor": [{"x": 0.5, "y": 0.5, "m": 10**400}]}))
@example(_beyond_floats("classical", {"divisor": []}, grid=10**401))
@example(_beyond_floats("mixed", {"degree": "1e400"}))
@example(_beyond_floats("generalized", {"terms": [{"weight": 10**400, "divisor": []}]}))
def test_every_run_solves_or_fails_typed(tree):
    try:
        config = parse_config(yaml.safe_dump(tree))
    except VortexLabError:
        return
    assert echo_config(config) == pure_python_echo(config)
    with tempfile.TemporaryDirectory() as out:
        returned = run(config, out, quiet=True)
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        rows = []
        if (Path(out) / "results.csv").exists():
            with open(Path(out) / "results.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
    assert manifest["status"] == returned["status"]
    if manifest["status"] == "failed":
        assert issubclass(getattr(errors, manifest["error"]["type"]), VortexLabError)
        return
    assert manifest["status"] == "ok" and manifest["stages"]
    assert all(math.isfinite(v) for v in _numbers(manifest))
    assert all(math.isfinite(float(cell)) for row in rows for cell in row if cell)
    for stage in manifest["stages"]:
        assert stage["residual_history"][-1] <= NEWTON_TOL
        assert stage["spectral_tail"] <= TAIL_TOL


def _number_keys(node, kind, path=""):
    """(path as the reader names it, container, key) of every number of
    type ``kind`` in ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            sub = f"{path}.{key}" if path else key
        else:
            sub = f"{path}[{key}]"
        if isinstance(value, kind) and not isinstance(value, bool):
            yield sub, node, key
        elif isinstance(value, (dict, list)):
            yield from _number_keys(value, kind, sub)


@settings(max_examples=100, deadline=None)
@given(configs(), st.data(), st.sampled_from([math.inf, -math.inf, math.nan, "1e999"]))
def test_a_non_finite_number_fails_at_its_key(tree, data, bad):
    # ``1e999`` is a string to YAML 1.1, which the reader takes as a float.
    path, node, key = data.draw(st.sampled_from(list(_number_keys(tree, float))))
    node[key] = bad
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": must be finite"):
        parse_config(yaml.safe_dump(tree))


@settings(max_examples=100, deadline=None)
@given(configs(), st.data())
def test_an_integer_beyond_the_float_range_fails_at_its_key(tree, data):
    # A grid count, multiplicity or weight, or a mixed or generalized
    # degree (an optional key), whose float conversion overflows.
    keys = list(_number_keys(tree, int))
    kind = tree["kind"]
    if kind != "classical":
        keys.append((f"{kind}.degree", tree[kind], "degree"))
    path, node, key = data.draw(st.sampled_from(keys))
    node[key] = 10**400
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ": must be finite"):
        parse_config(yaml.safe_dump(tree))
