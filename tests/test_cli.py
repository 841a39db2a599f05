"""Config parsing, run orchestration, artifacts, exit codes."""

import dataclasses
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from vortexlab.cli import main
from vortexlab.config import echo_config, override, parse_config
from vortexlab.errors import ParseError, ValidationError
from vortexlab.greens import Divisor, divisor_potential
from vortexlab.kw import NewtonTrace, SolverConfig
from vortexlab.runner import CSV_COLUMNS, MANIFEST_NAME

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CLASSICAL_YAML = """
kind: classical
epsilon: {epsilon}
grid: {{nx: {n}, ny: {n}}}
output_dir: {out}
classical:
  divisor:
{divisor}
"""


def classical_yaml(points=((0.5, 0.5, 1),), epsilon=0.2, n=64, out="runs/out"):
    if points:
        divisor = "\n".join(
            f"    - {{x: {x}, y: {y}, m: {m}}}" for x, y, m in points
        )
    else:
        divisor = "    []"
    return CLASSICAL_YAML.format(epsilon=epsilon, n=n, out=out, divisor=divisor)


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_pgm(path):
    data = path.read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"65535"
    nx, ny = (int(v) for v in dims.split())
    pixels = np.frombuffer(raster, dtype=">u2").reshape(ny, nx)
    return nx, ny, pixels


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_minimal_classical_materializes_defaults():
    text = "kind: classical\nepsilon: 0.2\nclassical:\n  divisor:\n    - {x: 0.5, y: 0.5, m: 1}\n"
    cfg = parse_config(text)
    assert cfg.kind == "classical"
    assert (cfg.grid.nx, cfg.grid.ny) == (128, 128)
    assert cfg.solver.newton_tol == 1e-10
    assert cfg.outputs.csv and cfg.outputs.heatmaps and not cfg.outputs.svg
    assert cfg.output_dir == "runs/out"
    echoed = echo_config(cfg)
    for key in ("newton_tol", "length_x"):
        assert key in echoed
    assert parse_config(echoed) == cfg
    # an empty section reads as all defaults
    empty = parse_config(text + "solver:\n")
    assert empty == cfg
    assert empty.solver == SolverConfig()


def test_roundtrip_every_kind():
    texts = [
        classical_yaml(),
        """
kind: mixed
epsilon: 0.2
mixed:
  divisor_plus: [{x: 0.25, y: 0.25, m: 1}]
  divisor_minus: [{x: 0.75, y: 0.75, m: 1}]
  tau: 0.1
  scale_plus: 2.0
""",
        """
kind: generalized
epsilon: 0.2
generalized:
  tau: 0.0
  terms:
    - {weight: 2, divisor: [{x: 0.27, y: 0.31, m: 1}]}
    - {weight: 1, divisor: [{x: 0.71, y: 0.64, m: 1}]}
    - {weight: -1, divisor: [{x: 0.52, y: 0.18, m: 1}]}
""",
        """
kind: kw
epsilon: 0.5
kw:
  w: -1.0
  plus:
    - {amplitude: 1.0, exponent: 1.0}
    - {amplitude: 0.5, exponent: 2.0, divisor: [{x: 0.5, y: 0.5, m: 1}]}
""",
        """
kind: sweep
classical:
  divisor: [{x: 0.5, y: 0.5, m: 1}]
sweep:
  epsilons: [0.2, 0.1]
""",
    ]
    shipped = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(shipped) == 6
    texts += [path.read_text(encoding="utf-8") for path in shipped]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(echo_config(cfg)) == cfg


def test_mixed_fractional_degree_roundtrip():
    text = """
kind: mixed
epsilon: 0.1
mixed:
  divisor_plus: [{x: 0.3, y: 0.3, m: 1}]
  degree: 1/2
"""
    cfg = parse_config(text)
    assert cfg.model.degree == 0.5
    assert parse_config(echo_config(cfg)) == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown key 'turbo'"):
        parse_config(classical_yaml() + "turbo: true\n")
    with pytest.raises(ValidationError, match="solver"):
        parse_config(
            "kind: classical\nepsilon: 0.2\nclassical: {divisor: []}\n"
            "solver: {newton_tolerance: 1e-8}\n"
        )
    with pytest.raises(ValidationError, match=r"divisor\[0\]"):
        parse_config(
            "kind: classical\nepsilon: 0.2\n"
            "classical:\n  divisor:\n    - {x: 0.5, y: 0.5, m: 1, color: red}\n"
        )


MIXED_YAML = """
kind: mixed
epsilon: 0.1
mixed:
  divisor_plus: [{x: 0.3, y: 0.3, m: 1}]
"""


@pytest.mark.parametrize(
    "text, message",
    [
        (
            classical_yaml() + "solver: {newton_tol: abc}\n",
            "solver.newton_tol: expected a number, got 'abc'",
        ),
        (
            classical_yaml() + "solver: {newton_tol: nan}\n",
            "solver.newton_tol: expected a number, got 'nan'",
        ),
        (
            classical_yaml() + "solver: {newton_tol: '1_0'}\n",
            "solver.newton_tol: expected a number, got '1_0'",
        ),
        (classical_yaml(out=""), "output_dir: expected a string, got None"),
        (classical_yaml(out="[a, b]"), "output_dir: expected a string, got ['a', 'b']"),
        (classical_yaml(out="{a: 1}"), "output_dir: expected a string, got {'a': 1}"),
        (
            classical_yaml(points=((0.5, 0.5, "true"),)),
            "classical.divisor[0].m: expected an integer, got True",
        ),
        (classical_yaml() + "outputs: {csv: 1}\n", "outputs.csv: expected a boolean, got 1"),
        (
            classical_yaml() + "grid: {nx: 1.5}\n",
            "grid.nx: expected an integer, got 1.5",
        ),
        (
            "kind: classical\nepsilon: 0.2\ngrid: {nx: 7}\nclassical: {divisor: []}\n",
            "grid: grid counts must be even and at least 8",
        ),
        (
            "kind: classical\nepsilon: 0.2\ngeometry: {length_x: -1}\n"
            "classical: {divisor: []}\n",
            "geometry: torus side lengths must be positive",
        ),
        (
            "kind: classical\nepsilon: 0.2\nclassical: {epsilon: 0.1, divisor: []}\n",
            "classical: unknown key 'epsilon'",
        ),
        (
            classical_yaml() + "diagnostics: {mask_radius: 0.15}\n",
            "config: unknown key 'diagnostics'",
        ),
        (
            "kind: classical\nepsilon: 0.2\nclassical: {divisor: [{x: 0.5, m: 1}]}\n",
            "classical.divisor[0]: missing key 'y'",
        ),
        (
            "kind: generalized\nepsilon: 0.2\n"
            "generalized: {terms: [{divisor: [{x: 0.5, y: 0.5, m: 1}]}]}\n",
            "generalized.terms[0]: missing key 'weight'",
        ),
        (
            "kind: kw\nepsilon: 0.5\nkw: {w: -1.0, plus: [{exponent: 1.0}]}\n",
            "kw.plus[0]: missing key 'amplitude'",
        ),
        (
            "kind: sweep\nclassical: {divisor: []}\nsweep: {min_grid: 16}\n",
            "sweep: missing key 'epsilons'",
        ),
        (
            "kind: sweep\nclassical: {divisor: []}\n"
            "sweep: {epsilons: [0.4, 0.2], min_grid: 17}\n",
            "sweep: min_grid must be a power of two, at least 8; got 17",
        ),
        (
            "kind: sweep\nclassical: {divisor: []}\n"
            "sweep: {epsilons: [0.4, 0.2], min_grid: 64, max_grid: 32}\n",
            "sweep: max_grid must be at least min_grid",
        ),
        (
            "kind: sweep\nclassical: {divisor: []}\n"
            "sweep: {epsilons: [0.4, 0.2], max_grid: 6}\n",
            "sweep: max_grid must be a power of two, at least 8; got 6",
        ),
        (
            "kind: sweep\ngrid: {nx: 8, ny: 8}\nclassical: {divisor: []}\n"
            "sweep: {epsilons: [0.2]}\n",
            "grid: sweep runs take grids from the sweep section",
        ),
        (
            "kind: sweep\nclassical: {divisor: []}\nsweep: {epsilons: ['a']}\n",
            "sweep.epsilons: expected a number, got 'a'",
        ),
        (
            "kind: classical\nepsilon: 0.2\nclassical: {divisor: {x: 0.5}}\n",
            "classical.divisor: expected a list, got dict",
        ),
        (classical_yaml() + "solver: [1, 2]\n", "solver: expected a mapping, got list"),
        (
            "kind: classical\nepsilon: 0.2\nclassical: {divisor: [5]}\n",
            "classical.divisor[0]: expected a mapping, got int",
        ),
        ("- 1\n- 2\n", "config: expected a mapping, got list"),
        (
            MIXED_YAML + "  degree: 0.5\n",
            "mixed.degree: non-integer degree must be a 'p/q' string",
        ),
        (MIXED_YAML + "  degree: 'a/b'\n", "mixed.degree: cannot read rational from 'a/b'"),
        (MIXED_YAML + "  degree: true\n", "mixed.degree: expected a rational, got True"),
        (MIXED_YAML + "  tau: null\n", "mixed.tau: expected a number, got None"),
        (
            "knd: classical\nepsilon: 0.2\nclassical: {divisor: []}\n",
            "config: unknown key 'knd'",
        ),
        (classical_yaml() + "model: {}\n", "config: unknown key 'model'"),
    ],
)
def test_reader_error_messages(text, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse_config(text)


def test_exponent_floats_without_a_dot():
    # YAML 1.1 reads these as strings; float fields take the YAML 1.2
    # exponent form.
    for literal, value in (("1e-8", 1e-8), ("1E+3", 1e3), ("+2.5e-3", 2.5e-3), (".5e1", 5.0)):
        cfg = parse_config(classical_yaml() + f"solver: {{newton_tol: {literal}}}\n")
        assert cfg.solver.newton_tol == value
        assert parse_config(echo_config(cfg)) == cfg


@pytest.mark.parametrize(
    "literal",
    [".inf", "-.inf", ".nan", "1e999", "'1e999'", "1" + "0" * 400],
    ids=["inf", "minus_inf", "nan", "exponent", "quoted_exponent", "huge_integer"],
)
def test_reader_rejects_non_finite_numbers(literal):
    # An infinite newton_tol accepted any start: status ok after 0 Newton
    # steps. ``1e999`` takes the exponent-float path, the 401-digit integer
    # overflows float().
    with pytest.raises(ValidationError, match=r"^solver\.newton_tol: must be finite"):
        parse_config(classical_yaml() + f"solver: {{newton_tol: {literal}}}\n")
    with pytest.raises(ValidationError, match=r"^classical\.divisor\[0\]\.x: must be finite"):
        parse_config(classical_yaml(points=((literal, 0.5, 1),)))


@pytest.mark.parametrize("name", ["kw", "mixed"])
def test_cli_non_finite_epsilon_exits_2(tmp_path, capsys, name):
    # A non-finite epsilon is a validation error (exit 2), caught before
    # any solve, not a run failure (exit 3).
    out = tmp_path / "o"
    argv = [name, "--config", str(CONFIG_DIR / f"{name}.yaml"), "--out", str(out)]
    assert main(argv + ["--epsilon", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "epsilon" in err and "must be finite" in err
    assert not out.exists()


def test_kind_and_model_section_consistency():
    with pytest.raises(ValidationError, match="requires a 'classical'"):
        parse_config("kind: classical\nepsilon: 0.2\nmixed: {}\n")
    with pytest.raises(ValidationError, match="exactly one model section"):
        parse_config("kind: classical\nepsilon: 0.2\nclassical: {divisor: []}\nmixed: {}\n")
    with pytest.raises(ValidationError, match="requires a sweep section"):
        parse_config("kind: sweep\nclassical: {divisor: []}\n")
    with pytest.raises(ValidationError, match="kind: sweep"):
        parse_config(classical_yaml() + "sweep: {epsilons: [0.2]}\n")
    with pytest.raises(ValidationError, match="classical, mixed, or generalized"):
        parse_config("kind: sweep\nkw: {w: 0.0}\nsweep: {epsilons: [0.2]}\n")
    with pytest.raises(ValidationError, match="must be one of"):
        parse_config("kind: quantum\nclassical: {divisor: []}\n")


def test_zero_multiplicity_names_the_invariant():
    with pytest.raises(ValidationError, match="multiplicities must be positive"):
        parse_config(classical_yaml(points=((0.5, 0.5, 0),)))


def test_generalized_dichotomy_validation():
    text = """
kind: generalized
epsilon: 0.2
generalized:
  tau: 0.0
  terms:
    - {weight: 1, divisor: [{x: 0.3, y: 0.3, m: 1}]}
    - {weight: 2, divisor: [{x: 0.7, y: 0.7, m: 1}]}
"""
    with pytest.raises(ValidationError, match="mixed signs"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "kind: generalized\nepsilon: 0.5\ngeneralized:\n  tau: -0.1\n  terms:\n"
            "    - {weight: 1, divisor: [{x: 0.3, y: 0.3, m: 1}]}\n",
            "generalized: weights [1] lack mixed signs",
        ),
        (
            "kind: kw\nepsilon: 0.5\nkw:\n  w: 1.0\n  plus: [{amplitude: 1.0}]\n",
            "kw: plus terms only need integral(w) < 0, got 1",
        ),
        ("kind: kw\nepsilon: 0.5\nkw: {w: -1.0, minus: [{amplitude: 1.0}]}\n", "minus terms only need integral(w) > 0"),
        ("kind: kw\nepsilon: 0.5\nkw: {w: 0.5}\n", "no exponential terms need integral(w) = 0"),
    ],
    ids=["generalized", "kw_plus", "kw_minus", "kw_empty"],
)
def test_unbalanced_model_exits_before_any_solve(tmp_path, capsys, text, message):
    kind = text.split("\n")[0].split()[1]
    out = tmp_path / "o"
    assert main([kind, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_that_solves_no_stage_writes_failed_manifest(tmp_path):
    from vortexlab.runner import run
    from vortexlab.vortex import ContinuationSchedule

    # Both stages break Bradlow; a config could not say so (the final
    # epsilon is checked when it is read), a caller of run() can.
    config = parse_config(
        "kind: sweep\nclassical: {divisor: [{x: 0.5, y: 0.5, m: 1}]}\n"
        "sweep: {epsilons: [0.2], min_grid: 64, max_grid: 64}\n"
    )
    config = dataclasses.replace(config, sweep=ContinuationSchedule((0.5, 0.45), 64, 64))
    manifest = run(config, tmp_path / "out", quiet=True)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "BradlowViolation"
    assert manifest["error"]["epsilon"] == 0.45
    assert manifest["stages"] == []
    assert len(manifest["skipped"]) == 2


def test_bradlow_checked_before_any_solve():
    eps = math.sqrt(1.0 / (2 * math.pi)) + 0.01
    with pytest.raises(ValidationError, match="Bradlow"):
        parse_config(classical_yaml(epsilon=eps))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_config("kind: [classical\n")
    assert info.value.line is not None and info.value.column is not None


def test_epsilon_schedule_rules():
    with pytest.raises(ValidationError, match="requires epsilon"):
        parse_config("kind: classical\nclassical: {divisor: []}\n")
    # A spec checks its own epsilon; only kind: kw checks the run's.
    with pytest.raises(ValidationError, match="classical: epsilon must be positive"):
        parse_config(classical_yaml(epsilon=-0.1, points=()))
    with pytest.raises(ValidationError, match="epsilon: must be positive"):
        parse_config("kind: kw\nepsilon: 0.0\nkw: {w: 0.0}\n")
    config = parse_config(classical_yaml(points=()))
    with pytest.raises(ValidationError, match="classical: epsilon must be positive"):
        override(config, epsilon=0.0)
    with pytest.raises(ValidationError, match="strictly decreasing"):
        parse_config(
            "kind: sweep\nclassical: {divisor: []}\nsweep: {epsilons: [0.1, 0.2]}\n"
        )
    with pytest.raises(ValidationError, match="from the sweep section"):
        parse_config(
            "kind: sweep\nepsilon: 0.2\nclassical: {divisor: []}\n"
            "sweep: {epsilons: [0.2, 0.1]}\n"
        )


# ---------------------------------------------------------------------------
# Runs and artifacts


def test_vacuum_run_residuals(tmp_path):
    cfg_path = write_config(tmp_path, classical_yaml(points=(), epsilon=0.3, n=32))
    out = tmp_path / "out"
    assert main(["classical", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 1  # stage row only: no divisor points
    row = rows[0]
    assert row["point_index"] == "-1"
    for col in ("sup_deviation", "bradlow_residual", "identity_residual"):
        assert abs(float(row[col])) <= 1e-9
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "ok"
    assert manifest["error"] is None
    # the echoed config is itself a valid config equal to the run's
    echoed = parse_config(manifest["config_echo"])
    assert echoed.kind == "classical" and echoed.epsilon == 0.3


def test_run_outputs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, classical_yaml(epsilon=0.25, n=64))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["classical", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    for name in ("results.csv", "phi_sq_0.pgm", "phi_sq_0.pgm.json", "curvature.pgm"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.name
)
def test_shipped_config_runs(tmp_path, path):
    kind = parse_config(path.read_text(encoding="utf-8")).kind
    out = tmp_path / "out"
    assert main([kind, "--config", str(path), "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "ok"
    point_rows = [r for r in read_csv(out / "results.csv") if r["point_index"] != "-1"]
    for row in point_rows:
        assert math.isfinite(float(row["curvature_mass"])), row


def test_heatmap_dark_core_at_divisor_point(tmp_path):
    cfg_path = write_config(
        tmp_path, classical_yaml(points=((0.3, 0.7, 1),), epsilon=0.2, n=64)
    )
    out = tmp_path / "out"
    assert main(["classical", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    nx, ny, pixels = read_pgm(out / "phi_sq_0.pgm")
    assert (nx, ny) == (64, 64)
    r, c = np.unravel_index(np.argmin(pixels), pixels.shape)
    x, y = c / nx, (ny - 1 - r) / ny  # row 0 is the top (y descending)
    dx = min(abs(x - 0.3), 1 - abs(x - 0.3))
    dy = min(abs(y - 0.7), 1 - abs(y - 0.7))
    assert math.hypot(dx, dy) <= 2.0 / 64 + 1e-12
    sidecar = json.loads((out / "phi_sq_0.pgm.json").read_text())
    assert sidecar["min"] >= 0.0 and sidecar["max"] <= 1.0 + 1e-9
    assert sidecar["nx"] == 64 and sidecar["ny"] == 64


def test_csv_rows_per_stage_and_point(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
kind: sweep
output_dir: unused
classical:
  divisor: [{x: 0.5, y: 0.5, m: 1}]
sweep:
  epsilons: [0.2, 0.05, 0.025]
""",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    rows = read_csv(out / "results.csv")
    # per stage: one aggregate row plus one row per divisor point
    assert [r["point_index"] for r in rows] == ["-1", "0"] * 3
    assert [float(r["epsilon"]) for r in rows] == [0.2, 0.2, 0.05, 0.05, 0.025, 0.025]
    point_rows = [r for r in rows if r["point_index"] == "0"]
    assert math.isfinite(float(point_rows[0]["curvature_mass"]))
    for r in point_rows[1:]:
        assert 0.9 <= float(r["curvature_mass"]) <= 1.05
    devs = [float(r["sup_deviation"]) for r in rows if r["point_index"] == "-1"]
    assert devs[2] < devs[1] < devs[0]
    stages = json.loads((out / MANIFEST_NAME).read_text())["stages"]
    _assert_newton_trace(stages)
    # The classical curvature cross-check reaches the manifest, not the CSV.
    assert all(0.0 <= s["crosscheck_gap"] <= 1e-6 for s in stages)
    assert "crosscheck_gap" not in (out / "results.csv").read_text()


def _assert_newton_trace(stages):
    """Each stage record carries the Newton trace of its solve."""
    assert stages
    for stage in stages:
        assert len(stage["residual_history"]) == stage["iterations"] + 1
        assert len(stage["energy_history"]) == stage["iterations"] + 1
        assert stage["residual_history"][-1] <= 1e-10
        assert len(stage["cg_tolerances"]) == stage["iterations"]


def test_partial_failure_keeps_completed_rows(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
kind: sweep
classical:
  divisor: [{x: 0.5, y: 0.5, m: 1}]
sweep:
  epsilons: [0.2, 0.002]
  max_grid: 256
""",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 3
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["epsilon"] == 0.002
    assert manifest["error"]["type"] == "ValidationError"
    assert len(manifest["stages"]) == 1
    rows = read_csv(out / "results.csv")
    assert all(float(r["epsilon"]) == 0.2 for r in rows)


def test_sweep_failing_after_a_solve_writes_its_heatmaps(tmp_path, monkeypatch):
    # The eps = 0.1 stage releases the eps = 0.2 reconstruction before its
    # solve fails; the heatmaps are those of a sweep that stops at 0.2.
    import vortexlab.vortex as vortex
    from vortexlab.errors import MaxIterExceeded
    from vortexlab.kw import kw_solve

    text = """
kind: sweep
mixed:
  divisor_plus: [{x: 0.39, y: 0.41, m: 1}]
  divisor_minus: [{x: 0.69, y: 0.62, m: 1}]
sweep:
  epsilons: [{epsilons}]
"""
    kept = tmp_path / "kept"
    kept_cfg = write_config(tmp_path, text.replace("{epsilons}", "0.2"))
    assert main(["sweep", "--config", kept_cfg, "--out", str(kept), "--quiet"]) == 0

    def failing(problem, *args, **kwargs):
        if problem.epsilon < 0.5 * 0.2**2:
            raise MaxIterExceeded("the last stage fails")
        return kw_solve(problem, *args, **kwargs)

    monkeypatch.setattr(vortex, "kw_solve", failing)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, text.replace("{epsilons}", "0.2, 0.1"), "failing.yaml")
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 3
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["error"]["type"] == "MaxIterExceeded"
    for name in ("phi_sq_0.pgm", "phi_sq_1.pgm", "curvature.pgm"):
        assert name in manifest["outputs"]
        assert (out / name).read_bytes() == (kept / name).read_bytes()


def test_unexpected_error_writes_failed_manifest(tmp_path, monkeypatch):
    import vortexlab.runner as runner

    def crash(*args, **kwargs):
        raise ValueError("field values must be finite")

    monkeypatch.setattr(runner, "solve_and_report", crash)
    config = parse_config(classical_yaml(points=(), epsilon=0.3, n=32))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="must be finite"):
        runner.run(config, out, quiet=True)
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {
        "type": "ValueError",
        "message": "field values must be finite",
    }


def test_interrupted_run_writes_failed_manifest(tmp_path, monkeypatch):
    import vortexlab.runner as runner

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "solve_and_report", interrupt)
    config = parse_config(classical_yaml(points=(), epsilon=0.3, n=32))
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        runner.run(config, out, quiet=True)
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "KeyboardInterrupt"


def test_unresolved_mass_window_writes_failed_manifest(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
kind: sweep
generalized:
  terms:
    - {weight: 1, divisor: [{x: 0.5, y: 0.5, m: 1}]}
    - {weight: -1, divisor: [{x: 0.5000001, y: 0.5, m: 1}]}
    - {weight: 1, divisor: [{x: 0.2, y: 0.2, m: 1}]}
sweep: {epsilons: [0.2], min_grid: 64, max_grid: 64}
""",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 3
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "OverlappingBump"
    assert manifest["stages"] == []


def test_report_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, classical_yaml(points=(), epsilon=0.3, n=32))
    out = tmp_path / "out"
    assert main(["classical", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status:   ok" in text
    assert "kind:     classical" in text
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2



def test_cli_overrides(tmp_path):
    cfg_path = write_config(tmp_path, classical_yaml(epsilon=0.3, n=64))
    out = tmp_path / "out"
    rc = main(
        [
            "classical",
            "--config",
            cfg_path,
            "--out",
            str(out),
            "--epsilon",
            "0.25",
            "--grid",
            "32",
            "--quiet",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["stages"][0]["epsilon"] == 0.25
    assert manifest["stages"][0]["grid"] == [32, 32]


def test_cli_override_revalidates(tmp_path, capsys):
    cfg_path = write_config(tmp_path, classical_yaml(epsilon=0.3))
    rc = main(
        ["classical", "--config", cfg_path, "--out", str(tmp_path / "o"), "--epsilon", "0.45"]
    )
    assert rc == 2
    assert "Bradlow" in capsys.readouterr().err


def test_cli_bad_grid_override_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, classical_yaml())
    rc = main(["classical", "--config", cfg_path, "--out", str(tmp_path / "o"), "--grid", "7"])
    assert rc == 2
    assert "--grid: grid counts must be even and at least 8" in capsys.readouterr().err


def test_cli_override_checks_and_warns_once(tmp_path):
    text = (
        "kind: mixed\nepsilon: 0.1\ngrid: {nx: 64, ny: 64}\n"
        "mixed:\n  divisor_plus: [{x: 0.25, y: 0.25, m: 1}]\n"
        "  divisor_minus: [{x: 0.75, y: 0.75, m: 1}]\n  degree: 1\n"
    )
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["mixed", "--config", cfg_path, "--out", str(out), "--quiet",
                   "--grid", "32", "--epsilon", "0.2"])
    assert rc == 0
    assert [str(w.message) for w in caught] == ["degree 1 differs from (deg+ - deg-)/2 = 0"]
    # The override equals what a re-read of the overridden YAML gives.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        expected = parse_config(text.replace("nx: 64, ny: 64", "nx: 32, ny: 32")
                                .replace("0.1", "0.2"))
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["config_echo"] == echo_config(expected)
    _assert_newton_trace(manifest["stages"])


def test_cli_override_rejected_for_sweeps(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        "kind: sweep\nclassical: {divisor: []}\nsweep: {epsilons: [0.2, 0.1]}\n",
    )
    rc = main(
        ["sweep", "--config", cfg_path, "--out", str(tmp_path / "o"), "--epsilon", "0.1"]
    )
    assert rc == 2
    assert "--epsilon does not apply" in capsys.readouterr().err


def test_cli_subcommand_kind_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path, classical_yaml())
    assert main(["mixed", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "does not match subcommand" in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, classical_yaml(points=((0.5, 0.5, 0),)))
    assert main(["classical", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "classical.divisor: multiplicities must be positive" in err


def test_over_long_torus_exits_before_any_solve(tmp_path, capsys):
    # Past a 200:1 aspect the Green's function nome underflows; the spec
    # rejects the torus at parse time (exit 2), not in the solve (exit 3).
    text = classical_yaml(n=16) + "geometry: {length_x: 1.0, length_y: 250.0}\n"
    out = tmp_path / "o"
    assert main(["classical", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "classical: torus sides 1.0 x 250.0 differ by more than 200 times" in err
    assert not out.exists()


def test_generalized_negative_weights_run(tmp_path):
    text = (
        "kind: generalized\nepsilon: 0.2\ngrid: {nx: 32, ny: 32}\ngeneralized:\n"
        "  tau: 1.0\n  terms:\n    - {weight: -1, divisor: [{x: 0.3, y: 0.4, m: 1}]}\n"
    )
    out = tmp_path / "o"
    cfg_path = write_config(tmp_path, text)
    assert main(["generalized", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == "ok"
    assert manifest["stages"][0]["crosscheck_gap"] is None


def test_kw_negative_multiplicity_exits_before_any_solve(tmp_path, capsys):
    text = (
        "kind: kw\nepsilon: 0.5\nkw:\n  w: -1.0\n  plus:\n"
        "    - {amplitude: 1.0, divisor: [{x: 0.5, y: 0.5, m: -1}]}\n"
    )
    out = tmp_path / "o"
    assert main(["kw", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert "kw.plus[0].divisor: multiplicities must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, message",
    [
        ("{max_newton: 0}", "max_newton must be at least 1"),
        ("{newton_tol: -1.0}", "newton_tol must be positive"),
    ],
)
def test_cli_bad_solver_settings_exit_code(tmp_path, capsys, solver, message):
    cfg_path = write_config(tmp_path, classical_yaml() + f"solver: {solver}\n")
    out = tmp_path / "o"
    assert main(["classical", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"error: solver: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_null_output_dir_exit_code(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, classical_yaml(out=""))
    monkeypatch.chdir(tmp_path)
    assert main(["classical", "--config", cfg_path]) == 2
    assert "error: output_dir: expected a string, got None" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]


def test_cli_missing_config(tmp_path, capsys):
    assert main(["classical", "--config", str(tmp_path / "nope.yaml"), "--out", "o"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("n, status", [(32, "failed"), (64, "failed"), (128, "ok")])
def test_under_resolved_run_writes_a_failed_manifest(tmp_path, n, status):
    # Classical cores at eps = 0.025 need 128^2 (spectral tails 2e-3,
    # 4.1e-5 and 2.3e-8); the masses alone would not show it.
    points = ((0.25, 0.25, 1), (0.75, 0.75, 2))
    cfg_path = write_config(tmp_path, classical_yaml(points=points, epsilon=0.025, n=n))
    out = tmp_path / "out"
    rc = main(["classical", "--config", cfg_path, "--out", str(out), "--quiet"])
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == status
    if status == "failed":
        assert rc == 3
        assert manifest["error"]["type"] == "UnderResolved"
        assert f"on the {n}x{n} grid" in manifest["error"]["message"]
        assert manifest["stages"] == []
    else:
        assert rc == 0
        (stage,) = manifest["stages"]
        assert 0.0 < stage["spectral_tail"] <= 1e-7 and stage["rejected"] == []
        (row,) = [r for r in read_csv(out / "results.csv") if r["point_index"] == "-1"]
        assert float(row["spectral_tail"]) == stage["spectral_tail"]


KW_DIVISOR_YAML = """
kind: kw
epsilon: {epsilon}
grid: {{nx: 32, ny: 32}}
kw:
  w: -1.0
  plus:
    - {{amplitude: 1.0, divisor: [{{x: 0.5, y: 0.5, m: 1}}]}}
"""


@pytest.mark.parametrize("epsilon, status", [(0.01, "ok"), (0.002, "failed")])
def test_kw_run_certifies_its_resolution(tmp_path, epsilon, status):
    # On 32^2 the tail is 1.1e-8 at eps = 0.01 and 3.1e-5 at eps = 0.002.
    cfg_path = write_config(tmp_path, KW_DIVISOR_YAML.format(epsilon=epsilon))
    out = tmp_path / "out"
    rc = main(["kw", "--config", cfg_path, "--out", str(out), "--quiet"])
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["status"] == status
    if status == "failed":
        assert rc == 3 and manifest["error"]["type"] == "UnderResolved"
        return
    (stage,) = manifest["stages"]
    assert 0.0 < stage["spectral_tail"] <= 1e-7
    (row,) = read_csv(out / "results.csv")
    assert float(row["spectral_tail"]) == stage["spectral_tail"]


def test_kw_kind_run(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
kind: kw
epsilon: 0.5
grid: {nx: 32, ny: 32}
kw:
  w: -1.0
  plus:
    - {amplitude: 1.0}
""",
    )
    out = tmp_path / "out"
    assert main(["kw", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["stages"][0]["classification"] == "ONE_SIDED_PLUS"
    # Constant coefficients give a constant solution, whose tail is 0.
    assert manifest["stages"][0]["spectral_tail"] == 0.0
    assert manifest["stages"][0]["residual_sup"] <= 1e-10
    _assert_newton_trace(manifest["stages"])
    assert (out / "f.pgm").exists() and (out / "results.csv").exists()


@pytest.mark.parametrize(
    "kind, text",
    [
        (
            "kw",
            """
kind: kw
epsilon: 0.5
grid: {nx: 32, ny: 32}
kw:
  w: -1.0
  plus:
    - {amplitude: 1.0}
""",
        ),
        (
            "sweep",
            """
kind: sweep
classical:
  divisor: [{x: 0.5, y: 0.5, m: 1}]
sweep:
  epsilons: [0.2, 0.1]
""",
        ),
    ],
    ids=["kw", "sweep"],
)
def test_every_stage_carries_the_whole_newton_trace(tmp_path, kind, text):
    # One serializer writes every stage, so no kind drops a trace field.
    out = tmp_path / "out"
    assert main([kind, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    stages = json.loads((out / MANIFEST_NAME).read_text())["stages"]
    assert stages
    for stage in stages:
        assert {f.name for f in dataclasses.fields(NewtonTrace)} <= stage.keys()


def test_kw_divisor_term_uses_raw_density():
    config = parse_config(
        """
kind: kw
epsilon: 0.5
grid: {nx: 32, ny: 32}
kw:
  w: -1.0
  plus:
    - {amplitude: 0.5, exponent: 2.0, divisor: [{x: 0.3, y: 0.6, m: 2}]}
"""
    )
    problem = config.build_kw_problem()
    divisor = Divisor(((0.3, 0.6),), (2,))
    u = divisor_potential(divisor, config.geometry, config.grid)
    assert np.array_equal(problem.plus_terms[0][0].values, 0.5 * np.exp(u.values))


def test_sweep_svg_output(tmp_path):
    cfg_path = write_config(
        tmp_path,
        """
kind: sweep
outputs: {csv: true, heatmaps: false, svg: true}
classical:
  divisor: [{x: 0.5, y: 0.5, m: 1}]
sweep:
  epsilons: [0.2, 0.1]
""",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    svg = (out / "convergence.svg").read_text(encoding="ascii")
    assert svg.startswith("<svg") and "polyline" in svg
    assert not (out / "phi_sq_0.pgm").exists()
