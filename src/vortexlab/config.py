"""Run configuration: YAML ingestion, validation, canonical echo.

The config is a nested key-value tree with one model section whose key
matches the experiment kind (``kw``, ``classical``, ``mixed``, or
``generalized``); ``kind: sweep`` additionally requires a ``sweep``
section and uses the model section for the stage specs. Parsing
materializes every default, validates all module-level invariants before
any solve, and rejects unknown keys; ``echo_config`` emits a canonical
YAML text with ``parse_config(echo_config(c)) == c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import yaml

from .errors import ParseError, ValidationError, VortexLabError
from .fields import GridSpec, TorusGeometry, constant_field
from .greens import Divisor
from .kw import KWProblem, SolverConfig, core_resolving_grid
from .vortex import (
    ClassicalVortexSpec,
    GeneralizedSpec,
    GeneralizedTerm,
    MixedVortexSpec,
    SweepOptions,
    _density_data,
)

__all__ = [
    "RunConfig",
    "parse_config",
    "echo_config",
    "KINDS",
]

KINDS = ("kw", "classical", "mixed", "generalized", "sweep")
MODEL_KEYS = ("kw", "classical", "mixed", "generalized")


# ---------------------------------------------------------------------------
# Config dataclasses (plain data; builders construct the numeric objects)


@dataclass(frozen=True)
class GeometrySection:
    length_x: float = 1.0
    length_y: float = 1.0


@dataclass(frozen=True)
class GridSection:
    nx: int = 128
    ny: int = 128


@dataclass(frozen=True)
class SolverSection:
    newton_tol: float = 1e-10
    max_newton: int = 60
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    cg_tol: float = 1e-12
    cg_max_iter: int | None = None

    def to_solver_config(self) -> SolverConfig:
        return SolverConfig(
            newton_tol=self.newton_tol,
            max_newton=self.max_newton,
            armijo_c=self.armijo_c,
            armijo_shrink=self.armijo_shrink,
            cg_tol=self.cg_tol,
            cg_max_iter=self.cg_max_iter,
        )


@dataclass(frozen=True)
class DiagnosticsSection:
    mask_radius: float = 0.15
    bump_core_factors: tuple[float, float] = (3.0, 6.0)
    bump_grid_factors: tuple[float, float] = (4.0, 8.0)
    order_fit_radii: tuple[float, float] = (0.01, 0.05)
    order_fit_samples: tuple[int, int] = (12, 32)

    def to_options(self) -> SweepOptions:
        return SweepOptions(
            mask_radius=self.mask_radius,
            bump_core_factors=self.bump_core_factors,
            bump_grid_factors=self.bump_grid_factors,
            order_fit_radii=self.order_fit_radii,
            order_fit_samples=self.order_fit_samples,
        )


@dataclass(frozen=True)
class OutputSection:
    csv: bool = True
    heatmaps: bool = True
    svg: bool = False


@dataclass(frozen=True)
class SweepSection:
    epsilons: tuple[float, ...]
    points_per_core: float = 4.0
    min_grid: int = 16
    max_grid: int = 4096


@dataclass(frozen=True)
class DivisorItem:
    x: float
    y: float
    m: int


@dataclass(frozen=True)
class ClassicalSection:
    divisor: tuple[DivisorItem, ...] = ()


@dataclass(frozen=True)
class MixedSection:
    divisor_plus: tuple[DivisorItem, ...] = ()
    divisor_minus: tuple[DivisorItem, ...] = ()
    tau: float = 0.0
    scale_plus: float = 1.0
    scale_minus: float = 1.0
    degree: Fraction | None = None


@dataclass(frozen=True)
class TermSection:
    weight: int
    divisor: tuple[DivisorItem, ...] = ()
    scale: float = 1.0


@dataclass(frozen=True)
class GeneralizedSection:
    terms: tuple[TermSection, ...] = ()
    tau: float = 0.0
    degree: Fraction | None = None


@dataclass(frozen=True)
class KWTermSection:
    amplitude: float
    exponent: float = 1.0
    divisor: tuple[DivisorItem, ...] = ()


@dataclass(frozen=True)
class KWSection:
    w: float = 0.0
    plus: tuple[KWTermSection, ...] = ()
    minus: tuple[KWTermSection, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    kind: str
    geometry: GeometrySection
    grid: GridSection
    epsilon: float | None
    output_dir: str
    model: ClassicalSection | MixedSection | GeneralizedSection | KWSection
    solver: SolverSection = SolverSection()
    diagnostics: DiagnosticsSection = DiagnosticsSection()
    outputs: OutputSection = OutputSection()
    sweep: SweepSection | None = None

    # -- builders ----------------------------------------------------------

    def build_geometry(self) -> TorusGeometry:
        return TorusGeometry(self.geometry.length_x, self.geometry.length_y)

    def build_grid(self) -> GridSpec:
        return GridSpec(self.grid.nx, self.grid.ny)

    def model_key(self) -> str:
        return {
            ClassicalSection: "classical",
            MixedSection: "mixed",
            GeneralizedSection: "generalized",
            KWSection: "kw",
        }[type(self.model)]

    def build_spec(self, epsilon: float | None = None, grid: GridSpec | None = None):
        """Vortex spec for the model section (not for kind 'kw')."""
        eps = self.epsilon if epsilon is None else epsilon
        if eps is None:
            raise ValidationError("epsilon is required to build a spec")
        geometry = self.build_geometry()
        g = grid if grid is not None else self.build_grid()
        m = self.model
        if isinstance(m, ClassicalSection):
            return ClassicalVortexSpec(geometry, g, _divisor(m.divisor), eps)
        if isinstance(m, MixedSection):
            return MixedVortexSpec(
                geometry,
                g,
                _divisor(m.divisor_plus),
                _divisor(m.divisor_minus),
                tau=m.tau,
                scale_plus=m.scale_plus,
                scale_minus=m.scale_minus,
                epsilon=eps,
                degree=m.degree,
            )
        if isinstance(m, GeneralizedSection):
            terms = tuple(
                GeneralizedTerm(_divisor(t.divisor), t.weight, t.scale)
                for t in m.terms
            )
            return GeneralizedSpec(
                geometry, g, terms, tau=m.tau, epsilon=eps, degree=m.degree
            )
        raise ValidationError("kind 'kw' has no vortex spec; use build_kw_problem")

    def build_kw_problem(
        self, epsilon: float | None = None, grid: GridSpec | None = None
    ) -> KWProblem:
        if not isinstance(self.model, KWSection):
            raise ValidationError("build_kw_problem requires the 'kw' model section")
        eps = self.epsilon if epsilon is None else epsilon
        if eps is None:
            raise ValidationError("epsilon is required for a kw run")
        geometry = self.build_geometry()
        g = grid if grid is not None else self.build_grid()

        def coeff(term: KWTermSection):
            if term.divisor:
                _, density, _ = _density_data(
                    geometry, g, _divisor(term.divisor), term.amplitude, False
                )
                return density
            return constant_field(geometry, g, term.amplitude)

        plus = tuple((coeff(t), t.exponent) for t in self.model.plus)
        minus = tuple((coeff(t), t.exponent) for t in self.model.minus)
        w = constant_field(geometry, g, self.model.w)
        return KWProblem(epsilon=eps, plus_terms=plus, minus_terms=minus, w=w)

    def spec_family(self):
        """(epsilon, grid) -> spec builder for sweeps."""
        return lambda eps, grid: self.build_spec(epsilon=eps, grid=grid)

    def sweep_refine_rule(self):
        if self.sweep is None:
            raise ValidationError("no sweep section in this config")
        geometry = self.build_geometry()
        sw = self.sweep
        return lambda eps: core_resolving_grid(
            geometry, eps, sw.points_per_core, sw.min_grid, sw.max_grid
        )


def _divisor(items: tuple[DivisorItem, ...]) -> Divisor:
    return Divisor.from_items([(it.x, it.y, it.m) for it in items])


# ---------------------------------------------------------------------------
# Parsing


def _fail(path: str, message: str) -> ValidationError:
    where = path if path else "config"
    return ValidationError(f"{where}: {message}")


def _expect_map(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise _fail(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _expect_list(node, path: str) -> list:
    if node is None:
        return []
    if not isinstance(node, list):
        raise _fail(path, f"expected a list, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise _fail(path, f"unknown key '{key}'")


def _get(node: dict, key: str, path: str):
    if key not in node:
        raise _fail(path, f"missing key '{key}'")
    return node[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(path, f"expected a boolean, got {value!r}")
    return value


def _as_degree(value, path: str) -> Fraction | None:
    if value is None:
        return None
    if isinstance(value, bool):
        raise _fail(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(path, f"cannot read rational from {value!r}") from None
    if isinstance(value, float):
        if value != int(value):
            raise _fail(path, "non-integer degree must be a 'p/q' string")
        return Fraction(int(value))
    raise _fail(path, f"expected a rational, got {value!r}")


def _pair(node, path: str, as_num) -> tuple:
    vals = _expect_list(node, path)
    if len(vals) != 2:
        raise _fail(path, "expected a pair [a, b]")
    return tuple(as_num(v, path) for v in vals)


def _parse_divisor_items(node, path: str) -> tuple[DivisorItem, ...]:
    items = []
    for i, raw in enumerate(_expect_list(node, path)):
        p = f"{path}[{i}]"
        entry = _expect_map(raw, p)
        _reject_unknown(entry, ("x", "y", "m"), p)
        items.append(
            DivisorItem(
                x=_as_float(_get(entry, "x", p), p + ".x"),
                y=_as_float(_get(entry, "y", p), p + ".y"),
                m=_as_int(_get(entry, "m", p), p + ".m"),
            )
        )
    return tuple(items)


def _parse_geometry(node) -> GeometrySection:
    d = _expect_map(node, "geometry")
    _reject_unknown(d, ("length_x", "length_y"), "geometry")
    out = GeometrySection(
        length_x=_as_float(d.get("length_x", 1.0), "geometry.length_x"),
        length_y=_as_float(d.get("length_y", 1.0), "geometry.length_y"),
    )
    return out


def _parse_grid(node) -> GridSection:
    d = _expect_map(node, "grid")
    _reject_unknown(d, ("nx", "ny"), "grid")
    return GridSection(
        nx=_as_int(d.get("nx", 128), "grid.nx"),
        ny=_as_int(d.get("ny", 128), "grid.ny"),
    )


def _parse_solver(node) -> SolverSection:
    d = _expect_map(node, "solver")
    allowed = (
        "newton_tol",
        "max_newton",
        "armijo_c",
        "armijo_shrink",
        "cg_tol",
        "cg_max_iter",
    )
    _reject_unknown(d, allowed, "solver")
    cg_max = d.get("cg_max_iter")
    return SolverSection(
        newton_tol=_as_float(d.get("newton_tol", 1e-10), "solver.newton_tol"),
        max_newton=_as_int(d.get("max_newton", 60), "solver.max_newton"),
        armijo_c=_as_float(d.get("armijo_c", 1e-4), "solver.armijo_c"),
        armijo_shrink=_as_float(d.get("armijo_shrink", 0.5), "solver.armijo_shrink"),
        cg_tol=_as_float(d.get("cg_tol", 1e-12), "solver.cg_tol"),
        cg_max_iter=None if cg_max is None else _as_int(cg_max, "solver.cg_max_iter"),
    )


def _parse_diagnostics(node) -> DiagnosticsSection:
    d = _expect_map(node, "diagnostics")
    allowed = (
        "mask_radius",
        "bump_core_factors",
        "bump_grid_factors",
        "order_fit_radii",
        "order_fit_samples",
    )
    _reject_unknown(d, allowed, "diagnostics")
    dflt = DiagnosticsSection()
    return DiagnosticsSection(
        mask_radius=_as_float(d.get("mask_radius", dflt.mask_radius), "diagnostics.mask_radius"),
        bump_core_factors=_pair(
            d.get("bump_core_factors", list(dflt.bump_core_factors)),
            "diagnostics.bump_core_factors",
            _as_float,
        ),
        bump_grid_factors=_pair(
            d.get("bump_grid_factors", list(dflt.bump_grid_factors)),
            "diagnostics.bump_grid_factors",
            _as_float,
        ),
        order_fit_radii=_pair(
            d.get("order_fit_radii", list(dflt.order_fit_radii)),
            "diagnostics.order_fit_radii",
            _as_float,
        ),
        order_fit_samples=_pair(
            d.get("order_fit_samples", list(dflt.order_fit_samples)),
            "diagnostics.order_fit_samples",
            _as_int,
        ),
    )


def _parse_outputs(node) -> OutputSection:
    d = _expect_map(node, "outputs")
    _reject_unknown(d, ("csv", "heatmaps", "svg"), "outputs")
    return OutputSection(
        csv=_as_bool(d.get("csv", True), "outputs.csv"),
        heatmaps=_as_bool(d.get("heatmaps", True), "outputs.heatmaps"),
        svg=_as_bool(d.get("svg", False), "outputs.svg"),
    )


def _parse_sweep(node) -> SweepSection:
    d = _expect_map(node, "sweep")
    _reject_unknown(
        d, ("epsilons", "points_per_core", "min_grid", "max_grid"), "sweep"
    )
    eps_raw = _expect_list(_get(d, "epsilons", "sweep"), "sweep.epsilons")
    epsilons = tuple(_as_float(e, "sweep.epsilons") for e in eps_raw)
    return SweepSection(
        epsilons=epsilons,
        points_per_core=_as_float(d.get("points_per_core", 4.0), "sweep.points_per_core"),
        min_grid=_as_int(d.get("min_grid", 16), "sweep.min_grid"),
        max_grid=_as_int(d.get("max_grid", 4096), "sweep.max_grid"),
    )


def _parse_model(kind_key: str, node):
    path = kind_key
    d = _expect_map(node, path)
    if kind_key == "classical":
        _reject_unknown(d, ("divisor",), path)
        return ClassicalSection(
            divisor=_parse_divisor_items(d.get("divisor", []), path + ".divisor")
        )
    if kind_key == "mixed":
        allowed = (
            "divisor_plus",
            "divisor_minus",
            "tau",
            "scale_plus",
            "scale_minus",
            "degree",
        )
        _reject_unknown(d, allowed, path)
        return MixedSection(
            divisor_plus=_parse_divisor_items(
                d.get("divisor_plus", []), path + ".divisor_plus"
            ),
            divisor_minus=_parse_divisor_items(
                d.get("divisor_minus", []), path + ".divisor_minus"
            ),
            tau=_as_float(d.get("tau", 0.0), path + ".tau"),
            scale_plus=_as_float(d.get("scale_plus", 1.0), path + ".scale_plus"),
            scale_minus=_as_float(d.get("scale_minus", 1.0), path + ".scale_minus"),
            degree=_as_degree(d.get("degree"), path + ".degree"),
        )
    if kind_key == "generalized":
        _reject_unknown(d, ("terms", "tau", "degree"), path)
        terms = []
        for i, raw in enumerate(_expect_list(d.get("terms", []), path + ".terms")):
            p = f"{path}.terms[{i}]"
            entry = _expect_map(raw, p)
            _reject_unknown(entry, ("weight", "divisor", "scale"), p)
            terms.append(
                TermSection(
                    weight=_as_int(_get(entry, "weight", p), p + ".weight"),
                    divisor=_parse_divisor_items(entry.get("divisor", []), p + ".divisor"),
                    scale=_as_float(entry.get("scale", 1.0), p + ".scale"),
                )
            )
        return GeneralizedSection(
            terms=tuple(terms),
            tau=_as_float(d.get("tau", 0.0), path + ".tau"),
            degree=_as_degree(d.get("degree"), path + ".degree"),
        )
    # kw
    _reject_unknown(d, ("w", "plus", "minus"), path)

    def terms_of(key):
        out = []
        for i, raw in enumerate(_expect_list(d.get(key, []), f"{path}.{key}")):
            p = f"{path}.{key}[{i}]"
            entry = _expect_map(raw, p)
            _reject_unknown(entry, ("amplitude", "exponent", "divisor"), p)
            out.append(
                KWTermSection(
                    amplitude=_as_float(_get(entry, "amplitude", p), p + ".amplitude"),
                    exponent=_as_float(entry.get("exponent", 1.0), p + ".exponent"),
                    divisor=_parse_divisor_items(entry.get("divisor", []), p + ".divisor"),
                )
            )
        return tuple(out)

    return KWSection(
        w=_as_float(d.get("w", 0.0), path + ".w"),
        plus=terms_of("plus"),
        minus=terms_of("minus"),
    )


_TOP_KEYS = (
    "kind",
    "geometry",
    "grid",
    "epsilon",
    "output_dir",
    "solver",
    "diagnostics",
    "outputs",
    "sweep",
) + MODEL_KEYS


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Raises :class:`ParseError` (with line/column) for malformed YAML and
    :class:`ValidationError` naming the violated invariant otherwise.
    """
    try:
        root = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark is not None else None
        column = mark.column + 1 if mark is not None else None
        raise ParseError(exc.problem or "malformed YAML", line, column) from None
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from None
    if root is None:
        raise ValidationError("config: empty document")
    root = _expect_map(root, "")
    _reject_unknown(root, _TOP_KEYS, "")

    kind = _get(root, "kind", "")
    if kind not in KINDS:
        raise _fail("kind", f"must be one of {', '.join(KINDS)}; got {kind!r}")

    model_keys_present = [k for k in MODEL_KEYS if k in root]
    if len(model_keys_present) != 1:
        raise _fail(
            "", f"exactly one model section required ({', '.join(MODEL_KEYS)})"
        )
    model_key = model_keys_present[0]
    if kind != "sweep" and model_key != kind:
        raise _fail("", f"kind '{kind}' requires a '{kind}' model section")
    if kind == "sweep" and model_key == "kw":
        raise _fail("", "sweep supports classical, mixed, or generalized models")

    epsilon_raw = root.get("epsilon")
    epsilon = None if epsilon_raw is None else _as_float(epsilon_raw, "epsilon")

    sweep = _parse_sweep(root["sweep"]) if root.get("sweep") is not None else None
    if kind == "sweep" and sweep is None:
        raise _fail("", "kind 'sweep' requires a sweep section")
    if kind != "sweep" and sweep is not None:
        raise _fail("sweep", "sweep section requires kind: sweep")

    config = RunConfig(
        kind=kind,
        geometry=_parse_geometry(root.get("geometry")),
        grid=_parse_grid(root.get("grid")),
        epsilon=epsilon,
        output_dir=str(root.get("output_dir", "runs/out")),
        model=_parse_model(model_key, root.get(model_key)),
        solver=_parse_solver(root.get("solver")),
        diagnostics=_parse_diagnostics(root.get("diagnostics")),
        outputs=_parse_outputs(root.get("outputs")),
        sweep=sweep,
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    """Run every module-level invariant reachable from the config."""
    try:
        config.build_geometry()
        config.build_grid()
    except (VortexLabError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    if config.kind == "sweep":
        sw = config.sweep
        if not sw.epsilons:
            raise ValidationError("sweep.epsilons: must not be empty")
        if any(e <= 0 for e in sw.epsilons):
            raise ValidationError("sweep.epsilons: must be positive")
        if any(b >= a for a, b in zip(sw.epsilons, sw.epsilons[1:])):
            raise ValidationError("sweep.epsilons: must be strictly decreasing")
        if config.epsilon is not None:
            raise ValidationError("sweep runs take epsilons from the sweep section")
        # Early stages may be infeasible (the sweep skips them); only the
        # final epsilon must admit a solution.
        probe_epsilon = sw.epsilons[-1]
    else:
        if config.epsilon is None:
            raise ValidationError(f"kind '{config.kind}' requires epsilon")
        if not config.epsilon > 0:
            raise ValidationError("epsilon: must be positive")
        probe_epsilon = config.epsilon

    m = config.model
    try:
        if isinstance(m, KWSection):
            for side in (m.plus, m.minus):
                for t in side:
                    _divisor(t.divisor)
                    if not t.amplitude > 0:
                        raise ValidationError("kw amplitudes must be positive")
                    if not t.exponent > 0:
                        raise ValidationError("kw exponents must be positive")
        else:
            # Spec construction checks every model invariant, Bradlow
            # admissibility included, without running a solve.
            config.build_spec(epsilon=probe_epsilon)
    except (VortexLabError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# Canonical echo


def _degree_repr(degree: Fraction | None):
    if degree is None:
        return None
    if degree.denominator == 1:
        return int(degree)
    return f"{degree.numerator}/{degree.denominator}"


def _divisor_repr(items) -> list:
    return [{"x": it.x, "y": it.y, "m": it.m} for it in items]


def echo_config(config: RunConfig) -> str:
    """Canonical YAML text with all defaults spelled out."""
    m = config.model
    if isinstance(m, ClassicalSection):
        model = {"divisor": _divisor_repr(m.divisor)}
    elif isinstance(m, MixedSection):
        model = {
            "divisor_plus": _divisor_repr(m.divisor_plus),
            "divisor_minus": _divisor_repr(m.divisor_minus),
            "tau": m.tau,
            "scale_plus": m.scale_plus,
            "scale_minus": m.scale_minus,
            "degree": _degree_repr(m.degree),
        }
    elif isinstance(m, GeneralizedSection):
        model = {
            "terms": [
                {
                    "weight": t.weight,
                    "divisor": _divisor_repr(t.divisor),
                    "scale": t.scale,
                }
                for t in m.terms
            ],
            "tau": m.tau,
            "degree": _degree_repr(m.degree),
        }
    else:
        model = {
            "w": m.w,
            "plus": [
                {"amplitude": t.amplitude, "exponent": t.exponent, "divisor": _divisor_repr(t.divisor)}
                for t in m.plus
            ],
            "minus": [
                {"amplitude": t.amplitude, "exponent": t.exponent, "divisor": _divisor_repr(t.divisor)}
                for t in m.minus
            ],
        }

    tree = {
        "kind": config.kind,
        "geometry": {
            "length_x": config.geometry.length_x,
            "length_y": config.geometry.length_y,
        },
        "grid": {"nx": config.grid.nx, "ny": config.grid.ny},
        "epsilon": config.epsilon,
        "output_dir": config.output_dir,
        config.model_key(): model,
        "solver": {
            "newton_tol": config.solver.newton_tol,
            "max_newton": config.solver.max_newton,
            "armijo_c": config.solver.armijo_c,
            "armijo_shrink": config.solver.armijo_shrink,
            "cg_tol": config.solver.cg_tol,
            "cg_max_iter": config.solver.cg_max_iter,
        },
        "diagnostics": {
            "mask_radius": config.diagnostics.mask_radius,
            "bump_core_factors": list(config.diagnostics.bump_core_factors),
            "bump_grid_factors": list(config.diagnostics.bump_grid_factors),
            "order_fit_radii": list(config.diagnostics.order_fit_radii),
            "order_fit_samples": list(config.diagnostics.order_fit_samples),
        },
        "outputs": {
            "csv": config.outputs.csv,
            "heatmaps": config.outputs.heatmaps,
            "svg": config.outputs.svg,
        },
    }
    if config.sweep is not None:
        tree["sweep"] = {
            "epsilons": list(config.sweep.epsilons),
            "points_per_core": config.sweep.points_per_core,
            "min_grid": config.sweep.min_grid,
            "max_grid": config.sweep.max_grid,
        }
    return yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)
