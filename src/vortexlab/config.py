"""Run configuration: YAML ingestion, validation, canonical echo.

The config is a nested key-value tree with one model section whose key
matches the experiment kind (``kw``, ``classical``, ``mixed``, or
``generalized``); ``kind: sweep`` additionally requires a ``sweep``
section and uses the model section for the stage specs. Parsing
materializes every default, validates all module-level invariants before
any solve, and rejects unknown keys; ``echo_config`` emits a canonical
YAML text with ``parse_config(echo_config(c)) == c``.

The frozen section dataclasses below, with :class:`SolverConfig` for
``solver`` and :class:`ContinuationSchedule` for ``sweep``, are the schema:
``_read`` builds a config from their fields and type hints, and ``_dump``
writes one back.
"""

from __future__ import annotations

import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction

import yaml

from .errors import ParseError, ValidationError, VortexLabError
from .fields import GridSpec, TorusGeometry, constant_field
from .greens import Divisor
from .kw import KWProblem, SolverConfig
from .vortex import (
    ClassicalVortexSpec,
    ContinuationSchedule,
    GeneralizedSpec,
    GeneralizedTerm,
    MixedVortexSpec,
    _density_data,
)

__all__ = [
    "RunConfig",
    "parse_config",
    "echo_config",
    "KINDS",
]

KINDS = ("kw", "classical", "mixed", "generalized", "sweep")


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
class OutputSection:
    csv: bool = True
    heatmaps: bool = True
    svg: bool = False


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


MODEL_SECTIONS = {
    "kw": KWSection,
    "classical": ClassicalSection,
    "mixed": MixedSection,
    "generalized": GeneralizedSection,
}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """A parsed run; the field order is the order of the echoed YAML."""

    kind: str
    geometry: GeometrySection = GeometrySection()
    grid: GridSection = GridSection()
    epsilon: float | None = None
    output_dir: str = "runs/out"
    # Read and echoed under its kind's key (``classical:``, ``kw:``, ...).
    model: ClassicalSection | MixedSection | GeneralizedSection | KWSection
    solver: SolverConfig = SolverConfig()
    outputs: OutputSection = OutputSection()
    sweep: ContinuationSchedule | None = None

    # -- builders ----------------------------------------------------------

    def build_geometry(self) -> TorusGeometry:
        return TorusGeometry(self.geometry.length_x, self.geometry.length_y)

    def build_grid(self) -> GridSpec:
        return GridSpec(self.grid.nx, self.grid.ny)

    def model_key(self) -> str:
        return next(k for k, t in MODEL_SECTIONS.items() if type(self.model) is t)

    def build_spec(self):
        """Vortex spec for the model section (not for kind 'kw').

        A sweep's spec is built at its final epsilon; each stage replaces
        the epsilon and the grid.
        """
        eps = self.epsilon if self.sweep is None else self.sweep.epsilons[-1]
        if eps is None:
            raise ValidationError("epsilon is required to build a spec")
        geometry = self.build_geometry()
        g = self.build_grid()
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

    def build_kw_problem(self) -> KWProblem:
        if not isinstance(self.model, KWSection):
            raise ValidationError("build_kw_problem requires the 'kw' model section")
        if self.epsilon is None:
            raise ValidationError("epsilon is required for a kw run")
        geometry = self.build_geometry()
        g = self.build_grid()

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
        return KWProblem(epsilon=self.epsilon, plus_terms=plus, minus_terms=minus, w=w)


def _divisor(items: tuple[DivisorItem, ...]) -> Divisor:
    return Divisor.from_items([(it.x, it.y, it.m) for it in items])


# ---------------------------------------------------------------------------
# Parsing

# A YAML 1.2 float with an exponent; PyYAML's YAML 1.1 resolver reads
# ``1e-8`` (no dot) as a string.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


def _fail(path: str, message: str) -> ValidationError:
    where = path if path else "config"
    return ValidationError(f"{where}: {message}")


def _check_keys(node: dict, allowed, path: str) -> None:
    for key in node:
        if key not in allowed:
            raise _fail(path, f"unknown key '{key}'")


def _read(tp, node, path: str, **given):
    """Read the YAML ``node`` as type ``tp``; ``path`` names it in errors.

    A dataclass reads from a mapping and a ``tuple[X, ...]`` from a list,
    YAML null being an empty one; fields absent from the mapping take their
    defaults, and ``given`` supplies fields that are already read. A
    section constructor's ValueError or VortexLabError names the section.
    """
    if is_dataclass(tp):
        if node is None:
            node = {}
        if not isinstance(node, dict):
            raise _fail(path, f"expected a mapping, got {type(node).__name__}")
        _check_keys(node, [f.name for f in fields(tp)], path)
        hints = typing.get_type_hints(tp)
        values = dict(given)
        for f in fields(tp):
            if f.name in given:
                continue
            if f.name in node:
                sub = f"{path}.{f.name}" if path else f.name
                values[f.name] = _read(hints[f.name], node[f.name], sub)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise _fail(path, f"missing key '{f.name}'")
        try:
            return tp(**values)
        except (VortexLabError, ValueError) as exc:
            raise _fail(path, str(exc)) from None

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if node is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _read(inner, node, path)
    if origin is tuple:
        if node is None:
            node = []
        if not isinstance(node, list):
            raise _fail(path, f"expected a list, got {type(node).__name__}")
        item, dots = args
        assert dots is Ellipsis, "schema tuples are tuple[X, ...]"
        # Sections in a list are named by index, scalars by the list.
        return tuple(
            _read(item, v, f"{path}[{i}]" if is_dataclass(item) else path)
            for i, v in enumerate(node)
        )

    if tp is Fraction:
        return _degree(node, path)
    if tp is str:
        if node is None or isinstance(node, (list, dict)):
            raise _fail(path, f"expected a string, got {node!r}")
        return str(node)
    if tp is bool:
        if isinstance(node, bool):
            return node
        raise _fail(path, f"expected a boolean, got {node!r}")
    if not isinstance(node, bool):
        if tp is int and isinstance(node, int):
            return node
        if tp is float and isinstance(node, (int, float)):
            return float(node)
        if tp is float and isinstance(node, str) and _EXPONENT_FLOAT.fullmatch(node):
            return float(node)
    wanted = "an integer" if tp is int else "a number"
    raise _fail(path, f"expected {wanted}, got {node!r}")


def _degree(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(path, f"cannot read rational from {value!r}") from None
    if isinstance(value, float):
        if not value.is_integer():
            raise _fail(path, "non-integer degree must be a 'p/q' string")
        return Fraction(int(value))
    raise _fail(path, f"expected a rational, got {value!r}")


# Every RunConfig field is a top-level key, the model under its kind's key.
_TOP_KEYS = [f.name for f in fields(RunConfig) if f.name != "model"]
_TOP_KEYS += MODEL_SECTIONS


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
    if not isinstance(root, dict):
        raise _fail("", f"expected a mapping, got {type(root).__name__}")
    _check_keys(root, _TOP_KEYS, "")

    if "kind" not in root:
        raise _fail("", "missing key 'kind'")
    kind = root["kind"]
    if kind not in KINDS:
        raise _fail("kind", f"must be one of {', '.join(KINDS)}; got {kind!r}")

    model_keys_present = [k for k in MODEL_SECTIONS if k in root]
    if len(model_keys_present) != 1:
        raise _fail(
            "", f"exactly one model section required ({', '.join(MODEL_SECTIONS)})"
        )
    model_key = model_keys_present[0]
    if kind != "sweep" and model_key != kind:
        raise _fail("", f"kind '{kind}' requires a '{kind}' model section")
    if kind == "sweep" and model_key == "kw":
        raise _fail("", "sweep supports classical, mixed, or generalized models")

    model = _read(MODEL_SECTIONS[model_key], root[model_key], model_key)
    rest = {k: v for k, v in root.items() if k != model_key}
    config = _read(RunConfig, rest, "", model=model)
    if kind == "sweep" and config.sweep is None:
        raise _fail("", "kind 'sweep' requires a sweep section")
    if kind != "sweep" and config.sweep is not None:
        raise _fail("sweep", "sweep section requires kind: sweep")
    if kind == "sweep" and "grid" in root:
        raise _fail("grid", "sweep runs take grids from the sweep section")
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
        if config.epsilon is not None:
            raise ValidationError("sweep runs take epsilons from the sweep section")
    else:
        if config.epsilon is None:
            raise ValidationError(f"kind '{config.kind}' requires epsilon")
        if not config.epsilon > 0:
            raise ValidationError("epsilon: must be positive")

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
            # admissibility included, without running a solve. A sweep's
            # spec is at its final epsilon: early stages may be infeasible
            # (the sweep skips them), the final one must admit a solution.
            config.build_spec()
    except (VortexLabError, ValueError) as exc:
        raise ValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# Canonical echo


def _dump(value):
    """YAML tree of a config value: sections become mappings, tuples lists."""
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def echo_config(config: RunConfig) -> str:
    """Canonical YAML text with all defaults spelled out."""
    tree = {
        config.model_key() if key == "model" else key: value
        for key, value in _dump(config).items()
    }
    # A sweep's stage grids come from its sweep section.
    del tree["sweep" if config.sweep is None else "grid"]
    return yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)
