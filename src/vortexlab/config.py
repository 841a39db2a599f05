"""Run configuration: YAML ingestion, validation, canonical echo.

The config is a nested key-value tree with one model section whose key
matches the experiment kind (``kw``, ``classical``, ``mixed``, or
``generalized``); ``kind: sweep`` additionally requires a ``sweep``
section and uses the model section for the stage specs. Parsing
materializes every default, validates all module-level invariants before
any solve, and rejects unknown keys and, naming its key, any number that
is not finite (``.inf``, ``.nan``, ``1e999``); ``echo_config`` emits a
canonical YAML text with ``parse_config(echo_config(c)) == c``.

The schema is the library's own frozen dataclasses: :class:`TorusGeometry`
is ``geometry``, :class:`GridSpec` is ``grid``, the model section is a
:class:`ClassicalVortexSpec`, :class:`MixedVortexSpec` or
:class:`GeneralizedSpec` (terms are :class:`GeneralizedTerm`), or
:class:`KWSection` for ``kind: kw``, :class:`SolverConfig` is ``solver``,
:class:`ContinuationSchedule` is ``sweep`` and :class:`OutputSection` is
``outputs``. ``_read`` builds a config from their fields and type hints,
so their constructors' checks (grid parity, Bradlow admissibility, the
balance conditions, ...) are the validation, and ``_dump`` writes one
back. A spec takes its geometry, grid and epsilon from the run (a sweep's
from its final epsilon), not from keys of its own section.
"""

from __future__ import annotations

import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from fractions import Fraction

import yaml

from .errors import ParseError, ValidationError, VortexLabError
from .fields import GridSpec, TorusGeometry, _check_wavenumbers, constant_field
from .greens import Divisor
from .kw import KWProblem, SolverConfig, _check_balance
from .vortex import (
    ClassicalVortexSpec,
    ContinuationSchedule,
    GeneralizedSpec,
    MixedVortexSpec,
    _copy,
    _density_data,
)

__all__ = [
    "RunConfig",
    "parse_config",
    "echo_config",
    "override",
    "KINDS",
]

KINDS = ("kw", "classical", "mixed", "generalized", "sweep")


# ---------------------------------------------------------------------------
# Config sections that have no library type of their own


@dataclass(frozen=True)
class OutputSection:
    csv: bool = True
    heatmaps: bool = True
    svg: bool = False


@dataclass(frozen=True)
class DivisorItem:
    """One ``{x, y, m}`` item of a divisor list; see :class:`Divisor`."""

    x: float
    y: float
    m: int


@dataclass(frozen=True)
class KWTermSection:
    amplitude: float
    exponent: float = 1.0
    divisor: Divisor = Divisor((), ())

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValidationError("amplitude must be positive")
        if not self.exponent > 0:
            raise ValidationError("exponent must be positive")


@dataclass(frozen=True)
class KWSection:
    w: float = 0.0
    plus: tuple[KWTermSection, ...] = ()
    minus: tuple[KWTermSection, ...] = ()

    def __post_init__(self):
        # Amplitudes are positive, so every listed side is present, and a
        # constant w has the sign of its integral.
        _check_balance(bool(self.plus), bool(self.minus), self.w, 0.0)


MODEL_SECTIONS = {
    "kw": KWSection,
    "classical": ClassicalVortexSpec,
    "mixed": MixedVortexSpec,
    "generalized": GeneralizedSpec,
}

# Spec fields that the run supplies; they are not keys of the model section.
_RUN_FIELDS = ("geometry", "grid", "epsilon")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """A parsed run; the field order is the order of the echoed YAML."""

    kind: str
    geometry: TorusGeometry = TorusGeometry()
    grid: GridSpec = GridSpec()
    epsilon: float | None = None
    output_dir: str = "runs/out"
    # Read and echoed under its kind's key (``classical:``, ``kw:``, ...).
    # A spec's geometry and grid are the run's; its epsilon is the run's,
    # or for a sweep the final one (each stage replaces epsilon and grid).
    model: ClassicalVortexSpec | MixedVortexSpec | GeneralizedSpec | KWSection
    solver: SolverConfig = SolverConfig()
    outputs: OutputSection = OutputSection()
    sweep: ContinuationSchedule | None = None

    def model_key(self) -> str:
        return next(k for k, t in MODEL_SECTIONS.items() if type(self.model) is t)

    def build_kw_problem(self) -> KWProblem:
        if not isinstance(self.model, KWSection):
            raise ValidationError("build_kw_problem requires the 'kw' model section")
        if self.epsilon is None:
            raise ValidationError("epsilon is required for a kw run")
        geometry, g = self.geometry, self.grid
        _check_wavenumbers(geometry, g)

        def coeff(term: KWTermSection):
            if term.divisor:
                return _density_data(geometry, g, term.divisor, term.amplitude, False)[0]
            return constant_field(geometry, g, term.amplitude)

        plus = tuple((coeff(t), t.exponent) for t in self.model.plus)
        minus = tuple((coeff(t), t.exponent) for t in self.model.minus)
        w = constant_field(geometry, g, self.model.w)
        return KWProblem(epsilon=self.epsilon, plus_terms=plus, minus_terms=minus, w=w)


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

    A dataclass reads from a mapping, a ``tuple[X, ...]`` from a list and
    a :class:`Divisor` from a list of :class:`DivisorItem`, YAML null
    being an empty one. Fields absent from the mapping take their
    defaults, an absent divisor being empty; ``given`` supplies fields
    that are not keys of the mapping. A constructor's VortexLabError
    names the section.
    """
    if tp is Divisor:  # a dataclass itself, read from its items
        items = _read(tuple[DivisorItem, ...], node, path)
        try:
            return Divisor.from_items((it.x, it.y, it.m) for it in items)
        except VortexLabError as exc:
            raise _fail(path, str(exc)) from None
    if is_dataclass(tp):
        if node is None:
            node = {}
        if not isinstance(node, dict):
            raise _fail(path, f"expected a mapping, got {type(node).__name__}")
        _check_keys(node, [f.name for f in fields(tp) if f.name not in given], path)
        hints = typing.get_type_hints(tp)
        values = dict(given)
        for f in fields(tp):
            if f.name in given:
                continue
            if f.name in node or hints[f.name] is Divisor:
                sub = f"{path}.{f.name}" if path else f.name
                values[f.name] = _read(hints[f.name], node.get(f.name), sub)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise _fail(path, f"missing key '{f.name}'")
        try:
            return tp(**values)
        except VortexLabError as exc:
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
            _checked_float(node, node, path)
            return node
        number = isinstance(node, (int, float)) or _EXPONENT_FLOAT.fullmatch(str(node))
        if tp is float and number:
            return _checked_float(node, node, path)
    wanted = "an integer" if tp is int else "a number"
    raise _fail(path, f"expected {wanted}, got {node!r}")


def _checked_float(value, node, path: str) -> float:
    """``float(value)``, refused naming ``path`` unless finite: ``.inf``,
    ``.nan``, ``1e999`` and an integer or rational beyond the float range."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise _fail(path, f"must be finite, got {node!r}")
    return out


def _degree(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        degree = Fraction(value)
    elif isinstance(value, str):
        try:
            degree = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _fail(path, f"cannot read rational from {value!r}") from None
    elif isinstance(value, float):
        if not value.is_integer():
            raise _fail(path, "non-integer degree must be a 'p/q' string")
        degree = Fraction(int(value))
    else:
        raise _fail(path, f"expected a rational, got {value!r}")
    _checked_float(degree, value, path)
    return degree


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

    rest = {k: v for k, v in root.items() if k != model_key}
    config = _read(RunConfig, rest, "", model=None)
    if kind == "sweep":
        if config.sweep is None:
            raise _fail("", "kind 'sweep' requires a sweep section")
        if "grid" in root:
            raise _fail("grid", "sweep runs take grids from the sweep section")
        if config.epsilon is not None:
            raise ValidationError("sweep runs take epsilons from the sweep section")
        # Early stages may be infeasible (the sweep skips them); the
        # final one must admit a solution.
        eps = config.sweep.epsilons[-1]
    else:
        if config.sweep is not None:
            raise _fail("sweep", "sweep section requires kind: sweep")
        if config.epsilon is None:
            raise ValidationError(f"kind '{kind}' requires epsilon")
        if kind == "kw":
            _check_epsilon(config.epsilon)
        eps = config.epsilon

    # Spec construction checks every model invariant, Bradlow
    # admissibility included, without running a solve.
    given = {}
    if model_key != "kw":
        given = dict(geometry=config.geometry, grid=config.grid, epsilon=eps)
    model = _read(MODEL_SECTIONS[model_key], root[model_key], model_key, **given)
    return replace(config, model=model)


def _check_epsilon(eps: float) -> None:
    """The run epsilon of ``kind: kw``; a spec's ``_admit`` checks its own."""
    if not math.isfinite(eps):
        raise ValidationError(f"epsilon: must be finite, got {eps}")
    if not eps > 0:
        raise ValidationError("epsilon: must be positive")


def override(config: RunConfig, **changes) -> RunConfig:
    """``config`` with its run ``epsilon`` and/or ``grid`` replaced.

    A spec model is rebuilt through its own constructor, so every check
    that depends on the run fields (Bradlow admissibility, ...) runs
    again and fails as in :func:`parse_config`. The YAML is not re-read:
    the checks and warnings of the unchanged sections do not repeat.
    """
    model = config.model
    if isinstance(model, KWSection):
        if "epsilon" in changes:
            _check_epsilon(changes["epsilon"])
    else:
        try:
            model = _copy(model, **changes)
        except VortexLabError as exc:
            raise _fail(config.model_key(), str(exc)) from None
    return replace(config, model=model, **changes)


# ---------------------------------------------------------------------------
# Canonical echo


def _dump(value):
    """YAML tree of a config value: sections become mappings, tuples lists."""
    if isinstance(value, Divisor):
        return [_dump(DivisorItem(x, y, m)) for (x, y), m in value]
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


# libyaml's emitter writes the same text as PyYAML's own several times
# faster; PyYAML built without libyaml has only its own.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def echo_config(config: RunConfig) -> str:
    """Canonical YAML text with all defaults spelled out."""
    tree = {}
    for key, value in _dump(config).items():
        if key == "model":
            key = config.model_key()
            value = {k: v for k, v in value.items() if k not in _RUN_FIELDS}
        tree[key] = value
    # A sweep's stage grids come from its sweep section.
    del tree["sweep" if config.sweep is None else "grid"]
    return yaml.dump(tree, Dumper=_DUMPER, sort_keys=False, default_flow_style=False)
