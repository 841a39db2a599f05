"""Divisor-prescribed vortices on flat tori and their adiabatic limits.

Three gauge-theoretic models are reduced to the scalar equation solved by
:mod:`vortexlab.kw`. Writing ``u_j`` for the divisor potential of the
zeros of component ``j`` and ``d`` for the relevant degree, a unitary
connection with curvature function ``iLF`` (the contraction of the
curvature with the area form) satisfies

    iLF = -1/2 laplacian(f) + 2 pi d / volume

whenever the gauge degrees of freedom are absorbed into a real field ``f``
relative to the divisor background. Every model is a preset over one term
list ``(divisor, weight k_j, scale, mean-normalized or raw)`` plus ``tau``
and the degree: component ``j`` has ``|phi^j|^2 = c_j e^{u_j + k_j f}``,
and ``eps^2 iLF + sum_j k_j |phi^j|^2 + tau = 0`` becomes

    -(eps^2/2) lap(f) + sum_{k_j > 0} k_j P_j e^{k_j f}
                      - sum_{k_j < 0} |k_j| P_j e^{-|k_j| f}
                      + (2 pi d eps^2 / vol + tau) = 0

with ``P_j = c_j e^{u_j}``. The presets:

* classical: one raw weight-1 term (``|phi|^2 = e^{u_D} e^{f}``) with
  ``tau = -1``, i.e. ``eps^2 iLF = 1 - |phi|^2``. The equation is kept at
  twice the scale above, ``-eps^2 lap(f) + 2 e^{u_D} e^{f} + (4 pi d eps^2
  / vol - 2) = 0``; solvable iff ``2 pi d eps^2 < volume``.
* mixed pair: mean-normalized terms with weights (1, -1), giving
  ``-(eps^2/2) lap(f) + P e^{f} - Q e^{-f} + (2 pi d eps^2 / vol + tau) = 0``.
* generalized: mean-normalized terms with arbitrary nonzero integer
  weights. Solutions exist only when the weights have mixed signs, are
  all positive with ``2 pi d eps^2 / vol + tau < 0``, or are all
  negative with ``2 pi d eps^2 / vol + tau > 0``.

Integrating each curvature equation over the torus gives the identities
checked by :func:`integral_identities`; as epsilon decreases the curvature
concentrates near the divisor points with calculable masses, measured by
:func:`curvature_mass` through smooth bump windows.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import (
    BradlowViolation,
    DegenerateFit,
    OverlappingBump,
    Unsolvable,
    VortexLabError,
)
from .fields import (
    GridSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    bump_cutoff,
    constant_field,
    integrate,
    laplacian,
    resample,
    sample_at,
    sup_norm,
)
from .greens import (
    Divisor,
    _point_distance,
    divisor_potential,
    torus_green,
)
from .kw import (
    KWProblem,
    KWSolution,
    SolverConfig,
    interior_bounds,
    kw_limit,
    kw_solve,
)

__all__ = [
    "ClassicalVortexSpec",
    "MixedVortexSpec",
    "GeneralizedTerm",
    "GeneralizedSpec",
    "Reconstruction",
    "DiagnosticsReport",
    "PointInfo",
    "SweepReport",
    "ContinuationSchedule",
    "reduce_any",
    "reconstruct",
    "solve_and_report",
    "curvature_mass",
    "vanishing_order_fit",
    "integral_identities",
    "adiabatic_sweep",
    "mixed_limit_phi_sq",
    "diagnostics_report",
]


# ---------------------------------------------------------------------------
# The shared model core


class _Term(NamedTuple):
    """One component: ``|phi|^2 = c e^{u_D + weight f}``.

    ``c`` is ``scale`` for a raw density and ``scale / mean(e^{u_D})``
    for a mean-normalized one.
    """

    divisor: Divisor
    weight: int
    scale: float
    normalized: bool


@lru_cache(maxsize=16)
def _density_data(geometry, grid, divisor, scale, normalized):
    """Potential u_D, density rho = c * exp(u_D), and log c.

    With ``normalized`` the density has mean ``scale``; otherwise the raw
    multiple ``scale * exp(u_D)`` is used.
    """
    u = divisor_potential(divisor, geometry, grid)
    e = np.exp(u.values)
    c = scale / float(e.mean()) if normalized else scale
    return u, ScalarField(geometry, grid, c * e), math.log(c)


def _term_data(spec, t: _Term):
    """Cached (u_D, S c e^{u_D}, log(S c)) of a term, S the equation scale.

    Folding S into the cached density lets the reduction reuse it as the
    coefficient of every weight +-1 term without a copy.
    """
    scale = spec.equation_scale * t.scale
    return _density_data(spec.geometry, spec.grid, t.divisor, scale, t.normalized)


class _VortexModel:
    """Behaviour shared by the presets, written once over ``_terms``.

    A preset supplies ``geometry``, ``grid``, ``epsilon``, ``tau``,
    ``degree`` and the term list ``_terms``. The hooks below (``_phi_sq``,
    ``_curvature``, ``_identities``, ``_expected``, ``_deviation`` and
    ``_order_fits``) hold the mixed/generalized behaviour; a preset
    overrides the ones where its model differs.
    """

    kind: ClassVar[str]
    # Factor multiplying the whole reduced equation.
    equation_scale: ClassVar[float] = 1.0

    @property
    def _forcing(self) -> float:
        """``2 pi d eps^2 / vol + tau``, the reduced constant term before scaling."""
        vol = self.geometry.volume
        return 2.0 * math.pi * float(self.degree) * self.epsilon**2 / vol + self.tau

    def _phi_sq(self, f: ScalarField) -> list[ScalarField]:
        log_scale = math.log(self.equation_scale)
        comps = []
        for t in self._terms:
            u, _, logc = _term_data(self, t)
            # Divisor-point sentinels in u flush exp() to exactly 0.
            vals = np.exp((logc - log_scale) + u.values + t.weight * f.values)
            comps.append(ScalarField(self.geometry, self.grid, vals))
        return comps

    def _curvature(self, phi_sq, geometric):
        """(curvature, cross-check) given the geometric curvature."""
        return geometric, None

    def _identities(self, phi_sq) -> dict[str, float]:
        total = sum(t.weight * integrate(p) for t, p in zip(self._terms, phi_sq))
        return {
            "identity": total
            + self.tau * self.geometry.volume
            + 2.0 * math.pi * float(self.degree) * self.epsilon**2
        }

    def _expected(self, m_plus: int, m_minus: int):
        """(expected curvature mass, expected vanishing order) of a point."""
        return None, None

    def _deviation(self, f: ScalarField, recon) -> ScalarField:
        """Distance to the epsilon = 0 limit profile on the spec's grid."""
        zero_spec = _copy(self, epsilon=0.0)
        return f - kw_limit(reduce_any(zero_spec)).f

    def _order_fits(self, points) -> list[float | None]:
        return [None] * len(points)


def _copy(spec, **changes):
    """``dataclasses.replace`` without the degree warning: a copy keeps the
    divisors and degree of ``spec``, whose construction already warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return dataclasses.replace(spec, **changes)


def reduce_any(spec) -> KWProblem:
    """Reduce any model spec to its scalar Kazdan-Warner problem.

    Weight ``k_j`` appears in both the coefficient (``|k_j| P_j``) and the
    exponent, so integrating the equation reproduces the weighted-mass
    identity exactly. Raises :class:`TypeError` for anything but a spec.
    """
    if not isinstance(spec, _VortexModel):
        raise TypeError(f"not a vortex spec: {type(spec)!r}")
    scale = spec.equation_scale
    plus, minus = [], []
    for t in spec._terms:
        _, density, _ = _term_data(spec, t)
        k = abs(t.weight)
        coeff = density if k == 1 else density * float(k)
        (plus if t.weight > 0 else minus).append((coeff, float(k)))
    w = constant_field(spec.geometry, spec.grid, scale * spec._forcing)
    return KWProblem(
        epsilon=0.5 * scale * spec.epsilon**2,
        plus_terms=tuple(plus),
        minus_terms=tuple(minus),
        w=w,
    )


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class ClassicalVortexSpec(_VortexModel):
    """Abelian vortex data: effective divisor, scale epsilon > 0.

    Construction enforces the volume (Bradlow) admissibility
    ``2 pi d eps^2 < volume``, necessary for a solution with a
    non-vanishing section; it is exactly the balance condition of the
    reduced scalar problem.
    """

    geometry: TorusGeometry
    grid: GridSpec
    divisor: Divisor
    epsilon: float

    kind: ClassVar[str] = "classical"
    equation_scale: ClassVar[float] = 2.0
    tau: ClassVar[float] = -1.0

    def __post_init__(self):
        self.divisor.check_separated(self.geometry)
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        d = self.divisor.degree
        lhs = 2.0 * math.pi * d * self.epsilon**2
        if lhs >= self.geometry.volume:
            raise BradlowViolation(
                f"Bradlow: 2 pi d eps^2 = {lhs:.6g} >= volume = "
                f"{self.geometry.volume:.6g}"
            )

    @property
    def degree(self) -> int:
        return self.divisor.degree

    @property
    def _terms(self) -> tuple[_Term, ...]:
        return (_Term(self.divisor, 1, 1.0, False),)

    def _curvature(self, phi_sq, geometric):
        # The algebraic form; the geometric one is kept as a cross-check.
        return (1.0 - phi_sq[0]) * (1.0 / self.epsilon**2), geometric

    def _identities(self, phi_sq) -> dict[str, float]:
        deficit = (
            integrate(1.0 - phi_sq[0])
            - 2.0 * math.pi * self.degree * self.epsilon**2
        )
        return {"bradlow": deficit, "identity": deficit}

    def _expected(self, m_plus: int, m_minus: int):
        return float(m_plus), float(m_plus)

    def _deviation(self, f: ScalarField, recon) -> ScalarField:
        return 1.0 - recon.phi_sq[0]


@dataclass(frozen=True)
class MixedVortexSpec(_VortexModel):
    """Two-component data with opposite charges.

    ``divisor_plus`` and ``divisor_minus`` prescribe the zeros of the two
    components (both effective; they may share points). ``scale_plus`` and
    ``scale_minus`` fix the means of the vanishing densities P and Q.
    ``degree`` is the line-bundle degree entering the background
    curvature; it defaults to (deg_plus - deg_minus)/2 and a mismatch with
    that bookkeeping only warns, since twisted models can shift it.
    """

    geometry: TorusGeometry
    grid: GridSpec
    divisor_plus: Divisor
    divisor_minus: Divisor
    tau: float = 0.0
    scale_plus: float = 1.0
    scale_minus: float = 1.0
    epsilon: float = 0.0
    degree: Fraction | None = None

    kind: ClassVar[str] = "mixed"

    def __post_init__(self):
        self.divisor_plus.check_separated(self.geometry)
        self.divisor_minus.check_separated(self.geometry)
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not (self.scale_plus > 0 and self.scale_minus > 0):
            raise ValueError("scales must be positive")
        default = Fraction(self.divisor_plus.degree - self.divisor_minus.degree, 2)
        if self.degree is None:
            object.__setattr__(self, "degree", default)
            return
        if Fraction(self.degree) != default:
            # Level 3 is the caller of the generated __init__.
            warnings.warn(
                f"degree {self.degree} differs from (deg+ - deg-)/2 = {default}",
                stacklevel=3,
            )
        object.__setattr__(self, "degree", Fraction(self.degree))

    @property
    def _terms(self) -> tuple[_Term, ...]:
        return (
            _Term(self.divisor_plus, 1, self.scale_plus, True),
            _Term(self.divisor_minus, -1, self.scale_minus, True),
        )

    def _phi_sq(self, f: ScalarField) -> list[ScalarField]:
        if self.epsilon != 0:
            return super()._phi_sq(f)
        # Limit profiles: both components collapse onto sqrt(P Q),
        # evaluated stably in log space (sentinels flush to zero).
        (up, _, logcp), (um, _, logcm) = (_term_data(self, t) for t in self._terms)
        half = 0.5 * (up.values + um.values)
        vals = np.exp(0.5 * (logcp + logcm) + half)
        phi = ScalarField(self.geometry, self.grid, vals)
        return [phi, phi._like(vals.copy())]

    def _expected(self, m_plus: int, m_minus: int):
        return 0.5 * (m_plus - m_minus), 0.5 * (m_plus + m_minus)

    def _order_fits(self, points) -> list[float | None]:
        evaluator = mixed_limit_phi_sq(_copy(self, epsilon=0.0))
        fits: list[float | None] = []
        for info in points:
            try:
                fits.append(vanishing_order_fit(evaluator, info.point, *ORDER_FIT_RADII))
            except (VortexLabError, ValueError):
                fits.append(None)
        return fits


@dataclass(frozen=True)
class GeneralizedTerm:
    divisor: Divisor
    weight: int
    scale: float = 1.0

    def __post_init__(self):
        if int(self.weight) == 0:
            raise ValueError("weight must be nonzero")
        object.__setattr__(self, "weight", int(self.weight))
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class GeneralizedSpec(_VortexModel):
    """Multi-component data with integer weights.

    Solvability trichotomy: the weights must have mixed signs, all be
    positive with ``2 pi d eps^2 / volume + tau < 0``, or all be negative
    with ``2 pi d eps^2 / volume + tau > 0`` (the balance conditions of
    the reduced one-sided problems); otherwise construction raises
    :class:`Unsolvable`.
    ``degree`` defaults to the least-squares bookkeeping
    ``sum(k_j d_j) / sum(k_j^2)`` matching the mixed-pair convention for
    weights (1, -1).
    """

    geometry: TorusGeometry
    grid: GridSpec
    terms: tuple[GeneralizedTerm, ...]
    tau: float = 0.0
    epsilon: float = 0.0
    degree: Fraction | None = None

    kind: ClassVar[str] = "generalized"

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            t.divisor.check_separated(self.geometry)
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.degree is None:
            num = sum(t.weight * t.divisor.degree for t in self.terms)
            den = sum(t.weight**2 for t in self.terms)
            object.__setattr__(self, "degree", Fraction(num, den))
        else:
            object.__setattr__(self, "degree", Fraction(self.degree))
        weights = [t.weight for t in self.terms]
        # Without mixed signs the reduced problem is one-sided and balances
        # only when its constant has the sign opposite to the weights.
        w = self._forcing
        if not (min(weights) < 0 < max(weights) or all(k * w < 0 for k in weights)):
            raise Unsolvable(
                "weights must have mixed signs, or all be positive with "
                "2 pi d eps^2 / volume + tau < 0, or all negative with it > 0 "
                f"(got {w:.6g})"
            )

    @property
    def _terms(self) -> tuple[_Term, ...]:
        return tuple(_Term(t.divisor, t.weight, t.scale, True) for t in self.terms)


# ---------------------------------------------------------------------------
# Reconstruction of gauge quantities


@dataclass
class Reconstruction:
    """Gauge data recovered from a solved scalar field.

    ``phi_sq`` lists the pointwise squared component magnitudes;
    ``curvature`` is the curvature function iLF (for the classical model
    the algebraic form ``(1 - |phi|^2)/eps^2``, whose geometric
    counterpart is kept in ``curvature_crosscheck``). At epsilon = 0 the
    curvature is a measure, not a function, and is omitted.
    """

    phi_sq: list[ScalarField]
    curvature: ScalarField | None
    curvature_crosscheck: ScalarField | None = None


def reconstruct(spec, f: ScalarField) -> Reconstruction:
    """Recover |phi|^2 fields and the curvature function from ``f``.

    ``f`` should solve the reduced problem of ``spec`` (at epsilon = 0,
    the limit profile from :func:`vortexlab.kw.kw_limit`).
    """
    phi_sq = spec._phi_sq(f)
    if spec.epsilon == 0:
        return Reconstruction(phi_sq, None)
    background = 2.0 * math.pi * float(spec.degree) / spec.geometry.volume
    geometric = constant_field(spec.geometry, spec.grid, background) - 0.5 * laplacian(f)
    return Reconstruction(phi_sq, *spec._curvature(phi_sq, geometric))


# ---------------------------------------------------------------------------
# Diagnostics


# Radius of the discs around the divisor points that the sup-distance and
# interior-bound probes exclude, and the radial range of the order fits.
MASK_RADIUS = 0.15
ORDER_FIT_RADII = (0.01, 0.05)


def _mass_window(geometry, point, others) -> tuple[float, float]:
    """(r_inner, r_outer) of the stationary window around ``point``.

    ``r_outer`` sits just inside the distance to the nearest other point
    or the injectivity radius, ``r_inner`` at half of it. Every preset's
    core shrinks with epsilon (classical cores on the scale eps, mixed and
    generalized ones on the slower eps^(2/(s+2)); derivations §4), so a
    window that does not shrink captures the whole mass as eps -> 0.
    """
    reach = geometry.injectivity_radius
    for q in others:
        reach = min(reach, _point_distance(geometry, point, q))
    r_outer = 0.95 * reach
    return 0.5 * r_outer, r_outer


def curvature_mass(
    curvature: ScalarField,
    center: tuple[float, float],
    r_inner: float,
    r_outer: float,
    other_points: Sequence[tuple[float, float]] = (),
) -> float:
    """Bump-windowed curvature integral divided by 2 pi.

    The window must separate ``center`` from every point in
    ``other_points``; otherwise the measured mass would mix cores.
    """
    for q in other_points:
        dist = _point_distance(curvature.geometry, center, q)
        if dist <= r_outer:
            raise OverlappingBump(
                f"point {q} lies within r_outer={r_outer:.4g} of {center}"
            )
    bump = bump_cutoff(curvature.geometry, curvature.grid, center, r_inner, r_outer)
    return integrate(bump * curvature) / (2.0 * math.pi)


def vanishing_order_fit(
    phi_sq,
    center: tuple[float, float],
    r_min: float,
    r_max: float,
    n_samples: int = 12,
    n_angles: int = 32,
) -> float:
    """Least-squares vanishing order of |phi| at ``center``.

    Samples ``phi_sq`` (a ScalarField, interpolated trigonometrically, or
    a callable mapping an (M, 2) point array to values) on ``n_samples``
    log-spaced circles, angularly averages, and fits the slope of
    ``log sqrt(phi_sq)`` against ``log r``. For grid fields ``r_min`` must
    stay at or above two grid cells, where interpolation is trustworthy;
    rings whose average underflows to zero are dropped from the fit.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if n_samples < 2:
        raise DegenerateFit("need at least two radii")
    if isinstance(phi_sq, ScalarField):
        hx, hy = phi_sq.grid.spacing(phi_sq.geometry)
        if r_min < 2.0 * max(hx, hy):
            raise ValueError("r_min below two grid cells for a sampled field")
        if r_max >= phi_sq.geometry.injectivity_radius:
            raise ValueError("r_max must stay below the injectivity radius")
        evaluate = lambda pts: sample_at(phi_sq, pts)
    elif callable(phi_sq):
        evaluate = phi_sq
    else:
        raise TypeError("phi_sq must be a ScalarField or a callable")

    radii = np.exp(np.linspace(math.log(r_min), math.log(r_max), n_samples))
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    pts = np.empty((n_samples * n_angles, 2))
    for i, r in enumerate(radii):
        sl = slice(i * n_angles, (i + 1) * n_angles)
        pts[sl, 0] = center[0] + r * np.cos(angles)
        pts[sl, 1] = center[1] + r * np.sin(angles)
    vals = np.asarray(evaluate(pts), dtype=float).reshape(n_samples, n_angles)
    ring_means = vals.mean(axis=1)
    keep = np.isfinite(ring_means) & (ring_means > 0.0)
    if keep.sum() < 2:
        raise DegenerateFit("fewer than two usable rings; field underflows")
    y = 0.5 * np.log(ring_means[keep])
    x = np.log(radii[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)




def integral_identities(spec, f: ScalarField) -> dict[str, float]:
    """Residuals of the integrated curvature equations.

    identity:  sum_j k_j |phi^j|_2^2 + tau vol + 2 pi d eps^2, which for
               the classical model is reported as the Bradlow deficit
               integral(1 - |phi|^2) - 2 pi d eps^2 (key ``bradlow`` too)
    chern:     integral(iLF)/2pi - d, when the curvature function is
               defined.
    """
    return _identities_of(spec, reconstruct(spec, f))


def _identities_of(spec, recon: Reconstruction) -> dict[str, float]:
    out = spec._identities(recon.phi_sq)
    if recon.curvature is not None:
        out["chern"] = integrate(recon.curvature) / (2.0 * math.pi) - float(spec.degree)
    return out


def mixed_limit_phi_sq(spec: MixedVortexSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form evaluator of the epsilon = 0 profile sqrt(P Q).

    Works at arbitrary points through the Green's function sum, so order
    fits can probe radii below the grid scale without interpolation error.
    """
    logcp, logcm = (_term_data(spec, t)[2] for t in spec._terms)
    items = list(spec.divisor_plus) + list(spec.divisor_minus)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        acc = np.full(pts.shape[0], 0.5 * (logcp + logcm))
        for (px, py), m in items:
            dx, dy = pts[:, 0] - px, pts[:, 1] - py
            acc += (2.0 * math.pi * m) * torus_green((dx, dy), spec.geometry)
        return np.exp(acc)

    return evaluate


# ---------------------------------------------------------------------------
# Adiabatic sweeps


@dataclass(frozen=True)
class ContinuationSchedule:
    """Strictly decreasing positive epsilons and the bounds of their grids.

    :meth:`grid` is the one grid rule of a sweep. ``min_grid`` and
    ``max_grid`` are powers of two, at least 8, with
    ``min_grid <= max_grid``.
    """

    epsilons: tuple[float, ...]
    min_grid: int = 16
    max_grid: int = 4096

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("schedule needs at least one epsilon")
        if any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        for name in ("min_grid", "max_grid"):
            n = getattr(self, name)
            if n < 8 or n & (n - 1):
                raise ValueError(f"{name} must be a power of two, at least 8; got {n}")
        if self.max_grid < self.min_grid:
            raise ValueError("max_grid must be at least min_grid")
        object.__setattr__(self, "epsilons", eps)

    def grid(self, geometry: TorusGeometry, epsilon: float) -> GridSpec:
        """Per axis, the smallest power of two >= ``min_grid`` with h <= eps/4.

        Raises ValueError when that exceeds ``max_grid``.
        """

        def pick(length: float) -> int:
            n = self.min_grid
            while length / n > epsilon / 4:
                if n == self.max_grid:
                    raise ValueError(
                        f"epsilon {epsilon} needs grid beyond max_grid={self.max_grid}"
                    )
                n *= 2
            return n

        return GridSpec(pick(geometry.length_x), pick(geometry.length_y))


@dataclass
class PointInfo:
    index: int
    point: tuple[float, float]
    m_plus: int
    m_minus: int
    expected_mass: float | None
    expected_order: float | None


@dataclass
class DiagnosticsReport:
    """Per-epsilon measurements against the adiabatic-limit predictions.

    ``curvature_masses`` holds one entry per divisor point, measured in
    the point's stationary bump window (None at epsilon = 0, where the
    curvature is a measure); ``identity_residuals``
    the integrated-equation residuals; ``order_fits`` the fitted vanishing
    orders, filled only where requested (sweeps fit at the final stage).
    The ``sup_f``/``sup_grad_f``/``l2_exp_*`` columns are the uniform
    interior bound probes on the divisor-excluding region.
    ``crosscheck_gap`` is ``sup|curvature - curvature_crosscheck|`` of the
    classical model, ``residual_sup / (2 eps^2)`` up to roundoff
    (derivations §3), and None for the other models. It and
    ``energy_history``, ``residual_history`` and ``cg_tolerances``, the
    Newton trace of :class:`KWSolution`, go to the manifest only.
    """

    epsilon: float
    grid: GridSpec
    curvature_masses: list[float | None]
    sup_deviation: float
    identity_residuals: dict[str, float]
    crosscheck_gap: float | None
    order_fits: list[float | None]
    sup_f: float
    sup_grad_f: float
    l2_exp_plus: float
    l2_exp_minus: float
    iterations: int
    energy_history: list
    residual_history: list
    cg_tolerances: list
    seconds: float = 0.0


@dataclass
class SweepReport:
    kind: str
    points: list[PointInfo]
    stages: list[DiagnosticsReport]
    order_fits: list[float | None] = dc_field(default_factory=list)
    skipped: list[dict] = dc_field(default_factory=list)
    error: dict | None = None
    final_solution: KWSolution | None = None
    final_reconstruction: Reconstruction | None = None
    final_spec: object | None = None

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise VortexLabError(
                f"sweep failed at epsilon={self.error.get('epsilon')}: "
                f"{self.error['type']}: {self.error['message']}"
            )


def _spec_points(spec) -> list[PointInfo]:
    """Divisor points of all terms merged, with per-sign multiplicities."""
    merged: list[list] = []  # [point, m_plus, m_minus]
    for t in spec._terms:
        for pt, m in t.divisor:
            for entry in merged:
                if _point_distance(spec.geometry, entry[0], pt) < 1e-9:
                    entry[1 if t.weight > 0 else 2] += m
                    break
            else:
                merged.append([pt, m, 0] if t.weight > 0 else [pt, 0, m])
    return [
        PointInfo(i, pt, mp, mm, *spec._expected(mp, mm))
        for i, (pt, mp, mm) in enumerate(merged)
    ]


def _mass_windows(spec, points) -> list[tuple[float, float, list]]:
    """Per point, ``(r_inner, r_outer, other points)`` of its mass window.

    Raises :class:`OverlappingBump` when a window's ``r_inner``, which is
    also the bump's transition width, is below two grid cells: the grid
    cannot resolve it (the rule :func:`vanishing_order_fit` applies too).
    The windows depend on the points and the grid alone, so a stage
    checks them before it solves.
    """
    two_cells = 2.0 * max(spec.grid.spacing(spec.geometry))
    windows = []
    for info in points:
        others = [p.point for p in points if p.index != info.index]
        r_inner, r_outer = _mass_window(spec.geometry, info.point, others)
        if r_inner < two_cells:
            raise OverlappingBump(
                f"mass window of {info.point} has r_inner={r_inner:.4g}, "
                f"below two grid cells ({two_cells:.4g}); a point lies too close"
            )
        windows.append((r_inner, r_outer, others))
    return windows


def _stage_masses(spec, recon, points) -> list[float | None]:
    """Per-point curvature masses in the stationary windows."""
    if recon.curvature is None:
        return [None] * len(points)
    return [
        curvature_mass(recon.curvature, info.point, *window)
        for info, window in zip(points, _mass_windows(spec, points))
    ]


def _crosscheck_gap(recon: Reconstruction) -> float | None:
    """Sup distance between the curvature and its cross-check, if any."""
    if recon.curvature_crosscheck is None:
        return None
    gap = recon.curvature.values - recon.curvature_crosscheck.values
    return float(np.abs(gap, out=gap).max())


def diagnostics_report(spec, solution: KWSolution):
    """Single-epsilon diagnostics row; see :func:`adiabatic_sweep`."""
    points = _spec_points(spec)
    recon = reconstruct(spec, solution.f)
    mask = RegionMask.excluding_discs(
        spec.geometry, spec.grid, [p.point for p in points], MASK_RADIUS
    ) if points else RegionMask.full(spec.geometry, spec.grid)
    sup_dev = sup_norm(spec._deviation(solution.f, recon), mask)
    stage = DiagnosticsReport(
        epsilon=spec.epsilon,
        grid=spec.grid,
        curvature_masses=_stage_masses(spec, recon, points),
        sup_deviation=sup_dev,
        identity_residuals=_identities_of(spec, recon),
        crosscheck_gap=_crosscheck_gap(recon),
        order_fits=[None] * len(points),
        iterations=solution.iterations,
        energy_history=list(solution.energy_history),
        residual_history=list(solution.residual_history),
        cg_tolerances=list(solution.cg_tolerances),
        **interior_bounds(solution.f, mask),
    )
    return stage, points, recon


def _run_stage(report, spec, config, init, t0) -> DiagnosticsReport:
    """Reduce, solve and diagnose ``spec``; record it as the last stage."""
    _mass_windows(spec, _spec_points(spec))
    solution = kw_solve(reduce_any(spec), config, init=init)
    stage, points, recon = diagnostics_report(spec, solution)
    stage.seconds = time.perf_counter() - t0
    report.points = points
    report.stages.append(stage)
    report.final_solution = solution
    report.final_reconstruction = recon
    report.final_spec = spec
    return stage


def _fit_final_orders(report: SweepReport) -> None:
    report.order_fits = report.final_spec._order_fits(report.points)
    report.stages[-1].order_fits = list(report.order_fits)


def solve_and_report(
    spec,
    config: SolverConfig = SolverConfig(),
    init: ScalarField | None = None,
) -> SweepReport:
    """Solve one spec and wrap the diagnostics as a one-stage report."""
    t0 = time.perf_counter()
    report = SweepReport(kind=spec.kind, points=[], stages=[])
    _run_stage(report, spec, config, init, t0)
    _fit_final_orders(report)
    return report


def adiabatic_sweep(
    spec,
    schedule: ContinuationSchedule,
    config: SolverConfig = SolverConfig(),
    progress: Callable[[DiagnosticsReport], None] | None = None,
) -> SweepReport:
    """Decreasing-epsilon study with warm starts and limit comparisons.

    Each stage is ``spec`` at the stage's epsilon on the grid
    ``schedule.grid`` picks; each stage after the first starts from the
    previous solution, transplanted by spectral resampling. Per stage the
    report records the curvature masses at the divisor points, the
    sup-distance to the epsilon = 0 profile away from them (for the
    classical model, the deficit ``sup|1 - |phi|^2|``), the
    integral-identity residuals, and uniform-bound probes; vanishing
    orders are fitted once at the final stage.

    Stages whose spec is infeasible (e.g. the volume bound fails at a
    large epsilon) are recorded in ``report.skipped`` and the sweep moves
    on; a solver failure, a stage that needs a grid beyond
    ``schedule.max_grid`` or one whose mass windows the grid cannot
    resolve stops the sweep and is recorded in ``report.error`` with the
    completed stages kept. A sweep that skips every stage records its
    last skip as ``report.error``.
    """
    report = SweepReport(kind=spec.kind, points=[], stages=[])
    for eps in schedule.epsilons:
        t0 = time.perf_counter()
        try:
            grid = schedule.grid(spec.geometry, eps)
            stage_spec = _copy(spec, epsilon=eps, grid=grid)
            prev = report.final_solution
            init = resample(prev.f, grid) if prev is not None else None
            stage = _run_stage(report, stage_spec, config, init, t0)
            if progress is not None:
                progress(stage)
        except (VortexLabError, ValueError) as exc:
            record = {"type": type(exc).__name__, "message": str(exc), "epsilon": eps}
            if not isinstance(exc, Unsolvable):
                report.error = record
                return report
            report.skipped.append(record)
    if report.final_spec is None:
        # No stage was solved, so the sweep has no result.
        report.error = dict(report.skipped[-1])
    else:
        _fit_final_orders(report)
    return report
