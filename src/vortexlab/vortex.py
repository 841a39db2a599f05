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

Integrating each curvature equation over the torus gives identities
whose residuals every diagnosed stage reports (:func:`_identities_of`);
as epsilon decreases the curvature concentrates near the divisor points
with calculable masses, measured by :func:`curvature_mass` through smooth
bump windows. A spec holds one grid per term, its reduced coefficient
``|k_j| P_j`` (times the equation scale), from which ``|phi^j|^2`` and
``u_j`` are recovered, and shares it with its copies at other epsilons on
the same grid. Two process-wide caches outlive a spec: the 1-D planar
vortex profiles that start a classical solve (:func:`_planar_profile`)
and the half-spectrum symbols of the last four grids
(``fields._wavenumbers``).
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import (
    BradlowViolation,
    DegenerateFit,
    OverlappingBump,
    Unsolvable,
    ValidationError,
    VortexLabError,
)
from .fields import (
    GridSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    _adopted,
    _box_offsets,
    _bump_window,
    _check_wavenumbers,
    _finite,
    _rfft2,
    constant_field,
    integrate,
    laplacian,
    resample,
    spectral_tail,
    sup_norm,
    torus_displacement,
)
from .greens import (
    _MAX_IM_TAU,
    Divisor,
    _green_constant,
    _point_distance,
    divisor_potential,
    torus_green,
)
from .kw import (
    KWProblem,
    KWSolution,
    NewtonTrace,
    SolverConfig,
    TAIL_TOL,
    _check_balance,
    _check_resolved,
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


def _density_data(geometry, grid, divisor, scale, normalized):
    """Density ``c e^{u_D}``, 0 on divisor-point samples, and ``log c``.

    With ``normalized`` the density has mean ``scale``; otherwise the raw
    multiple ``scale * exp(u_D)`` is used. ``e^{u_D}`` is scaled in place.
    """
    u = divisor_potential(divisor, geometry, grid)
    e = np.exp(u.values)
    c = scale / float(e.mean()) if normalized else scale
    return u._like(np.multiply(e, c, out=e)), math.log(c)


class _Start(NamedTuple):
    """A stage's Newton start ``f`` (None: zero) and the manifest ``record``
    of how it was made (None but for a probe start, or its fallback)."""

    f: ScalarField | None
    record: dict | None


class _VortexModel:
    """Behaviour shared by the presets, written once over ``_terms``.

    A preset supplies ``geometry``, ``grid``, ``epsilon``, ``tau``,
    ``degree`` and the term list ``_terms``, and its ``__post_init__``
    ends in :meth:`_admit`. The hooks below (``_curvature``,
    ``_identities``, ``_expected``, ``_deviation``, ``_order_fits``,
    ``_initial_guess`` and ``_core_scale``) hold the mixed/generalized
    behaviour; a preset overrides the ones where its model differs. A spec builds its term
    coefficients once, in :attr:`_coefficients`; they live and die with it.
    """

    kind: ClassVar[str]
    # Factor multiplying the whole reduced equation.
    equation_scale: ClassVar[float] = 1.0

    @property
    def _forcing(self) -> float:
        """``2 pi d eps^2 / vol + tau``, the reduced constant term before scaling."""
        vol = self.geometry.volume
        return 2.0 * math.pi * float(self.degree) * self.epsilon**2 / vol + self.tau

    def _admit(self) -> None:
        """Reject a torus too long for the Green's function or too small for
        the grid's wavenumbers, coinciding points, non-finite scalars,
        ``epsilon <= 0`` and unbalanced data."""
        lx, ly = self.geometry.length_x, self.geometry.length_y
        if max(lx, ly) / min(lx, ly) > _MAX_IM_TAU:
            raise ValidationError(
                f"torus sides {lx} x {ly} differ by more than {_MAX_IM_TAU:g} times: "
                "the Green's function nome underflows"
            )
        _check_wavenumbers(self.geometry, self.grid)
        for t in self._terms:
            t.divisor.check_separated(self.geometry)
        scalars = [("epsilon", self.epsilon), ("tau", self.tau), ("degree", self.degree)]
        for name, value in scalars + [("scale", t.scale) for t in self._terms]:
            _finite(value, name)
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")
        weights = [t.weight for t in self._terms]
        # Up to the equation scale, the reduced w is the constant _forcing.
        integral_w = self._forcing * self.geometry.volume
        try:
            _check_balance(max(weights) > 0, min(weights) < 0, integral_w, 0.0)
        except Unsolvable as exc:
            raise Unsolvable(
                f"weights {weights} lack mixed signs; with w = 2 pi d eps^2 / volume + tau, {exc}"
            ) from None

    @cached_property
    def _coefficients(self) -> tuple:
        """Per term, the one grid it holds, ``C = |k| S c e^{u_D}`` (the reduced
        coefficient, ``S`` the equation scale), and its log scale ``log(|k| S c)``."""
        g, n, S = self.geometry, self.grid, self.equation_scale
        return tuple(_density_data(g, n, d, abs(k) * S * s, norm) for d, k, s, norm in self._terms)

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

    @cached_property
    def _limit(self) -> ScalarField:
        """The epsilon = 0 profile ``f_0``: the reduced problem with epsilon 0
        and ``w = equation_scale * tau``, solved by :func:`kw_limit`."""
        w = constant_field(self.geometry, self.grid, self.equation_scale * self.tau)
        return kw_limit(dataclasses.replace(reduce_any(self), epsilon=0.0, w=w))

    def _deviation(self, f: ScalarField) -> ScalarField:
        """Distance of ``f``, on this spec's grid, to the epsilon = 0 limit."""
        return f - self._limit

    def _order_fits(self, points) -> list[float | None]:
        return [None] * len(points)

    def _initial_guess(self, previous: KWSolution | None, config: SolverConfig) -> _Start:
        """Newton start of this spec: the previous solution resampled onto
        this grid.

        Without one, a grid finer than ``_PROBE_GRID`` on both axes starts
        from the ``_probe`` copied at this epsilon, solved from zero with
        ``config`` and resampled onto this grid (nested iteration,
        derivations §8); its record holds the probe's grid, Newton steps
        and residual. A probe solve that fails leaves a zero start (None),
        and its record the error. A coarser grid starts from zero.
        """
        if previous is not None:
            return _Start(resample(previous.f, self.grid), None)
        if self.grid.nx <= _PROBE_GRID.nx or self.grid.ny <= _PROBE_GRID.ny:
            return _Start(None, None)
        probe = self._probe
        probe._coefficients  # built before the copy, which then shares them
        try:
            coarse = kw_solve(reduce_any(_copy(probe, epsilon=self.epsilon)), config)
        except VortexLabError as exc:
            return _Start(None, {"type": type(exc).__name__, "message": str(exc)})
        spectrum, _ = coarse._take_final()
        record = {
            "grid": _PROBE_GRID,
            "iterations": coarse.iterations,
            "residual_sup": coarse.residual_sup,
        }
        return _Start(resample(coarse.f, self.grid, spectrum), record)

    @cached_property
    def _probe(self):
        """This spec on the ``_PROBE_GRID`` lattice, where ``sup_deviation``
        is read. :func:`_copy` hands it on, so a sweep's stages share one
        probe and its ``_limit``; it keeps the epsilon of the first stage."""
        return _copy(self, grid=_PROBE_GRID)

    def _core_scale(self) -> float:
        """Length that the first grid of a sweep stage resolves with ``h <=
        scale / 4``. Mixed and generalized cores shrink only like
        ``eps^(2/(s+2))`` (derivations §4), so these presets set none: the
        stage starts on the previous stage's grid and the certificate
        refines it."""
        return math.inf


def _copy(spec, **changes):
    """``dataclasses.replace`` without the degree warning: a copy keeps the
    divisors and degree of ``spec``, whose construction already warned.

    A copy that changes nothing but epsilon shares the coefficients that
    ``spec`` has built. A copy that changes nothing but epsilon and the
    grid shares the ``_probe`` that ``spec`` has built or was handed.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        new = dataclasses.replace(spec, **changes)

    def unchanged(*free):
        return all(getattr(spec, k) == v for k, v in changes.items() if k not in free)

    if "_coefficients" in vars(spec) and unchanged("epsilon"):
        vars(new)["_coefficients"] = spec._coefficients
    if "_probe" in vars(spec) and unchanged("epsilon", "grid"):
        vars(new)["_probe"] = spec._probe
    return new


def reduce_any(spec) -> KWProblem:
    """Reduce any model spec to its scalar Kazdan-Warner problem.

    Weight ``k_j`` appears in both the coefficient (``|k_j| P_j``) and the
    exponent, so integrating the equation reproduces the weighted-mass
    identity exactly. Each coefficient is the spec's own array. Raises
    :class:`TypeError` for anything but a spec.
    """
    if not isinstance(spec, _VortexModel):
        raise TypeError(f"not a vortex spec: {type(spec)!r}")
    scale = spec.equation_scale
    pairs = zip(spec._terms, spec._coefficients)
    terms = [(t.weight, (c, float(abs(t.weight)))) for t, (c, _) in pairs]
    return KWProblem(
        epsilon=0.5 * scale * spec.epsilon**2,
        plus_terms=tuple(term for k, term in terms if k > 0),
        minus_terms=tuple(term for k, term in terms if k < 0),
        w=constant_field(spec.geometry, spec.grid, scale * spec._forcing),
    )


# ---------------------------------------------------------------------------
# Planar vortex cores

# Log-radius range of the profile: below it h = 2 m s + a_m to roundoff,
# above it (rho > 40) |h| < 1e-24. Collocation degree and table size.
_PROFILE_RANGE = (-12.0, math.log(40.0))
_PROFILE_DEGREE = 128
_PROFILE_TABLE = 4097
# The start adds each core only on the disc where its tabulated |h|
# exceeds this, two orders below the table's interpolation error.
_CORE_CUT = 1e-7


@lru_cache(maxsize=None)
def _planar_profile(m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(s, h, a_m)``: the planar degree-``m`` vortex tabulated in ``s = log rho``.

    ``|phi|^2 = e^{h(log rho)}`` is the radial vortex of the plane at unit
    scale (derivations §4): ``h'' = 2 e^{2s} (e^h - 1)`` with ``h_s = 2m``
    at the left end of ``_PROFILE_RANGE`` and ``h = 0`` at the right end,
    solved by Newton on Chebyshev collocation. Newton stops at ``max|dh|
    <= 1e-10``; collocation roundoff grows like ``n^4 u``, so a tighter
    stop is never met. The solution is tabulated on uniform ``s`` nodes by
    barycentric interpolation, for ``np.interp``; below the table ``h = 2m
    s + a_m``. That roundoff also breaks the monotonicity of the far tail,
    where ``|h| < 1e-12``; a running maximum restores it.

    One of the package's two process-wide caches (the other holds the
    half-spectrum symbols of the last four grids, ``fields._wavenumbers``):
    one read-only 1-D table per ``m``, built on first use.
    """
    n = _PROFILE_DEGREE
    lo, hi = _PROFILE_RANGE
    half = 0.5 * (hi - lo)
    # Chebyshev points x_j = cos(pi j / n) (x_0 = 1 is the right end) and
    # the differentiation matrix in s (Trefethen, Spectral Methods in MATLAB).
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = (-1.0) ** np.arange(n + 1)
    c[[0, -1]] *= 2.0
    d1 = np.outer(c, 1.0 / c) / (np.subtract.outer(x, x) + np.eye(n + 1))
    d1 -= np.diag(d1.sum(axis=1))
    d1 /= half
    d2 = d1 @ d1
    s = lo + (x + 1.0) * half
    w = 2.0 * np.exp(2.0 * s)
    h = m * (2.0 * s - np.log1p(np.exp(2.0 * s)))
    while True:
        eh = np.exp(h)
        resid = d2 @ h - w * (eh - 1.0)
        jac = d2 - np.diag(w * eh)
        resid[0], jac[0] = h[0], np.eye(n + 1)[0]
        resid[-1], jac[-1] = d1[-1] @ h - 2.0 * m, d1[-1]
        dh = np.linalg.solve(jac, -resid)
        h += dh
        if np.abs(dh).max() <= 1e-10:
            break
    # Barycentric weights (-1)^j, halved at the ends. The table's ends are
    # the Chebyshev end points and take their values; no interior node is
    # a Chebyshev point.
    table_s = np.linspace(lo, hi, _PROFILE_TABLE)
    t = (table_s - lo) / half - 1.0
    num, den = np.zeros_like(t), np.zeros_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n + 1):
            weight = (0.5 if j in (0, n) else 1.0) * (-1.0) ** j / (t - x[j])
            num += weight * h[j]
            den += weight
        num /= den
    num[0], num[-1] = h[-1], h[0]
    table_h = np.minimum(np.maximum.accumulate(num), 0.0)
    # Cut the exact zeros of the tail but two: np.interp gives exactly 0
    # between them and past them (right=0.0), so the cut table reads as
    # the whole one, and a sample that rounding puts just inside the last
    # node still lies between two zeros.
    end = int(np.flatnonzero(table_h)[-1]) + 3
    table_s, table_h = table_s[:end], table_h[:end]
    a = float(table_h[0] - 2.0 * m * table_s[0])
    table_s.flags.writeable = table_h.flags.writeable = False
    return table_s, table_h, a


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class ClassicalVortexSpec(_VortexModel):
    """Abelian vortex data: effective divisor, scale epsilon > 0.

    Construction enforces the volume (Bradlow) admissibility ``2 pi d
    eps^2 < volume``, the balance condition of the reduced problem; it
    raises :class:`BradlowViolation`.
    """

    geometry: TorusGeometry
    grid: GridSpec
    divisor: Divisor
    epsilon: float

    kind: ClassVar[str] = "classical"
    equation_scale: ClassVar[float] = 2.0
    tau: ClassVar[float] = -1.0

    def __post_init__(self):
        try:
            self._admit()
        except Unsolvable:
            lhs = 2.0 * math.pi * self.degree * self.epsilon**2
            raise BradlowViolation(
                f"Bradlow: 2 pi d eps^2 = {lhs:.6g} is not below volume = "
                f"{self.geometry.volume:.6g}"
            ) from None

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

    @np.errstate(divide="ignore")
    def _deviation(self, f: ScalarField) -> ScalarField:
        """``1 - |phi|^2 = -expm1((log C - log S) + f)`` from the coefficient
        ``C`` and its log scale ``log S`` (here ``c = 1``), exactly 1 where
        ``C`` is 0. Formed by subtraction from ``|phi|^2``, it would carry
        an absolute error of an ulp of 1 at any size; this way its error
        is about an ulp of ``u_D = log C - log S``, none where that is 0."""
        ((coeff, log_scale),) = self._coefficients
        dev = np.log(coeff.values)
        dev -= log_scale
        dev += f.values
        np.expm1(dev, out=dev)
        return f._like(np.negative(dev, out=dev))

    def _core_scale(self) -> float:
        """Classical cores have radius of order eps (derivations §4)."""
        return self.epsilon

    @np.errstate(divide="ignore", invalid="ignore")
    def _initial_guess(self, previous: KWSolution | None, config: SolverConfig) -> _Start:
        """Glued planar cores, ``f0 = sum_i h_{m_i}(|x - p_i| / eps) - u_D``.

        The blow-up limit of derivations §4, so ``previous`` and ``config``
        are ignored and the stages of a sweep are independent. A sample on
        a divisor point ``p`` takes the limit ``a_m - 2m log eps - R_p +
        sum_{q != p} h_{m_q}(|p - q| / eps)``, where ``R_p = lim (u_D - 2m
        log|x - p|)``.

        ``-u_D = log(S c) - log C``: on a divisor-point sample ``C`` is 0 and
        the sum not finite until overwritten; any other such sample fails
        the field check.
        """
        eps, geometry = self.epsilon, self.geometry
        ((coeff, log_scale),) = self._coefficients
        f0 = np.log(coeff.values)
        np.subtract(log_scale, f0, out=f0)
        points = list(self.divisor)
        on_points, tables = [], {}
        for p, m in points:
            s, h, a = _planar_profile(m)
            # The table in t = 2s = log rho^2, read on the box of the disc out
            # to its first node with |h| <= _CORE_CUT; the core is left out
            # past that box. A node 200 below the table continues it as the
            # line h = m t + a_m, which np.interp reproduces to roundoff.
            t = np.concatenate(([2.0 * s[0] - 200.0], 2.0 * s))
            ht = np.concatenate(([h[0] - 200.0 * m], h))
            tables[m] = t, ht
            cut = s[np.searchsorted(h, -_CORE_CUT)]
            box, log_rho_sq = self._log_rho_sq(p, eps * math.exp(cut))
            f0[box] += np.interp(log_rho_sq, t, ht, right=0.0)
            dx, dy = torus_displacement(geometry, self.grid, p)
            row, col = np.flatnonzero(dx[:, 0] == 0.0), np.flatnonzero(dy[0] == 0.0)
            if row.size and col.size:
                on_points.append(((row[0], col[0]), p, m, a))
        for sample, p, m, a in on_points:
            # R_p = 4 pi m c_G + sum_{q != p} 4 pi m_q G(p - q).
            value = a - 2.0 * m * math.log(eps) - 4.0 * math.pi * m * _green_constant(geometry)
            for q, k in points:
                if q != p:
                    value -= 4.0 * math.pi * k * torus_green((q[0] - p[0], q[1] - p[1]), geometry)
                    log_rho_sq = 2.0 * math.log(_point_distance(geometry, p, q) / eps)
                    value += np.interp(log_rho_sq, *tables[k], right=0.0)
            f0[sample] = value
        if not np.isfinite(f0).all():
            raise ValidationError("field values must be finite")
        return _Start(_adopted(ScalarField, geometry, self.grid, f0), None)

    def _log_rho_sq(self, p, reach: float):
        """``(box, log(|x - p|^2 / eps^2))`` on the box of the disc of
        ``reach`` about ``p``, from the 1-D offsets: no square root, and
        one grid on the box."""
        box, dx, dy = _box_offsets(self.geometry, self.grid, p, reach)
        eps = self.epsilon
        log_rho_sq = np.add(np.square(dx / eps), np.square(dy / eps))
        return box, np.log(log_rho_sq, out=log_rho_sq)


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
    epsilon: float = dc_field(kw_only=True)
    degree: Fraction | None = None

    kind: ClassVar[str] = "mixed"

    def __post_init__(self):
        if not (self.scale_plus > 0 and self.scale_minus > 0):
            raise ValidationError("scales must be positive")
        default = Fraction(self.divisor_plus.degree - self.divisor_minus.degree, 2)
        if self.degree is None:
            object.__setattr__(self, "degree", default)
        elif Fraction(self.degree) != default:
            # Level 3 is the caller of the generated __init__.
            warnings.warn(
                f"degree {self.degree} differs from (deg+ - deg-)/2 = {default}",
                stacklevel=3,
            )
        object.__setattr__(self, "degree", Fraction(self.degree))
        self._admit()

    @property
    def _terms(self) -> tuple[_Term, ...]:
        return (
            _Term(self.divisor_plus, 1, self.scale_plus, True),
            _Term(self.divisor_minus, -1, self.scale_minus, True),
        )

    # Predictions of the tau = 0 limit sqrt(P Q); at tau != 0 the limit
    # solves a - b + tau = 0, ab = P Q, and none is recorded (derivations §3).
    def _expected(self, m_plus: int, m_minus: int):
        if self.tau != 0:
            return super()._expected(m_plus, m_minus)
        return 0.5 * (m_plus - m_minus), 0.5 * (m_plus + m_minus)

    def _order_fits(self, points) -> list[float | None]:
        """Fits on the ``ORDER_FIT_RADII`` rings; ``None`` at a point whose
        rings reach past the ``r_inner`` of its mass window, toward a
        neighbour's core, or whose fit degenerates."""
        if self.tau != 0:
            return super()._order_fits(points)
        evaluator = mixed_limit_phi_sq(self)
        fits: list[float | None] = []
        for info in points:
            others = [p.point for p in points if p.index != info.index]
            if _mass_window(self.geometry, info.point, others)[0] < ORDER_FIT_RADII[1]:
                fits.append(None)
                continue
            try:
                fits.append(vanishing_order_fit(evaluator, info.point, *ORDER_FIT_RADII))
            except VortexLabError:
                fits.append(None)
        return fits


@dataclass(frozen=True)
class GeneralizedTerm:
    divisor: Divisor
    weight: int
    scale: float = 1.0

    def __post_init__(self):
        if int(_finite(self.weight, "weight")) == 0:
            raise ValidationError("weight must be nonzero")
        object.__setattr__(self, "weight", int(self.weight))
        if not self.scale > 0:
            raise ValidationError("scale must be positive")


@dataclass(frozen=True)
class GeneralizedSpec(_VortexModel):
    """Multi-component data with integer weights.

    Weights of one sign need ``2 pi d eps^2 / volume + tau`` of the other
    sign (the balance condition); otherwise construction raises
    :class:`Unsolvable`. ``degree`` defaults to the least-squares bookkeeping
    ``sum(k_j d_j) / sum(k_j^2)`` matching the mixed-pair convention for
    weights (1, -1).
    """

    geometry: TorusGeometry
    grid: GridSpec
    terms: tuple[GeneralizedTerm, ...]
    tau: float = 0.0
    epsilon: float = dc_field(kw_only=True)
    degree: Fraction | None = None

    kind: ClassVar[str] = "generalized"

    def __post_init__(self):
        if not self.terms:
            raise ValidationError("need at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.degree is None:
            num = sum(t.weight * t.divisor.degree for t in self.terms)
            den = sum(t.weight**2 for t in self.terms)
            object.__setattr__(self, "degree", Fraction(num, den))
        else:
            object.__setattr__(self, "degree", Fraction(self.degree))
        self._admit()

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
    counterpart is kept in ``curvature_crosscheck``).
    """

    phi_sq: list[ScalarField]
    curvature: ScalarField
    curvature_crosscheck: ScalarField | None = None


def reconstruct(spec, f: ScalarField) -> Reconstruction:
    """Recover |phi|^2 fields and the curvature function from ``f``,
    a solution of the reduced problem of ``spec``."""
    return _reconstruction(spec, f, _phi_sq(spec, f), None)


def _phi_sq(spec, f: ScalarField) -> list[ScalarField]:
    """``|phi_j|^2 = c_j e^{u_j + k_j f} = C_j e^{k_j f} / (|k_j| S)``; 0 where C_j is."""
    S = spec.equation_scale
    return [
        f._like(np.exp(t.weight * f.values) * coeff.values / (abs(t.weight) * S))
        for t, (coeff, _) in zip(spec._terms, spec._coefficients)
    ]


def _reconstruction(spec, f, phi_sq, spectrum: np.ndarray | None, lap=None) -> Reconstruction:
    """The curvature function from ``f`` (its Laplacian ``lap`` or its half
    spectrum ``spectrum``, if the caller has them), alongside ``phi_sq``."""
    background = 2.0 * math.pi * float(spec.degree) / spec.geometry.volume
    if lap is None:
        lap = laplacian(f, spectrum)
    geometric = constant_field(spec.geometry, spec.grid, background) - 0.5 * lap
    return Reconstruction(phi_sq, *spec._curvature(phi_sq, geometric))


# ---------------------------------------------------------------------------
# Diagnostics


# Radius of the discs around the divisor points that the sup-distance and
# interior-bound probes exclude, the radial range of the order fits and
# their sampling (log-spaced rings, angles per ring).
MASK_RADIUS = 0.15
ORDER_FIT_RADII = (0.01, 0.05)
_ORDER_FIT_SAMPLES = (12, 32)
# The lattice on which every solution's sup-distance to the epsilon = 0
# limit is read, for every epsilon and every solve grid (derivations §4).
_PROBE_GRID = GridSpec(64, 64)


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
    # The bump vanishes outside the box of its r_outer disc, so the
    # trapezoid sum runs over that box alone.
    box, window = _bump_window(curvature.geometry, curvature.grid, center, r_inner, r_outer)
    window *= curvature.values[box]
    mean = float(window.sum()) / curvature.values.size
    return mean * curvature.geometry.volume / (2.0 * math.pi)


def vanishing_order_fit(
    phi_sq,
    center: tuple[float, float],
    r_min: float,
    r_max: float,
) -> float:
    """Least-squares vanishing order of |phi| at ``center``.

    ``phi_sq`` is a callable that maps an (M, 2) point array to values,
    such as :func:`mixed_limit_phi_sq`; it is sampled on log-spaced
    circles, angularly averaged, and the slope of ``log sqrt(phi_sq)``
    against ``log r`` is fitted. Rings whose average underflows to zero
    are dropped from the fit.
    """
    if not (0.0 < r_min < r_max):
        raise ValidationError("need 0 < r_min < r_max")
    n_samples, n_angles = _ORDER_FIT_SAMPLES
    radii = np.exp(np.linspace(math.log(r_min), math.log(r_max), n_samples))
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    pts = np.empty((n_samples * n_angles, 2))
    for i, r in enumerate(radii):
        sl = slice(i * n_angles, (i + 1) * n_angles)
        pts[sl, 0] = center[0] + r * np.cos(angles)
        pts[sl, 1] = center[1] + r * np.sin(angles)
    vals = np.asarray(phi_sq(pts), dtype=float).reshape(n_samples, n_angles)
    ring_means = vals.mean(axis=1)
    keep = np.isfinite(ring_means) & (ring_means > 0.0)
    if keep.sum() < 2:
        raise DegenerateFit("fewer than two usable rings; field underflows")
    y = 0.5 * np.log(ring_means[keep])
    x = np.log(radii[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _identities_of(spec, recon: Reconstruction) -> dict[str, float]:
    """Residuals of the integrated curvature equations at ``recon``.

    identity:  sum_j k_j |phi^j|_2^2 + tau vol + 2 pi d eps^2, which for
               the classical model is reported as the Bradlow deficit
               integral(1 - |phi|^2) - 2 pi d eps^2 (key ``bradlow`` too)
    chern:     integral(iLF)/2pi - d.
    """
    out = spec._identities(recon.phi_sq)
    out["chern"] = integrate(recon.curvature) / (2.0 * math.pi) - float(spec.degree)
    return out


def mixed_limit_phi_sq(spec: MixedVortexSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form evaluator of the epsilon = 0 profile sqrt(P Q) at tau = 0.

    Works at arbitrary points through the Green's function sum, so order
    fits can probe radii below the grid scale without interpolation error.
    Raises :class:`ValidationError` at ``tau != 0``, where it is not the limit.
    """
    if spec.tau != 0:
        raise ValidationError(f"the closed form sqrt(P Q) needs tau = 0, got {spec.tau}")
    (_, logcp), (_, logcm) = spec._coefficients
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

    :meth:`grid` is the one grid rule of a sweep and :meth:`finer` its one
    refinement step. ``min_grid`` and ``max_grid`` are powers of two, at
    least 8, with ``min_grid <= max_grid``.
    """

    epsilons: tuple[float, ...]
    min_grid: int = 16
    max_grid: int = 4096

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValidationError("schedule needs at least one epsilon")
        if any(e <= 0 for e in eps):
            raise ValidationError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValidationError("epsilons must be strictly decreasing")
        for name in ("min_grid", "max_grid"):
            n = getattr(self, name)
            if n < 8 or n & (n - 1):
                raise ValidationError(f"{name} must be a power of two, at least 8; got {n}")
        if self.max_grid < self.min_grid:
            raise ValidationError("max_grid must be at least min_grid")
        object.__setattr__(self, "epsilons", eps)

    def grid(
        self, geometry: TorusGeometry, scale: float, floor: GridSpec | None = None
    ) -> GridSpec:
        """Per axis, the smallest power of two at or above ``min_grid`` and
        the count of ``floor`` with ``h <= scale / 4``.

        ``scale`` is a spec's core scale (``eps`` for classical, ``inf``
        where there is none). A grid beyond ``max_grid`` raises
        ValidationError.
        """

        def pick(length: float, start: int) -> int:
            n = max(self.min_grid, start)
            while length / n > scale / 4:
                if n >= self.max_grid:
                    raise ValidationError(
                        f"scale {scale:.6g} needs a grid beyond max_grid={self.max_grid}"
                    )
                n *= 2
            return n

        nx, ny = (floor.nx, floor.ny) if floor is not None else (0, 0)
        return GridSpec(pick(geometry.length_x, nx), pick(geometry.length_y, ny))

    def finer(self, grid: GridSpec) -> GridSpec | None:
        """``grid`` doubled per axis, at most to ``max_grid``; None when
        neither axis can double."""
        n = self.max_grid
        doubled = GridSpec(min(2 * grid.nx, n), min(2 * grid.ny, n))
        return None if doubled == grid else doubled


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
    the point's stationary bump window; ``identity_residuals``
    the integrated-equation residuals; ``order_fits`` the fitted vanishing
    orders, filled only where requested (sweeps fit at the final stage).
    The ``sup_f``/``sup_grad_f``/``l2_exp_*`` columns are the uniform
    interior bound probes on the divisor-excluding region. ``grid`` is
    the grid of the solve, which every measurement samples but
    ``sup_deviation``: a sup over samples would move with the grid, so
    it samples the solution's trigonometric interpolant on the fixed
    ``_PROBE_GRID`` lattice instead.
    ``spectral_tail`` is the resolution certificate of the solution
    (:func:`vortexlab.fields.spectral_tail`, at most ``TAIL_TOL``).
    ``crosscheck_gap`` is ``sup|curvature - curvature_crosscheck|`` of the
    classical model, ``residual_sup / (2 eps^2)`` up to roundoff
    (derivations §3), and None for the other models. It, ``newton``, the
    solution's own :class:`NewtonTrace` (shared, not copied), and
    ``rejected``, the ``grid``, ``spectral_tail`` and Newton
    ``iterations`` of each solve that the certificate sent to a finer
    grid, and ``start``, how the stage's first solve started (the
    ``record`` of its ``_Start``), go to the manifest only.
    """

    epsilon: float
    grid: GridSpec
    curvature_masses: list[float]
    sup_deviation: float
    identity_residuals: dict[str, float]
    crosscheck_gap: float | None
    order_fits: list[float | None]
    sup_f: float
    sup_grad_f: float
    l2_exp_plus: float
    l2_exp_minus: float
    spectral_tail: float
    newton: NewtonTrace
    rejected: list[dict] = dc_field(default_factory=list)
    start: dict | None = None
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


def _mass_windows(spec, points, grid: GridSpec | None = None) -> list[tuple[float, float, list]]:
    """Per point, ``(r_inner, r_outer, other points)`` of its mass window.

    Raises :class:`OverlappingBump` when a window's ``r_inner``, which is
    also the bump's transition width, is below two cells of ``grid``
    (the spec's own by default): the grid cannot resolve it. The windows
    depend on the points and the grid alone, so a stage checks them before
    it solves.
    """
    two_cells = 2.0 * max((grid or spec.grid).spacing(spec.geometry))
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


def _stage_masses(spec, recon, points) -> list[float]:
    """Per-point curvature masses in the stationary windows."""
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


def _on_lattice(
    f: ScalarField, grid: GridSpec, spectrum: np.ndarray | None = None
) -> ScalarField:
    """The trigonometric interpolant of ``f`` sampled on ``grid``.

    Per axis, ``f`` is resampled up to the least multiple ``k n`` of the
    lattice count ``n`` at or above its own count, where the interpolant
    is unchanged; every k-th of those samples lies on ``grid``.
    ``spectrum`` is ``rfft2`` of ``f`` when the caller has it.
    """
    kx, ky = -(-f.grid.nx // grid.nx), -(-f.grid.ny // grid.ny)
    fine = GridSpec(kx * grid.nx, ky * grid.ny)
    if fine != f.grid:
        f = resample(f, fine, spectrum)
    return _adopted(ScalarField, f.geometry, grid, f.values[::kx, ::ky].copy())


def _outside_discs(spec, points) -> RegionMask:
    """The region of the grid of ``spec`` outside the ``MASK_RADIUS`` discs
    around ``points``."""
    if not points:
        return RegionMask.full(spec.geometry, spec.grid)
    return RegionMask.excluding_discs(
        spec.geometry, spec.grid, [p.point for p in points], MASK_RADIUS
    )


def diagnostics_report(spec, solution: KWSolution, spectrum=None, tail=None, lap=None):
    """Single-epsilon diagnostics row; see :func:`adiabatic_sweep`.

    ``spectrum`` is ``rfft2`` of the solution when the caller has it;
    otherwise it is taken here, once. The curvature's Laplacian, unless
    the caller passes it as ``lap``, the interior gradient, the probe
    samples of ``sup_deviation`` and the spectral tail, unless the caller
    passes it as ``tail``, all read it.
    Every diagnostic but ``sup_deviation`` samples the grid of the solve;
    that one samples the spec's ``_probe`` lattice, which a sweep's stages
    share with its coefficients and its limit.
    """
    f = solution.f
    if spectrum is None:
        spectrum = _rfft2(f.values)
    if tail is None:
        tail = spectral_tail(f, spectrum)
    points = _spec_points(spec)
    # A sup over samples moves with the grid, so the deviation is read on
    # the fixed probe lattice: a function of the solution alone.
    probe = spec._probe
    deviation = probe._deviation(_on_lattice(f, _PROBE_GRID, spectrum))
    sup_dev = sup_norm(deviation, _outside_discs(probe, points))
    bounds = interior_bounds(f, _outside_discs(spec, points), spectrum)
    recon = _reconstruction(spec, f, _phi_sq(spec, f), spectrum, lap)
    stage = DiagnosticsReport(
        epsilon=spec.epsilon,
        grid=spec.grid,
        curvature_masses=_stage_masses(spec, recon, points),
        sup_deviation=sup_dev,
        identity_residuals=_identities_of(spec, recon),
        crosscheck_gap=_crosscheck_gap(recon),
        order_fits=[None] * len(points),
        spectral_tail=tail,
        newton=solution.newton,
        **bounds,
    )
    return stage, points, recon


def _run_stage(report, spec, config, previous, t0, schedule=None) -> DiagnosticsReport:
    """Reduce, solve, certify and diagnose ``spec``; record it as the last stage.

    Each solve starts from the spec's ``_initial_guess`` of ``previous``,
    once the mass windows have passed their check, and the stage records
    how its first solve started. A solution whose spectral tail exceeds
    ``TAIL_TOL`` is rejected. In a sweep (``schedule`` given) the stage
    then solves again on ``schedule.finer`` of its grid, from the
    rejected solution; without a schedule, or past ``max_grid``, it
    raises :class:`UnderResolved`. Only the accepted solution is
    diagnosed, on the grid it was solved on. The certificate and the
    diagnostics read the transforms of the solve's final evaluation, which
    are dropped with them, and no start outlives its solve.
    """
    rejected = []
    while True:
        _mass_windows(spec, _spec_points(spec))
        init, start = spec._initial_guess(previous, config)
        del previous
        if not rejected:
            record = start
        # Handed over in a list that kw_solve empties, so that no frame here
        # keeps the start alive through its solve.
        init = [init]
        solution = kw_solve(reduce_any(spec), config, init=init)
        spectrum, lap = solution._take_final()
        tail = spectral_tail(solution.f, spectrum)
        finer = schedule.finer(spec.grid) if schedule and tail > TAIL_TOL else None
        if finer is None:
            _check_resolved(solution.f, tail)
            break
        rejected.append(
            {"grid": spec.grid, "spectral_tail": tail, "iterations": solution.iterations}
        )
        spec, previous = _copy(spec, grid=finer), solution
        del solution, spectrum, lap
    stage, points, recon = diagnostics_report(spec, solution, spectrum, tail, lap)
    stage.rejected = rejected
    stage.start = record
    stage.seconds = time.perf_counter() - t0
    report.points = points
    report.stages.append(stage)
    report.final_solution = solution
    report.final_reconstruction = recon
    report.final_spec = spec
    return stage


def _stage_grid(schedule: ContinuationSchedule, spec, scale: float, floor=None) -> GridSpec:
    """The first grid of a sweep stage: :meth:`ContinuationSchedule.grid`
    at ``scale`` from ``floor``, refined until every mass window's
    ``r_inner`` spans two cells.

    Raises :class:`OverlappingBump` when even ``max_grid`` cannot resolve
    a window.
    """
    grid = schedule.grid(spec.geometry, scale, floor)
    finest = GridSpec(schedule.max_grid, schedule.max_grid)
    windows = _mass_windows(spec, _spec_points(spec), finest)
    if not windows:
        return grid
    # r_inner >= 2 h on both axes is the grid rule at scale 2 r_inner.
    return schedule.grid(spec.geometry, 2.0 * min(w[0] for w in windows), grid)


def _fit_final_orders(report: SweepReport) -> None:
    report.order_fits = report.final_spec._order_fits(report.points)
    report.stages[-1].order_fits = list(report.order_fits)


def solve_and_report(spec, config: SolverConfig = SolverConfig()) -> SweepReport:
    """Solve one spec from its ``_initial_guess`` and wrap the diagnostics
    as a one-stage report. The spec's grid is fixed: a solution whose
    spectral tail exceeds ``TAIL_TOL`` raises :class:`UnderResolved`."""
    t0 = time.perf_counter()
    report = SweepReport(kind=spec.kind, points=[], stages=[])
    _run_stage(report, spec, config, None, t0)
    _fit_final_orders(report)
    return report


def adiabatic_sweep(
    spec,
    schedule: ContinuationSchedule,
    config: SolverConfig = SolverConfig(),
    progress: Callable[[DiagnosticsReport], None] | None = None,
) -> SweepReport:
    """Decreasing-epsilon study with limit comparisons.

    Each stage is ``spec`` at the stage's epsilon. It starts on the grid
    of :func:`_stage_grid`: ``h <= eps / 4`` for classical, never coarser
    than the previous stage's grid, and fine enough for every mass window.
    It starts from the spec's ``_initial_guess``: a classical stage from
    its glued planar cores, a mixed or generalized stage after the first
    from the previous solution, transplanted by spectral resampling, and
    the first one, on a grid finer than ``_PROBE_GRID``, from the probe's
    solve at its epsilon. A solution whose spectral tail exceeds
    ``TAIL_TOL`` is solved again on the doubled grid (see
    :func:`_run_stage`). Per stage the report
    records, on the grid of the accepted solve, the spectral tail, the
    curvature masses at the divisor points, the integral-identity
    residuals and uniform-bound probes, and, on the fixed ``_PROBE_GRID``
    lattice, the sup-distance to the epsilon = 0 profile away from the
    points (for the classical model, the deficit ``sup|1 - |phi|^2|``);
    vanishing orders are fitted once at the final stage.

    Stages whose spec is infeasible (e.g. the volume bound fails at a
    large epsilon) are recorded in ``report.skipped`` and the sweep moves
    on, and so are stages whose mass windows even ``max_grid`` cannot
    resolve, which is found before the solve and recorded with that grid.
    A solver failure, a core scale that needs a grid beyond
    ``schedule.max_grid``, or a tail above ``TAIL_TOL`` at ``max_grid``
    (:class:`UnderResolved`) stops the sweep and is recorded in
    ``report.error`` with the completed stages kept. A sweep that skips
    every stage records its last skip as ``report.error``.
    A stage releases the last ``final_reconstruction`` before it solves,
    and a sweep ending without one rebuilds it from ``final_solution``.
    """
    report = SweepReport(kind=spec.kind, points=[], stages=[])
    for eps in schedule.epsilons:
        t0 = time.perf_counter()
        try:
            # A copy of the last stage shares its coefficients on the same grid.
            stage_spec = _copy(report.final_spec or spec, epsilon=eps)
            floor = report.final_spec.grid if report.final_spec else None
            grid = _stage_grid(schedule, stage_spec, stage_spec._core_scale(), floor)
            stage_spec = _copy(stage_spec, grid=grid)
            report.final_reconstruction = None
            stage = _run_stage(report, stage_spec, config, report.final_solution, t0, schedule)
            if progress is not None:
                progress(stage)
        except VortexLabError as exc:
            record = {"type": type(exc).__name__, "message": str(exc), "epsilon": eps}
            if isinstance(exc, OverlappingBump):
                # Raised by the mass-window check before the solve.
                record["grid"] = GridSpec(schedule.max_grid, schedule.max_grid)
            elif not isinstance(exc, Unsolvable):
                report.error = record
                break
            report.skipped.append(record)
    if report.final_spec is None:
        # No stage was solved, so the sweep has no result.
        report.error = report.error or dict(report.skipped[-1])
    elif report.final_reconstruction is None:
        report.final_reconstruction = reconstruct(report.final_spec, report.final_solution.f)
    if report.final_spec is not None and report.error is None:
        _fit_final_orders(report)
    return report
