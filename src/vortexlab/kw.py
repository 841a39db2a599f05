"""Damped-Newton solver for generalized Kazdan-Warner equations.

The equation, in the analyst's sign convention of :mod:`vortexlab.fields`,
reads

    -epsilon * laplacian(f) + sum_j A_j e^{alpha_j f}
                            - sum_j B_j e^{-beta_j f} + w = 0

with nonnegative coefficient fields ``A_j``, ``B_j``, positive exponents,
and ``epsilon >= 0``. For ``epsilon > 0`` it is the Euler-Lagrange equation
of the strictly convex energy

    E(f) = integral( epsilon/2 |grad f|^2
                     + sum_j (A_j / alpha_j) e^{alpha_j f}
                     + sum_j (B_j / beta_j) e^{-beta_j f}
                     + w f )

so a damped Newton iteration with Armijo backtracking converges globally;
each linearized step is solved by preconditioned conjugate gradients. At
``epsilon = 0`` the equation decouples into per-sample scalar root finding
(:func:`kw_limit`).

Integrating the equation kills the Laplacian term, which yields the
balance (necessary solvability) conditions checked before solving: a
problem with only plus terms needs ``integral(w) < 0``, only minus terms
``integral(w) > 0``, and a problem with no exponential terms at all needs
``integral(w) = 0``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    MaxIterExceeded,
    NonPositiveInput,
    NoRoot,
    OverflowGuard,
    Unsolvable,
)
from .fields import (
    GridSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    _check_compatible,
    dirichlet_energy,
    gradient_magnitude,
    integrate,
    laplacian,
    lp_norm,
    solve_linearized,
    sup_norm,
)

__all__ = [
    "Classification",
    "KWProblem",
    "KWSolution",
    "SolverConfig",
    "LimitProfile",
    "kw_residual",
    "kw_energy",
    "kw_solve",
    "kw_limit",
    "interior_bounds",
    "young_bound",
]

# Exponents above this threshold would push exp() toward the float64
# overflow boundary; the solver reports instead of clipping.
_EXP_GUARD = 700.0

# Pointwise floor for the Newton potential so the linearized operator
# stays strictly positive definite where the coefficients vanish.
_V_FLOOR = 1e-14

# Line search: sufficient-decrease constant and backtracking factor.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

# Coefficient values below this count as identically zero in the limit
# solve (exact zeros only arise from divisor-point sentinels).
_COEFF_TINY = 1e-300


class Classification(enum.Enum):
    TWO_SIDED = "two_sided"
    ONE_SIDED_PLUS = "one_sided_plus"
    ONE_SIDED_MINUS = "one_sided_minus"
    VACUOUS = "vacuous"


def _as_terms(terms) -> tuple[tuple[ScalarField, float], ...]:
    out = []
    for coeff, expo in terms:
        expo = float(expo)
        if not expo > 0:
            raise ValueError("term exponents must be positive")
        out.append((coeff, expo))
    return tuple(out)


@dataclass(frozen=True)
class KWProblem:
    """Data of one generalized Kazdan-Warner equation on a torus grid.

    Coefficient fields are clamped to zero where they dip below zero by
    at most 1e-14 (roundoff from upstream exponentials); anything more
    negative is rejected.
    """

    epsilon: float
    plus_terms: tuple[tuple[ScalarField, float], ...]
    minus_terms: tuple[tuple[ScalarField, float], ...]
    w: ScalarField

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        plus = _as_terms(self.plus_terms)
        minus = _as_terms(self.minus_terms)

        def clamp(f: ScalarField) -> ScalarField:
            _check_compatible(f, self.w)
            lo = f.min()
            if lo < -1e-14:
                raise ValueError(f"coefficient field has min {lo} < -1e-14")
            if lo < 0.0:
                return ScalarField(f.geometry, f.grid, np.maximum(f.values, 0.0))
            return f

        object.__setattr__(
            self, "plus_terms", tuple((clamp(a), e) for a, e in plus)
        )
        object.__setattr__(
            self, "minus_terms", tuple((clamp(b), e) for b, e in minus)
        )

    @property
    def geometry(self) -> TorusGeometry:
        return self.w.geometry

    @property
    def grid(self) -> GridSpec:
        return self.w.grid

    def classification(self) -> Classification:
        has_plus = any(a.max() > 0 for a, _ in self.plus_terms)
        has_minus = any(b.max() > 0 for b, _ in self.minus_terms)
        if has_plus and has_minus:
            return Classification.TWO_SIDED
        if has_plus:
            return Classification.ONE_SIDED_PLUS
        if has_minus:
            return Classification.ONE_SIDED_MINUS
        return Classification.VACUOUS

    def check_solvable(self) -> None:
        """Raise :class:`Unsolvable` if the balance condition fails."""
        cls = self.classification()
        wbar = integrate(self.w)
        if cls is Classification.ONE_SIDED_PLUS and not wbar < 0:
            raise Unsolvable(
                f"one-sided problem needs integral(w) < 0, got {wbar}"
            )
        if cls is Classification.ONE_SIDED_MINUS and not wbar > 0:
            raise Unsolvable(
                f"one-sided problem needs integral(w) > 0, got {wbar}"
            )
        if cls is Classification.VACUOUS:
            scale = max(1.0, sup_norm(self.w))
            if abs(wbar) > 1e-12 * scale * self.geometry.volume:
                raise Unsolvable(
                    f"problem without exponential terms needs integral(w) = 0, got {wbar}"
                )


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 60
    cg_tol: float = 1e-12

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")


@dataclass
class KWSolution:
    f: ScalarField
    residual_sup: float
    residual_l2: float
    iterations: int
    energy: float
    classification: Classification
    epsilon: float
    energy_history: list = dc_field(default_factory=list)


def _exp_or_guard(exponent_field: np.ndarray, bound: float) -> np.ndarray:
    if exponent_field.max() > bound:
        raise OverflowGuard(
            f"exponent reached {exponent_field.max():.3g} > {bound:g}"
        )
    return np.exp(exponent_field)


def _nonlinearity(problem: KWProblem, fvals: np.ndarray):
    """Pointwise pieces shared by residual, potential, and energy.

    Returns (splus, sminus, potential, energy_density) where
    splus = sum A e^{alpha f}, sminus = sum B e^{-beta f},
    potential = sum alpha A e^{alpha f} + sum beta B e^{-beta f},
    energy_density = sum (A/alpha) e^{alpha f} + sum (B/beta) e^{-beta f}.
    """
    shape = fvals.shape
    splus = np.zeros(shape)
    sminus = np.zeros(shape)
    pot = np.zeros(shape)
    en = np.zeros(shape)
    for a, alpha in problem.plus_terms:
        e = _exp_or_guard(alpha * fvals, _EXP_GUARD)
        ae = a.values * e
        splus += ae
        pot += alpha * ae
        en += ae / alpha
    for b, beta in problem.minus_terms:
        e = _exp_or_guard(-beta * fvals, _EXP_GUARD)
        be = b.values * e
        sminus += be
        pot += beta * be
        en += be / beta
    return splus, sminus, pot, en


def kw_residual(problem: KWProblem, f: ScalarField) -> ScalarField:
    """Pointwise left-hand side of the equation at ``f``."""
    _check_compatible(f, problem.w)
    splus, sminus, _, _ = _nonlinearity(problem, f.values)
    lap = laplacian(f).values if problem.epsilon != 0 else 0.0
    vals = -problem.epsilon * lap + splus - sminus + problem.w.values
    return ScalarField(f.geometry, f.grid, vals)


def kw_energy(problem: KWProblem, f: ScalarField) -> float:
    """Convex energy whose L2 gradient is :func:`kw_residual`."""
    _check_compatible(f, problem.w)
    _, _, _, en = _nonlinearity(problem, f.values)
    vol = problem.geometry.volume
    bulk = float(np.mean(en + problem.w.values * f.values)) * vol
    if problem.epsilon == 0:
        return bulk
    return 0.5 * problem.epsilon * dirichlet_energy(f) + bulk


def _pin_constant_mode(problem: KWProblem, fvals: np.ndarray) -> float:
    """Scalar shift solving the balance equation at ``f + c``.

    For one-sided problems the mean of ``f`` is the stiff direction of the
    energy; after each Newton step it is re-pinned by solving the strictly
    convex scalar problem  d/dc E(f + c) = 0  exactly. Returns ``c``.
    """
    wint = integrate(problem.w)
    plus = []
    for a, alpha in problem.plus_terms:
        e = _exp_or_guard(alpha * fvals, _EXP_GUARD)
        plus.append((float(np.mean(a.values * e)), alpha))
    minus = []
    for b, beta in problem.minus_terms:
        e = _exp_or_guard(-beta * fvals, _EXP_GUARD)
        minus.append((float(np.mean(b.values * e)), beta))
    vol = problem.geometry.volume

    def balance(c: float) -> tuple[float, float]:
        val = wint
        slope = 0.0
        for ibar, alpha in plus:
            t = ibar * math.exp(alpha * c) * vol
            val += t
            slope += alpha * t
        for ibar, beta in minus:
            t = ibar * math.exp(-beta * c) * vol
            val -= t
            slope += beta * t
        return val, slope

    c = 0.0
    for _ in range(80):
        val, slope = balance(c)
        if slope == 0.0 or abs(val) <= 1e-15 * (abs(wint) + 1.0):
            break
        step = -val / slope
        # Exponentials make the scalar Newton step safe only when modest.
        step = max(-2.0, min(2.0, step))
        c += step
        if abs(step) < 1e-16:
            break
    return c


def kw_solve(
    problem: KWProblem,
    config: SolverConfig = SolverConfig(),
    init: ScalarField | None = None,
) -> KWSolution:
    """Damped Newton iteration for the positive-epsilon equation.

    Starts from ``init`` (default zero field), checks the balance condition
    first, and enforces monotone energy decrease via Armijo backtracking.
    The Newton potential is floored at 1e-14 and, for one-sided problems,
    the constant mode is re-pinned through the balance equation after each
    accepted step.
    """
    if problem.epsilon <= 0:
        raise ValueError("kw_solve needs epsilon > 0; use kw_limit at epsilon = 0")
    problem.check_solvable()
    cls = problem.classification()
    geometry, grid = problem.geometry, problem.grid

    if init is None:
        f = ScalarField(geometry, grid, np.zeros((grid.nx, grid.ny)))
    else:
        _check_compatible(init, problem.w)
        f = init

    one_sided = cls in (Classification.ONE_SIDED_PLUS, Classification.ONE_SIDED_MINUS)
    if one_sided:
        f = f + _pin_constant_mode(problem, f.values)

    energy = kw_energy(problem, f)
    history = [energy]
    vol = geometry.volume

    for iteration in range(config.max_newton + 1):
        resid = kw_residual(problem, f)
        res_sup = sup_norm(resid)
        if res_sup <= config.newton_tol:
            return KWSolution(
                f=f,
                residual_sup=res_sup,
                residual_l2=lp_norm(resid, 2),
                iterations=iteration,
                energy=energy,
                classification=cls,
                epsilon=problem.epsilon,
                energy_history=history,
            )
        if iteration == config.max_newton:
            break

        _, _, pot, _ = _nonlinearity(problem, f.values)
        potential = ScalarField(geometry, grid, np.maximum(pot, _V_FLOOR))
        delta = solve_linearized(problem.epsilon, potential, -resid, tol=config.cg_tol)
        slope = float(np.mean(resid.values * delta.values)) * vol
        if slope >= 0.0:
            raise MaxIterExceeded(
                f"Newton direction lost descent (slope {slope:.3g})"
            )

        step = 1.0
        accepted = False
        # Near the optimum the energy decrease of a Newton step falls
        # below float resolution; a step is then certified by residual
        # decrease instead (the Newton direction descends ||r|| as well),
        # provided the energy does not rise above rounding noise. The
        # noise budget keeps the recorded energy sequence monotone up to
        # 1e-14 relative slack.
        e_noise = 1e-14 * (1.0 + abs(energy))
        for _ in range(80):
            try:
                trial = f + step * delta
                e_trial = kw_energy(problem, trial)
                r_trial = sup_norm(kw_residual(problem, trial))
            except OverflowGuard:
                e_trial = math.inf
                r_trial = math.inf
            armijo_ok = e_trial <= energy + _ARMIJO_C * step * slope
            residual_ok = (
                r_trial <= (1.0 - _ARMIJO_C * step) * res_sup
                and e_trial <= energy + e_noise
            )
            if armijo_ok or residual_ok:
                f = trial
                energy = e_trial
                accepted = True
                break
            step *= _ARMIJO_SHRINK
        if not accepted:
            raise MaxIterExceeded(
                f"line search failed at iteration {iteration}, residual {res_sup:.3g}"
            )
        if one_sided:
            shift = _pin_constant_mode(problem, f.values)
            if shift != 0.0:
                shifted = f + shift
                e_shifted = kw_energy(problem, shifted)
                # The exact scalar balance solve cannot increase the energy.
                if e_shifted <= energy:
                    f = shifted
                    energy = e_shifted
        history.append(energy)

    raise MaxIterExceeded(
        f"no convergence in {config.max_newton} Newton steps, "
        f"residual {res_sup:.3g} > {config.newton_tol:g}"
    )


# ---------------------------------------------------------------------------
# epsilon = 0: pointwise scalar roots


@dataclass
class LimitProfile:
    """Samplewise solution of the epsilon = 0 equation.

    ``excluded`` marks (weight 1) the samples where a coefficient side
    vanishes identically and no pointwise root is defined; ``f`` stores 0
    there.
    """

    f: ScalarField
    excluded: RegionMask
    n_excluded: int


def kw_limit(problem: KWProblem) -> LimitProfile:
    """Solve ``sum A e^{alpha f} - sum B e^{-beta f} + w = 0`` samplewise.

    Samples where the active coefficient sums fall below 1e-300 are
    excluded and reported in the mask. For one-sided problems a root
    exists only where ``w`` has the opposite sign; a wrong-signed sample
    raises :class:`NoRoot`.
    """
    cls = problem.classification()
    geometry, grid = problem.geometry, problem.grid
    shape = (grid.nx, grid.ny)
    splus = np.zeros(shape)
    sminus = np.zeros(shape)
    for a, _ in problem.plus_terms:
        splus += a.values
    for b, _ in problem.minus_terms:
        sminus += b.values
    w = problem.w.values

    if cls is Classification.VACUOUS:
        raise NoRoot("no exponential terms; the limit equation is empty")
    if cls is Classification.TWO_SIDED:
        excluded = (splus < _COEFF_TINY) | (sminus < _COEFF_TINY)
    elif cls is Classification.ONE_SIDED_PLUS:
        excluded = splus < _COEFF_TINY
        if np.any(w[~excluded] >= 0.0):
            raise NoRoot("one-sided limit needs w < 0 where the coefficient lives")
    else:
        excluded = sminus < _COEFF_TINY
        if np.any(w[~excluded] <= 0.0):
            raise NoRoot("one-sided limit needs w > 0 where the coefficient lives")

    active = ~excluded
    fvals = np.zeros(shape)

    single_pair = (
        len(problem.plus_terms) == 1
        and len(problem.minus_terms) == 1
        and float(np.abs(w).max()) == 0.0
    )
    if cls is Classification.TWO_SIDED and single_pair:
        # A e^{alpha f} = B e^{-beta f}  =>  f = log(B/A) / (alpha + beta)
        (a, alpha), (b, beta) = problem.plus_terms[0], problem.minus_terms[0]
        fvals[active] = (
            np.log(b.values[active]) - np.log(a.values[active])
        ) / (alpha + beta)
    elif active.any():
        fvals[active] = _limit_newton(problem, active, splus, sminus, w)

    f = ScalarField(geometry, grid, fvals)
    mask = RegionMask(geometry, grid, excluded.astype(float))
    return LimitProfile(f=f, excluded=mask, n_excluded=int(excluded.sum()))


def _limit_newton(problem, active, splus, sminus, w):
    """Vectorized bisection-safeguarded Newton on the active samples."""
    plus = [(a.values[active], alpha) for a, alpha in problem.plus_terms]
    minus = [(b.values[active], beta) for b, beta in problem.minus_terms]
    wv = w[active]

    def g_and_slope(f):
        val = wv.copy()
        slope = np.zeros_like(f)
        for av, alpha in plus:
            t = av * np.exp(np.minimum(alpha * f, _EXP_GUARD))
            val += t
            slope += alpha * t
        for bv, beta in minus:
            t = bv * np.exp(np.minimum(-beta * f, _EXP_GUARD))
            val -= t
            slope += beta * t
        return val, slope

    # Expand a bracket [lo, hi] with g(lo) < 0 < g(hi) per sample. g is
    # strictly increasing, so doubling the window must eventually work.
    lo = np.full(wv.shape, -1.0)
    hi = np.full(wv.shape, 1.0)
    for _ in range(64):
        glo, _ = g_and_slope(lo)
        bad = glo >= 0.0
        if not bad.any():
            break
        lo[bad] = lo[bad] * 2.0
    else:
        raise NoRoot("failed to bracket the pointwise root from below")
    for _ in range(64):
        ghi, _ = g_and_slope(hi)
        bad = ghi <= 0.0
        if not bad.any():
            break
        hi[bad] = hi[bad] * 2.0
    else:
        raise NoRoot("failed to bracket the pointwise root from above")

    f = 0.5 * (lo + hi)
    for _ in range(200):
        val, slope = g_and_slope(f)
        lo = np.where(val < 0.0, f, lo)
        hi = np.where(val > 0.0, f, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f - val / slope
        inside = (newton > lo) & (newton < hi) & np.isfinite(newton)
        f = np.where(inside, newton, 0.5 * (lo + hi))
        if float(np.max(hi - lo)) < 1e-15 * (1.0 + float(np.max(np.abs(f)))):
            break
    return f


# ---------------------------------------------------------------------------
# Diagnostics


def interior_bounds(f: ScalarField, mask: RegionMask | None = None) -> dict[str, float]:
    """Uniform-bound probes of ``f`` on a region away from singular points.

    Returns sup |f|, sup |grad f| and the L2 norms of e^{f} and e^{-f} over
    ``mask`` (the whole torus when omitted), keyed like the matching
    fields of :class:`vortexlab.vortex.DiagnosticsReport`.
    """
    return {
        "sup_f": sup_norm(f, mask),
        "sup_grad_f": sup_norm(gradient_magnitude(f), mask),
        "l2_exp_plus": lp_norm(ScalarField(f.geometry, f.grid, np.exp(f.values)), 2, mask),
        "l2_exp_minus": lp_norm(ScalarField(f.geometry, f.grid, np.exp(-f.values)), 2, mask),
    }


def young_bound(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Sharp constant and minimizer for ``x xi^-a + y xi^b`` over xi > 0.

    Returns ``(K, xi0)`` with

        K = (a/b)^(b/(a+b)) + (b/a)^(a/(a+b)),
        xi0 = (a x / (b y))^(1/(a+b)),

    so that ``x xi^-a + y xi^b >= K x^(b/(a+b)) y^(a/(a+b))`` for all
    positive ``xi``, with equality exactly at ``xi0``.
    """
    for name, v in (("a", a), ("b", b), ("x", x), ("y", y)):
        if not v > 0:
            raise NonPositiveInput(f"{name} must be positive, got {v}")
    s = a + b
    k = (a / b) ** (b / s) + (b / a) ** (a / s)
    xi0 = (a * x / (b * y)) ** (1.0 / s)
    return k, xi0
