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
balance (necessary solvability) condition checked before solving, and
before any vortex spec or ``kw`` config section is admitted: the one
rule :func:`_check_balance`.
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
    ValidationError,
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
    "NewtonTrace",
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

# Inexact Newton: Eisenstat-Walker choice-2 forcing (see _forcing).
_EW_GAMMA = 0.9
_ETA_MAX = 0.1

# Coefficient values below this count as identically zero in the limit
# solve (exact zeros only arise from divisor-point sentinels).
_COEFF_TINY = 1e-300

# Iteration cap of the pointwise root solver; the rtsafe safeguard needs
# about 60 bisections to shrink a doubled bracket to roundoff.
_ROOT_MAX_ITER = 200


class Classification(enum.Enum):
    TWO_SIDED = "two_sided"
    ONE_SIDED_PLUS = "one_sided_plus"
    ONE_SIDED_MINUS = "one_sided_minus"
    VACUOUS = "vacuous"


def _as_terms(terms, w: ScalarField) -> tuple[tuple[ScalarField, float], ...]:
    out = []
    for coeff, expo in terms:
        expo = float(expo)
        if not expo > 0:
            raise ValidationError("term exponents must be positive")
        _check_compatible(coeff, w)
        lo = coeff.min()
        if lo < -1e-14:
            raise ValidationError(f"coefficient field has min {lo} < -1e-14")
        if lo < 0.0:
            coeff = coeff._like(np.maximum(coeff.values, 0.0))
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
            raise ValidationError("epsilon must be nonnegative")
        for name in ("plus_terms", "minus_terms"):
            object.__setattr__(self, name, _as_terms(getattr(self, name), self.w))

    @property
    def geometry(self) -> TorusGeometry:
        return self.w.geometry

    @property
    def grid(self) -> GridSpec:
        return self.w.grid

    def _sides(self) -> tuple[bool, ...]:
        """Whether a plus, and a minus, coefficient is positive somewhere."""
        return tuple(any(c.max() > 0 for c, _ in t) for t in (self.plus_terms, self.minus_terms))

    def classification(self) -> Classification:
        has_plus, has_minus = self._sides()
        if has_plus and has_minus:
            return Classification.TWO_SIDED
        if has_plus:
            return Classification.ONE_SIDED_PLUS
        if has_minus:
            return Classification.ONE_SIDED_MINUS
        return Classification.VACUOUS

    def check_solvable(self) -> None:
        """Raise :class:`Unsolvable` if the balance condition fails."""
        has_plus, has_minus = self._sides()
        slack = 0.0
        if not (has_plus or has_minus):  # then integral(w) = 0 up to roundoff
            slack = 1e-12 * max(1.0, sup_norm(self.w)) * self.geometry.volume
        _check_balance(has_plus, has_minus, integrate(self.w), slack)


def _check_balance(has_plus: bool, has_minus: bool, integral_w: float, slack: float) -> None:
    """Raise :class:`Unsolvable` unless a problem with terms on the given
    sides balances: both sides always do, plus terms only need
    ``integral(w) < 0``, minus terms only ``> 0``, no terms ``|.| <= slack``.
    """
    if has_plus and has_minus:
        return
    if has_plus:
        terms, need, ok = "plus terms only", "< 0", integral_w < 0
    elif has_minus:
        terms, need, ok = "minus terms only", "> 0", integral_w > 0
    else:
        terms, need, ok = "no exponential terms", "= 0", abs(integral_w) <= slack
    if not ok:
        raise Unsolvable(f"{terms} need integral(w) {need}, got {integral_w:.6g}")


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 60

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValidationError("newton_tol must be positive")
        if self.max_newton < 1:
            raise ValidationError("max_newton must be at least 1")


@dataclass
class NewtonTrace:
    """Per-step record of one :func:`kw_solve`, its only writer.

    It holds the energy at the start and after each step, the sup residual
    at each loop head and the relative CG target of each step.
    """

    iterations: int = 0
    energy_history: list[float] = dc_field(default_factory=list)
    residual_history: list[float] = dc_field(default_factory=list)
    cg_tolerances: list[float] = dc_field(default_factory=list)


@dataclass
class KWSolution:
    """Converged solve; ``residual_sup`` and ``energy`` end its ``newton`` trace."""

    f: ScalarField
    residual_sup: float
    residual_l2: float
    energy: float
    classification: Classification
    epsilon: float
    newton: NewtonTrace

    @property
    def iterations(self) -> int:
        return self.newton.iterations


def _exp_or_guard(exponent_field: np.ndarray) -> np.ndarray:
    if exponent_field.max() > _EXP_GUARD:
        raise OverflowGuard(
            f"exponent reached {exponent_field.max():.3g} > {_EXP_GUARD:g}"
        )
    return np.exp(exponent_field)


def _signed_terms(problem: KWProblem) -> tuple[tuple[ScalarField, float], ...]:
    """``(A, alpha)`` per plus term and ``(B, -beta)`` per minus term.

    Every term of the equation then reads ``sign(k) C e^{k f}``.
    """
    return problem.plus_terms + tuple((b, -beta) for b, beta in problem.minus_terms)


def _term_values(problem: KWProblem, fvals: np.ndarray):
    """Yield ``(C e^{kf}, k)`` over the signed terms ``(C, k)``.

    Each caller reduces the fresh arrays to its own sum: the total
    ``sum sign(k) C e^{kf}``, the Newton potential ``sum |k| C e^{kf}``
    or the energy density ``sum (C/|k|) e^{kf}``.
    """
    for c, k in _signed_terms(problem):
        yield c.values * _exp_or_guard(k * fvals), k


def kw_residual(problem: KWProblem, f: ScalarField) -> ScalarField:
    """Pointwise left-hand side of the equation at ``f``."""
    _check_compatible(f, problem.w)
    total = np.zeros(f.values.shape)
    for s, k in _term_values(problem, f.values):
        total += np.copysign(s, k, out=s)
    lap = laplacian(f).values if problem.epsilon != 0 else 0.0
    vals = -problem.epsilon * lap + total + problem.w.values
    return ScalarField(f.geometry, f.grid, vals)


def kw_energy(problem: KWProblem, f: ScalarField) -> float:
    """Convex energy whose L2 gradient is :func:`kw_residual`."""
    _check_compatible(f, problem.w)
    en = np.zeros(f.values.shape)
    for s, k in _term_values(problem, f.values):
        en += np.divide(s, abs(k), out=s)
    vol = problem.geometry.volume
    bulk = float(np.mean(en + problem.w.values * f.values)) * vol
    if problem.epsilon == 0:
        return bulk
    return 0.5 * problem.epsilon * dirichlet_energy(f) + bulk


def _newton_potential(problem: KWProblem, f: ScalarField) -> ScalarField:
    """Potential ``sum |k| C e^{kf}`` of the Newton step, floored at ``_V_FLOOR``."""
    pot = np.zeros(f.values.shape)
    for s, k in _term_values(problem, f.values):
        pot += np.multiply(s, abs(k), out=s)
    return ScalarField(f.geometry, f.grid, np.maximum(pot, _V_FLOOR, out=pot))


def _pin_constant_mode(problem: KWProblem, fvals: np.ndarray) -> float:
    """Scalar shift solving the balance equation at ``f + c``.

    For one-sided problems the mean of ``f`` is the stiff direction of the
    energy; after each Newton step it is re-pinned by solving the strictly
    convex scalar problem  d/dc E(f + c) = 0  exactly: the pointwise root
    solver on one sample, with coefficients ``mean(C e^{k f}) vol``.
    Returns ``c``.
    """
    vol = problem.geometry.volume
    terms = [
        (np.array([np.mean(c.values * _exp_or_guard(k * fvals)) * vol]), k)
        for c, k in _signed_terms(problem)
    ]
    return float(_scalar_root(np.array([integrate(problem.w)]), terms)[0])


def _forcing(eta_prev: float, ratio: float) -> float:
    """Eisenstat-Walker choice-2 forcing term of Newton step ``k >= 1``.

    ``ratio`` is ``||r_k||_2 / ||r_{k-1}||_2`` and ``eta_prev`` the term of
    step ``k - 1`` (step 0 takes ``_ETA_MAX``). The safeguard
    ``_EW_GAMMA eta_prev^2`` keeps the term from collapsing after one
    lucky step; it engages only above 0.1, so under ``_ETA_MAX = 0.1`` it
    is inert, and it is kept so that the published rule holds for any cap.
    """
    eta = _EW_GAMMA * ratio**2
    safeguard = _EW_GAMMA * eta_prev**2
    if safeguard > 0.1:
        eta = max(eta, safeguard)
    return min(eta, _ETA_MAX)


def _cg_tolerance(config: SolverConfig, eta: float, res_sup: float) -> float:
    """Relative CG target of a Newton step with forcing term ``eta``.

    Floored by Kelley's terminal bound ``0.1 newton_tol / res_sup``: a
    solve to that target already leaves the next residual about a tenth
    of ``newton_tol`` of linear error, so a tighter one would oversolve
    the last step. A target below CG's roundoff floor is widened to it by
    :func:`vortexlab.fields.solve_linearized`.
    """
    return max(eta, 0.1 * config.newton_tol / res_sup)


def kw_solve(
    problem: KWProblem,
    config: SolverConfig = SolverConfig(),
    init: ScalarField | None = None,
) -> KWSolution:
    """Damped Newton iteration for the positive-epsilon equation.

    Starts from ``init`` (default zero field), checks the balance condition
    first, and enforces monotone energy decrease via Armijo backtracking.
    Each linearized step is solved inexactly, to the relative target of
    :func:`_cg_tolerance`; convergence is still decided on the exact sup
    residual at the loop head. The Newton potential is floored at 1e-14
    and, for one-sided problems, the constant mode is re-pinned through
    the balance equation after each accepted step.
    """
    if problem.epsilon <= 0:
        raise ValidationError("kw_solve needs epsilon > 0; use kw_limit at epsilon = 0")
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
    trace = NewtonTrace(energy_history=[energy])
    vol = geometry.volume
    eta, prev_l2 = _ETA_MAX, None

    for iteration in range(config.max_newton + 1):
        resid = kw_residual(problem, f)
        res_sup = sup_norm(resid)
        trace.residual_history.append(res_sup)
        if res_sup <= config.newton_tol:
            trace.iterations = iteration
            return KWSolution(
                f=f,
                residual_sup=res_sup,
                residual_l2=lp_norm(resid, 2),
                energy=energy,
                classification=cls,
                epsilon=problem.epsilon,
                newton=trace,
            )
        if iteration == config.max_newton:
            break

        res_l2 = float(np.linalg.norm(resid.values))
        if prev_l2 is not None:
            eta = _forcing(eta, res_l2 / prev_l2)
        prev_l2 = res_l2
        tol = _cg_tolerance(config, eta, res_sup)
        trace.cg_tolerances.append(tol)
        delta = solve_linearized(
            problem.epsilon, _newton_potential(problem, f), -resid, tol=tol
        )
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
                trial = f._like(f.values + step * delta.values)
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
        trace.energy_history.append(energy)

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
    if cls is Classification.VACUOUS:
        raise NoRoot("no exponential terms; the limit equation is empty")
    geometry, grid = problem.geometry, problem.grid
    terms = _signed_terms(problem)
    sides = np.zeros((2, grid.nx, grid.ny))  # plus and minus coefficient sums
    for c, k in terms:
        sides[int(k < 0)] += c.values
    # A sample is excluded where a side that the problem has sums to 0.
    excluded = np.any(sides[sides.max(axis=(1, 2)) > 0.0] < _COEFF_TINY, axis=0)
    # With nothing excluded, a full slice indexes views instead of copies.
    active = ~excluded if excluded.any() else slice(None)
    w = problem.w.values
    if cls is Classification.ONE_SIDED_PLUS and np.any(w[active] >= 0.0):
        raise NoRoot("one-sided limit needs w < 0 where the coefficient lives")
    if cls is Classification.ONE_SIDED_MINUS and np.any(w[active] <= 0.0):
        raise NoRoot("one-sided limit needs w > 0 where the coefficient lives")

    fvals = np.zeros((grid.nx, grid.ny))
    if cls is Classification.TWO_SIDED and len(terms) == 2 and not w.any():
        # A e^{alpha f} = B e^{-beta f}  =>  f = log(B/A) / (alpha + beta)
        (a, alpha), (b, k) = terms
        log_ratio = np.log(b.values[active]) - np.log(a.values[active])
        fvals[active] = log_ratio / (alpha - k)
    elif not excluded.all():
        fvals[active] = _scalar_root(w[active], [(c.values[active], k) for c, k in terms])

    f = ScalarField(geometry, grid, fvals)
    mask = RegionMask(geometry, grid, excluded.astype(float))
    return LimitProfile(f=f, excluded=mask, n_excluded=int(excluded.sum()))


def _scalar_root(w: np.ndarray, terms) -> np.ndarray:
    """Per-sample root of ``g(t) = w + sum sign(k) C e^{k t}``.

    ``terms`` pairs coefficient arrays ``C >= 0``, shaped like ``w``, with
    nonzero exponents ``k``, so ``g`` increases strictly wherever a
    coefficient is positive. Exponents are capped at the overflow guard.
    The root is bracketed by doubling [-1, 1]; Newton then runs from
    ``t = 0`` and bisects wherever a step would leave the bracket or is not
    at most half the previous one (``rtsafe``, Numerical Recipes 3rd ed.,
    §9.4). It stops once every Newton step is at most 1e-15 (1 + |t|),
    such steps being exempt from the halving test, and returns the
    iterate those steps start from. Raises :class:`MaxIterExceeded` when
    ``_ROOT_MAX_ITER`` iterations do not get there.
    """

    val, slope, s = np.empty(w.shape), np.empty(w.shape), np.empty(w.shape)

    def g_and_slope(t):
        # Written into the three arrays above, which every call reuses.
        np.copyto(val, w)
        slope.fill(0.0)
        for c, k in terms:
            np.multiply(t, k, out=s)
            np.minimum(s, _EXP_GUARD, out=s)
            np.exp(s, out=s)
            np.multiply(c, s, out=s)
            np.copysign(s, k, out=s)
            np.add(val, s, out=val)
            np.multiply(s, k, out=s)
            np.add(slope, s, out=slope)
        return val, slope

    # Expand a bracket [lo, hi] with g(lo) < 0 < g(hi) per sample. g is
    # strictly increasing, so doubling the window must eventually work.
    lo, hi = np.full(w.shape, -1.0), np.full(w.shape, 1.0)
    for _ in range(64):
        low = g_and_slope(lo)[0] >= 0.0
        high = g_and_slope(hi)[0] <= 0.0
        if not (low.any() or high.any()):
            break
        lo[low] *= 2.0
        hi[high] *= 2.0
    else:
        raise NoRoot("failed to bracket the pointwise root")

    t = np.zeros(w.shape)
    prev = hi - lo
    for _ in range(_ROOT_MAX_ITER):
        val, slope = g_and_slope(t)
        lo = np.where(val < 0.0, t, lo)
        hi = np.where(val > 0.0, t, hi)
        small = np.abs(val) <= 1e-15 * (1.0 + np.abs(t)) * slope
        if small.all():
            return t
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - val / slope
        halves = np.abs(newton - t) <= 0.5 * np.abs(prev)
        keep = (newton >= lo) & (newton <= hi) & (small | halves)
        new_t = np.where(keep, newton, 0.5 * (lo + hi))
        prev = new_t - t
        t = new_t
    raise MaxIterExceeded(
        f"pointwise root not converged in {_ROOT_MAX_ITER} iterations "
        f"at {int((~small).sum())} of {small.size} samples"
    )


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
