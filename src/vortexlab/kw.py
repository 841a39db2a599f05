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
    NoRoot,
    OverflowGuard,
    UnderResolved,
    Unsolvable,
    ValidationError,
)
from .fields import (
    GridSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    _check_compatible,
    _half_spectrum,
    _squared_gradient,
    dirichlet_energy,
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
    "kw_residual",
    "kw_energy",
    "kw_solve",
    "kw_limit",
    "interior_bounds",
    "young_bound",
    "TAIL_TOL",
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

# Samples per block of the limit solve, in whole rows: the 64^2 probe and
# any grid up to 128^2 are one block.
_ROOT_BLOCK = 1 << 14

# Resolution certificate: the largest spectral tail of a solution
# (fields.spectral_tail) that a run accepts; derivations §8.
TAIL_TOL = 1e-7


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
        if not math.isfinite(self.newton_tol):
            raise ValidationError(f"newton_tol must be finite, got {self.newton_tol}")
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
    """Converged solve; ``residual_sup`` and ``energy`` end its ``newton`` trace.

    The residuals are those of a fresh evaluation of ``f``, whose half
    spectrum and Laplacian the solution holds until a caller takes them
    (:meth:`_take_final`); a copy made with ``dataclasses.replace`` does
    not hold them.
    """

    f: ScalarField
    residual_sup: float
    residual_l2: float
    energy: float
    classification: Classification
    epsilon: float
    newton: NewtonTrace
    _final: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def iterations(self) -> int:
        return self.newton.iterations

    def _take_final(self) -> tuple[np.ndarray, ScalarField]:
        """``(rfft2(f), laplacian(f))`` from the evaluation that decided
        convergence, handed over once: the solution drops them."""
        final, self._final = self._final, None
        return final


def _signed_terms(problem: KWProblem) -> tuple[tuple[ScalarField, float], ...]:
    """``(A, alpha)`` per plus term and ``(B, -beta)`` per minus term.

    Every term of the equation then reads ``sign(k) C e^{k f}``.
    """
    return problem.plus_terms + tuple((b, -beta) for b, beta in problem.minus_terms)


def _guard(top: float) -> None:
    if top > _EXP_GUARD:
        raise OverflowGuard(f"exponent reached {top:.3g} > {_EXP_GUARD:g}")


class _Evaluation:
    """One iterate ``f`` of a problem, evaluated once for every reader.

    One exponential pass gives the term values ``C e^{kf}`` of the signed
    terms ``(C, k)``, with the top exponent ``max(k f)`` of each, which
    the overflow guard tests. The rest of the residual, its linear part
    ``w - epsilon laplacian(f)``, is held as ``(a, b, t)`` for ``a + t b``
    beside the Dirichlet energy ``D(f)``, a scalar. A fresh evaluation
    (``linear`` omitted) transforms ``f`` once each way: the half
    ``spectrum`` gives ``D(f)`` by Parseval and the ``laplacian``, and
    it keeps both for a caller that reads them. A line-search trial is
    handed its linear part and ``D`` by :func:`_trials` and transforms
    nothing. The energy, the residual (formed once and kept), the Newton
    potential and the pin coefficients all read these. The pass runs on
    first use, so an :class:`OverflowGuard` raises in whichever of
    :func:`kw_energy` and :func:`kw_residual` reads the evaluation first.
    """

    def __init__(self, problem: KWProblem, f: ScalarField, linear=None, dirichlet=0.0):
        self.problem, self.f = problem, f
        self.fresh = linear is None
        self._linear, self._dirichlet = linear, dirichlet
        self._terms = None  # [(C e^{kf}, k, max(k f))], once filled
        self._residual = None
        self.spectrum = self.laplacian = None

    def _fill(self) -> None:
        if self._terms is not None:
            return
        fvals, terms = self.f.values, []
        for c, k in _signed_terms(self.problem):
            s = np.multiply(fvals, k)
            top = float(s.max())
            _guard(top)
            np.exp(s, out=s)
            terms.append((np.multiply(c.values, s, out=s), k, top))
        if self._linear is None:
            eps, w = self.problem.epsilon, self.problem.w.values
            self._linear = (w, None, 0.0)
            if eps != 0:
                self.spectrum = _half_spectrum(self.f, None)
                self._dirichlet = dirichlet_energy(self.f, self.spectrum)
                self.laplacian = laplacian(self.f, self.spectrum).values
                self._linear = (w, self.laplacian, -eps)
        self._terms = terms

    def shifted(self, c: float) -> "_Evaluation":
        """The evaluation at ``f + c``, from this one.

        Each term value scales by ``e^{kc}``, under the same guard on
        ``max(k f) + k c``; the linear part and the Dirichlet energy do not
        change, so the shift costs no transform. A factor ``e^{kc}`` that
        would itself overflow or underflow takes a fresh ``exp`` instead.
        """
        self._fill()
        new = _Evaluation(self.problem, self.f + c, self._linear, self._dirichlet)
        new._terms = []
        for (s, k, top), (coeff, _) in zip(self._terms, _signed_terms(self.problem)):
            _guard(top + k * c)
            if abs(k * c) <= _EXP_GUARD:
                s = s * math.exp(k * c)
            else:
                s = coeff.values * np.exp(k * new.f.values)
            new._terms.append((s, k, top + k * c))
        return new

    def residual(self) -> np.ndarray:
        """``-epsilon laplacian(f) + sum sign(k) C e^{kf} + w``, formed on
        first use and kept; the caller must not write into it."""
        self._fill()
        if self._residual is None:
            a, b, t = self._linear
            if b is None:
                out = a.copy()
            else:
                out = np.multiply(b, t)
                out += a
            for s, k, _ in self._terms:
                (np.add if k > 0 else np.subtract)(out, s, out=out)
            self._residual = out
        return self._residual

    def energy(self) -> float:
        """``epsilon/2 D(f) + integral(sum (C/|k|) e^{kf} + w f)``."""
        self._fill()
        problem, fvals = self.problem, self.f.values
        en = np.multiply(problem.w.values, fvals)
        for s, k, _ in self._terms:
            en += s if abs(k) == 1 else s / abs(k)
        bulk = float(np.mean(en)) * problem.geometry.volume
        if problem.epsilon == 0:
            return bulk
        return 0.5 * problem.epsilon * self._dirichlet + bulk

    def potential(self) -> ScalarField:
        """Potential ``sum |k| C e^{kf}`` of the Newton step, floored at ``_V_FLOOR``."""
        self._fill()
        pot = np.zeros(self.f.values.shape)
        for s, k, _ in self._terms:
            pot += s if abs(k) == 1 else s * abs(k)
        return self.f._like(np.maximum(pot, _V_FLOOR, out=pot))

    def pin(self) -> float:
        """Scalar shift solving the balance equation at ``f + c``.

        For one-sided problems the mean of ``f`` is the stiff direction of
        the energy; after each Newton step it is re-pinned by solving the
        strictly convex scalar problem  d/dc E(f + c) = 0  exactly: the
        pointwise root solver on one sample, with coefficients
        ``mean(C e^{k f}) vol``. Returns ``c``.
        """
        self._fill()
        vol = self.problem.geometry.volume
        terms = [(np.array([np.mean(s) * vol]), k) for s, k, _ in self._terms]
        return float(_scalar_root(np.array([integrate(self.problem.w)]), terms)[0])


def _evaluation(problem: KWProblem, f: ScalarField, evaluation) -> _Evaluation:
    _check_compatible(f, problem.w)
    if evaluation is None:
        return _Evaluation(problem, f)
    if evaluation.f is not f or evaluation.problem is not problem:
        raise ValidationError("the evaluation belongs to another field or problem")
    return evaluation


def kw_residual(
    problem: KWProblem, f: ScalarField, evaluation: _Evaluation | None = None
) -> ScalarField:
    """Pointwise left-hand side of the equation at ``f``.

    ``evaluation`` is :func:`kw_solve`'s own evaluation of ``f``, which
    this reads instead of evaluating ``f`` afresh.
    """
    return f._like(_evaluation(problem, f, evaluation).residual())


def kw_energy(
    problem: KWProblem, f: ScalarField, evaluation: _Evaluation | None = None
) -> float:
    """Convex energy whose L2 gradient is :func:`kw_residual`.

    ``evaluation`` is as for :func:`kw_residual`.
    """
    return _evaluation(problem, f, evaluation).energy()


def _forcing(ratio: float) -> float:
    """Eisenstat-Walker choice-2 forcing term of Newton step ``k >= 1``.

    ``ratio`` is ``||r_k||_2 / ||r_{k-1}||_2``; step 0 takes ``_ETA_MAX``.
    The published safeguard ``_EW_GAMMA eta_{k-1}^2`` is omitted: it
    engages only above 0.1, which no term under ``_ETA_MAX = 0.1`` reaches.
    """
    return min(_EW_GAMMA * ratio**2, _ETA_MAX)


def _kelley_floor(config: SolverConfig, res_sup: float) -> float:
    """Kelley's terminal bound ``0.1 newton_tol / res_sup`` on the relative
    CG target of a Newton step at sup residual ``res_sup``: a solve to it
    already leaves the next residual about a tenth of ``newton_tol`` of
    linear error, so a tighter one would oversolve the last step."""
    return 0.1 * config.newton_tol / res_sup


def _cg_tolerance(config: SolverConfig, eta: float, res_sup: float) -> float:
    """Relative CG target of a Newton step with forcing term ``eta``.

    Floored by :func:`_kelley_floor`. A step that CG finds terminal
    (:func:`_terminal_test`) is solved on to the floor instead of to a
    looser ``eta``. A target below CG's roundoff floor is widened to it by
    :func:`vortexlab.fields.solve_linearized`.
    """
    return max(eta, _kelley_floor(config, res_sup))


def _terminal_test(trace: NewtonTrace, floor: float, curvature: float, newton_tol: float):
    """The terminal test of a Newton step whose CG target is looser than
    its ``floor``, for the ``terminal`` keyword of
    :func:`vortexlab.fields.solve_linearized`.

    At CG's first candidate stop the iterate ``x`` predicts the quadratic
    remainder of the step, ``1/2 curvature ||x||_inf^2`` with ``curvature
    = kappa max(V)``, ``kappa`` the largest ``|k|`` of the terms and ``V``
    the Newton potential (derivations §8). When that is at most
    ``newton_tol / 2`` the step can converge at once: CG goes on to the
    floor, which replaces the step's entry in ``trace.cg_tolerances``.
    """

    def terminal(x: np.ndarray) -> float | None:
        x_sup = max(float(x.max()), -float(x.min()))
        if not curvature * x_sup**2 <= newton_tol:  # a NaN fails the test
            return None
        trace.cg_tolerances[-1] = floor
        return floor

    return terminal


def kw_solve(
    problem: KWProblem,
    config: SolverConfig = SolverConfig(),
    init: ScalarField | list | None = None,
) -> KWSolution:
    """Damped Newton iteration for the positive-epsilon equation.

    Starts from ``init`` (default zero field), checks the balance condition
    first, and enforces monotone energy decrease via Armijo backtracking.
    A caller that must not keep the start alive through the solve hands
    it over as the one item of a list, which the solve empties: the start
    is then freed once the first evaluation (and, for one-sided problems,
    its pin shift) has replaced it.
    Each linearized step is solved inexactly, to the relative target of
    :func:`_cg_tolerance`. The Newton potential is floored at 1e-14 and,
    for one-sided problems, the constant mode is re-pinned through the
    balance equation after each accepted step.

    Each iterate is evaluated once (:class:`_Evaluation`): the start is
    transformed, and each line-search trial and each pinned iterate is
    carried from it with no transform. Its energy, its residual at the
    loop head and its Newton potential read that evaluation, which is
    released before CG runs. Once a carried residual meets ``newton_tol``
    the iterate is evaluated afresh, and that sup residual decides
    convergence: the returned ``residual_sup`` is exactly that of
    ``kw_residual(problem, f)``.
    """
    if problem.epsilon <= 0:
        raise ValidationError("kw_solve needs epsilon > 0; use kw_limit at epsilon = 0")
    problem.check_solvable()
    cls = problem.classification()
    geometry, grid = problem.geometry, problem.grid

    if isinstance(init, list):
        init = init.pop()
    if init is None:
        f = ScalarField(geometry, grid, np.zeros((grid.nx, grid.ny)))
    else:
        _check_compatible(init, problem.w)
        f = init
    del init

    ev = _Evaluation(problem, f)
    one_sided = cls in (Classification.ONE_SIDED_PLUS, Classification.ONE_SIDED_MINUS)
    if one_sided:
        ev = ev.shifted(ev.pin())
        f = ev.f

    energy = kw_energy(problem, f, ev)
    trace = NewtonTrace(energy_history=[energy])
    vol = geometry.volume
    prev_l2 = None
    kappa = max((abs(k) for _, k in _signed_terms(problem)), default=0.0)

    for iteration in range(config.max_newton + 1):
        resid = kw_residual(problem, f, ev)
        res_sup = sup_norm(resid)
        if res_sup <= config.newton_tol and not ev.fresh:
            # The carried residual has converged; a fresh one decides.
            ev = _Evaluation(problem, f)
            resid = f._like(ev.residual())
            res_sup = sup_norm(resid)
        if not math.isfinite(res_sup):  # the one finiteness check per iterate
            raise ValidationError(f"Newton iterate {iteration} is not finite: residual {res_sup}")
        trace.residual_history.append(res_sup)
        if res_sup <= config.newton_tol:
            trace.iterations = iteration
            solution = KWSolution(
                f=f,
                residual_sup=res_sup,
                residual_l2=lp_norm(resid, 2),
                energy=energy,
                classification=cls,
                epsilon=problem.epsilon,
                newton=trace,
            )
            solution._final = (ev.spectrum, f._like(ev.laplacian))
            return solution
        if iteration == config.max_newton:
            break

        res_l2 = float(np.linalg.norm(resid.values))
        eta = _ETA_MAX if prev_l2 is None else _forcing(res_l2 / prev_l2)
        prev_l2 = res_l2
        tol, floor = _cg_tolerance(config, eta, res_sup), _kelley_floor(config, res_sup)
        trace.cg_tolerances.append(tol)
        potential, dirichlet = ev.potential(), ev._dirichlet
        ev = None  # CG runs with no evaluation alive
        terminal = None
        if tol > floor:
            curvature = kappa * potential.max()
            terminal = _terminal_test(trace, floor, curvature, config.newton_tol)
        # x = -delta, from the residual itself: CG commutes exactly with negation.
        x, eps_lap_x = solve_linearized(
            problem.epsilon, potential, resid, tol=tol, terminal=terminal
        )
        del potential
        slope = -float(np.mean(resid.values * x.values)) * vol
        if slope >= 0.0:
            raise MaxIterExceeded(
                f"Newton direction lost descent (slope {slope:.3g})"
            )

        base = _linear_part(problem, f, resid)
        del resid
        trials = _trials(problem, f, x, eps_lap_x, base, dirichlet)
        del x, eps_lap_x, base
        ev, energy = _line_search(problem, trials, energy, slope, res_sup, iteration)
        del trials
        f = ev.f  # the pre-step iterate goes before the pin allocates
        if one_sided:
            ev, energy = _pinned(problem, ev, energy)
            f = ev.f
        trace.energy_history.append(energy)

    raise MaxIterExceeded(
        f"no convergence in {config.max_newton} Newton steps, "
        f"residual {res_sup:.3g} > {config.newton_tol:g}"
    )


def _linear_part(problem: KWProblem, f: ScalarField, resid: ScalarField) -> np.ndarray:
    """``w - epsilon laplacian(f)``: the residual ``resid`` of ``f`` less its
    signed terms ``sign(k) C e^{kf}``, which one exponential pass forms
    again rather than keep them alive through CG."""
    out, term = resid.values.copy(), np.empty(resid.values.shape)
    for c, k in _signed_terms(problem):
        np.multiply(f.values, k, out=term)
        np.exp(term, out=term)
        term *= c.values
        (np.subtract if k > 0 else np.add)(out, term, out=out)
    return out


def _trials(problem, f, x, eps_lap_x, base, dirichlet):
    """The evaluations of the line-search trials ``f - s x``, as a function
    of ``s``, with no transform.

    ``base`` is the linear part ``w - epsilon laplacian(f)`` of ``f`` and
    ``eps_lap_x`` is ``epsilon laplacian(x)``, which CG hands back, so the
    trial's linear part is ``base + s eps_lap_x``. Its Dirichlet energy is

        D(f - s x) = D(f) + 2 s integral(x laplacian f) + s^2 D(x),

    where ``integral(x laplacian f) = integral(f laplacian x)`` and
    ``D(x) = -integral(x laplacian x)`` both read ``eps_lap_x``.
    """
    h = problem.geometry.volume / (f.values.size * problem.epsilon)
    cross = float(np.vdot(f.values, eps_lap_x.values)) * h
    d_x = -float(np.vdot(x.values, eps_lap_x.values)) * h

    def trial(step: float) -> _Evaluation:
        moved = f._like(f.values - step * x.values)
        d_trial = dirichlet + step * (2.0 * cross + step * d_x)
        return _Evaluation(problem, moved, (base, eps_lap_x.values, step), d_trial)

    return trial


def _line_search(problem, trials, energy, slope, res_sup, iteration):
    """Armijo backtracking along the Newton direction: the accepted
    trial's evaluation and energy; ``trials(s)`` evaluates step ``s``.

    Each trial is evaluated once, and its energy and sup residual read
    that evaluation. Near the optimum the energy decrease of a Newton step
    falls below float resolution; a step is then certified by residual
    decrease instead (the Newton direction descends ||r|| as well),
    provided the energy does not rise above rounding noise. The noise
    budget keeps the recorded energy sequence monotone up to 1e-14
    relative slack.
    """
    e_noise = 1e-14 * (1.0 + abs(energy))
    step = 1.0
    for _ in range(80):
        ev = trials(step)
        try:
            e_trial = kw_energy(problem, ev.f, ev)
            r_trial = sup_norm(kw_residual(problem, ev.f, ev))
        except OverflowGuard:
            e_trial = math.inf
            r_trial = math.inf
        armijo_ok = e_trial <= energy + _ARMIJO_C * step * slope
        residual_ok = (
            r_trial <= (1.0 - _ARMIJO_C * step) * res_sup
            and e_trial <= energy + e_noise
        )
        if armijo_ok or residual_ok:
            return ev, e_trial
        step *= _ARMIJO_SHRINK
    raise MaxIterExceeded(
        f"line search failed at iteration {iteration}, residual {res_sup:.3g}"
    )


def _pinned(problem: KWProblem, ev: _Evaluation, energy: float):
    """The evaluation and energy after re-pinning the constant mode.

    The exact scalar balance solve cannot increase the energy; a shift
    that rounding makes do so is dropped, and a zero shift (``f`` already
    balanced) costs nothing more.
    """
    shift = ev.pin()
    if shift != 0.0:
        shifted = ev.shifted(shift)
        e_shifted = kw_energy(problem, shifted.f, shifted)
        if e_shifted <= energy:
            return shifted, e_shifted
    return ev, energy


# ---------------------------------------------------------------------------
# epsilon = 0: pointwise scalar roots


def kw_limit(problem: KWProblem) -> ScalarField:
    """Solve ``sum A e^{alpha f} - sum B e^{-beta f} + w = 0`` samplewise.

    Samples where a side that the problem has sums below 1e-300 have no
    pointwise root; the returned field stores 0 there. For one-sided
    problems a root exists only where ``w`` has the opposite sign; a
    wrong-signed sample raises :class:`NoRoot`. Blocks of whole rows,
    about ``_ROOT_BLOCK`` samples each, are solved in turn: only the
    output spans the grid.
    """
    has_plus, has_minus = problem._sides()
    if not (has_plus or has_minus):
        raise NoRoot("no exponential terms; the limit equation is empty")
    terms = _signed_terms(problem)
    w = problem.w.values
    fvals = np.zeros(w.shape)
    rows = max(1, _ROOT_BLOCK // w.shape[1])
    for start in range(0, w.shape[0], rows):
        block = slice(start, start + rows)
        skip = np.zeros(w[block].shape, dtype=bool)
        for present, side in ((has_plus, problem.plus_terms), (has_minus, problem.minus_terms)):
            if present:
                skip |= sum(c.values[block] for c, _ in side) < _COEFF_TINY
        live = ~skip
        wb = w[block][live]
        if not has_minus and np.any(wb >= 0.0):
            raise NoRoot("one-sided limit needs w < 0 where the coefficient lives")
        if not has_plus and np.any(wb <= 0.0):
            raise NoRoot("one-sided limit needs w > 0 where the coefficient lives")
        if wb.size:
            fvals[block][live] = _scalar_root(wb, [(c.values[block][live], k) for c, k in terms])
    return problem.w._like(fvals)


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
    ``_ROOT_MAX_ITER`` iterations do not get there. Every temporary is
    shaped like ``w``; :func:`kw_limit` bounds them by solving in blocks.
    """

    def g_and_slope(t):
        val, slope = w, 0.0
        for c, k in terms:
            s = np.copysign(c * np.exp(np.minimum(t * k, _EXP_GUARD)), k)
            val = val + s
            slope = slope + s * k
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

    t, prev = np.zeros(w.shape), hi - lo
    for _ in range(_ROOT_MAX_ITER):
        val, slope = g_and_slope(t)
        lo = np.where(val < 0.0, t, lo)
        hi = np.where(val > 0.0, t, hi)
        small = np.abs(val) <= (np.abs(t) + 1.0) * 1e-15 * slope
        if small.all():
            return t
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - val / slope
        # Newton where it stays in [lo, hi] and is small or at most half
        # the last step; elsewhere bisect.
        inside = (newton >= lo) & (newton <= hi)
        halving = small | (np.abs(newton - t) <= 0.5 * np.abs(prev))
        new_t = np.where(inside & halving, newton, 0.5 * (lo + hi))
        t, prev = new_t, new_t - t
    raise MaxIterExceeded(
        f"pointwise root not converged in {_ROOT_MAX_ITER} iterations "
        f"at {int((~small).sum())} of {small.size} samples"
    )


# ---------------------------------------------------------------------------
# Diagnostics


def _check_resolved(f: ScalarField, tail: float) -> None:
    """Raise :class:`UnderResolved` when ``tail``, the spectral tail of the
    solution ``f``, exceeds ``TAIL_TOL``."""
    if tail > TAIL_TOL:
        raise UnderResolved(
            f"spectral tail {tail:.3g} exceeds TAIL_TOL = {TAIL_TOL:g} "
            f"on the {f.grid.nx}x{f.grid.ny} grid"
        )


def interior_bounds(
    f: ScalarField, mask: RegionMask | None = None, spectrum: np.ndarray | None = None
) -> dict[str, float]:
    """Uniform-bound probes of ``f`` on a region away from singular points.

    Returns sup |f|, sup |grad f| and the L2 norms of e^{f} and e^{-f} over
    ``mask`` (the whole torus when omitted), keyed like the matching
    fields of :class:`vortexlab.vortex.DiagnosticsReport`. ``spectrum`` is
    ``rfft2(f.values)`` when the caller already has it. Raises
    :class:`OverflowGuard` when ``|f|`` passes the exponent guard, where
    one of the two exponentials would overflow, and
    :class:`ValidationError` when ``|grad f|`` is above about 1e154, where
    its square would.
    """
    _guard(sup_norm(f))
    # One square root of the largest |grad f|^2: sqrt is monotone and
    # correctly rounded, so this is the largest |grad f| bit for bit.
    return {
        "sup_f": sup_norm(f, mask),
        "sup_grad_f": math.sqrt(sup_norm(f._like(_squared_gradient(f, spectrum)), mask)),
        "l2_exp_plus": lp_norm(f._like(np.exp(f.values)), 2, mask),
        "l2_exp_minus": lp_norm(f._like(np.exp(-f.values)), 2, mask),
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
            raise ValidationError(f"{name} must be positive, got {v}")
    s = a + b
    k = (a / b) ** (b / s) + (b / a) ** (a / s)
    xi0 = (a * x / (b * y)) ** (1.0 / s)
    return k, xi0
