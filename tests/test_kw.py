"""Generalized scalar equation: residual, energy, Newton solver, limits, continuation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexlab.kw as kw_module
from helpers import random_trig, record_transforms
from vortexlab import (
    ClassicalVortexSpec,
    ContinuationSchedule,
    Divisor,
    GridSpec,
    MixedVortexSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    adiabatic_sweep,
    constant_field,
    field_from_function,
    integrate,
    laplacian,
    lp_norm,
    reduce_any,
    resample,
    solve_and_report,
    sup_norm,
)
from vortexlab.errors import (
    MaxIterExceeded,
    NoRoot,
    OverflowGuard,
    Unsolvable,
    ValidationError,
)
from vortexlab.kw import (
    Classification,
    KWProblem,
    SolverConfig,
    interior_bounds,
    kw_energy,
    kw_limit,
    kw_residual,
    kw_solve,
    young_bound,
)

UNIT = TorusGeometry(1.0, 1.0)


def const(grid, value):
    return constant_field(UNIT, grid, value)


def symmetric_problem(grid, epsilon=0.5, w=0.0):
    return KWProblem(
        epsilon=epsilon,
        plus_terms=((const(grid, 1.0), 1.0),),
        minus_terms=((const(grid, 1.0), 1.0),),
        w=const(grid, w),
    )


def star_field(grid):
    return field_from_function(
        UNIT, grid, lambda X, Y: 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    )


def manufactured_problem(grid, epsilon):
    """w chosen so f* = 0.3 sin(2 pi x) cos(2 pi y) solves the equation."""
    fs = star_field(grid)
    w = epsilon * laplacian(fs).values - np.exp(fs.values) + np.exp(-fs.values)
    return (
        KWProblem(
            epsilon=epsilon,
            plus_terms=((const(grid, 1.0), 1.0),),
            minus_terms=((const(grid, 1.0), 1.0),),
            w=ScalarField(UNIT, grid, w),
        ),
        fs,
    )


def bumpy_two_sided(grid, epsilon=0.3, w=0.25):
    A = field_from_function(
        UNIT, grid, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X)
    )
    B = field_from_function(
        UNIT, grid, lambda X, Y: 1.2 + 0.4 * np.cos(2 * np.pi * Y)
    )
    return KWProblem(
        epsilon=epsilon,
        plus_terms=((A, 1.0),),
        minus_terms=((B, 1.0),),
        w=const(grid, w),
    )


def one_sided_plus(grid):
    A = field_from_function(UNIT, grid, lambda X, Y: 1.0 + 0.3 * np.cos(2 * np.pi * X))
    return KWProblem(0.2, ((A, 1.0),), (), const(grid, -1.0))


# ---------------------------------------------------------------------------
# Problem data


def test_problem_clamps_roundoff_negatives():
    grid = GridSpec(8, 8)
    vals = np.ones((8, 8))
    vals[0, 0] = -5e-15
    p = KWProblem(0.1, ((ScalarField(UNIT, grid, vals), 1.0),), (), const(grid, -1.0))
    assert p.plus_terms[0][0].min() == 0.0


def test_problem_rejects_genuinely_negative_coefficients():
    grid = GridSpec(8, 8)
    vals = np.ones((8, 8))
    vals[0, 0] = -1e-12
    with pytest.raises(ValueError):
        KWProblem(0.1, ((ScalarField(UNIT, grid, vals), 1.0),), (), const(grid, 0.0))


def test_problem_rejects_bad_exponents_and_epsilon():
    grid = GridSpec(8, 8)
    with pytest.raises(ValueError):
        KWProblem(0.1, ((const(grid, 1.0), 0.0),), (), const(grid, 0.0))
    with pytest.raises(ValueError):
        KWProblem(-0.1, (), (), const(grid, 0.0))


def test_classification():
    grid = GridSpec(8, 8)
    one = const(grid, 1.0)
    zero = const(grid, 0.0)
    w = const(grid, 0.0)
    assert KWProblem(1.0, ((one, 1.0),), ((one, 1.0),), w).classification() \
        is Classification.TWO_SIDED
    assert KWProblem(1.0, ((one, 1.0),), (), w).classification() \
        is Classification.ONE_SIDED_PLUS
    assert KWProblem(1.0, (), ((one, 2.0),), w).classification() \
        is Classification.ONE_SIDED_MINUS
    assert KWProblem(1.0, ((zero, 1.0),), (), w).classification() \
        is Classification.VACUOUS


def test_solvability_balance_condition():
    grid = GridSpec(8, 8)
    one = const(grid, 1.0)
    # one-sided plus needs integrate(w) < 0
    KWProblem(1.0, ((one, 1.0),), (), const(grid, -1.0)).check_solvable()
    with pytest.raises(Unsolvable):
        KWProblem(1.0, ((one, 1.0),), (), const(grid, 0.5)).check_solvable()
    # one-sided minus needs integrate(w) > 0
    KWProblem(1.0, (), ((one, 1.0),), const(grid, 0.5)).check_solvable()
    with pytest.raises(Unsolvable):
        KWProblem(1.0, (), ((one, 1.0),), const(grid, -0.5)).check_solvable()
    # two-sided always passes
    symmetric_problem(grid, w=3.0).check_solvable()
    # no exponential terms: w must have zero mean
    with pytest.raises(Unsolvable):
        KWProblem(1.0, (), (), const(grid, 0.1)).check_solvable()


def test_solver_config_ranges():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_newton=0)
    # An infinite tolerance accepts any iterate: a mixed pair ran to
    # status ok after 0 Newton steps, with curvature masses [0, 0].
    for tol in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="newton_tol must be finite"):
            SolverConfig(newton_tol=tol)


# ---------------------------------------------------------------------------
# Residual and energy


def test_residual_symmetric_balance():
    grid = GridSpec(16, 16)
    p = symmetric_problem(grid)
    r = kw_residual(p, const(grid, 0.0))
    assert sup_norm(r) == 0.0


def test_residual_shifted_balance():
    grid = GridSpec(16, 16)
    p = KWProblem(
        0.5,
        ((const(grid, np.e), 1.0),),
        ((const(grid, 1.0), 1.0),),
        const(grid, 0.0),
    )
    r = kw_residual(p, const(grid, -0.5))
    assert sup_norm(r) <= 1e-15


@pytest.mark.parametrize("epsilon", [1.0, 0.1, 0.01])
def test_residual_manufactured(epsilon):
    grid = GridSpec(64, 64)
    p, fs = manufactured_problem(grid, epsilon)
    assert sup_norm(kw_residual(p, fs)) <= 1e-13


def test_residual_overflow_guard():
    grid = GridSpec(8, 8)
    p = symmetric_problem(grid)
    with pytest.raises(OverflowGuard):
        kw_residual(p, const(grid, 800.0))
    with pytest.raises(OverflowGuard):
        kw_residual(p, const(grid, -800.0))


def test_residual_and_energy_read_only_their_own_evaluation():
    grid = GridSpec(8, 8)
    p, f = symmetric_problem(grid), const(grid, 0.0)
    ev = kw_module._Evaluation(p, f)
    assert kw_energy(p, f, ev) == kw_energy(p, f)
    for read in (kw_residual, kw_energy):
        with pytest.raises(ValueError):
            read(p, const(grid, 0.0), ev)


def test_energy_trivial_value():
    grid = GridSpec(16, 16)
    p = symmetric_problem(grid)
    assert abs(kw_energy(p, const(grid, 0.0)) - 2.0) <= 1e-14


def test_energy_constant_direction_matches_gradient():
    grid = GridSpec(16, 16)
    p = bumpy_two_sided(grid)
    f = star_field(grid)
    delta = 1e-6
    fd = (kw_energy(p, f + delta) - kw_energy(p, f - delta)) / (2 * delta)
    assert abs(fd - integrate(kw_residual(p, f))) <= 1e-6 * (1 + abs(fd))


def test_energy_gradient_finite_difference():
    grid = GridSpec(16, 16)
    p = bumpy_two_sided(grid)
    rng = np.random.default_rng(12)
    f = ScalarField(UNIT, grid, 0.3 * rng.standard_normal((16, 16)))
    g = ScalarField(UNIT, grid, rng.standard_normal((16, 16)))
    delta = 1e-6
    fd = (kw_energy(p, f + delta * g) - kw_energy(p, f - delta * g)) / (2 * delta)
    pairing = integrate(kw_residual(p, f) * g)
    assert abs(fd - pairing) <= 1e-6 * (1 + abs(pairing))


# ---------------------------------------------------------------------------
# Newton solver


def test_solve_constant_arcsinh():
    grid = GridSpec(16, 16)
    c = 0.7
    sol = kw_solve(symmetric_problem(grid, epsilon=0.5, w=c))
    target = np.arcsinh(-c / 2.0)
    assert np.abs(sol.f.values - target).max() <= 1e-10
    assert sol.f.values.max() - sol.f.values.min() <= 1e-13
    assert sol.residual_sup <= 1e-10
    assert sol.classification is Classification.TWO_SIDED


def test_solve_manufactured_accuracy():
    grid = GridSpec(128, 128)
    p, fs = manufactured_problem(grid, 0.1)
    sol = kw_solve(p)
    assert sup_norm(sol.f - fs) <= 1e-8
    assert sol.residual_sup <= 1e-10
    assert sol.iterations <= 25


def test_solve_initialization_independence():
    grid = GridSpec(32, 32)
    p = bumpy_two_sided(grid)
    rng = np.random.default_rng(7)
    init_a = ScalarField(UNIT, grid, rng.uniform(-1.0, 1.0, (32, 32)))
    init_b = ScalarField(UNIT, grid, rng.uniform(-1.0, 1.0, (32, 32)))
    sols = [kw_solve(p, init=i) for i in (None, init_a, init_b)]
    for a in sols[1:]:
        assert sup_norm(a.f - sols[0].f) <= 1e-8


def test_solve_energy_monotone():
    grid = GridSpec(32, 32)
    p, _ = manufactured_problem(grid, 0.2)
    sol = kw_solve(p)
    hist = np.asarray(sol.newton.energy_history)
    assert (np.diff(hist) <= 1e-14 * (1.0 + np.abs(hist[:-1]))).all()
    assert sol.energy == hist[-1]


def _classical_256():
    divisor = Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 2))
    return ClassicalVortexSpec(UNIT, GridSpec(256, 256), divisor, 0.0125)


def _mixed_128():
    return MixedVortexSpec(
        UNIT,
        GridSpec(128, 128),
        Divisor(((0.25, 0.25),), (1,)),
        Divisor(((0.75, 0.75),), (1,)),
        epsilon=0.0125,
    )


def _check_newton_trace(sol, config):
    """Invariants of the recorded Newton trace of one solve."""
    assert len(sol.newton.residual_history) == sol.iterations + 1
    assert len(sol.newton.cg_tolerances) == sol.iterations
    assert all(1e-12 <= tol <= 0.1 for tol in sol.newton.cg_tolerances)
    assert sol.newton.residual_history[-1] == sol.residual_sup <= config.newton_tol
    hist = np.asarray(sol.newton.energy_history)
    assert (np.diff(hist) <= 1e-14 * (1.0 + np.abs(hist[:-1]))).all()


@pytest.mark.parametrize(
    "problem",
    [
        lambda: bumpy_two_sided(GridSpec(32, 32), w=0.4),
        lambda: one_sided_plus(GridSpec(32, 32)),
    ],
    ids=["two_sided", "one_sided"],
)
def test_solve_newton_trace_invariants(problem):
    config = SolverConfig()
    sol = kw_solve(problem(), config)
    _check_newton_trace(sol, config)
    # The first step takes the largest forcing term, and the forcing
    # tightens the CG target as the Newton residual falls.
    assert sol.newton.cg_tolerances[0] == 0.1
    assert sol.newton.cg_tolerances[-1] < 0.1


@pytest.mark.parametrize("spec", [_classical_256, _mixed_128], ids=["classical", "mixed"])
def test_forcing_gives_the_exact_newton_answer(spec, monkeypatch):
    problem = reduce_any(spec())
    config = SolverConfig()
    inexact = kw_solve(problem, config)
    # Every CG solve to a relative 1e-12: exact Newton.
    monkeypatch.setattr(kw_module, "_cg_tolerance", lambda config, eta, res_sup: 1e-12)
    exact = kw_solve(problem, config)
    assert exact.newton.cg_tolerances == [1e-12] * exact.iterations
    assert max(inexact.newton.cg_tolerances) > 1e-12
    for sol in (inexact, exact):
        _check_newton_trace(sol, config)
    assert sup_norm(inexact.f - exact.f) <= config.newton_tol


@pytest.mark.parametrize(
    "problem",
    [
        lambda: bumpy_two_sided(GridSpec(32, 32), w=0.4),
        lambda: one_sided_plus(GridSpec(32, 32)),
    ],
    ids=["two_sided", "one_sided"],
)
def test_solve_transforms_each_iterate_once(monkeypatch, problem):
    # Outside CG a solve transforms its start once and each line-search
    # trial once, a forward and an inverse transform each; the loop head
    # and the pin shift read the evaluation they already have. Every
    # transform writes into its ``out``.
    problem = problem()
    calls = record_transforms(monkeypatch)
    in_cg, residuals, shifts = [], [], []
    cg, residual, shifted = (
        kw_module.solve_linearized, kw_module.kw_residual, kw_module._Evaluation.shifted
    )

    def counted_cg(*args, **kwargs):
        before = len(calls)
        delta = cg(*args, **kwargs)
        in_cg.append(len(calls) - before)
        return delta

    monkeypatch.setattr(kw_module, "solve_linearized", counted_cg)
    monkeypatch.setattr(
        kw_module, "kw_residual", lambda *a, **k: residuals.append(1) or residual(*a, **k)
    )
    monkeypatch.setattr(
        kw_module._Evaluation, "shifted", lambda ev, c: shifts.append(c) or shifted(ev, c)
    )
    sol = kw_solve(problem)
    trials = len(residuals) - (sol.iterations + 1)
    assert sol.iterations >= 2 and trials >= sol.iterations
    assert len(calls) - sum(in_cg) == 2 + 2 * trials
    assert all(wrote for _, wrote in calls), calls
    one_sided = problem.classification() is Classification.ONE_SIDED_PLUS
    # The start is always pinned; the steps' pins shift by nonzero amounts.
    assert len(shifts) == (1 + sol.iterations if one_sided else 0)
    assert all(c != 0.0 for c in shifts[1:])


@pytest.mark.parametrize("c", [-650.5, -360.0, -3.7, 0.0, 0.4, 249.9, 250.1, 400.0])
def test_shifted_evaluation_matches_a_fresh_one(c):
    # Terms e^{2f} and e^{-f}: max(2 f) = 200 and max(-f) = 50, so the
    # guard trips exactly above c = 250 and below c = -650. At c = -360
    # the factor e^{2c} alone would underflow, so that term is evaluated
    # afresh.
    grid = GridSpec(32, 32)
    f = field_from_function(
        UNIT, grid, lambda X, Y: 25.0 + 75.0 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    )
    a = field_from_function(UNIT, grid, lambda X, Y: 1.0 + 0.5 * np.cos(2 * np.pi * Y))
    p = KWProblem(0.3, ((a, 2.0),), ((const(grid, 0.7), 1.0),), const(grid, 0.1))
    assert (2.0 * f.values).max() == 200.0 and (-f.values).max() == 50.0

    def evaluated(make):
        try:
            ev = make()
            ev.energy()
            return ev
        except OverflowGuard:
            return None

    fresh = evaluated(lambda: kw_module._Evaluation(p, f + c))
    shifted_ev = evaluated(lambda: kw_module._Evaluation(p, f).shifted(c))
    assert (fresh is None) == (shifted_ev is None) == (c in (-650.5, 250.1, 400.0))
    if fresh is None:
        return
    assert np.array_equal(shifted_ev.f.values, fresh.f.values)
    e_shifted, e_fresh = shifted_ev.energy(), fresh.energy()
    assert abs(e_shifted - e_fresh) <= 1e-12 * abs(e_fresh)
    r_shifted, r_fresh = shifted_ev.residual(), fresh.residual()
    assert np.abs(r_shifted - r_fresh).max() <= 1e-12 * np.abs(r_fresh).max()


def test_solve_memory():
    # One 512^2 classical stage from its glued cores (a grid is 2 MiB).
    # Outside CG's own arrays (17.0 MiB, test_cg_memory) only the iterate,
    # its residual, the right-hand side and the Newton potential are alive
    # while CG runs; each iterate's evaluation is released before it
    # starts. The same solve read 30.2 MiB with an evaluation per reader
    # and a copy per field operation, and 28.2 MiB without.
    divisor = Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 2))
    spec = ClassicalVortexSpec(UNIT, GridSpec(512, 512), divisor, 0.05)
    problem, init = reduce_any(spec), spec._initial_guess(None)
    tracemalloc.start()
    try:
        sol = kw_solve(problem, init=init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations >= 1
    assert peak <= 30.2 * 2**20


def test_solve_constant_mode_balance_at_solution():
    grid = GridSpec(32, 32)
    p = bumpy_two_sided(grid, w=0.4)
    sol = kw_solve(p)
    splus = p.plus_terms[0][0].values * np.exp(sol.f.values)
    sminus = p.minus_terms[0][0].values * np.exp(-sol.f.values)
    balance = float(np.mean(splus - sminus + p.w.values)) * UNIT.volume
    assert abs(balance) <= 1e-9 * UNIT.volume


def test_solve_rejects_a_non_finite_iterate_before_cg(monkeypatch):
    # Fields built inside the solve are not scanned; kw_solve checks each
    # iterate once, on the sup residual at the loop head. A start of
    # -1e305 at one sample overflows its Laplacian, and the residual with it.
    grid = GridSpec(32, 32)
    problem = KWProblem(0.01, ((const(grid, 1.0), 1.0),), (), const(grid, -1.0))
    start = np.zeros((32, 32))
    start[5, 7] = -1e305
    calls = []
    monkeypatch.setattr(kw_module, "solve_linearized", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError, match="finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            kw_solve(problem, init=ScalarField(UNIT, grid, start))
    assert calls == []


def test_solve_one_sided_plus():
    grid = GridSpec(32, 32)
    p = one_sided_plus(grid)
    A = p.plus_terms[0][0]
    sol = kw_solve(p)
    assert sol.classification is Classification.ONE_SIDED_PLUS
    assert sol.residual_sup <= 1e-10
    # balance: integral of A e^f must equal -integral(w) = 1
    assert abs(integrate(ScalarField(UNIT, grid, A.values * np.exp(sol.f.values))) - 1.0) <= 1e-9


def test_solve_rejects_zero_epsilon_and_unsolvable():
    grid = GridSpec(16, 16)
    with pytest.raises(ValueError):
        kw_solve(KWProblem(0.0, ((const(grid, 1.0), 1.0),), (), const(grid, -1.0)))
    with pytest.raises(Unsolvable):
        kw_solve(KWProblem(1.0, ((const(grid, 1.0), 1.0),), (), const(grid, 1.0)))


def test_solve_iteration_budget():
    grid = GridSpec(64, 64)
    p, _ = manufactured_problem(grid, 0.1)
    with pytest.raises(MaxIterExceeded):
        kw_solve(p, SolverConfig(max_newton=1))


# ---------------------------------------------------------------------------
# Pointwise limit (epsilon = 0)


def test_limit_trivial_zero():
    grid = GridSpec(16, 16)
    prof = kw_limit(symmetric_problem(grid, epsilon=0.0))
    assert sup_norm(prof.f) == 0.0
    assert prof.n_excluded == 0


def test_limit_closed_form_log_ratio():
    grid = GridSpec(32, 32)
    P = field_from_function(UNIT, grid, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * X))
    Q = field_from_function(UNIT, grid, lambda X, Y: 2.0 + np.cos(2 * np.pi * Y))
    p = KWProblem(0.0, ((P, 1.0),), ((Q, 1.0),), const(grid, 0.0))
    prof = kw_limit(p)
    expected = 0.5 * (np.log(Q.values) - np.log(P.values))
    assert np.abs(prof.f.values - expected).max() <= 1e-12


def test_limit_matches_bisection_oracle():
    grid = GridSpec(16, 16)
    rng = np.random.default_rng(3)
    terms_plus = tuple(
        (ScalarField(UNIT, grid, rng.uniform(0.2, 2.0, (16, 16))), alpha)
        for alpha in (1.0, 2.0, 0.5)
    )
    B = ScalarField(UNIT, grid, rng.uniform(0.5, 1.5, (16, 16)))
    w = ScalarField(UNIT, grid, rng.uniform(-1.0, 1.0, (16, 16)))
    p = KWProblem(0.0, terms_plus, ((B, 1.5),), w)
    prof = kw_limit(p)

    lo = np.full((16, 16), -20.0)
    hi = np.full((16, 16), 20.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = w.values.copy()
        for A, alpha in terms_plus:
            g = g + A.values * np.exp(alpha * mid)
        g = g - B.values * np.exp(-1.5 * mid)
        lo = np.where(g < 0, mid, lo)
        hi = np.where(g > 0, mid, hi)
    assert np.abs(prof.f.values - 0.5 * (lo + hi)).max() <= 1e-10


def test_limit_one_sided_and_noroot():
    grid = GridSpec(16, 16)
    one = const(grid, 1.0)
    prof = kw_limit(KWProblem(0.0, ((one, 1.0),), (), const(grid, -2.0)))
    assert np.abs(prof.f.values - np.log(2.0)).max() <= 1e-12
    with pytest.raises(NoRoot):
        kw_limit(KWProblem(0.0, ((one, 1.0),), (), const(grid, 1.0)))
    with pytest.raises(NoRoot):
        kw_limit(KWProblem(0.0, (), (), const(grid, 0.0)))


def test_limit_excludes_vanishing_coefficient_samples():
    grid = GridSpec(16, 16)
    vals = np.ones((16, 16))
    vals[3, 4] = 0.0
    P = ScalarField(UNIT, grid, vals)
    p = KWProblem(0.0, ((P, 1.0),), ((const(grid, 1.0), 1.0),), const(grid, 0.0))
    prof = kw_limit(p)
    assert prof.n_excluded == 1
    assert prof.excluded.weights[3, 4] == 1.0
    assert prof.f.values[3, 4] == 0.0


def test_limit_distance_nonincreasing_in_epsilon():
    grid = GridSpec(64, 64)
    p0 = bumpy_two_sided(grid, epsilon=0.0, w=0.0)
    limit = kw_limit(p0).f
    dists = []
    for eps in (0.4, 0.2, 0.1):
        sol = kw_solve(bumpy_two_sided(grid, epsilon=eps, w=0.0))
        dists.append(sup_norm(sol.f - limit))
    for a, b in zip(dists, dists[1:]):
        assert b <= 1.05 * a


def test_residual_and_energy_at_zero_epsilon(monkeypatch):
    # At epsilon = 0 neither reads a Laplacian: the limit profile's residual
    # is the pointwise equation, and the energy has no Dirichlet term.
    grid = GridSpec(32, 32)
    p = bumpy_two_sided(grid, epsilon=0.0)
    f = kw_limit(p).f
    calls = record_transforms(monkeypatch)
    assert sup_norm(kw_residual(p, f)) <= 1e-14
    ((A, _),), ((B, _),) = p.plus_terms, p.minus_terms
    bulk = p.w.values * f.values + A.values * np.exp(f.values) + B.values * np.exp(-f.values)
    assert kw_energy(p, f) == integrate(ScalarField(UNIT, grid, bulk))
    assert calls == []


def test_limit_memory():
    # Four smooth terms at 384^2 (each grid is 1.1 MiB). kw_limit solves
    # blocks of 42 rows, so beside the profile, the exclusion mask and its
    # float weights it holds only block-sized arrays: 3.44 MiB measured,
    # bounded at that plus 0.5 MiB. A solve over the whole grid at once
    # holds about 14 grids (15.6 MiB).
    grid = GridSpec(384, 384)

    def coeff(a, b):
        return field_from_function(
            UNIT, grid, lambda X, Y: 1.0 + 0.5 * np.sin(2 * np.pi * (a * X + b * Y))
        )

    p = KWProblem(
        0.0,
        ((coeff(1, 0), 2.0), (coeff(0, 1), 1.0)),
        ((coeff(1, 1), 1.0), (coeff(1, -1), 2.0)),
        const(grid, 0.0),
    )
    tracemalloc.start()
    try:
        prof = kw_limit(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.n_excluded == 0
    assert peak <= 3.94 * 2**20


def bisection_root(w, terms):
    """Oracle: 200 bisections of g(t) = w + sum sign(k) C e^{kt} on [-40, 40]."""
    lo = np.full(w.shape, -40.0)
    hi = np.full(w.shape, 40.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = w + sum(np.copysign(c, k) * np.exp(k * mid) for c, k in terms)
        lo = np.where(g < 0, mid, lo)
        hi = np.where(g > 0, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("shape, blocks", [((256, 128), 2), ((384, 384), 10)])
def test_limit_over_several_blocks(shape, blocks):
    nx, ny = shape
    rows = kw_module._ROOT_BLOCK // ny
    assert -(-nx // rows) == blocks
    grid = GridSpec(nx, ny)
    rng = np.random.default_rng(nx + ny)

    def field(lo, hi):
        return ScalarField(UNIT, grid, rng.uniform(lo, hi, shape))

    # Two-sided: the plus side vanishes at one sample of the first block
    # and one of the last.
    a = rng.uniform(0.2, 2.0, (2, nx, ny))
    a[:, 1, 2] = a[:, -1, -3] = 0.0
    plus = ((ScalarField(UNIT, grid, a[0]), 1.0), (ScalarField(UNIT, grid, a[1]), 2.0))
    minus = ((field(0.5, 1.5), 1.5),)
    w = field(-1.0, 1.0)
    prof = kw_limit(KWProblem(0.0, plus, minus, w))
    assert prof.n_excluded == 2
    assert prof.excluded.weights[1, 2] == prof.excluded.weights[-1, -3] == 1.0
    assert prof.f.values[1, 2] == prof.f.values[-1, -3] == 0.0
    keep = prof.excluded.weights == 0.0
    terms = [(c.values[keep], k) for c, k in plus] + [(c.values[keep], -k) for c, k in minus]
    oracle = bisection_root(w.values[keep], terms)
    assert np.abs(prof.f.values[keep] - oracle).max() <= 1e-12

    # One-sided: a wrong-signed w only in the last block has no root.
    wv = -rng.uniform(0.1, 2.0, shape)
    wv[-1, -1] = 0.5
    with pytest.raises(NoRoot):
        kw_limit(KWProblem(0.0, plus[1:], (), ScalarField(UNIT, grid, wv)))


@pytest.mark.parametrize("seed", range(4))
def test_scalar_root_matches_bisection_oracle_on_random_signed_terms(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    exponents = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], size=rng.integers(1, 6))
    signs = rng.choice([-1.0, 1.0], size=exponents.size)
    terms = [(rng.uniform(0.05, 5.0, n), s * k) for s, k in zip(signs, exponents)]
    # Terms of one sign need w of the other; mixed signs take any w.
    one_sided = (signs == signs[0]).all()
    w_sign = -signs[0] if one_sided else rng.choice([-1.0, 1.0], size=n)
    w = w_sign * rng.uniform(0.1, 5.0, n)
    root = kw_module._scalar_root(w, terms)
    assert np.abs(root - bisection_root(w, terms)).max() <= 1e-12


@pytest.mark.parametrize(
    "amplitude, w", [(1e-200, -1.0), (1e200, -1.0), (1e-290, -1e5)]
)
def test_limit_far_roots(amplitude, w):
    # A e^f + w = 0 has the root log(-w / A), hundreds of units from 0.
    grid = GridSpec(8, 8)
    prof = kw_limit(KWProblem(0.0, ((const(grid, amplitude), 1.0),), (), const(grid, w)))
    exact = np.log(-w) - np.log(amplitude)
    assert np.abs(prof.f.values - exact).max() <= 1e-12 * abs(exact)


def test_limit_raises_at_the_root_iteration_cap(monkeypatch):
    grid = GridSpec(16, 16)
    p = bumpy_two_sided(grid, epsilon=0.0, w=0.25)
    monkeypatch.setattr(kw_module, "_ROOT_MAX_ITER", 2)
    with pytest.raises(MaxIterExceeded):
        kw_limit(p)


def test_pin_keeps_a_balanced_field_exactly():
    # f = 0 balances 1 * e^f - 1: the pin returns exactly 0, not a roundoff shift.
    grid = GridSpec(16, 16)
    p = KWProblem(0.1, ((const(grid, 1.0), 1.0),), (), const(grid, -1.0))
    assert kw_module._Evaluation(p, const(grid, 0.0)).pin() == 0.0


def test_solve_one_sided_far_balance_shift():
    # The balance shift log(1e250) = 575.6 is reached by the pin alone.
    grid = GridSpec(16, 16)
    p = KWProblem(0.1, ((const(grid, 1e-250), 1.0),), (), const(grid, -1.0))
    sol = kw_solve(p)
    assert sol.iterations == 0
    assert np.abs(sol.f.values - 250.0 * np.log(10.0)).max() <= 1e-12 * 575.6


# ---------------------------------------------------------------------------
# Continuation


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(())
    with pytest.raises(ValueError):
        ContinuationSchedule((0.2, 0.2))
    with pytest.raises(ValueError):
        ContinuationSchedule((0.1, 0.2))
    with pytest.raises(ValueError):
        ContinuationSchedule((0.2, -0.1))
    for min_grid, max_grid in ((17, 4096), (24, 4096), (16, 6), (64, 32)):
        with pytest.raises(ValueError):
            ContinuationSchedule((0.2,), min_grid, max_grid)
    sched = ContinuationSchedule((0.4, 0.2), max_grid=16)
    with pytest.raises(ValueError):
        # 16 points on the unit torus cannot resolve eps = 0.2 cores
        for eps in sched.epsilons:
            sched.grid(UNIT, eps)


def test_schedule_grid():
    sched = ContinuationSchedule((0.1,))
    assert sched.grid(UNIT, 0.1) == GridSpec(64, 64)
    assert sched.grid(UNIT, 10.0) == GridSpec(16, 16)
    assert ContinuationSchedule((0.1,), min_grid=512).grid(UNIT, 0.1) == GridSpec(512, 512)
    with pytest.raises(ValueError):
        ContinuationSchedule((1e-5,), max_grid=1024).grid(UNIT, 1e-5)


def test_schedule_grid_keeps_its_floor_and_finer_doubles_to_max_grid():
    sched = ContinuationSchedule((0.1,), max_grid=128)
    # Never coarser than the floor, and refined past it when the scale asks.
    assert sched.grid(UNIT, 10.0, GridSpec(64, 64)) == GridSpec(64, 64)
    assert sched.grid(UNIT, 0.1, GridSpec(32, 32)) == GridSpec(64, 64)
    geo = TorusGeometry(1.0, 2.0)
    assert sched.grid(geo, 0.5) == GridSpec(16, 16)
    assert sched.grid(geo, 0.5, GridSpec(32, 16)) == GridSpec(32, 16)
    # Each axis doubles up to max_grid; at max_grid on both there is none.
    assert sched.finer(GridSpec(32, 64)) == GridSpec(64, 128)
    assert sched.finer(GridSpec(64, 128)) == GridSpec(128, 128)
    assert sched.finer(GridSpec(128, 128)) is None


def test_schedule_grids_resolve_every_stage():
    geo = TorusGeometry(1.0, 2.0)
    sched = ContinuationSchedule((0.5, 0.3, 0.2, 0.125, 0.1, 0.05, 0.03, 0.0125), 32)
    for eps in sched.epsilons:
        grid = sched.grid(geo, eps)
        hx, hy = grid.spacing(geo)
        for n in (grid.nx, grid.ny):
            assert n >= sched.min_grid and n & (n - 1) == 0
        assert hx <= eps / 4 and hy <= eps / 4


def _fixed_grid_mixed(eps):
    return MixedVortexSpec(
        UNIT,
        GridSpec(64, 64),
        Divisor(((0.25, 0.25),), (1,)),
        Divisor(((0.75, 0.75),), (1,)),
        epsilon=eps,
    )


def _fixed_grid_schedule(epsilons):
    # Every stage on the 64^2 grid, which resolves eps >= 0.0625.
    return ContinuationSchedule(epsilons, min_grid=64, max_grid=64)


def test_continuation_single_entry_matches_direct_solve():
    report = adiabatic_sweep(_fixed_grid_mixed(0.2), _fixed_grid_schedule((0.2,)))
    direct = solve_and_report(_fixed_grid_mixed(0.2))
    assert len(report.stages) == 1
    assert np.array_equal(report.final_solution.f.values, direct.final_solution.f.values)
    swept, single = report.stages[0], direct.stages[0]
    swept.seconds = single.seconds = 0.0
    assert swept == single
    assert report.order_fits == direct.order_fits
    assert report.points == direct.points


def test_continuation_warm_start_saves_iterations():
    sched = _fixed_grid_schedule((0.4, 0.2, 0.1))
    report = adiabatic_sweep(_fixed_grid_mixed(0.1), sched)
    report.raise_if_failed()
    for stage in report.stages[1:]:
        cold = kw_solve(reduce_any(_fixed_grid_mixed(stage.epsilon)))
        assert stage.newton.iterations <= cold.iterations


def test_continuation_warm_and_cold_agree():
    sched = _fixed_grid_schedule((0.4, 0.2, 0.1))
    report = adiabatic_sweep(_fixed_grid_mixed(0.1), sched)
    report.raise_if_failed()
    cold = kw_solve(reduce_any(_fixed_grid_mixed(0.1)))
    assert sup_norm(report.final_solution.f - cold.f) <= 1e-8


# ---------------------------------------------------------------------------
# A priori probes


def test_apriori_constant_family_flat():
    grid = GridSpec(16, 16)
    for e in (0.4, 0.2):
        row = interior_bounds(kw_solve(symmetric_problem(grid, epsilon=e, w=0.6)).f)
        assert row["sup_grad_f"] <= 1e-10
        assert abs(row["sup_f"] - np.arcsinh(0.3)) <= 1e-10


def test_apriori_manufactured_family_epsilon_independent():
    grid = GridSpec(64, 64)
    sols = [kw_solve(manufactured_problem(grid, e)[0]) for e in (0.4, 0.2, 0.1)]
    mask = RegionMask.excluding_discs(UNIT, grid, [(0.5, 0.5)], 0.1)
    rows = [interior_bounds(sol.f, mask) for sol in sols]
    base = rows[0]
    assert set(base) == {"sup_f", "sup_grad_f", "l2_exp_plus", "l2_exp_minus"}
    for row in rows[1:]:
        for key, value in base.items():
            assert abs(row[key] - value) <= 1e-8


def test_interior_bounds_default_to_whole_torus():
    grid = GridSpec(16, 16)
    f = kw_solve(symmetric_problem(grid, epsilon=0.3, w=0.2)).f
    row = interior_bounds(f)
    assert row == interior_bounds(f, RegionMask.full(UNIT, grid))
    assert np.isfinite(row["l2_exp_minus"])


# ---------------------------------------------------------------------------
# Scalar inequality


def test_young_bound_amgm_case():
    K, xi0 = young_bound(1.0, 1.0, 4.0, 9.0)
    assert K == pytest.approx(2.0, abs=1e-14)
    # x/xi + xi y >= 2 sqrt(x y)
    assert 4.0 / xi0 + xi0 * 9.0 == pytest.approx(2.0 * 6.0, rel=1e-12)


def test_young_bound_paper_constant():
    K, xi0 = young_bound(2.0, 1.0, 1.0, 1.0)
    assert xi0 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert K == pytest.approx(2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0), rel=1e-14)
    assert xi0 ** (-2.0) + xi0 == pytest.approx(K, rel=1e-14)


def test_young_bound_rejects_nonpositive():
    for args in ((0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(ValidationError):
            young_bound(*args)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.1, 10.0),
    b=st.floats(0.1, 10.0),
    x=st.floats(0.1, 10.0),
    y=st.floats(0.1, 10.0),
    t=st.floats(-3.0, 3.0),
)
def test_young_bound_inequality_holds(a, b, x, y, t):
    K, xi0 = young_bound(a, b, x, y)
    s = a + b
    floor = K * x ** (b / s) * y ** (a / s)
    xi = xi0 * 10.0**t
    val = x * xi ** (-a) + y * xi**b
    assert val >= floor * (1.0 - 1e-12)
    # xi0 is a local (hence global, by convexity in log xi) minimizer
    for bump in (0.99, 1.01):
        xv = xi0 * bump
        assert x * xv ** (-a) + y * xv**b >= floor * (1.0 - 1e-12)
    assert x * xi0 ** (-a) + y * xi0**b == pytest.approx(floor, rel=1e-10)


# ---------------------------------------------------------------------------
# Resampled warm starts keep solutions consistent across grids


def test_resampled_warm_start_two_grids():
    coarse, fine = GridSpec(32, 32), GridSpec(64, 64)
    p_c, _ = manufactured_problem(coarse, 0.2)
    p_f, fs = manufactured_problem(fine, 0.2)
    warm = resample(kw_solve(p_c).f, fine)
    sol = kw_solve(p_f, init=warm)
    assert sup_norm(sol.f - fs) <= 1e-8
