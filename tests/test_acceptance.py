"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Every tolerance here is load-bearing; sweep configurations are
chosen to satisfy the stated point-separation and grid-resolution rules.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import bump_field, field_from_function, raise_if_failed
from vortexlab import (
    ClassicalVortexSpec,
    ContinuationSchedule,
    Divisor,
    GeneralizedSpec,
    GeneralizedTerm,
    GridSpec,
    MixedVortexSpec,
    ScalarField,
    TorusGeometry,
    adiabatic_sweep,
    constant_field,
    cutoff_ratio_sup,
    integrate,
    l2_norm,
    laplacian,
    mixed_limit_phi_sq,
    reconstruct,
    sup_norm,
    vanishing_order_fit,
)
from vortexlab.kw import (
    KWProblem,
    kw_limit,
    kw_solve,
    young_bound,
)
from vortexlab.fields import _excluding_discs
from vortexlab.vortex import reduce_any

UNIT = TorusGeometry(1.0, 1.0)
SCHEDULE = (0.4, 0.2, 0.1, 0.05, 0.025)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _monotone(history) -> bool:
    h = np.asarray(history)
    return bool((np.diff(h) <= 1e-14 * (1.0 + np.abs(h[:-1]))).all())


def _manufactured(grid: GridSpec, epsilon: float):
    def f_star(X, Y):
        return 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)

    fs = field_from_function(UNIT, grid, f_star)
    w = epsilon * laplacian(fs).values - np.exp(fs.values) + np.exp(-fs.values)
    problem = KWProblem(
        epsilon=epsilon,
        plus_terms=((constant_field(UNIT, grid, 1.0), 1.0),),
        minus_terms=((constant_field(UNIT, grid, 1.0), 1.0),),
        w=ScalarField(UNIT, grid, w),
    )
    return problem, fs


@pytest.fixture(scope="module")
def classical_sweep():
    """Criterion 3 configuration: D = 1*x0 + 2*x1, separation 0.707."""
    divisor = Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 2))
    spec = ClassicalVortexSpec(UNIT, GridSpec(16, 16), divisor, SCHEDULE[-1])
    t0 = time.perf_counter()
    report = adiabatic_sweep(spec, ContinuationSchedule(SCHEDULE))
    report.seconds = time.perf_counter() - t0
    return report


def _mixed_spec(divisor_plus, divisor_minus):
    return MixedVortexSpec(
        UNIT, GridSpec(16, 16), divisor_plus, divisor_minus, tau=0.0, epsilon=SCHEDULE[-1]
    )


@pytest.fixture(scope="module")
def mixed_sweep():
    """Criterion 4 configuration: D+ = p + q, D- = r, distinct points."""
    spec = _mixed_spec(
        Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 1)),
        Divisor(((0.75, 0.25),), (1,)),
    )
    t0 = time.perf_counter()
    report = adiabatic_sweep(spec, ContinuationSchedule(SCHEDULE))
    report.seconds = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def colocated_sweep():
    """Criterion 4, co-located test: D+ = 2p, D- = 1p."""
    spec = _mixed_spec(Divisor(((0.5, 0.5),), (2,)), Divisor(((0.5, 0.5),), (1,)))
    return adiabatic_sweep(spec, ContinuationSchedule(SCHEDULE))


def test_acceptance_01_manufactured_recovery():
    grid = GridSpec(128, 128)
    worst_err = worst_res = 0.0
    worst_iters = 0
    worst_time = 0.0
    monotone = True
    for eps in (1.0, 0.1, 0.01):
        problem, fs = _manufactured(grid, eps)
        t0 = time.perf_counter()
        sol = kw_solve(problem)
        dt = time.perf_counter() - t0
        worst_err = max(worst_err, sup_norm(sol.f - fs))
        worst_res = max(worst_res, sol.residual_sup)
        worst_iters = max(worst_iters, sol.iterations)
        worst_time = max(worst_time, dt)
        monotone = monotone and _monotone(sol.newton.energy_history)
    ok = (
        worst_err <= 1e-8
        and worst_res <= 1e-10
        and worst_iters <= 25
        and worst_time < 5.0
        and monotone
    )
    _line(
        1,
        ok,
        f"manufactured recovery: sup err {worst_err:.2e} (<=1e-8), "
        f"residual {worst_res:.2e} (<=1e-10), iters {worst_iters} (<=25), "
        f"{worst_time:.2f}s/solve (<5s)",
    )
    assert ok


def test_acceptance_02_bradlow_identity():
    grid = GridSpec(256, 256)
    cases = {
        1: Divisor(((0.5, 0.5),), (1,)),
        2: Divisor(((0.3, 0.3), (0.7, 0.6)), (1, 1)),
        3: Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 2)),
    }
    t0 = time.perf_counter()
    worst = 0.0
    monotone = True
    for d, divisor in cases.items():
        spec = ClassicalVortexSpec(UNIT, grid, divisor, 0.2)
        sol = kw_solve(reduce_any(spec))
        recon = reconstruct(spec, sol.f)
        deficit = integrate(1.0 - recon.phi_sq[0]) - 2.0 * math.pi * d * 0.04
        worst = max(worst, abs(deficit))
        monotone = monotone and _monotone(sol.newton.energy_history)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 * UNIT.volume and elapsed < 30.0 and monotone
    _line(
        2,
        ok,
        f"Bradlow identity d in {{1,2,3}}: max residual {worst:.2e} "
        f"(<=1e-6), {elapsed:.1f}s (<30s)",
    )
    assert ok


def test_acceptance_03_curvature_concentration(classical_sweep):
    report = classical_sweep
    raise_if_failed(report)
    devs = [s.sup_deviation for s in report.stages]
    final = report.stages[-1]
    mass_err = max(
        abs(final.curvature_masses[i] - (1.0, 2.0)[i]) for i in range(2)
    )
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    ok = (
        mass_err <= 0.02
        and decreasing
        and devs[-1] <= 0.05
        and report.seconds < 600.0
    )
    _line(
        3,
        ok,
        f"curvature concentration: final masses "
        f"{[round(m, 4) for m in final.curvature_masses]} (err {mass_err:.3f} "
        f"<=0.02), deviations {[round(d, 4) for d in devs]} strictly "
        f"decreasing={decreasing}, final {devs[-1]:.4f} (<=0.05), "
        f"{report.seconds:.0f}s (<600s)",
    )
    assert ok


def test_acceptance_04_mixed_sign_limit(mixed_sweep, colocated_sweep):
    raise_if_failed(mixed_sweep)
    raise_if_failed(colocated_sweep)
    devs = [s.sup_deviation for s in mixed_sweep.stages]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    mass_p = mixed_sweep.stages[-1].curvature_masses[0]
    mass_co = colocated_sweep.stages[-1].curvature_masses[0]
    elapsed = mixed_sweep.seconds
    ok = (
        decreasing
        and devs[-1] <= 0.05
        and abs(mass_p - 0.5) <= 0.02
        and abs(mass_co - 0.5) <= 0.02
        and elapsed < 600.0
    )
    _line(
        4,
        ok,
        f"mixed-sign limit: deviations {[round(d, 4) for d in devs]} "
        f"decreasing={decreasing}, final {devs[-1]:.4f} (<=0.05); mass at p "
        f"{mass_p:.4f} (0.5±0.02); co-located mass {mass_co:.4f} (0.5±0.02); "
        f"{elapsed:.0f}s (<600s)",
    )
    assert ok


def test_acceptance_05_uniform_interior_bounds(mixed_sweep):
    stages = mixed_sweep.stages
    final = stages[-1]
    sup_ratio = max(s.sup_f for s in stages) / final.sup_f
    grad_ratio = max(s.sup_grad_f for s in stages) / final.sup_grad_f

    # The eps = 0 limit: the final reduced problem with w = tau.
    spec = mixed_sweep.final_spec
    w0 = constant_field(UNIT, spec.grid, spec.tau)
    f0 = kw_limit(dataclasses.replace(reduce_any(spec), epsilon=0.0, w=w0))
    region = _excluding_discs(UNIT, spec.grid, [p.point for p in mixed_sweep.points], 0.15)
    limit_plus = l2_norm(ScalarField(UNIT, spec.grid, np.exp(f0.values)), region)
    limit_minus = l2_norm(ScalarField(UNIT, spec.grid, np.exp(-f0.values)), region)
    plus_ratio = max(s.l2_exp_plus for s in stages) / limit_plus
    minus_ratio = max(s.l2_exp_minus for s in stages) / limit_minus

    ok = sup_ratio <= 1.5 and grad_ratio <= 1.5 and plus_ratio <= 2.0 and minus_ratio <= 2.0
    _line(
        5,
        ok,
        f"uniform interior bounds: sup_f ratio {sup_ratio:.3f} (<=1.5), "
        f"sup_grad_f ratio {grad_ratio:.3f} (<=1.5), L2 exp(+f) ratio "
        f"{plus_ratio:.3f} (<=2), L2 exp(-f) ratio {minus_ratio:.3f} (<=2)",
    )
    assert ok


def test_acceptance_06_vanishing_orders(mixed_sweep, colocated_sweep):
    # simple zeros of the three-point family: (m+ + m-)/2 = 0.5 at each
    orders = mixed_sweep.order_fits
    simple_ok = all(abs(v - 0.5) <= 0.05 * 0.5 for v in orders)
    # co-located point: (2+1)/2 = 1.5, strictly above |2-1|/2 = 0.5
    order_co = vanishing_order_fit(
        mixed_limit_phi_sq(colocated_sweep.final_spec), (0.5, 0.5), 0.01, 0.05
    )
    co_ok = abs(order_co - 1.5) <= 0.05 * 1.5 and order_co > 0.5
    lower_ok = all(v >= 0.5 - 0.05 * 0.5 for v in orders)
    ok = simple_ok and co_ok and lower_ok
    _line(
        6,
        ok,
        f"vanishing orders: simple fits {[round(v, 4) for v in orders]} "
        f"(0.5 within 5%), co-located fit {order_co:.4f} (1.5 within 5%, "
        f"> 0.5)",
    )
    assert ok


def test_acceptance_07_generalized_identity_family():
    rng = np.random.default_rng(20260825)
    # random small divisors with pairwise separation >= 0.2
    pts = []
    while len(pts) < 3:
        cand = tuple(rng.uniform(0.1, 0.9, 2).round(4))
        if all(math.hypot(cand[0] - p[0], cand[1] - p[1]) >= 0.2 for p in pts):
            pts.append(cand)
    terms = tuple(
        GeneralizedTerm(Divisor((pt,), (1,)), k)
        for pt, k in zip(pts, (2, 1, -1))
    )
    worst = 0.0
    monotone = True
    for eps in (0.2, 0.1):
        spec = GeneralizedSpec(UNIT, GridSpec(128, 128), terms, tau=0.0, epsilon=eps)
        sol = kw_solve(reduce_any(spec))
        recon = reconstruct(spec, sol.f)
        total = sum(t.weight * integrate(p) for t, p in zip(spec.terms, recon.phi_sq))
        resid = total + 0.0 * UNIT.volume + 2 * math.pi * float(spec.degree) * eps**2
        worst = max(worst, abs(resid))
        monotone = monotone and _monotone(sol.newton.energy_history)
    ok = worst <= 1e-6 * UNIT.volume and monotone
    _line(
        7,
        ok,
        f"generalized identity k=(2,1,-1) at eps in {{0.2, 0.1}}: max "
        f"residual {worst:.2e} (<=1e-6*Vol), points {pts}",
    )
    assert ok


def test_acceptance_08_convexity_uniqueness(mixed_sweep, classical_sweep, colocated_sweep):
    spec = mixed_sweep.final_spec
    problem = reduce_any(spec)
    rng = np.random.default_rng(11)
    init = ScalarField(
        UNIT, spec.grid, rng.uniform(-1.0, 1.0, (spec.grid.nx, spec.grid.ny))
    )
    sol_zero = kw_solve(problem)
    sol_rand = kw_solve(problem, init=init)
    dist = sup_norm(sol_zero.f - sol_rand.f)

    histories = [sol_zero.newton.energy_history, sol_rand.newton.energy_history]
    for report in (mixed_sweep, classical_sweep, colocated_sweep):
        histories.extend(s.newton.energy_history for s in report.stages)
    monotone = all(_monotone(h) for h in histories)

    ok = dist <= 1e-8 and monotone
    _line(
        8,
        ok,
        f"convexity/uniqueness: double-init sup distance {dist:.2e} (<=1e-8); "
        f"{len(histories)} Newton energy histories monotone={monotone}",
    )
    assert ok


def test_acceptance_09_scalar_inequality():
    rng = np.random.default_rng(7)
    n_params, n_xi = 10**4, 10**2
    abxy = rng.uniform(0.1, 10.0, (n_params, 4))
    t = np.linspace(-1.0, 1.0, n_xi)  # xi = xi0 * 10^t
    worst_rel = -np.inf
    argmin_ok = True
    min_at_center = 0
    for a, b, x, y in abxy:
        K, xi0 = young_bound(a, b, x, y)
        s = a + b
        floor = K * x ** (b / s) * y ** (a / s)
        xi = xi0 * 10.0**t
        vals = x * xi ** (-a) + y * xi**b
        worst_rel = max(worst_rel, float(((floor - vals) / floor).max()))
        k = int(np.argmin(vals))
        # the sampled minimum must sit at a grid neighbor of xi0 (t = 0)
        if abs(t[k]) > (t[1] - t[0]) + 1e-15:
            argmin_ok = False
        else:
            min_at_center += 1
    ok = worst_rel <= 1e-12 and argmin_ok
    _line(
        9,
        ok,
        f"scalar inequality 1e4 x 1e2 samples: worst relative violation "
        f"{worst_rel:.2e} (<=1e-12), minimizer at xi0 within grid step in "
        f"{min_at_center}/{n_params} cases",
    )
    assert ok


def test_acceptance_10_cutoff_bound_scaling():
    grid = GridSpec(256, 256)
    bump = bump_field(UNIT, grid, (0.5, 0.5), 0.15, 0.35)
    alphas = (1.5, 1.75, 1.9)
    sups = [cutoff_ratio_sup(bump, a) for a in alphas]
    ratios = [sups[i + 1] / sups[i] for i in range(2)]
    quartic = [((2 - alphas[i + 1]) / (2 - alphas[i])) ** (-4) for i in range(2)]
    ok = all(r <= 1.05 * q for r, q in zip(ratios, quartic))
    _line(
        10,
        ok,
        f"cutoff scaling: measured ratios {[round(r, 3) for r in ratios]} vs "
        f"1.05x quartic {[round(1.05 * q, 3) for q in quartic]}",
    )
    assert ok
