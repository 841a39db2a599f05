"""Vortex reductions, gauge reconstruction, and adiabatic sweeps."""

import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import vortexlab.kw as kw_module
import vortexlab.vortex as vortex_module
from helpers import (
    bump_field,
    empty_caches,
    field_from_function,
    meshgrid_distance,
    raise_if_failed,
    record_transforms,
    trig_interpolant,
)
from vortexlab import (
    ClassicalVortexSpec,
    Divisor,
    GeneralizedSpec,
    GeneralizedTerm,
    GridSpec,
    MixedVortexSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    adiabatic_sweep,
    constant_field,
    curvature_mass,
    integrate,
    mixed_limit_phi_sq,
    reconstruct,
    reduce_any,
    resample,
    solve_and_report,
    sup_norm,
    vanishing_order_fit,
)
from vortexlab.errors import (
    BradlowViolation,
    DegenerateFit,
    MaxIterExceeded,
    OverlappingBump,
    UnderResolved,
    Unsolvable,
    ValidationError,
    VortexLabError,
)
from vortexlab.fields import spectral_tail
from vortexlab.kw import TAIL_TOL, SolverConfig, kw_limit, kw_solve
from vortexlab.greens import NEGATIVE_SENTINEL, divisor_potential
from vortexlab.vortex import (
    MASK_RADIUS,
    ContinuationSchedule,
    _copy,
    _identities_of,
    _on_lattice,
    _planar_profile,
    diagnostics_report,
)

UNIT = TorusGeometry(1.0, 1.0)


def identities(spec, f):
    """Residuals of the integrated curvature equations at the solution ``f``."""
    return _identities_of(spec, reconstruct(spec, f))


def classical(points, mults, epsilon, n=128, geometry=UNIT):
    return ClassicalVortexSpec(
        geometry, GridSpec(n, n), Divisor(tuple(points), tuple(mults)), epsilon
    )


def mixed_pair_spec(epsilon, n=128, **kw):
    return MixedVortexSpec(
        UNIT,
        GridSpec(n, n),
        Divisor(((0.25, 0.25),), (1,)),
        Divisor(((0.75, 0.75),), (1,)),
        epsilon=epsilon,
        **kw,
    )


@pytest.fixture(scope="module")
def classical_d1():
    spec = classical([(0.5, 0.5)], [1], 0.3)
    return spec, kw_solve(reduce_any(spec))


@pytest.fixture(scope="module")
def classical_d2_small():
    spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 1], 0.05, n=256)
    return spec, kw_solve(reduce_any(spec))


@pytest.fixture(scope="module")
def mixed_pair():
    spec = mixed_pair_spec(0.2)
    return spec, kw_solve(reduce_any(spec))


# ---------------------------------------------------------------------------
# Spec validation


def test_bradlow_bound_rejected_at_construction():
    eps = math.sqrt(UNIT.volume / (2.0 * math.pi)) + 0.01
    with pytest.raises(BradlowViolation):
        classical([(0.5, 0.5)], [1], eps)
    # just inside the bound is fine
    classical([(0.5, 0.5)], [1], eps - 0.02)


def test_specs_require_effective_divisors_and_positive_scales():
    with pytest.raises(ValueError):
        classical([(0.5, 0.5)], [-1], 0.1)
    with pytest.raises(ValueError):
        classical([(0.5, 0.5)], [1], 0.0)
    with pytest.raises(ValueError):
        mixed_pair_spec(0.2, scale_plus=0.0)
    with pytest.raises(ValueError):
        mixed_pair_spec(-0.1)


def test_specs_need_a_positive_epsilon():
    # The eps -> 0 limit is a reduced problem for kw_limit, not a spec.
    term = GeneralizedTerm(Divisor(((0.3, 0.3),), (1,)), 1)
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        mixed_pair_spec(0.0)
    with pytest.raises(ValidationError, match="epsilon must be positive"):
        GeneralizedSpec(UNIT, GridSpec(32, 32), (term,), tau=-1.0, epsilon=0.0)
    with pytest.raises(TypeError, match="epsilon"):
        MixedVortexSpec(UNIT, GridSpec(32, 32), Divisor((), ()), Divisor((), ()))


def test_mixed_degree_bookkeeping():
    spec = mixed_pair_spec(0.1)
    assert spec.degree == Fraction(0)
    with pytest.warns(UserWarning):
        spec = mixed_pair_spec(0.1, degree=1)
    assert spec.degree == Fraction(1)


def test_mixed_degree_warning_names_the_caller_once():
    with pytest.warns(UserWarning) as record:
        spec = mixed_pair_spec(0.1, n=16, degree=1)
    assert [r.filename for r in record] == [__file__]
    # The sweep's own copies (stages, eps = 0 limit, order fits) stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raise_if_failed(adiabatic_sweep(spec, ContinuationSchedule((0.4, 0.2), 16, 32)))


def test_generalized_solvability_dichotomy():
    term = lambda pt, k: GeneralizedTerm(Divisor(((pt),), (1,)), k)
    with pytest.raises(Unsolvable):
        GeneralizedSpec(UNIT, GridSpec(32, 32), (term((0.3, 0.3), 1),), tau=0.0, epsilon=0.1)
    # all-positive weights with tau < 0 are fine
    GeneralizedSpec(UNIT, GridSpec(32, 32), (term((0.3, 0.3), 1),), tau=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        GeneralizedSpec(UNIT, GridSpec(32, 32), (), tau=-1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        GeneralizedTerm(Divisor(((0.3, 0.3),), (1,)), 0)


def test_generalized_positive_weights_need_a_negative_constant():
    # 2 pi d eps^2 / vol + tau = 2 pi 0.25 - 0.1 > 0: the reduced problem
    # cannot balance, although tau < 0.
    term = GeneralizedTerm(Divisor(((0.3, 0.3),), (1,)), 1)
    with pytest.raises(Unsolvable, match="2 pi d eps"):
        GeneralizedSpec(UNIT, GridSpec(32, 32), (term,), tau=-0.1, epsilon=0.5)
    GeneralizedSpec(UNIT, GridSpec(32, 32), (term,), tau=-0.1, epsilon=0.1)


def test_generalized_negative_weights_solve_with_a_positive_constant():
    # The f -> -f mirror of the all-positive case: one-sided with minus
    # terms only, so 2 pi d eps^2 / vol + tau must be positive.
    term = GeneralizedTerm(Divisor(((0.3, 0.4),), (1,)), -1)
    spec = GeneralizedSpec(UNIT, GridSpec(64, 64), (term,), tau=1.0, epsilon=0.2)
    report = solve_and_report(spec)
    assert report.error is None
    (stage,) = report.stages
    assert abs(stage.identity_residuals["identity"]) <= 1e-6 * UNIT.volume
    assert stage.crosscheck_gap is None


@pytest.mark.parametrize(
    "tau, epsilon", [(-1.0, 0.2), (2.0 * math.pi * 0.2**2, 0.2), (0.1, 0.2)]
)
def test_generalized_negative_weights_need_a_positive_constant(tau, epsilon):
    # The degree is -1, so the constant -2 pi eps^2 + tau is <= 0 in each
    # case (exactly 0 in the second), although tau > 0 in the last two.
    term = GeneralizedTerm(Divisor(((0.3, 0.4),), (1,)), -1)
    with pytest.raises(Unsolvable, match="2 pi d eps"):
        GeneralizedSpec(UNIT, GridSpec(32, 32), (term,), tau=tau, epsilon=epsilon)


def test_generalized_degree_default():
    terms = (
        GeneralizedTerm(Divisor(((0.2, 0.3),), (1,)), 2),
        GeneralizedTerm(Divisor(((0.7, 0.6),), (1,)), 1),
        GeneralizedTerm(Divisor(((0.5, 0.1),), (1,)), -1),
    )
    spec = GeneralizedSpec(UNIT, GridSpec(32, 32), terms, tau=0.0, epsilon=0.1)
    assert spec.degree == Fraction(1, 3)


def test_mean_normalization():
    spec_mean = mixed_pair_spec(0.2, scale_plus=0.7)
    Pm = reduce_any(spec_mean).plus_terms[0][0]
    assert abs(float(Pm.values.mean()) - 0.7) <= 1e-12


# ---------------------------------------------------------------------------
# Classical model


def test_classical_vacuum_is_flat():
    spec = ClassicalVortexSpec(UNIT, GridSpec(32, 32), Divisor((), ()), 0.3)
    sol = kw_solve(reduce_any(spec))
    recon = reconstruct(spec, sol.f)
    assert sup_norm(recon.phi_sq[0] - 1.0) <= 1e-12
    assert sup_norm(recon.curvature) <= 1e-10
    assert sup_norm(recon.curvature_crosscheck) <= 1e-10
    ids = identities(spec, sol.f)
    assert abs(ids["identity"]) <= 1e-12
    assert abs(ids["chern"]) <= 1e-12


def test_classical_identity_single_vortex(classical_d1):
    spec, sol = classical_d1
    recon = reconstruct(spec, sol.f)
    deficit = integrate(1.0 - recon.phi_sq[0])
    assert abs(deficit - 0.18 * math.pi) <= 1e-6


def test_classical_chern_number(classical_d1):
    spec, sol = classical_d1
    ids = identities(spec, sol.f)
    assert abs(ids["chern"]) <= 1e-8  # residual of integral(iLF)/2pi - d
    assert ids["bradlow"] == ids["identity"]


def test_classical_curvature_formulas_agree(classical_d1):
    spec, sol = classical_d1
    recon = reconstruct(spec, sol.f)
    diff = sup_norm(recon.curvature - recon.curvature_crosscheck)
    assert diff <= 10 * 1e-10 / (2 * spec.epsilon**2)


@pytest.mark.parametrize("epsilon, n", [(0.1, 128), (0.025, 256)])
def test_classical_crosscheck_gap_is_the_scaled_residual(epsilon, n):
    # The two curvature forms differ by -residual / (2 eps^2) (derivations §3).
    report = solve_and_report(classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], epsilon, n=n))
    (stage,) = report.stages
    expected = report.final_solution.residual_sup / (2.0 * epsilon**2)
    assert stage.crosscheck_gap == pytest.approx(expected, rel=1e-3)


def test_crosscheck_gap_is_classical_only(mixed_pair):
    spec, sol = mixed_pair
    assert diagnostics_report(spec, sol)[0].crosscheck_gap is None


def test_classical_max_principle(classical_d1, classical_d2_small):
    for spec, sol in (classical_d1, classical_d2_small):
        recon = reconstruct(spec, sol.f)
        assert recon.phi_sq[0].max() <= 1.0 + 1e-9


def test_classical_identity_degree_two():
    spec = classical([(0.3, 0.3), (0.7, 0.6)], [1, 1], 0.2)
    sol = kw_solve(reduce_any(spec))
    ids = identities(spec, sol.f)
    assert abs(ids["identity"]) <= 1e-6 * UNIT.volume
    assert abs(ids["chern"]) <= 1e-8


def test_classical_translation_symmetry():
    base = classical([(0.5, 0.5)], [1], 0.3, n=128)
    moved = classical([(0.25, 0.25)], [1], 0.3, n=128)
    phi_a = reconstruct(base, kw_solve(reduce_any(base)).f).phi_sq[0]
    phi_b = reconstruct(moved, kw_solve(reduce_any(moved)).f).phi_sq[0]
    shifted = np.roll(phi_a.values, (-32, -32), axis=(0, 1))
    assert np.abs(shifted - phi_b.values).max() <= 1e-8


def test_classical_curvature_mass(classical_d2_small):
    spec, sol = classical_d2_small
    recon = reconstruct(spec, sol.f)
    # 3 eps + 4 h and 6 eps + 8 h at eps = 0.05, h = 1/256
    r_in, r_out = 0.165625, 0.33125
    pts = [(0.25, 0.25), (0.75, 0.75)]
    masses = [
        curvature_mass(recon.curvature, p, r_in, r_out, [q for q in pts if q != p])
        for p in pts
    ]
    for m in masses:
        assert 0.98 <= m <= 1.02
    # A bare (3 eps, 5 eps) window at eps = 0.05 leaves the exponential
    # curvature tail outside: the captured mass converges (in grid) to
    # 0.97939, i.e. the smooth window genuinely misses ~2.1% of the core.
    tight = curvature_mass(recon.curvature, pts[0], 0.15, 0.25, pts[1:])
    assert abs(tight - 0.9793905960) <= 1e-6


def test_stationary_window_masses_are_grid_converged():
    # Masses of (0.25, 0.25) x 1 + (0.75, 0.75) x 2 at eps = 0.025: the
    # stationary window holds the whole core on every grid that resolves
    # it (64^2 does not; see the test below).
    by_grid = []
    for n in (128, 256):
        spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.025, n=n)
        by_grid.append(solve_and_report(spec).stages[0].curvature_masses)
    for masses in by_grid:
        assert np.abs(np.subtract(masses, by_grid[-1])).max() <= 1e-6
        assert np.abs(np.subtract(masses, (1.0, 2.0))).max() <= 1e-5


@pytest.mark.parametrize("n", [32, 64])
def test_under_resolved_single_stage_raises(n):
    # The masses are topological and would still read (1, 2) on 64^2;
    # the spectral tail (4.1e-5 there) fails the stage instead.
    spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.025, n=n)
    with pytest.raises(UnderResolved, match=f"on the {n}x{n} grid"):
        solve_and_report(spec)
    stage = solve_and_report(_copy(spec, grid=GridSpec(128, 128))).stages[0]
    assert 0.0 < stage.spectral_tail <= TAIL_TOL


@pytest.mark.parametrize(
    "make, eps, grids",
    [
        (lambda n, e: classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], e, n=n), 0.025, (64, 128)),
        (lambda n, e: _sweep_mixed_spec(e, n), 0.0125, (64, 128)),
    ],
    ids=["classical", "mixed"],
)
def test_spectral_tail_bounds_the_refinement_error(make, eps, grids):
    # Measured max |f_n - f_256| (f_n resampled) against the tail of f_n:
    # classical 6.9e-5 vs 4.1e-5 (64^2) and 4.1e-9 vs 2.3e-8 (128^2); mixed
    # 1.1e-5 vs 2.5e-5 and 1.2e-10 vs 1.1e-8. The error stays within twice
    # the tail, so a certified solution is within 2 TAIL_TOL of the finer one.
    reference = kw_solve(reduce_any(make(256, eps))).f
    for n in grids:
        f = kw_solve(reduce_any(make(n, eps))).f
        error = np.abs(resample(f, reference.grid).values - reference.values).max()
        tail = spectral_tail(f)
        assert error <= 2.0 * tail
        assert (tail <= TAIL_TOL) == (n == 128)


def _sweep_mixed_spec(eps, n):
    """The divisor of ``configs/sweep_mixed.yaml``."""
    return MixedVortexSpec(
        UNIT,
        GridSpec(n, n),
        Divisor(((0.25, 0.25), (0.75, 0.75)), (1, 1)),
        Divisor(((0.75, 0.25),), (1,)),
        epsilon=eps,
    )


@pytest.mark.parametrize("kind", ["classical", "mixed"])
def test_stage_diagnostics_transform_the_solution_once(monkeypatch, kind):
    spec = classical([(0.3, 0.6)], [1], 0.2, n=32) if kind == "classical" else mixed_pair_spec(0.2, n=32)
    sol = kw_solve(reduce_any(spec))
    calls = record_transforms(monkeypatch)
    stage, _, recon = diagnostics_report(spec, sol)
    # The tail, the curvature's Laplacian and the interior gradient share it.
    assert [name for name, _ in calls].count("rfft") == 1
    assert stage.spectral_tail == spectral_tail(sol.f)
    assert np.array_equal(recon.curvature.values, reconstruct(spec, sol.f).curvature.values)
    # A given spectrum gives the same report and is only read, though the
    # inverse transforms overwrite theirs.
    spectrum = np.fft.rfft2(sol.f.values)
    kept = spectrum.copy()
    assert diagnostics_report(spec, sol, spectrum)[0] == stage
    assert np.array_equal(spectrum, kept)


def test_curvature_mass_additivity(classical_d2_small):
    spec, sol = classical_d2_small
    recon = reconstruct(spec, sol.f)
    r_in, r_out = 0.165625, 0.33125
    pts = [(0.25, 0.25), (0.75, 0.75)]
    bumps = [bump_field(UNIT, spec.grid, p, r_in, r_out) for p in pts]
    masses = [integrate(b * recon.curvature) / (2 * math.pi) for b in bumps]
    complement = integrate(recon.curvature * (1.0 - bumps[0] - bumps[1])) / (
        2 * math.pi
    )
    assert abs(sum(masses) + complement - spec.degree) <= 1e-10
    assert abs(complement) <= 2e-2


def test_curvature_mass_constant_field_gives_bump_fraction():
    grid = GridSpec(128, 128)
    curv = constant_field(UNIT, grid, 2.0 * math.pi / UNIT.volume)
    mass = curvature_mass(curv, (0.5, 0.5), 0.2, 0.45)
    bump = bump_field(UNIT, grid, (0.5, 0.5), 0.2, 0.45)
    assert abs(mass - integrate(bump) / UNIT.volume) <= 1e-12


def test_curvature_mass_rejects_overlapping_windows():
    grid = GridSpec(64, 64)
    curv = constant_field(UNIT, grid, 1.0)
    with pytest.raises(OverlappingBump):
        curvature_mass(curv, (0.5, 0.5), 0.2, 0.35, [(0.7, 0.5)])


@pytest.mark.parametrize(
    "geometry,grid,center,r_inner,r_outer",
    [
        # Lattice-aligned centers on the seam, r_outer a multiple of h:
        # samples lie exactly at distance r_outer, on both sides of the seam.
        (UNIT, GridSpec(64, 64), (0.0, 0.0), 0.125, 0.25),
        (TorusGeometry(2.0, 0.5), GridSpec(64, 32), (0.0, 0.484375), 0.0625, 0.125),
        # Windows across the seam of a non-square torus and grid.
        (UNIT, GridSpec(48, 80), (0.99, 0.013), 0.1, 0.3),
        (TorusGeometry(2.0, 0.7), GridSpec(96, 40), (1.97, 0.02), 0.1, 0.3),
        # r_outer just inside the injectivity radius (0.35 and 0.5).
        (TorusGeometry(2.0, 0.7), GridSpec(96, 40), (0.8, 0.35), 0.17, 0.3499),
        (UNIT, GridSpec(48, 80), (0.4, 0.6), 0.2, 0.4999),
    ],
)
def test_box_windows_match_full_grid(geometry, grid, center, r_inner, r_outer):
    # The mass integrates over the box of the r_outer disc only; it agrees
    # with the full-grid integral. The disc mask is the distance rule bit
    # for bit, including samples at distance exactly r_outer.
    rng = np.random.default_rng(11)
    curvature = ScalarField(geometry, grid, rng.uniform(0.5, 2.0, (grid.nx, grid.ny)))
    bump = bump_field(geometry, grid, center, r_inner, r_outer)
    full = integrate(bump * curvature) / (2.0 * math.pi)
    mass = curvature_mass(curvature, center, r_inner, r_outer)
    assert mass == pytest.approx(full, rel=1e-13, abs=0.0)
    other = (0.5 * geometry.length_x, 0.5 * geometry.length_y)
    mask = RegionMask.excluding_discs(geometry, grid, [center, other], r_outer)
    expected = np.ones((grid.nx, grid.ny))
    for c in (center, other):
        expected[meshgrid_distance(geometry, grid, c) <= r_outer] = 0.0
    assert np.array_equal(mask.weights, expected)
    if r_outer in (0.25, 0.125):
        assert (meshgrid_distance(geometry, grid, center) == r_outer).any()


def test_box_windows_memory():
    # At 1024^2 one grid is 8 MiB. A mass window touches only the box of
    # its disc; a disc mask builds one grid, the mask it adopts.
    grid = GridSpec(1024, 1024)
    curvature = constant_field(UNIT, grid, 1.0)
    centers = [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    tracemalloc.start()
    try:
        curvature_mass(curvature, (0.3, 0.4), 0.025, 0.05)
        mass_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        RegionMask.excluding_discs(UNIT, grid, centers, MASK_RADIUS)
        mask_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass_peak < 2**20
    assert mask_peak <= 2 * 8 * 2**20


def test_mass_window_below_two_grid_cells_fails_the_stage():
    # Points of different terms 1e-7 apart are distinct divisor points, but
    # their windows are far below one cell: the masses would read about 0.
    terms = (
        GeneralizedTerm(Divisor(((0.5, 0.5),), (1,)), 1),
        GeneralizedTerm(Divisor(((0.5 + 1e-7, 0.5),), (1,)), -1),
        GeneralizedTerm(Divisor(((0.2, 0.2),), (1,)), 1),
    )
    spec = GeneralizedSpec(UNIT, GridSpec(64, 64), terms, epsilon=0.2)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.2,), 64, 64))
    assert report.stages == []
    assert report.error["type"] == "OverlappingBump"
    assert "below two grid cells" in report.error["message"]


@pytest.fixture
def solved_grids(monkeypatch):
    """The grid of every Newton solve that the models run."""
    solved = []

    def recording(problem, *args, **kwargs):
        solved.append(problem.grid)
        return kw_solve(problem, *args, **kwargs)

    monkeypatch.setattr(vortex_module, "kw_solve", recording)
    return solved


def _close_mixed_pair(eps):
    # r_inner = 0.071: below two cells of 16^2, above two cells of 32^2.
    return MixedVortexSpec(
        UNIT,
        GridSpec(16, 16),
        Divisor(((0.3, 0.3),), (1,)),
        Divisor(((0.45, 0.3),), (1,)),
        epsilon=eps,
    )


def test_unresolved_mass_window_is_skipped_before_the_solve(solved_grids):
    # With max_grid = 16 no grid can resolve the window: every stage is
    # skipped, with that grid recorded, and none is solved.
    schedule = ContinuationSchedule((0.4, 0.2), max_grid=16)
    report = adiabatic_sweep(_close_mixed_pair(0.2), schedule)
    assert report.stages == [] and solved_grids == []
    assert [skip["epsilon"] for skip in report.skipped] == [0.4, 0.2]
    for skip in report.skipped:
        assert skip["type"] == "OverlappingBump"
        assert "below two grid cells" in skip["message"]
        assert skip["grid"] == GridSpec(16, 16)
    assert report.error == report.skipped[-1]


def test_unresolved_mass_window_fails_a_single_run_before_any_solve(solved_grids):
    # The windows are checked before the stage's start is made, so a 128^2
    # run solves neither its 64^2 probe nor its own grid.
    plus, minus = Divisor(((0.3, 0.3),), (1,)), Divisor(((0.32, 0.3),), (1,))
    spec = MixedVortexSpec(UNIT, GridSpec(128, 128), plus, minus, epsilon=0.2)
    with pytest.raises(OverlappingBump, match="below two grid cells"):
        solve_and_report(spec)
    assert solved_grids == []


def test_unresolved_mass_window_refines_the_stage_grid(solved_grids):
    # min_grid = 16 cannot resolve the window: it raises the first stage to
    # 32^2, and no stage is skipped. eps = 0.05 is rejected on 32^2.
    schedule = ContinuationSchedule((0.4, 0.2, 0.1, 0.05))
    report = adiabatic_sweep(_close_mixed_pair(0.05), schedule)
    raise_if_failed(report)
    assert not report.skipped
    assert [s.epsilon for s in report.stages] == [0.4, 0.2, 0.1, 0.05]
    assert [s.grid for s in report.stages] == [GridSpec(n, n) for n in (32, 32, 32, 64)]
    assert solved_grids == [GridSpec(n, n) for n in (32, 32, 32, 32, 64)]
    assert [r["grid"] for r in report.stages[3].rejected] == [GridSpec(32, 32)]


def test_core_scale_of_each_preset():
    # Classical stages start on h <= eps / 4; mixed and generalized ones on
    # the previous stage's grid, which the certificate refines.
    assert classical([(0.5, 0.5)], [1], 0.05)._core_scale() == 0.05
    assert mixed_pair_spec(0.05)._core_scale() == math.inf
    schedule = ContinuationSchedule((0.05,))
    assert schedule.grid(UNIT, math.inf, GridSpec(32, 64)) == GridSpec(32, 64)


def _far_mixed_pair(eps):
    plus, minus = Divisor(((0.39, 0.41),), (1,)), Divisor(((0.69, 0.62),), (1,))
    return MixedVortexSpec(UNIT, GridSpec(16, 16), plus, minus, epsilon=eps)


def test_sweep_stage_takes_one_spectral_tail_per_solve(monkeypatch):
    # The tail that certifies a solve is the one its stage records; the
    # diagnostics do not take it again.
    tails = []
    monkeypatch.setattr(
        vortex_module,
        "spectral_tail",
        lambda *a, **k: tails.append(spectral_tail(*a, **k)) or tails[-1],
    )
    report = adiabatic_sweep(_far_mixed_pair(0.2), ContinuationSchedule((0.2,), max_grid=32))
    (stage,) = report.stages
    assert tails == [stage.rejected[0]["spectral_tail"], stage.spectral_tail]


def test_sweep_stage_doubles_an_under_resolved_grid(solved_grids):
    # eps = 0.2 starts on 16^2 (tail 1.5e-6) and is solved again on 32^2.
    report = adiabatic_sweep(_far_mixed_pair(0.2), ContinuationSchedule((0.2,), max_grid=32))
    raise_if_failed(report)
    (stage,) = report.stages
    assert solved_grids == [GridSpec(16, 16), GridSpec(32, 32)]
    assert stage.grid == GridSpec(32, 32) and stage.spectral_tail <= TAIL_TOL
    (rejected,) = stage.rejected
    assert rejected["grid"] == GridSpec(16, 16)
    assert rejected["spectral_tail"] > TAIL_TOL
    assert rejected["iterations"] >= 1


def test_sweep_stage_past_max_grid_is_under_resolved():
    report = adiabatic_sweep(
        _far_mixed_pair(0.1), ContinuationSchedule((0.2, 0.1), 16, 16)
    )
    assert report.stages == []
    assert report.error["type"] == "UnderResolved"
    assert report.error["epsilon"] == 0.2
    assert "on the 16x16 grid" in report.error["message"]


# ---------------------------------------------------------------------------
# Planar cores and the classical start (derivations §4)


@pytest.mark.parametrize("m, a_m", [(1, -0.3175745), (2, -1.500316)])
def test_planar_profile(m, a_m):
    s, h, a = _planar_profile(m)
    rho = np.exp(s)
    # Mass identity: integral (1 - e^h) rho drho = m.
    assert abs(np.trapezoid((1.0 - np.exp(h)) * rho**2, s) - m) <= 1e-9
    # Below the table h = 2m s + a_m.
    head = h[:64] - 2.0 * m * s[:64]
    assert np.ptp(head) <= 1e-8 and abs(head[0] - a) <= 1e-12
    assert abs(a - a_m) <= 1e-6
    # The ODE h'' = 2 e^{2s} (e^h - 1), to the second difference's error.
    ds = s[1] - s[0]
    second = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / ds**2
    assert np.abs(second - 2.0 * rho[1:-1] ** 2 * np.expm1(h[1:-1])).max() <= 1e-4
    # Increasing to 0 at the right end, strictly where h is above roundoff.
    steps = np.diff(h)
    assert (steps >= 0.0).all() and h[-1] == 0.0
    assert (steps[h[1:] < -1e-10] > 0.0).all()
    assert _planar_profile(m) is _planar_profile(m)


OFF_GRID = ([(0.3013, 0.2571), (0.7129, 0.6637)], [1, 2])


def test_classical_start_from_planar_cores():
    spec = classical(*OFF_GRID, 0.025, n=128)
    glued = solve_and_report(spec)
    zero = kw_solve(reduce_any(spec))
    assert glued.stages[0].newton.iterations <= 3
    assert zero.iterations >= 5
    assert sup_norm(glued.final_solution.f - zero.f) <= 1e-9


@pytest.mark.parametrize("lx", [1.0, 2.0])
def test_classical_start_on_divisor_samples(lx):
    # The configs/classical.yaml divisor, stretched along x: both points
    # are grid samples, where u_D holds the sentinel and the guess takes
    # its limit value. lx = 2 evaluates u_D on the reflected torus.
    geo = TorusGeometry(lx, 1.0)
    points = [(0.25 * lx, 0.25), (0.75 * lx, 0.75)]
    spec = classical(points, [1, 2], 0.1, geometry=geo)
    f0 = spec._initial_guess(None, SolverConfig()).f.values
    assert np.isfinite(f0).all() and np.abs(f0).max() < 1e3
    assert solve_and_report(spec).stages[0].newton.iterations <= 3
    # It is the limit of the guess as a point approaches its sample, from
    # below the profile table (1e-8) and from inside it (1e-6).
    for delta in (1e-8, 1e-6):
        for i, sample in ((0, (32, 32)), (1, (96, 96))):
            moved = list(points)
            moved[i] = (points[i][0] + delta, points[i][1] - delta)
            near = classical(moved, [1, 2], 0.1, geometry=geo)._initial_guess(None, SolverConfig()).f.values
            assert abs(near[sample] - f0[sample]) <= 1e-10


def test_classical_start_rejects_an_underflowed_coefficient():
    # e^{u_D} underflows to 0 on the sample 1e-4 from a point of
    # multiplicity 100, which is no divisor point: the start is not finite
    # there, and its field says so.
    spec = classical([(0.25 + 1e-4, 0.25)], [100], 0.01, n=32)
    assert (spec._coefficients[0][0].values == 0.0).sum() == 1
    with pytest.raises(ValidationError, match="finite"):
        spec._initial_guess(None, SolverConfig())


def test_classical_deviation_keeps_its_relative_precision():
    # 1 - |phi|^2 near 1e-12. Formed by subtraction it would carry an
    # absolute error of an ulp of 1, 1e-4 of its size; from expm1 of the
    # exponent it carries only that of u_D, which an empty divisor makes 0.
    delta = 1e-12
    empty = classical([], [], 0.1, n=16)
    dev = empty._deviation(constant_field(UNIT, empty.grid, math.log1p(-delta))).values
    assert np.abs(dev - delta).max() <= 4.0 * np.finfo(float).eps * delta
    # Elsewhere it is 1 - |phi|^2, and exactly 1 on a divisor sample.
    spec = classical([(0.25, 0.25)], [1], 0.1, n=16)
    f = constant_field(UNIT, spec.grid, 0.0)
    dev = spec._deviation(f).values
    phi_sq = reconstruct(spec, f).phi_sq[0].values
    assert dev[4, 4] == 1.0 and phi_sq[4, 4] == 0.0
    assert (np.abs(dev - (1.0 - phi_sq)) <= 1e-15 * np.maximum(1.0, phi_sq)).all()


def test_classical_sweep_stages_are_independent():
    spec = classical(*OFF_GRID, 0.05, n=128)
    sweep = adiabatic_sweep(spec, ContinuationSchedule((0.1, 0.05), 128, 128))
    raise_if_failed(sweep)
    single = solve_and_report(spec)
    assert np.array_equal(sweep.final_solution.f.values, single.final_solution.f.values)
    assert all(s.newton.iterations <= 3 for s in sweep.stages)


def test_mixed_start_is_the_resampled_previous_solution(mixed_pair):
    spec, sol = mixed_pair
    coarse = _copy(spec, grid=GridSpec(64, 64))
    # Without a previous solution, the probe lattice's own grid starts from zero.
    assert coarse._initial_guess(None, SolverConfig()) == (None, None)
    start = coarse._initial_guess(sol, SolverConfig())
    assert start.record is None
    assert np.array_equal(start.f.values, resample(sol.f, coarse.grid).values)


def _generalized_spec(eps, n):
    """The divisor of ``configs/generalized.yaml``."""
    terms = (
        GeneralizedTerm(Divisor(((0.27, 0.31),), (1,)), 2),
        GeneralizedTerm(Divisor(((0.71, 0.64),), (1,)), 1),
        GeneralizedTerm(Divisor(((0.52, 0.18),), (1,)), -1),
    )
    return GeneralizedSpec(UNIT, GridSpec(n, n), terms, tau=0.0, epsilon=eps)


def test_generalized_stage_starts_from_the_probe_solve():
    # Nested iteration: the 64^2 probe, solved from zero at the stage's
    # eps and interpolated, leaves the 256^2 Newton at most one step.
    spec = _generalized_spec(0.05, 256)
    report = solve_and_report(spec)
    (stage,) = report.stages
    assert stage.newton.iterations <= 1
    assert stage.start["grid"] == GridSpec(64, 64) and stage.start["iterations"] >= 1
    assert stage.start["residual_sup"] <= SolverConfig().newton_tol
    zero = kw_solve(reduce_any(spec))
    assert zero.iterations >= 3
    assert sup_norm(report.final_solution.f - zero.f) <= 1e-9


def test_a_failed_probe_solve_falls_back_to_the_zero_start(monkeypatch):
    spec = _generalized_spec(0.1, 128)

    def failing(problem, *args, **kwargs):
        if problem.grid == GridSpec(64, 64):
            raise MaxIterExceeded("the probe solve fails")
        return kw_solve(problem, *args, **kwargs)

    monkeypatch.setattr(vortex_module, "kw_solve", failing)
    report = solve_and_report(spec)
    (stage,) = report.stages
    assert stage.start == {"type": "MaxIterExceeded", "message": "the probe solve fails"}
    zero = kw_solve(reduce_any(spec))
    assert stage.newton.iterations == zero.iterations
    assert np.array_equal(report.final_solution.f.values, zero.f.values)


# ---------------------------------------------------------------------------
# Mixed pair


def test_mixed_empty_divisors_balanced_vacuum():
    spec = MixedVortexSpec(
        UNIT, GridSpec(32, 32), Divisor((), ()), Divisor((), ()), epsilon=0.2
    )
    sol = kw_solve(reduce_any(spec))
    assert sup_norm(sol.f) <= 1e-12


def test_mixed_limit_profile_is_half_log_ratio():
    # Degree 0 and tau = 0: the reduced w is 0 at every eps, as in the limit.
    problem = dataclasses.replace(reduce_any(mixed_pair_spec(0.2, n=64)), epsilon=0.0)
    f = kw_limit(problem).values
    P = problem.plus_terms[0][0].values
    Q = problem.minus_terms[0][0].values
    # P and Q vanish at their divisor points, where the limit stores 0.
    ok = (P > 0.0) & (Q > 0.0)
    assert (~ok).sum() == 2 and (f[~ok] == 0.0).all()
    expected = 0.5 * (np.log(Q[ok]) - np.log(P[ok]))
    assert np.abs(f[ok] - expected).max() <= 1e-10


def test_mixed_component_masses_balance(mixed_pair):
    spec, sol = mixed_pair
    recon = reconstruct(spec, sol.f)
    m1 = integrate(recon.phi_sq[0])
    m2 = integrate(recon.phi_sq[1])
    assert abs(m1 - m2) <= 1e-6
    ids = identities(spec, sol.f)
    assert abs(ids["identity"]) <= 1e-6 * UNIT.volume
    assert abs(ids["chern"]) <= 1e-8


def test_mixed_colocated_mass_is_half_difference():
    spec = MixedVortexSpec(
        UNIT,
        GridSpec(256, 256),
        Divisor(((0.5, 0.5),), (2,)),
        Divisor(((0.5, 0.5),), (1,)),
        epsilon=0.05,
    )
    sol = kw_solve(reduce_any(spec))
    recon = reconstruct(spec, sol.f)
    mass = curvature_mass(recon.curvature, (0.5, 0.5), 0.2375, 0.475)
    assert abs(mass - 0.5) <= 0.02


# ---------------------------------------------------------------------------
# Generalized model


def test_generalized_single_positive_term_vacuum():
    term = GeneralizedTerm(Divisor((), ()), 1)
    spec = GeneralizedSpec(UNIT, GridSpec(32, 32), (term,), tau=-1.0, epsilon=0.3)
    sol = kw_solve(reduce_any(spec))
    recon = reconstruct(spec, sol.f)
    assert sup_norm(recon.phi_sq[0] - 1.0) <= 1e-10
    assert sup_norm(recon.curvature) <= 1e-10


def test_generalized_weights_one_minus_one_match_mixed(mixed_pair):
    spec, sol = mixed_pair
    terms = (
        GeneralizedTerm(spec.divisor_plus, 1),
        GeneralizedTerm(spec.divisor_minus, -1),
    )
    gen = GeneralizedSpec(UNIT, spec.grid, terms, tau=spec.tau, epsilon=spec.epsilon)
    gp = reduce_any(gen)
    mp = reduce_any(spec)
    assert gen.degree == spec.degree
    assert gp.epsilon == mp.epsilon
    assert np.array_equal(gp.plus_terms[0][0].values, mp.plus_terms[0][0].values)
    assert np.array_equal(gp.minus_terms[0][0].values, mp.minus_terms[0][0].values)
    assert sup_norm(kw_solve(gp).f - sol.f) <= 1e-12


def test_generalized_weighted_identity():
    terms = (
        GeneralizedTerm(Divisor(((0.27, 0.31),), (1,)), 2),
        GeneralizedTerm(Divisor(((0.71, 0.64),), (1,)), 1),
        GeneralizedTerm(Divisor(((0.52, 0.18),), (1,)), -1),
    )
    spec = GeneralizedSpec(UNIT, GridSpec(128, 128), terms, tau=0.0, epsilon=0.2)
    sol = kw_solve(reduce_any(spec))
    ids = identities(spec, sol.f)
    assert abs(ids["identity"]) <= 1e-6 * UNIT.volume
    assert abs(ids["chern"]) <= 1e-8
    # the weighted identity, recomputed from the components directly
    recon = reconstruct(spec, sol.f)
    total = sum(t.weight * integrate(p) for t, p in zip(spec.terms, recon.phi_sq))
    assert abs(total + 2 * math.pi * float(spec.degree) * spec.epsilon**2) <= 1e-6


def _density(divisor, grid, scale, normalized):
    e = np.exp(divisor_potential(divisor, UNIT, grid).values)
    c = scale / float(e.mean()) if normalized else scale
    return c * e


def test_reduce_any_dispatch():
    grid = GridSpec(32, 32)

    # classical: twice the weight-1, tau = -1 reduction on the raw density
    spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.1, n=32)
    p = reduce_any(spec)
    assert p.epsilon == spec.epsilon**2
    assert [e for _, e in p.plus_terms] == [1.0] and p.minus_terms == ()
    raw = np.exp(divisor_potential(spec.divisor, UNIT, grid).values)
    assert np.array_equal(p.plus_terms[0][0].values, 2.0 * raw)
    assert np.all(p.w.values == p.w.values[0, 0])
    assert p.w.values[0, 0] == pytest.approx(4 * math.pi * 0.01 * 3 - 2.0, abs=1e-15)

    # mixed: mean-normalized P, Q with weights (1, -1)
    spec = MixedVortexSpec(
        UNIT,
        grid,
        Divisor(((0.25, 0.25),), (2,)),
        Divisor(((0.75, 0.75),), (1,)),
        tau=0.25,
        scale_plus=0.7,
        epsilon=0.2,
    )
    p = reduce_any(spec)
    assert p.epsilon == 0.5 * spec.epsilon**2
    assert [e for _, e in p.plus_terms] == [1.0]
    assert [e for _, e in p.minus_terms] == [1.0]
    P = _density(spec.divisor_plus, grid, 0.7, True)
    Q = _density(spec.divisor_minus, grid, 1.0, True)
    assert np.array_equal(p.plus_terms[0][0].values, P)
    assert np.array_equal(p.minus_terms[0][0].values, Q)
    assert np.all(p.w.values == p.w.values[0, 0])
    assert p.w.values[0, 0] == pytest.approx(2 * math.pi * 0.5 * 0.04 + 0.25, abs=1e-15)

    # generalized: weight k_j in both the coefficient and the exponent
    terms = (
        GeneralizedTerm(Divisor(((0.3, 0.3),), (1,)), 2, scale=1.5),
        GeneralizedTerm(Divisor(((0.7, 0.6),), (1,)), -1),
    )
    spec = GeneralizedSpec(UNIT, grid, terms, tau=-0.5, epsilon=0.2)
    p = reduce_any(spec)
    assert p.epsilon == 0.5 * spec.epsilon**2
    assert [e for _, e in p.plus_terms] == [2.0]
    assert [e for _, e in p.minus_terms] == [1.0]
    P1 = _density(terms[0].divisor, grid, 1.5, True)
    P2 = _density(terms[1].divisor, grid, 1.0, True)
    assert np.array_equal(p.plus_terms[0][0].values, 2.0 * P1)
    assert np.array_equal(p.minus_terms[0][0].values, P2)
    assert spec.degree == Fraction(1, 5)
    assert np.all(p.w.values == p.w.values[0, 0])
    assert p.w.values[0, 0] == pytest.approx(2 * math.pi * 0.2 * 0.04 - 0.5, abs=1e-15)

    with pytest.raises(TypeError):
        reduce_any(object())


# ---------------------------------------------------------------------------
# Vanishing orders


def _quartic_callable(pts):
    r2 = (pts[:, 0] - 0.5) ** 2 + (pts[:, 1] - 0.5) ** 2
    return r2**2


def test_order_fit_synthetic_quartic():
    assert abs(vanishing_order_fit(_quartic_callable, (0.5, 0.5), 0.01, 0.05) - 2.0) <= 0.02


def test_order_fit_mixed_limit_simple_zero():
    spec = mixed_pair_spec(0.2, n=64)
    order = vanishing_order_fit(mixed_limit_phi_sq(spec), (0.25, 0.25), 0.01, 0.05)
    assert abs(order - 0.5) <= 0.02


def test_order_fit_mixed_limit_colocated():
    spec = MixedVortexSpec(
        UNIT,
        GridSpec(64, 64),
        Divisor(((0.5, 0.5),), (2,)),
        Divisor(((0.5, 0.5),), (1,)),
        epsilon=0.1,
    )
    order = vanishing_order_fit(mixed_limit_phi_sq(spec), (0.5, 0.5), 0.01, 0.05)
    assert abs(order - 1.5) <= 0.05


@pytest.mark.parametrize("gap, fitted", [(0.03, False), (0.10, False), (0.11, True)])
def test_order_fit_stays_inside_the_mass_window(gap, fitted):
    # The rings reach r = 0.05. A neighbour closer than about 0.105 puts
    # that past r_inner of the mass window, and the rings would read its
    # core: 0.665 at 0.03 apart, against an expected order of 0.5.
    spec = MixedVortexSpec(
        UNIT,
        GridSpec(64, 64),
        Divisor(((0.3, 0.3),), (1,)),
        Divisor(((0.3 + gap, 0.3),), (1,)),
        epsilon=0.05,
    )
    fits = spec._order_fits(vortex_module._spec_points(spec))
    if fitted:
        assert all(abs(v - 0.5) <= 0.05 * 0.5 for v in fits)
    else:
        assert fits == [None, None]


def test_mixed_limit_closed_form_refuses_nonzero_tau():
    # At tau = 0.5 the limit solves a - b + tau = 0, ab = P Q: at (0.5, 0.5)
    # a = 0.7735 and b = 1.2735, not the closed form's sqrt(P Q) = 0.9925.
    spec = mixed_pair_spec(0.2, n=64, tau=0.5)
    a, b = (p.values[32, 32] for p in vortex_module._phi_sq(spec, spec._limit))
    assert abs(a - 0.7735) <= 1e-4 and abs(a - b + 0.5) <= 1e-12
    with pytest.raises(ValidationError, match="tau = 0"):
        mixed_limit_phi_sq(spec)


def test_order_fit_validation_and_degenerate_cases():
    with pytest.raises(ValueError):
        vanishing_order_fit(lambda pts: pts[:, 0], (0.5, 0.5), 0.05, 0.01)
    with pytest.raises(DegenerateFit):
        vanishing_order_fit(
            lambda pts: np.zeros(pts.shape[0]), (0.5, 0.5), 0.01, 0.05
        )


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_vacuum_family_has_zero_deviation():
    spec = ClassicalVortexSpec(UNIT, GridSpec(32, 32), Divisor((), ()), 0.2)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.4, 0.2), 32, 32))
    raise_if_failed(report)
    assert [s.sup_deviation for s in report.stages] == [0.0, 0.0]
    assert report.kind == "classical"


def test_stage_shares_the_solution_trace():
    # kw_solve writes the Newton trace once; the stage holds that record.
    spec = classical([(0.5, 0.5)], [1], 0.2, n=32)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.4, 0.2), 32, 32))
    raise_if_failed(report)
    assert report.stages[-1].newton is report.final_solution.newton
    assert report.stages[-1].newton.iterations >= 1


def test_sweep_classical_deviation_strictly_decreasing():
    geo = TorusGeometry(1.5, 1.5)
    spec = ClassicalVortexSpec(geo, GridSpec(16, 16), Divisor(((0.75, 0.75),), (1,)), 0.05)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.4, 0.2, 0.1, 0.05)))
    raise_if_failed(report)
    assert not report.skipped
    devs = [s.sup_deviation for s in report.stages]
    assert len(devs) == 4
    assert all(b < a for a, b in zip(devs, devs[1:]))
    for stage in report.stages:
        assert abs(stage.identity_residuals["chern"]) <= 1e-8


def test_sweep_mixed_converges_to_limit_profile():
    spec = MixedVortexSpec(
        UNIT,
        GridSpec(16, 16),
        Divisor(((0.25, 0.25),), (1,)),
        Divisor(((0.75, 0.75),), (1,)),
        epsilon=0.05,
    )
    report = adiabatic_sweep(spec, ContinuationSchedule((0.4, 0.2, 0.1, 0.05)))
    raise_if_failed(report)
    devs = [s.sup_deviation for s in report.stages]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 0.05
    # orders are fitted at the final stage only
    assert report.stages[0].order_fits == [None, None]
    assert all(abs(v - 0.5) <= 0.02 for v in report.order_fits)
    for stage in report.stages:
        assert abs(stage.identity_residuals["chern"]) <= 1e-8
        assert abs(stage.identity_residuals["identity"]) <= 1e-6


def test_sweep_skips_infeasible_epsilons():
    spec = ClassicalVortexSpec(UNIT, GridSpec(64, 64), Divisor(((0.5, 0.5),), (1,)), 0.2)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.41, 0.2), 64, 64))
    raise_if_failed(report)
    assert len(report.stages) == 1
    assert report.stages[0].epsilon == 0.2
    assert report.skipped[0]["epsilon"] == 0.41
    assert report.skipped[0]["type"] == "BradlowViolation"


def test_sweep_that_solves_no_stage_fails():
    spec = ClassicalVortexSpec(UNIT, GridSpec(64, 64), Divisor(((0.5, 0.5),), (1,)), 0.2)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.5, 0.45), 64, 64))
    assert report.stages == []
    assert len(report.skipped) == 2
    assert report.error == report.skipped[-1]
    assert report.error["type"] == "BradlowViolation"
    with pytest.raises(VortexLabError, match="epsilon=0.45"):
        raise_if_failed(report)


def test_sweep_records_stage_errors():
    # eps = 0.2 needs a 32^2 grid, beyond max_grid: the stage errors.
    spec = ClassicalVortexSpec(UNIT, GridSpec(16, 16), Divisor(((0.5, 0.5),), (1,)), 0.2)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.2,), max_grid=16))
    assert report.error is not None
    assert report.error["epsilon"] == 0.2
    assert report.error["type"] == "ValidationError"
    with pytest.raises(VortexLabError):
        raise_if_failed(report)


def _crash(*args, **kwargs):
    raise ValueError("a programming error, not a solver failure")


def test_sweep_propagates_programming_errors(monkeypatch):
    # Only a VortexLabError is a failed stage; anything else escapes.
    monkeypatch.setattr(vortex_module, "kw_solve", _crash)
    spec = classical([(0.5, 0.5)], [1], 0.2, n=32)
    with pytest.raises(ValueError, match="programming error"):
        adiabatic_sweep(spec, ContinuationSchedule((0.2,), max_grid=32))


def test_order_fit_propagates_programming_errors(monkeypatch):
    monkeypatch.setattr(vortex_module, "vanishing_order_fit", _crash)
    with pytest.raises(ValueError, match="programming error"):
        solve_and_report(mixed_pair_spec(0.2, n=32))


@pytest.mark.parametrize("lengths, n", [((1.0, 8.0), (32, 256)), ((20.0, 1.0), (640, 32))])
def test_classical_solves_on_long_tori(lengths, n):
    # A long torus is evaluated through its reflection, Im tau >= 1.
    geo = TorusGeometry(*lengths)
    spec = ClassicalVortexSpec(
        geo, GridSpec(*n), Divisor(((0.3, 0.4), (0.7, 0.6)), (1, 1)), 0.2
    )
    stage = solve_and_report(spec).stages[0]
    assert abs(stage.identity_residuals["identity"]) <= 1e-6 * geo.volume


def test_solve_and_report_single_stage(mixed_pair):
    spec, _ = mixed_pair
    report = solve_and_report(spec)
    assert report.kind == "mixed"
    assert len(report.stages) == 1
    stage = report.stages[0]
    assert stage.seconds > 0
    assert len(stage.curvature_masses) == 2
    assert [p.expected_order for p in report.points] == [0.5, 0.5]
    assert [p.expected_mass for p in report.points] == [0.5, -0.5]
    assert all(abs(v - 0.5) <= 0.02 for v in report.order_fits)
    assert report.final_solution is not None


def test_mixed_records_no_prediction_at_nonzero_tau():
    # The mass and order predictions are those of the tau = 0 limit.
    report = solve_and_report(mixed_pair_spec(0.2, n=32, tau=0.5))
    raise_if_failed(report)
    assert [(p.expected_mass, p.expected_order) for p in report.points] == [(None, None)] * 2
    assert report.order_fits == [None, None]
    assert report.stages[0].order_fits == [None, None]
    assert all(m is not None for m in report.stages[0].curvature_masses)


# ---------------------------------------------------------------------------
# Term densities


@pytest.fixture
def potential_calls(monkeypatch):
    """``(divisor, grid)`` of every divisor potential the models build."""
    import vortexlab.vortex as vortex

    calls = []

    def counting(divisor, geometry, grid):
        calls.append((divisor, grid))
        return divisor_potential(divisor, geometry, grid)

    monkeypatch.setattr(vortex, "divisor_potential", counting)
    return calls


def test_term_densities_die_with_their_spec():
    spec = classical([(0.33, 0.44)], [1], 0.2, n=32)
    # The reduced problem is dropped at once; only the spec holds the density.
    ref = weakref.ref(reduce_any(spec).plus_terms[0][0])
    del spec
    gc.collect()
    assert ref() is None


def _weighted_spec():
    # Weights +-1 and +-2, two scales other than 1; the weight-2 point
    # and the second weight-(-1) point are grid samples of 32^2.
    terms = (
        GeneralizedTerm(Divisor(((0.25, 0.25),), (1,)), 2, 1.5),
        GeneralizedTerm(Divisor(((0.6, 0.3),), (2,)), 1),
        GeneralizedTerm(Divisor(((0.71, 0.77), (0.5, 0.875)), (1, 1)), -1, 0.7),
        GeneralizedTerm(Divisor(((0.31, 0.64),), (1,)), -2),
    )
    return GeneralizedSpec(UNIT, GridSpec(32, 32), terms, tau=0.0, epsilon=0.2)


# The configs/classical.yaml divisor: both points are samples of 32^2.
ON_SAMPLES = ([(0.25, 0.25), (0.75, 0.75)], [1, 2])
ONE_TERM_FORMATS = pytest.mark.parametrize(
    "make", [_weighted_spec, lambda: classical(*ON_SAMPLES, 0.1, n=32)], ids=["weighted", "classical"]
)


def _grids_held(spec) -> int:
    """Distinct arrays shaped like the spec's grid in its attributes."""

    def arrays(obj):
        if isinstance(obj, ScalarField):
            yield obj.values
        elif isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)

    shape = (spec.grid.nx, spec.grid.ny)
    return len({id(a) for v in vars(spec).values() for a in arrays(v) if a.shape == shape})


@ONE_TERM_FORMATS
def test_spec_holds_one_coefficient_per_term(make):
    spec = make()
    problem = reduce_any(spec)
    reconstruct(spec, constant_field(spec.geometry, spec.grid, 0.1))
    stored = [c for c, _ in spec._coefficients]
    expected = [c for t, c in zip(spec._terms, stored) if t.weight > 0]
    expected += [c for t, c in zip(spec._terms, stored) if t.weight < 0]
    passed = [c for c, _ in problem.plus_terms + problem.minus_terms]
    assert len(passed) == len(expected) and all(a is b for a, b in zip(passed, expected))
    assert _grids_held(spec) == len(spec._terms)


def test_weight_two_coefficient_is_the_doubled_density():
    # Twice the normalized density c e^{u_D}, bit for bit: doubling the
    # scale before the division is exact.
    spec = _weighted_spec()
    for t, (coeff, _) in zip(spec._terms, spec._coefficients):
        if abs(t.weight) == 2:
            e = np.exp(divisor_potential(t.divisor, UNIT, spec.grid).values)
            density = (t.scale / float(e.mean())) * e
            assert np.array_equal(coeff.values, density * 2.0)


@ONE_TERM_FORMATS
def test_phi_sq_matches_the_log_space_form(make):
    spec = make()
    f = field_from_function(
        UNIT, spec.grid, lambda X, Y: 0.8 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y) - 0.3
    )
    phi_sq = reconstruct(spec, f).phi_sq
    for t, (_, log_scale), p in zip(spec._terms, spec._coefficients, phi_sq):
        u = divisor_potential(t.divisor, UNIT, spec.grid).values
        c = t.scale / float(np.exp(u).mean()) if t.normalized else t.scale
        assert log_scale == pytest.approx(math.log(abs(t.weight) * spec.equation_scale * c), abs=1e-14)
        ref = np.exp(math.log(c) + u + t.weight * f.values)
        assert (np.abs(p.values - ref) <= 1e-14 * ref).all()
        on_points = u == NEGATIVE_SENTINEL
        if t.weight == 2 or spec.kind == "classical":
            assert on_points.sum() == len(t.divisor.points)
        assert (p.values[on_points] == 0.0).all()


def test_many_point_spec_memory():
    # The 16 points of a jittered 4 x 4 lattice in four terms with weights
    # (2, 1, -1, -2), solved and diagnosed at 256^2 (a grid is 0.5 MiB).
    # Each term holds its coefficient alone and the reduction copies none:
    # 9.65 MiB measured. The bound allows half a grid more.
    rng = np.random.default_rng(3)
    points = [[], [], [], []]
    for j in range(4):
        for i in range(4):
            x, y = 0.125 + 0.25 * i, 0.125 + 0.25 * j
            points[(i + 2 * j) % 4].append(tuple(np.array([x, y]) + rng.uniform(-0.04, 0.04, 2)))
    terms = tuple(
        GeneralizedTerm(Divisor(tuple(pts), (1,) * 4), w) for w, pts in zip((2, 1, -1, -2), points)
    )
    spec = GeneralizedSpec(UNIT, GridSpec(256, 256), terms, tau=0.0, epsilon=0.1)
    tracemalloc.start()
    try:
        solve_and_report(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (9.65 + 0.25) * 2**20


def test_classical_sweep_on_one_grid_builds_its_density_once(potential_calls):
    spec = classical([(0.36, 0.47)], [1], 0.1, n=64)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.3, 0.2, 0.1), 64, 64))
    raise_if_failed(report)
    assert len(report.stages) == 3
    assert potential_calls == [(spec.divisor, GridSpec(64, 64))]


@pytest.mark.parametrize("eps, n", [(0.1, 32), (0.05, 64)])
def test_sweep_stage_is_diagnosed_on_its_solve_grid(eps, n):
    # The certificate accepts 32^2 and 64^2; the stage's numbers are those
    # of the accepted solution diagnosed on a fresh spec of that grid, one
    # that shares no densities with the sweep's copies.
    report = adiabatic_sweep(_far_mixed_pair(eps), ContinuationSchedule((eps,)))
    raise_if_failed(report)
    (stage,) = report.stages
    assert stage.grid == report.final_spec.grid == GridSpec(n, n)
    fresh = _copy(_far_mixed_pair(eps), grid=GridSpec(n, n))
    ref, _, _ = diagnostics_report(fresh, report.final_solution)
    for name in ("sup_deviation", "sup_f", "sup_grad_f", "l2_exp_plus", "l2_exp_minus"):
        assert getattr(stage, name) == pytest.approx(getattr(ref, name), abs=1e-10)
    assert stage.spectral_tail == pytest.approx(ref.spectral_tail, abs=1e-12)
    assert stage.curvature_masses == pytest.approx(ref.curvature_masses, abs=1e-10)
    for key, value in ref.identity_residuals.items():
        assert stage.identity_residuals[key] == pytest.approx(value, abs=1e-12)


def test_sup_deviation_is_a_function_of_the_solution():
    # One accepted 16^2 solution, carried exactly onto finer copies of its
    # spec: the deviation is read on the same probe lattice from each, and
    # the masses differ only by the quadrature of their bump windows.
    spec = _sweep_mixed_spec(0.5, 16)
    sol = kw_solve(reduce_any(spec))
    assert spectral_tail(sol.f) <= TAIL_TOL
    stages = []
    for n in (16, 32, 64):
        copy = _copy(spec, grid=GridSpec(n, n))
        solution = dataclasses.replace(sol, f=resample(sol.f, copy.grid))
        stages.append(diagnostics_report(copy, solution)[0])
    ref = stages[-1]
    for stage in stages:
        assert stage.sup_deviation == pytest.approx(ref.sup_deviation, abs=1e-12)
        assert stage.curvature_masses == pytest.approx(ref.curvature_masses, abs=1e-4)


def test_lattice_values_are_the_trigonometric_interpolant():
    x = np.arange(32) / 32
    values = np.sin(2 * np.pi * 3 * x)[:, None] * np.cos(2 * np.pi * 5 * x)[None, :]
    f = ScalarField(UNIT, GridSpec(32, 32), values + 0.3 * np.cos(2 * np.pi * 7 * x)[:, None])
    cases = [(f, grid) for grid in (GridSpec(16, 16), GridSpec(64, 16), GridSpec(64, 64))]
    # Counts that are no multiple of the lattice's, with a mode that the
    # lattice cannot carry: the samples still lie on the interpolant.
    for n in (96, 100):
        x = np.arange(n) / n
        high = np.cos(2 * np.pi * 40 * x)[:, None] + np.sin(2 * np.pi * 3 * x)[None, :]
        cases.append((ScalarField(UNIT, GridSpec(n, n), high), GridSpec(64, 64)))
    for field, grid in cases:
        lattice = _on_lattice(field, grid)
        gx, gy = np.meshgrid(np.arange(grid.nx) / grid.nx, np.arange(grid.ny) / grid.ny, indexing="ij")
        expected = trig_interpolant(field, np.column_stack([gx.ravel(), gy.ravel()]))
        assert lattice.grid == grid
        assert np.abs(lattice.values.ravel() - expected).max() <= 1e-12
        # A given spectrum gives the same bits and is only read.
        spectrum = np.fft.rfft2(field.values)
        kept = spectrum.copy()
        assert np.array_equal(_on_lattice(field, grid, spectrum).values, lattice.values)
        assert np.array_equal(spectrum, kept)


def test_mixed_sweep_builds_each_density_once_per_grid(potential_calls):
    spec = _far_mixed_pair(0.05)
    report = adiabatic_sweep(spec, ContinuationSchedule((0.2, 0.1, 0.05)))
    raise_if_failed(report)
    # eps = 0.2 is rejected on 16^2 and solved on 32^2, which eps = 0.1
    # keeps; eps = 0.05 is rejected on 32^2 and solved on 64^2. Each solve
    # grid is built once, and so is the 64^2 probe of the deviation, which
    # every stage shares.
    assert [s.grid for s in report.stages] == [GridSpec(n, n) for n in (32, 32, 64)]
    rejected = [[r["grid"] for r in s.rejected] for s in report.stages]
    assert rejected == [[GridSpec(16, 16)], [], [GridSpec(32, 32)]]
    counts = {GridSpec(16, 16): 1, GridSpec(32, 32): 1, GridSpec(64, 64): 2}
    divisors = (spec.divisor_plus, spec.divisor_minus)
    assert Counter(potential_calls) == {(d, g): k for d in divisors for g, k in counts.items()}


def test_mixed_sweep_solves_its_limit_once(monkeypatch):
    # The stages solve on 32^2, 32^2 and 64^2 and share one probe, so the
    # eps = 0 profile on it is solved once for the whole sweep.
    grids = []
    monkeypatch.setattr(vortex_module, "kw_limit", lambda p: grids.append(p.grid) or kw_limit(p))
    report = adiabatic_sweep(_far_mixed_pair(0.05), ContinuationSchedule((0.2, 0.1, 0.05)))
    raise_if_failed(report)
    assert len({s.grid for s in report.stages}) == 2
    assert grids == [GridSpec(64, 64)]
    assert report.final_spec._probe._limit.grid == GridSpec(64, 64)


def test_reduced_constant_holds_no_grid():
    for spec in (classical([(0.5, 0.5)], [1], 0.2, n=32), mixed_pair_spec(0.2, n=32)):
        assert reduce_any(spec).w.values.strides == (0, 0)


def test_classical_sweep_stage_memory(monkeypatch):
    # Three classical stages on one 512^2 grid (a grid is 2 MiB). While
    # stage 2 solves, stage 1's reconstruction is released, w is a broadcast
    # scalar, CG reads the residual itself, not a negated copy, and works
    # in five grids, every inverse transform runs in place on its
    # spectrum, and the stage's start is gone: 12.16 grids (24.33 MiB)
    # measured in any test order (empty_caches; 24.45 MiB in a fresh
    # process that loads numpy.fft inside the trace). It read 14.16 grids
    # with a sixth CG grid and the start kept alive through the solve, and
    # 15.16 with the inverse's own complex temporary as well. _run_stage
    # hands the start over in a list that kw_solve empties, so the
    # wrapper's kwargs do not keep it alive.
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        solution = kw_solve(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return solution

    monkeypatch.setattr(vortex_module, "kw_solve", traced)
    spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.05, n=512)
    schedule = ContinuationSchedule((0.05, 0.025, 0.0125), 512, 512)
    empty_caches()
    tracemalloc.start()
    try:
        report = adiabatic_sweep(spec, schedule)
    finally:
        tracemalloc.stop()
    raise_if_failed(report)
    assert peaks[1] <= 12.25 * 2 * 2**20


def test_lone_classical_stage_memory():
    # One classical stage on 1024^2 (a grid is 8 MiB), solve and
    # diagnostics together: 11.04 grids measured, against 13.04 with a
    # sixth CG grid and the start kept alive through the solve.
    spec = classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.00625, n=1024)
    empty_caches()
    tracemalloc.start()
    try:
        raise_if_failed(solve_and_report(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.25 * 8 * 2**20


def _watch_iterates(monkeypatch, spec_type):
    """Weak references to the start of the last solve and to every field
    evaluated since; per CG solve and per pin, ``(solve, probe, count)``,
    with the count of distinct such fields alive.

    A probe keeps nothing but the arguments it passes on, and the counts
    read reference counts, so no collection runs.
    """
    refs, alive, solves = [], [], [0]
    guess = spec_type._initial_guess

    def initial_guess(self, previous, config):
        start = guess(self, previous, config)
        refs[:] = [] if start.f is None else [weakref.ref(start.f)]
        solves[0] += 1
        return start

    class Evaluation(kw_module._Evaluation):
        def __init__(self, problem, f, *args):
            super().__init__(problem, f, *args)
            refs.append(weakref.ref(f))

    def live() -> int:
        return len({id(ref()) for ref in refs if ref() is not None})

    def probe(fn, name):
        def probed(*args, **kwargs):
            alive.append((solves[0], name, live()))
            return fn(*args, **kwargs)
        return probed

    monkeypatch.setattr(spec_type, "_initial_guess", initial_guess)
    monkeypatch.setattr(kw_module, "_Evaluation", Evaluation)
    monkeypatch.setattr(kw_module, "solve_linearized", probe(kw_module.solve_linearized, "cg"))
    monkeypatch.setattr(kw_module, "_pinned", probe(kw_module._pinned, "pin"))
    return alive


def test_no_start_or_old_iterate_alive_through_a_classical_solve(monkeypatch):
    # One-sided: the pin shift replaces the start before the first CG
    # solve, and the accepted trial replaces the pre-step iterate before
    # the pin allocates, so one iterate is alive at each.
    alive = _watch_iterates(monkeypatch, ClassicalVortexSpec)
    report = solve_and_report(classical([(0.25, 0.25), (0.75, 0.75)], [1, 2], 0.1, n=64))
    raise_if_failed(report)
    assert report.stages[0].newton.iterations >= 2
    assert {name for _, name, _ in alive} == {"cg", "pin"}
    assert [count for _, _, count in alive] == [1] * len(alive)


def test_no_start_or_old_iterate_alive_through_a_warm_started_mixed_solve(monkeypatch):
    # Two-sided: the eps = 0.1 stage's accepted solve, on 32^2, starts
    # from its rejected 16^2 solve resampled (a fresh field), two Newton
    # steps away. The start is the iterate of the first CG solve, and gone
    # by the second.
    alive = _watch_iterates(monkeypatch, MixedVortexSpec)
    report = adiabatic_sweep(_far_mixed_pair(0.05), ContinuationSchedule((0.1,)))
    raise_if_failed(report)
    assert report.stages[-1].grid == GridSpec(32, 32)
    assert report.stages[-1].newton.iterations >= 2
    last = [(name, count) for solve, name, count in alive if solve == alive[-1][0]]
    assert last == [("cg", 1)] * report.stages[-1].newton.iterations


@pytest.mark.parametrize("error", [MaxIterExceeded, Unsolvable])
def test_sweep_ending_without_a_solve_rebuilds_the_last_reconstruction(monkeypatch, error):
    # The eps = 0.1 stage releases the eps = 0.2 reconstruction and then
    # fails (an error) or is skipped; the sweep rebuilds the same fields.
    kept = adiabatic_sweep(_far_mixed_pair(0.2), ContinuationSchedule((0.2,)))
    raise_if_failed(kept)

    def failing(problem, *args, **kwargs):
        if problem.epsilon < 0.5 * 0.2**2:
            raise error("the last stage fails")
        return kw_solve(problem, *args, **kwargs)

    monkeypatch.setattr(vortex_module, "kw_solve", failing)
    report = adiabatic_sweep(_far_mixed_pair(0.2), ContinuationSchedule((0.2, 0.1)))
    assert len(report.stages) == 1
    assert (report.error or report.skipped[-1])["type"] == error.__name__
    got = report.final_reconstruction
    for recon in (kept.final_reconstruction, reconstruct(report.final_spec, report.final_solution.f)):
        for a, b in zip(got.phi_sq + [got.curvature], recon.phi_sq + [recon.curvature]):
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize(
    "kind, points",
    [
        ("mixed", ((0.34, 0.53), (0.63, 0.21))),
        ("generalized", ((0.37, 0.56), (0.64, 0.24), (0.14, 0.86))),
    ],
)
def test_one_stage_with_its_limit_and_fits_builds_each_density_once(
    potential_calls, kind, points
):
    grid = GridSpec(64, 64)
    divisors = [Divisor((pt,), (1,)) for pt in points]
    if kind == "mixed":
        spec = MixedVortexSpec(UNIT, grid, *divisors, epsilon=0.1)
    else:
        terms = tuple(GeneralizedTerm(d, k) for d, k in zip(divisors, (1, -1, 2)))
        spec = GeneralizedSpec(UNIT, grid, terms, epsilon=0.1)
    report = solve_and_report(spec)
    raise_if_failed(report)
    # The stage's eps = 0 limit and order fits reuse the stage's densities.
    assert report.stages[0].sup_deviation > 0
    assert len(report.order_fits) == len(divisors)
    assert Counter(potential_calls) == {(d, grid): 1 for d in divisors}
