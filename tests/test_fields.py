"""Torus geometry, spectral calculus, quadrature, sampling, and cutoffs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_laplacian, random_trig, record_transforms
from vortexlab import (
    ClassicalVortexSpec,
    Divisor,
    GridSpec,
    RegionMask,
    ScalarField,
    TorusGeometry,
    bump_cutoff,
    constant_field,
    cutoff_ratio_sup,
    dirichlet_energy,
    field_from_function,
    gradient,
    gradient_magnitude,
    integrate,
    laplacian,
    lp_norm,
    resample,
    sample_at,
    solve_and_report,
    solve_linearized,
    spectral_tail,
    sup_norm,
)
from vortexlab.errors import NoConvergence, ValidationError
from vortexlab.fields import _bump_profile, _wavenumbers, grid_points, torus_distance

UNIT = TorusGeometry(1.0, 1.0)


def unit_field(n, fn):
    return field_from_function(UNIT, GridSpec(n, n), fn)


def random_field(geometry, grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(
        geometry, grid, scale * rng.standard_normal((grid.nx, grid.ny))
    )


# ---------------------------------------------------------------------------
# Domain types


def test_geometry_validation():
    geo = TorusGeometry(2.0, 0.5)
    assert geo.volume == 1.0
    assert geo.injectivity_radius == 0.25
    with pytest.raises(ValueError):
        TorusGeometry(0.0, 1.0)
    with pytest.raises(ValueError):
        TorusGeometry(1.0, -2.0)


@pytest.mark.parametrize("nx,ny", [(7, 8), (8, 7), (6, 8), (8, 9), (0, 8)])
def test_grid_validation_rejects_small_or_odd(nx, ny):
    with pytest.raises(ValueError):
        GridSpec(nx, ny)


def test_grid_spacing():
    assert GridSpec(8, 16).spacing(TorusGeometry(2.0, 4.0)) == (0.25, 0.25)


def test_field_shape_and_finiteness():
    grid = GridSpec(8, 8)
    with pytest.raises(ValueError):
        ScalarField(UNIT, grid, np.zeros((8, 9)))
    bad = np.zeros((8, 8))
    bad[3, 3] = np.inf
    with pytest.raises(ValueError):
        ScalarField(UNIT, grid, bad)


def test_field_values_frozen():
    f = constant_field(UNIT, GridSpec(8, 8), 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_operations_adopt_their_fresh_arrays():
    # The constructor copies the caller's array; an operation's result
    # adopts the array it has just built, frozen in place, with no scan
    # and no copy. Resampling onto the same grid returns the field itself.
    grid = GridSpec(8, 8)
    given = np.ones((8, 8))
    f = ScalarField(UNIT, grid, given)
    assert f.values is not given and given.flags.writeable
    built = np.full((8, 8), 2.0)
    g = f._like(built)
    assert g.values is built and not built.flags.writeable
    assert (g.geometry, g.grid) == (f.geometry, f.grid)
    assert resample(f, f.grid) is f


def test_field_arithmetic_and_strict_compatibility():
    grid = GridSpec(8, 8)
    f = constant_field(UNIT, grid, 2.0)
    g = constant_field(UNIT, grid, 3.0)
    assert ((f + g).values == 5.0).all()
    assert ((f - g).values == -1.0).all()
    assert ((f * g).values == 6.0).all()
    assert ((2.0 * f).values == 4.0).all()
    assert ((1.0 - f).values == -1.0).all()
    assert (-f).min() == -2.0 and f.max() == 2.0
    other = constant_field(UNIT, GridSpec(16, 16), 3.0)
    with pytest.raises(ValidationError):
        f + other
    with pytest.raises(ValidationError):
        f * constant_field(TorusGeometry(2.0, 1.0), grid, 1.0)


def test_region_mask_validation_and_area():
    grid = GridSpec(8, 8)
    with pytest.raises(ValueError):
        RegionMask(UNIT, grid, np.full((8, 8), 1.5))
    with pytest.raises(ValueError):
        RegionMask(UNIT, grid, np.full((8, 8), -0.1))
    # A NaN passes both halves of a range test written as two rejections.
    nan_at_one = np.ones((8, 8))
    nan_at_one[0, 0] = np.nan
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        RegionMask(UNIT, grid, nan_at_one)
    full = RegionMask.full(UNIT, grid)
    assert full.area() == pytest.approx(1.0)
    half = RegionMask(UNIT, grid, np.where(np.arange(8)[:, None] < 4, 1.0, 0.0) * np.ones((8, 8)))
    assert half.area() == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_scalars_entering_a_field_are_checked(bad):
    # A field built from checked data is adopted unscanned, so a scalar
    # that enters it is checked on its own, as is a torus length.
    f = constant_field(UNIT, GridSpec(8, 8), 1.0)
    for make in (
        lambda: f + bad,
        lambda: bad + f,
        lambda: f - bad,
        lambda: bad - f,
        lambda: f * bad,
        lambda: bad * f,
        lambda: constant_field(UNIT, GridSpec(8, 8), bad),
    ):
        with pytest.raises(ValidationError, match="finite"):
            make()
    with pytest.raises(ValidationError):
        TorusGeometry(1.0, bad)


def test_excluding_discs_mask():
    grid = GridSpec(64, 64)
    mask = RegionMask.excluding_discs(UNIT, grid, [(0.5, 0.5)], 0.2)
    dist = torus_distance(UNIT, grid, (0.5, 0.5))
    assert (mask.weights[dist <= 0.2] == 0.0).all()
    assert (mask.weights[dist > 0.2] == 1.0).all()


def meshgrid_distance(geometry, grid, center):
    # Minimal-image distances from full coordinate arrays, sample by sample.
    lx, ly = geometry.length_x, geometry.length_y
    x = np.arange(grid.nx) * (lx / grid.nx)
    y = np.arange(grid.ny) * (ly / grid.ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    dx = np.mod(X - center[0] + 0.5 * lx, lx) - 0.5 * lx
    dy = np.mod(Y - center[1] + 0.5 * ly, ly) - 0.5 * ly
    return np.hypot(dx, dy)


@pytest.mark.parametrize(
    "geometry,grid",
    [(UNIT, GridSpec(64, 64)), (TorusGeometry(2.0, 0.7), GridSpec(96, 40)), (TorusGeometry(0.6, 1.5), GridSpec(16, 72))],
)
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.45), (0.59, 0.01)])
def test_distances_equal_meshgrid_reference(geometry, grid, center):
    # Broadcast 1-D offsets give the same bits as full coordinate arrays.
    ref = meshgrid_distance(geometry, grid, center)
    dist = torus_distance(geometry, grid, center)
    assert dist.shape == (grid.nx, grid.ny)
    assert np.array_equal(dist, ref)
    r_in, r_out = 0.1, 0.25
    phi = bump_cutoff(geometry, grid, center, r_in, r_out)
    assert np.array_equal(phi.values, _bump_profile(ref, r_in, r_out))
    mask = RegionMask.excluding_discs(geometry, grid, [center, (0.5, 0.2)], r_out)
    expected = np.ones((grid.nx, grid.ny))
    for c in (center, (0.5, 0.2)):
        expected[meshgrid_distance(geometry, grid, c) <= r_out] = 0.0
    assert np.array_equal(mask.weights, expected)


def test_bump_cutoff_memory():
    # At 512^2 a grid is 2 MiB: the distances, the transition variable, the
    # profile and the field's own copy. Full coordinate arrays read 10 MiB.
    grid = GridSpec(512, 512)
    tracemalloc.start()
    try:
        bump_cutoff(UNIT, grid, (0.3, 0.4), 0.1, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_eigenfunction():
    for lx in (1.0, 2.0):
        geo = TorusGeometry(lx, 1.0)
        f = field_from_function(geo, GridSpec(32, 32), lambda X, Y: np.sin(2 * np.pi * X / lx))
        lam = -((2 * np.pi / lx) ** 2)
        err = np.abs(laplacian(f).values - lam * f.values).max()
        assert err <= 1e-11


def test_laplacian_constant_is_zero():
    f = constant_field(UNIT, GridSpec(16, 16), 4.5)
    assert np.abs(laplacian(f).values).max() <= 1e-13


def test_laplacian_matches_finite_differences_quadratically():
    poly = random_trig(seed=7, n_modes=8, kmax=5)
    errs = []
    for n in (64, 128, 256):
        grid = GridSpec(n, n)
        f = poly.field(UNIT, grid)
        hx, hy = grid.spacing(UNIT)
        oracle = fd_laplacian(f.values, hx, hy)
        errs.append(np.abs(laplacian(f).values - oracle).max())
    # Spectral equals the continuum Laplacian to roundoff, so the gap is
    # the O(h^2) truncation of the centered stencil: ratio ~ 4 per halving.
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_laplacian_of_trig_poly_matches_closed_form():
    poly = random_trig(seed=11, n_modes=6, kmax=4, length_x=2.0, length_y=0.5)
    geo = TorusGeometry(2.0, 0.5)
    grid = GridSpec(64, 32)
    f = poly.field(geo, grid)
    X, Y = grid_points(geo, grid)
    assert np.abs(laplacian(f).values - poly.laplacian(X, Y)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_laplacian_has_zero_mean(seed):
    f = random_field(UNIT, GridSpec(16, 16), seed, scale=3.0)
    assert abs(integrate(laplacian(f))) <= 1e-12 * max(lp_norm(f, 2), 1e-30)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_laplacian_self_adjoint(seed):
    grid = GridSpec(16, 16)
    f = random_field(UNIT, grid, seed)
    g = random_field(UNIT, grid, seed + 1)
    lhs = integrate(laplacian(f) * g)
    rhs = integrate(f * laplacian(g))
    assert abs(lhs - rhs) <= 1e-10 * lp_norm(f, 2) * lp_norm(g, 2)


def test_symbol_cache_is_bounded():
    for n in range(8, 28, 2):
        laplacian(constant_field(UNIT, GridSpec(n, n + 2), 1.0))
    assert _wavenumbers.cache_info().currsize <= 4


# ---------------------------------------------------------------------------
# Gradient and energy


def test_gradient_matches_closed_form():
    poly = random_trig(seed=3, n_modes=5, kmax=4)
    grid = GridSpec(64, 64)
    f = poly.field(UNIT, grid)
    X, Y = grid_points(UNIT, grid)
    gx, gy = poly.gradient(X, Y)
    fx, fy = gradient(f)
    assert np.abs(fx.values - gx).max() <= 1e-10
    assert np.abs(fy.values - gy).max() <= 1e-10
    mag = gradient_magnitude(f)
    assert np.abs(mag.values - np.hypot(gx, gy)).max() <= 1e-10


def test_dirichlet_energy_of_sine():
    f = unit_field(32, lambda X, Y: np.sin(2 * np.pi * X))
    # integral of (2 pi cos(2 pi x))^2 over the unit torus
    assert dirichlet_energy(f) == pytest.approx(2.0 * np.pi**2, abs=1e-10)


def test_gradient_non_square_grid():
    geo = TorusGeometry(2.0, 0.5)
    poly = random_trig(seed=13, n_modes=6, kmax=4, length_x=2.0, length_y=0.5)
    for grid in (GridSpec(48, 16), GridSpec(16, 40)):
        f = poly.field(geo, grid)
        X, Y = grid_points(geo, grid)
        gx, gy = poly.gradient(X, Y)
        fx, fy = gradient(f)
        assert np.abs(fx.values - gx).max() <= 1e-10
        assert np.abs(fy.values - gy).max() <= 1e-10


def test_dirichlet_energy_of_y_mode():
    f = field_from_function(
        TorusGeometry(1.0, 2.0), GridSpec(16, 24), lambda X, Y: np.cos(np.pi * Y)
    )
    # integral of (pi sin(pi y))^2 over [0, 1) x [0, 2)
    assert dirichlet_energy(f) == pytest.approx(np.pi**2, rel=1e-12)


def test_dirichlet_energy_of_y_nyquist_mode():
    # cos(pi ny y) samples as (-1)^j, so its grid mean square is 1 and the
    # y-Nyquist column, its own conjugate mirror, counts once.
    ny = 24
    f = field_from_function(
        UNIT, GridSpec(16, ny), lambda X, Y: np.cos(np.pi * ny * Y) + np.sin(2 * np.pi * X)
    )
    expected = (np.pi * ny) ** 2 + 2.0 * np.pi**2
    assert dirichlet_energy(f) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_dirichlet_energy_matches_laplacian_pairing(seed):
    f = random_field(TorusGeometry(1.0, 1.5), GridSpec(16, 24), seed)
    expected = -integrate(f * laplacian(f))
    assert abs(dirichlet_energy(f) - expected) <= 1e-12 * expected


# ---------------------------------------------------------------------------
# Quadrature and norms


def test_integrate_constant_three():
    assert integrate(constant_field(UNIT, GridSpec(16, 16), 3.0)) == pytest.approx(3.0)


def test_integrate_scales_with_volume():
    geo = TorusGeometry(2.0, 3.0)
    assert integrate(constant_field(geo, GridSpec(8, 8), 1.5)) == pytest.approx(9.0)


def test_l2_norm_of_sine_is_sqrt_half():
    f = unit_field(32, lambda X, Y: np.sin(2 * np.pi * X))
    full = RegionMask.full(UNIT, GridSpec(32, 32))
    assert abs(lp_norm(f, 2, full) - np.sqrt(0.5)) <= 1e-13
    assert abs(lp_norm(f, 2) - np.sqrt(0.5)) <= 1e-13


@pytest.mark.parametrize("p", [2, 4])
def test_lp_norm_matches_refined_quadrature(p):
    # |f|^p is a trig polynomial of band p*kmax, resolved on both grids,
    # so doubling the resolution is an independent exact oracle.
    poly = random_trig(seed=23, n_modes=6, kmax=5)
    coarse = lp_norm(poly.field(UNIT, GridSpec(64, 64)), p)
    fine = lp_norm(poly.field(UNIT, GridSpec(128, 128)), p)
    assert abs(coarse - fine) <= 1e-10


def test_lp_norm_rejects_p_below_one():
    f = constant_field(UNIT, GridSpec(8, 8), 1.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_sup_norm_uses_mask_threshold():
    grid = GridSpec(8, 8)
    vals = np.zeros((8, 8))
    vals[0, 0] = -7.0
    vals[4, 4] = 5.0
    f = ScalarField(UNIT, grid, vals)
    assert sup_norm(f) == 7.0
    weights = np.full((8, 8), 0.4)
    weights[4, 4] = 1.0
    mask = RegionMask(UNIT, grid, weights)
    # Only samples with weight > 1/2 count.
    assert sup_norm(f, mask) == 5.0


def test_empty_mask_errors():
    grid = GridSpec(8, 8)
    f = constant_field(UNIT, grid, 1.0)
    empty = RegionMask(UNIT, grid, np.zeros((8, 8)))
    with pytest.raises(ValidationError):
        lp_norm(f, 2, empty)
    with pytest.raises(ValidationError):
        sup_norm(f, empty)


def test_norms_reject_mismatched_mask():
    f = constant_field(UNIT, GridSpec(8, 8), 1.0)
    mask = RegionMask.full(UNIT, GridSpec(16, 16))
    with pytest.raises(ValidationError):
        lp_norm(f, 2, mask)
    with pytest.raises(ValidationError):
        sup_norm(f, mask)


# ---------------------------------------------------------------------------
# Off-grid sampling


def test_sample_at_reproduces_grid_values():
    f = random_field(UNIT, GridSpec(16, 16), seed=5)
    for i, j in ((0, 0), (3, 7), (15, 1)):
        pt = (i / 16.0, j / 16.0)
        assert abs(sample_at(f, pt) - f.values[i, j]) <= 1e-12


def test_sample_at_band_limited_sine():
    f = unit_field(16, lambda X, Y: np.sin(2 * np.pi * X))
    val = sample_at(f, (1.0 / 8.0, 0.33))
    assert abs(val - np.sqrt(2.0) / 2.0) <= 1e-12


def test_sample_at_matches_direct_summation_oracle():
    poly = random_trig(seed=17, n_modes=8, kmax=5)
    f = poly.field(UNIT, GridSpec(32, 32))
    rng = np.random.default_rng(99)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    vals = sample_at(f, pts)
    exact = poly(pts[:, 0], pts[:, 1])
    assert np.abs(vals - exact).max() <= 1e-10


@pytest.mark.parametrize("nx,ny", [(16, 40), (40, 16)])
def test_sample_at_non_square_grid(nx, ny):
    # The y-Nyquist mode is real on the grid and interpolates as a cosine.
    ly = 2.5
    poly = random_trig(seed=29, n_modes=8, kmax=5, length_x=1.0, length_y=ly)

    def fn(X, Y):
        return poly(X, Y) + np.cos(np.pi * ny * Y / ly)

    f = field_from_function(TorusGeometry(1.0, ly), GridSpec(nx, ny), fn)
    pts = np.random.default_rng(7).uniform(0.0, 1.0, size=(50, 2)) * [1.0, ly]
    assert np.abs(sample_at(f, pts) - fn(pts[:, 0], pts[:, 1])).max() <= 1e-10


def test_sample_at_rejects_bad_shapes():
    f = constant_field(UNIT, GridSpec(8, 8), 1.0)
    with pytest.raises(ValueError):
        sample_at(f, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Linearized solver


def test_solve_linearized_diagonal_case():
    grid = GridSpec(16, 16)
    x = solve_linearized(
        0.0,
        constant_field(UNIT, grid, 2.0),
        constant_field(UNIT, grid, 4.0),
    )
    assert np.abs(x.values - 2.0).max() <= 1e-12


def test_solve_linearized_single_mode():
    for lx in (1.0, 2.0):
        geo = TorusGeometry(lx, 1.0)
        grid = GridSpec(32, 32)
        target = field_from_function(geo, grid, lambda X, Y: np.sin(2 * np.pi * X / lx))
        rhs = (1.0 + (2 * np.pi / lx) ** 2) * target
        x = solve_linearized(1.0, constant_field(geo, grid, 1.0), rhs)
        assert np.abs(x.values - target.values).max() <= 1e-10


def test_solve_linearized_random_spd_residual():
    grid = GridSpec(32, 32)
    rng = np.random.default_rng(31)
    pot = ScalarField(UNIT, grid, 1.5 + rng.uniform(0.0, 2.0, (32, 32)))
    rhs = ScalarField(UNIT, grid, rng.standard_normal((32, 32)))
    tol = 1e-12
    x = solve_linearized(0.7, pot, rhs, tol=tol)
    applied = -0.7 * laplacian(x).values + pot.values * x.values
    res = np.linalg.norm(applied - rhs.values)
    assert res <= tol * np.linalg.norm(rhs.values)


def test_solve_linearized_zero_rhs_is_zero():
    grid = GridSpec(8, 8)
    x = solve_linearized(
        1.0, constant_field(UNIT, grid, 1.0), constant_field(UNIT, grid, 0.0)
    )
    assert (x.values == 0.0).all()


def test_solve_linearized_commutes_with_negation():
    # Newton hands CG its residual and steps along the negated solution,
    # which is exact only if the solve of -b is minus the solve of b.
    grid = GridSpec(64, 64)
    rng = np.random.default_rng(7)
    pot = ScalarField(UNIT, grid, rng.uniform(1e-3, 3.0, (64, 64)))
    rhs = ScalarField(UNIT, grid, rng.standard_normal((64, 64)))
    for eps in (1.0, 1e-4):
        x = solve_linearized(eps, pot, rhs, tol=1e-9)
        assert solve_linearized(eps, pot, -rhs, tol=1e-9).values.tobytes() == (-x).values.tobytes()


def test_constant_field_holds_no_grid():
    f = constant_field(UNIT, GridSpec(64, 32), -1.5)
    assert f.values.shape == (64, 32) and f.values.strides == (0, 0)
    assert (f.values == -1.5).all() and not f.values.flags.writeable
    for bad in (np.inf, np.nan):
        with pytest.raises(ValidationError):
            constant_field(UNIT, GridSpec(8, 8), bad)


def test_solve_linearized_errors():
    grid = GridSpec(16, 16)
    good = constant_field(UNIT, grid, 1.0)
    flat = constant_field(UNIT, grid, 0.0)
    with pytest.raises(ValidationError):
        solve_linearized(1.0, flat, good)
    with pytest.raises(ValueError):
        solve_linearized(-1.0, good, good)
    rng = np.random.default_rng(2)
    pot = ScalarField(UNIT, grid, 1.0 + rng.uniform(0.0, 5.0, (16, 16)))
    rhs = ScalarField(UNIT, grid, rng.standard_normal((16, 16)))
    with pytest.raises(NoConvergence):
        solve_linearized(1.0, pot, rhs, tol=1e-15, max_iter=1)


def random_spd_problem(n, seed):
    grid = GridSpec(n, n)
    rng = np.random.default_rng(seed)
    pot = ScalarField(UNIT, grid, 1.0 + rng.uniform(0.0, 5.0, (n, n)))
    rhs = ScalarField(UNIT, grid, rng.standard_normal((n, n)))
    return pot, rhs


@pytest.mark.parametrize("k", [1, 3, 5])
def test_cg_iteration_costs_two_transforms(monkeypatch, k):
    # One preconditioner application (a forward and an inverse transform)
    # before the first iteration and one per iteration; A p needs none.
    # Carrying the direction's Laplacian through a second inverse cost
    # 3 (k + 1).
    pot, rhs = random_spd_problem(32, seed=7)
    calls = record_transforms(monkeypatch)
    with pytest.raises(NoConvergence):
        solve_linearized(0.3, pot, rhs, tol=1e-15, max_iter=k)
    assert len(calls) == 2 * (k + 1)


def test_cg_transforms_write_into_their_buffers(monkeypatch):
    # Every transform of the solve fills a work array through ``out``;
    # numpy's irfft2 accepts ``out`` but returns a fresh array instead.
    pot, rhs = random_spd_problem(32, seed=8)
    calls = record_transforms(monkeypatch)
    solve_linearized(0.3, pot, rhs, tol=1e-10)
    assert any(name.startswith("i") for name, _ in calls)
    assert all(wrote for _, wrote in calls), calls


def test_operators_write_every_transform_into_its_buffer(monkeypatch):
    # Outside CG as inside it, every transform fills an array through
    # ``out``, and only real-to-complex transforms run.
    f = random_field(UNIT, GridSpec(16, 24), seed=12)
    calls = record_transforms(monkeypatch)
    laplacian(f)
    gradient_magnitude(f)
    dirichlet_energy(f)
    spectral_tail(f)
    sample_at(f, (0.3, 0.6))
    resample(f, GridSpec(24, 16))
    assert {name for name, _ in calls} == {"rfft2", "irfftn"}
    assert all(wrote for _, wrote in calls), calls


def test_cg_memory():
    # Six work grids, the half spectrum, its inverse symbol and the inverse
    # transform's own complex temporary (a grid is 2 MiB): 17.0 MiB
    # measured. Fresh arrays for every update and a second inverse
    # transform read 26.0 MiB.
    grid = GridSpec(512, 512)
    pot = field_from_function(
        UNIT, grid, lambda X, Y: 2.0 + np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    )
    rhs = random_field(UNIT, grid, seed=5)
    _wavenumbers(UNIT, grid)  # the symbol cache is not the solve's memory
    tracemalloc.start()
    try:
        solve_linearized(0.01, pot, rhs, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_cg_true_residual_where_the_potential_vanishes(eps):
    # On the disc where the potential is floored, -eps laplacian(z) is the
    # small difference r - mean(V) z of two large terms; the recursion
    # for -eps laplacian(p) drifts, and the true-residual guard must still
    # certify the answer against the operator applied through laplacian.
    grid = GridSpec(128, 128)
    phi = bump_cutoff(UNIT, grid, (0.5, 0.5), 0.1, 0.2)
    pot = ScalarField(UNIT, grid, np.maximum(1.0 - phi.values, 1e-14))
    rhs = random_field(UNIT, grid, seed=11)
    tol = 1e-8
    x = solve_linearized(eps, pot, rhs, tol=tol)
    applied = -eps * laplacian(x).values + pot.values * x.values
    res = np.linalg.norm(applied - rhs.values)
    assert res <= tol * np.linalg.norm(rhs.values)


# ---------------------------------------------------------------------------
# Smooth cutoffs


def test_bump_cutoff_plateau_and_support():
    grid = GridSpec(128, 128)
    phi = bump_cutoff(UNIT, grid, (0.5, 0.5), 0.1, 0.3)
    assert phi.min() >= 0.0 and phi.max() <= 1.0
    dist = torus_distance(UNIT, grid, (0.5, 0.5))
    assert (phi.values[dist <= 0.1] == 1.0).all()
    assert (phi.values[dist >= 0.3] == 0.0).all()
    assert abs(sample_at(phi, (0.5, 0.5)) - 1.0) <= 1e-9


def test_bump_cutoff_monotone_profile():
    # Along the x axis from the center the samples step 1/512 in radius;
    # 100 of them fall strictly between the plateau and the support edge.
    phi = bump_cutoff(UNIT, GridSpec(512, 8), (0.0, 0.0), 0.1, 0.3)
    vals = phi.values[:257, 0]
    assert (np.diff(vals) <= 1e-15).all()
    assert ((vals > 0.0) & (vals < 1.0)).sum() >= 100


@pytest.mark.parametrize(
    "r_inner,r_outer",
    [(0.3, 0.2), (0.0, 0.3), (-0.1, 0.2), (0.2, 0.5), (0.1, 0.7)],
)
def test_bump_cutoff_bad_radii(r_inner, r_outer):
    with pytest.raises(ValidationError):
        bump_cutoff(UNIT, GridSpec(32, 32), (0.5, 0.5), r_inner, r_outer)


def test_cutoff_ratio_single_constant_across_alpha():
    # One constant bounds sup |grad phi|^2 / phi^alpha * (2 - alpha)^4 for
    # all probed alpha; the constant is measured once at alpha = 1. The
    # alpha = 0 end sits a factor ~e above the alpha = 1 value, so the
    # reuse carries a fixed headroom multiplier.
    grid = GridSpec(256, 256)
    phi = bump_cutoff(UNIT, grid, (0.5, 0.5), 0.15, 0.35)
    K = cutoff_ratio_sup(phi, 1.0) * (2.0 - 1.0) ** 4
    for alpha in (0.0, 1.0, 1.5, 1.9):
        scaled = cutoff_ratio_sup(phi, alpha) * (2.0 - alpha) ** 4
        assert np.isfinite(scaled) and scaled > 0.0
        assert scaled <= 8.0 * K


def test_cutoff_ratio_growth_no_faster_than_quartic():
    grid = GridSpec(256, 256)
    phi = bump_cutoff(UNIT, grid, (0.5, 0.5), 0.15, 0.35)
    alphas = (1.5, 1.75, 1.9)
    sups = [cutoff_ratio_sup(phi, a) for a in alphas]
    for (a1, s1), (a2, s2) in zip(zip(alphas, sups), zip(alphas[1:], sups[1:])):
        measured_ratio = s2 / s1
        quartic_ratio = ((2.0 - a1) / (2.0 - a2)) ** 4
        assert measured_ratio <= 1.05 * quartic_ratio


def test_cutoff_ratio_empty_floor():
    phi = constant_field(UNIT, GridSpec(16, 16), 0.0)
    with pytest.raises(ValidationError):
        cutoff_ratio_sup(phi, 1.0)


# ---------------------------------------------------------------------------
# Resampling


def test_resample_round_trip_band_limited():
    poly = random_trig(seed=41, n_modes=6, kmax=5)
    f32 = poly.field(UNIT, GridSpec(32, 32))
    up = resample(f32, GridSpec(64, 64))
    exact = poly.field(UNIT, GridSpec(64, 64))
    assert np.abs(up.values - exact.values).max() <= 1e-11
    back = resample(up, GridSpec(32, 32))
    assert np.abs(back.values - f32.values).max() <= 1e-11


def test_resample_identity_grid():
    f = random_field(UNIT, GridSpec(16, 16), seed=8)
    same = resample(f, GridSpec(16, 16))
    assert np.abs(same.values - f.values).max() <= 1e-14


def test_resample_preserves_mean():
    f = random_field(UNIT, GridSpec(16, 16), seed=9)
    up = resample(f, GridSpec(48, 48))
    assert integrate(up) == pytest.approx(integrate(f), abs=1e-12)


def test_resample_non_square_round_trip():
    # Up along x, down along y and back; the polynomial is band-limited
    # to the coarser axis of every grid.
    poly = random_trig(seed=43, n_modes=8, kmax=5)
    a = poly.field(UNIT, GridSpec(16, 32))
    b = resample(a, GridSpec(32, 16))
    assert np.abs(b.values - poly.field(UNIT, GridSpec(32, 16)).values).max() <= 1e-11
    back = resample(b, GridSpec(16, 32))
    assert np.abs(back.values - a.values).max() <= 1e-11


def test_resample_non_square_nyquist_split_and_fold():
    # Both Nyquist modes of a 16 x 24 grid: upsampling splits each into a
    # cosine, and downsampling folds the y pair (at kx = +-1) back.
    geo = TorusGeometry(1.0, 2.0)

    def fn(X, Y):
        return np.cos(16 * np.pi * X) + np.cos(12 * np.pi * Y) * np.sin(2 * np.pi * X)

    f = field_from_function(geo, GridSpec(16, 24), fn)
    up = resample(f, GridSpec(24, 40))
    exact = field_from_function(geo, GridSpec(24, 40), fn)
    assert np.abs(up.values - exact.values).max() <= 1e-11
    assert np.abs(resample(up, GridSpec(16, 24)).values - f.values).max() <= 1e-11


def test_no_complex_full_spectrum_transform(monkeypatch):
    # Every transform is real-to-complex; a full complex one must not
    # come back unnoticed.
    def forbidden(*args, **kwargs):
        raise AssertionError("complex full-spectrum transform called")

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, forbidden)
    spec = ClassicalVortexSpec(UNIT, GridSpec(32, 32), Divisor(((0.5, 0.5),), (1,)), 0.25)
    stage = solve_and_report(spec).stages[0]
    assert stage.newton.iterations >= 1
    f = random_field(UNIT, GridSpec(16, 24), seed=3)
    assert resample(f, GridSpec(24, 16)).grid == GridSpec(24, 16)
    assert abs(sample_at(f, (0.25, 0.75)) - f.values[4, 18]) <= 1e-12


# ---------------------------------------------------------------------------
# Spectral tail


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(24, 40), GridSpec(96, 48)])
def test_spectral_tail_of_a_constant_field_is_zero(grid):
    # 24, 40, 96 and 48 have factors 3 and 5, whose butterflies leave
    # roundoff in the non-mean coefficients of a constant.
    assert spectral_tail(constant_field(UNIT, grid, 0.0)) == 0.0
    assert spectral_tail(constant_field(UNIT, grid, -3.7)) == 0.0


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(24, 48)])
@pytest.mark.parametrize("amplitude", [1e-3, 1e-9])
def test_spectral_tail_reads_the_top_third_over_the_largest_mode(grid, amplitude):
    # The mean (5.0) is left out of the normalization; the mode n/2 - 1
    # lies in the top third of its axis.
    for axis in (0, 1):
        k_hi = (grid.nx, grid.ny)[axis] // 2 - 1

        def fn(X, Y, axis=axis, k_hi=k_hi):
            hi = X if axis == 0 else Y
            return 5.0 + np.cos(2 * np.pi * X) + amplitude * np.cos(2 * np.pi * k_hi * hi)

        f = field_from_function(UNIT, grid, fn)
        assert spectral_tail(f) == pytest.approx(amplitude, rel=1e-6)


def test_spectral_tail_ignores_modes_below_the_top_third():
    f = field_from_function(
        UNIT, GridSpec(24, 24), lambda X, Y: np.sin(2 * np.pi * 8 * X) * np.cos(2 * np.pi * 8 * Y)
    )
    # |k| / n = 1/3 exactly is not in the tail.
    assert spectral_tail(f) <= 1e-14


def test_operators_read_a_given_spectrum_bit_for_bit(monkeypatch):
    f = random_field(UNIT, GridSpec(16, 24), seed=11)
    spectrum = np.fft.rfft2(f.values)
    expected = (laplacian(f), gradient(f), gradient_magnitude(f), spectral_tail(f))
    calls = record_transforms(monkeypatch)
    given_spec = (
        laplacian(f, spectrum),
        gradient(f, spectrum),
        gradient_magnitude(f, spectrum),
        spectral_tail(f, spectrum),
    )
    assert not [name for name, _ in calls if name == "rfft2"]
    assert np.array_equal(given_spec[0].values, expected[0].values)
    for a, b in zip(given_spec[1], expected[1]):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(given_spec[2].values, expected[2].values)
    assert given_spec[3] == expected[3]
