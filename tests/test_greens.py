"""Theta functions, the torus Green's function, divisors, and densities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import grid_points, theta1, trig_interpolant
from vortexlab import (
    Divisor,
    GridSpec,
    TorusGeometry,
    divisor_potential,
    torus_green,
)
from vortexlab.errors import ValidationError
from vortexlab.greens import (
    NEGATIVE_SENTINEL,
    _green_constant,
    _point_distance,
    _series,
    _term_count,
)
from vortexlab.vortex import _density_data

UNIT = TorusGeometry(1.0, 1.0)
GRID = GridSpec(256, 256)


def lap4(fn, X, Y, h=1e-5):
    """4th-order analytic finite-difference Laplacian of a closed form.

    The singular potentials defeat both grid-spectral and 2nd-order
    stencils near the points; differentiating the closed form with a
    sub-grid step keeps truncation and roundoff below 2e-4 at four grid
    cells from a logarithmic singularity.
    """
    acc = -60.0 * fn(X, Y)
    for s, c in ((1, 16.0), (-1, 16.0), (2, -1.0), (-2, -1.0)):
        acc = acc + c * fn(X + s * h, Y) + c * fn(X, Y + s * h)
    return acc / (12.0 * h * h)


# ---------------------------------------------------------------------------
# Theta series


@pytest.mark.parametrize("im_tau", [1.0, 1.34, 3.12, 15.6, 200.0])
def test_series_truncation_tail(im_tau):
    # The derived term count matches an explicit 64-term sum over the
    # fundamental cell |Re z| <= 1/2, |Im z| <= Im tau / 2: on the square
    # torus (4 terms), just past each step of the count (3, 2 and 1 terms)
    # and at the largest modulus. Terms whose coefficient underflows to
    # zero are skipped: their sine overflows.
    k, coeff = _series(1.0, im_tau)
    rng = np.random.default_rng(6)
    z = rng.uniform(-0.5, 0.5, 200) + 1j * rng.uniform(-0.5, 0.5, 200) * im_tau
    n = np.arange(64)
    ref_coeff = 2.0 * (-1.0) ** n * np.exp(-np.pi * im_tau * (n + 0.5) ** 2)
    ref = sum(c * np.sin((2 * j + 1) * np.pi * z) for j, c in enumerate(ref_coeff) if c != 0)
    got = coeff @ np.sin(np.multiply.outer(k, z))
    assert (np.abs(got - ref) <= 1e-14 * np.abs(ref)).all()


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 8.0), (8.0, 1.0), (20.0, 1.0), (2.0, 0.5)])
def test_green_equals_complex_theta1(lengths):
    # torus_green's real factors against (log|theta1| - pi y^2 / V) / 2pi in
    # complex arithmetic, on random points in several period cells and on
    # the cell's corners. The reference is taken on the orientation with
    # Im tau >= 1, where the complex series does not cancel, with the
    # reflection shift for a torus with length_y < length_x.
    lx, ly = lengths
    rng = np.random.default_rng(11)
    x = np.concatenate((rng.uniform(-lx, 2 * lx, 200), 0.5 * lx * np.array([1, -1, 1, -1])))
    y = np.concatenate((rng.uniform(-ly, 2 * ly, 200), 0.5 * ly * np.array([1, -1, -1, 1])))
    got = torus_green((x, y), TorusGeometry(lx, ly))
    a = np.mod(x + 0.5 * lx, lx) - 0.5 * lx
    b = np.mod(y + 0.5 * ly, ly) - 0.5 * ly
    shift = max(0.0, np.log(lx / ly) / (4 * np.pi))
    if ly < lx:
        a, b, lx, ly = b, a, ly, lx
    ref = (np.log(np.abs(theta1((a + 1j * b) / lx, 1j * ly / lx))) - np.pi * b**2 / (lx * ly))
    ref = ref / (2 * np.pi) + shift
    assert (np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all()


# ---------------------------------------------------------------------------
# Green's function


def test_green_is_even():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.uniform(0.05, 0.45, 2)
        a = torus_green((p[0], p[1]), UNIT)
        b = torus_green((-p[0], -p[1]), UNIT)
        assert abs(a - b) <= 1e-12


def test_green_periodicity():
    geo = TorusGeometry(1.0, 1.5)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(0.05, 0.9), rng.uniform(0.05, 1.4)
        g = torus_green((x, y), geo)
        assert abs(torus_green((x + 1.0, y), geo) - g) <= 1e-12
        assert abs(torus_green((x, y + 1.5), geo) - g) <= 1e-12


def test_green_lattice_sentinel():
    assert torus_green((0.0, 0.0), UNIT) == -np.inf
    assert np.exp(torus_green((0.0, 0.0), UNIT)) == 0.0


def test_green_flux_quadrature():
    # Line integral of dG/dn around a radius-0.1 circle at the origin:
    # the enclosed delta minus the uniform background, 1 - pi r^2 / Vol.
    # dG/dn is a central difference of G along the normal.
    n = 4096
    theta = (np.arange(n) + 0.5) * 2.0 * np.pi / n
    r, h = 0.1, 1e-6
    c, s = np.cos(theta), np.sin(theta)
    dgdn = (
        torus_green(((r + h) * c, (r + h) * s), UNIT)
        - torus_green(((r - h) * c, (r - h) * s), UNIT)
    ) / (2 * h)
    flux = float(np.sum(dgdn)) * (2 * np.pi * r / n)
    assert abs(flux - (1.0 - np.pi * r**2)) <= 1e-6


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (2.0, 0.5)])
def test_green_normalization_either_orientation(lengths):
    # G(z) - log|z| / 2pi -> log(2 pi |eta(tau)|^3 / lx) / 2pi, tau = i ly/lx,
    # whichever way the torus is evaluated; eta by its product formula.
    lx, ly = lengths
    q = np.exp(-np.pi * ly / lx)
    eta = q ** (1 / 12) * np.prod(1.0 - q ** (2.0 * np.arange(1, 200)))
    r = 1e-6
    regular = torus_green((r, 0.0), TorusGeometry(lx, ly)) - np.log(r) / (2 * np.pi)
    assert abs(regular - np.log(2 * np.pi * eta**3 / lx) / (2 * np.pi)) <= 1e-9
    # The same limit from the theta series' slope at 0, with no offset.
    exact = _green_constant(TorusGeometry(lx, ly))
    assert abs(exact - np.log(2 * np.pi * eta**3 / lx) / (2 * np.pi)) <= 1e-13


def test_green_mean_laplacian_far_from_origin():
    x = np.arange(256) / 256.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    dx = np.mod(X + 0.5, 1.0) - 0.5
    dy = np.mod(Y + 0.5, 1.0) - 0.5
    far = np.hypot(dx, dy) >= 0.2
    vals = lap4(lambda a, b: torus_green((a, b), UNIT), X[far], Y[far])
    assert abs(vals.mean() - (-1.0)) <= 1e-3


# ---------------------------------------------------------------------------
# Divisors


def test_divisor_validation():
    with pytest.raises(ValueError):
        Divisor(((0.1, 0.1), (0.2, 0.2)), (1,))
    d = Divisor.from_items([(0.1, 0.2, 1), (0.3, 0.4, 2)])
    assert d.degree == 3
    assert len(d) == 2


@pytest.mark.parametrize("m", [-1, 0])
def test_divisor_is_effective(m):
    # A density e^{u_D} vanishes only for positive multiplicities.
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Divisor(((0.2, 0.2),), (m,))
    with pytest.raises(ValueError, match="multiplicities must be positive"):
        Divisor(((0.2, 0.2), (0.6, 0.6)), (1, m))


@pytest.mark.parametrize("m", [1.7, 0.5, np.float64(2.5)])
def test_divisor_rejects_non_integer_multiplicities(m):
    with pytest.raises(ValueError, match=f"multiplicities must be integers, got {m}"):
        Divisor(((0.2, 0.2),), (m,))
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        Divisor.from_items([(0.2, 0.2, 1), (0.6, 0.6, m)])


def test_divisor_accepts_integral_multiplicities():
    d = Divisor(((0.2, 0.2), (0.6, 0.6), (0.4, 0.9)), (2.0, np.int64(3), np.float64(1.0)))
    assert d.multiplicities == (2, 3, 1)
    assert all(type(m) is int for m in d.multiplicities)


def test_divisor_separation_modulo_periods():
    d = Divisor(((0.1, 0.2), (1.1, 0.2)), (1, 1))
    with pytest.raises(ValueError, match="coincide"):
        d.check_separated(UNIT)
    Divisor(((0.1, 0.2), (0.6, 0.2)), (1, 1)).check_separated(UNIT)


@pytest.mark.parametrize(
    "p, q",
    [((0.001, 0.2), (0.001 + 1e-12, 0.2)), ((0.01, 0.01), (0.01, 0.01 + 3e-10))],
)
def test_point_distance_is_exact_for_close_points(p, q):
    # Reducing d by mod(d + L/2, L) - L/2 rounds it at ulp(L/2); close
    # points keep their raw offsets exactly.
    assert _point_distance(UNIT, p, q) == math.hypot(p[0] - q[0], p[1] - q[1])


def test_empty_divisor_potential_is_zero():
    u = divisor_potential(Divisor((), ()), UNIT, GridSpec(16, 16))
    assert (u.values == 0.0).all()
    dens, _ = _density_data(UNIT, GridSpec(16, 16), Divisor((), ()), 1.0, False)
    assert (dens.values == 1.0).all()


# ---------------------------------------------------------------------------
# Divisor potentials


def u_closed_form(divisor, geometry):
    def fn(a, b):
        acc = np.zeros_like(np.asarray(a, dtype=float))
        for (px, py), m in divisor:
            acc = acc + 4.0 * np.pi * m * torus_green((a - px, b - py), geometry)
        return acc

    return fn


def test_potential_log_slope_single_point():
    div = Divisor(((0.5, 0.5),), (1,))
    fn = u_closed_form(div, UNIT)
    radii = np.exp(np.linspace(np.log(0.02), np.log(0.1), 12))
    ang = np.arange(64) * 2.0 * np.pi / 64
    means = [
        float(np.mean(fn(0.5 + r * np.cos(ang), 0.5 + r * np.sin(ang))))
        for r in radii
    ]
    slope = np.polyfit(np.log(radii), means, 1)[0]
    assert abs(slope - 2.0) <= 0.02


def test_potential_far_laplacian_constant():
    div = Divisor(((0.3, 0.42), (0.7, 0.1)), (1, 2))
    fn = u_closed_form(div, UNIT)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, (600, 2))
    h = 1.0 / 256
    dist = np.full(600, np.inf)
    for (px, py), _ in div:
        ddx = np.mod(pts[:, 0] - px + 0.5, 1.0) - 0.5
        ddy = np.mod(pts[:, 1] - py + 0.5, 1.0) - 0.5
        dist = np.minimum(dist, np.hypot(ddx, ddy))
    sel = dist > 4 * h
    vals = lap4(fn, pts[sel, 0], pts[sel, 1])
    target = -4.0 * np.pi * div.degree
    assert np.abs(vals - target).max() <= 1e-3


def test_green_difference_has_zero_mean_laplacian():
    # A charge and an anticharge: the uniform backgrounds of the two
    # Green's functions cancel, leaving a harmonic function off the points.
    points = ((0.25, 0.25), (0.75, 0.75))

    def fn(a, b):
        p, q = points
        return 4.0 * np.pi * (
            torus_green((a - p[0], b - p[1]), UNIT) - torus_green((a - q[0], b - q[1]), UNIT)
        )

    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, (600, 2))
    dist = np.full(600, np.inf)
    for px, py in points:
        ddx = np.mod(pts[:, 0] - px + 0.5, 1.0) - 0.5
        ddy = np.mod(pts[:, 1] - py + 0.5, 1.0) - 0.5
        dist = np.minimum(dist, np.hypot(ddx, ddy))
    sel = dist > 4.0 / 256
    vals = lap4(fn, pts[sel, 0], pts[sel, 1])
    assert abs(vals.mean()) <= 1e-3


def test_potential_linearity_disjoint_supports():
    d1 = Divisor(((0.2, 0.2),), (1,))
    d2 = Divisor(((0.7, 0.6),), (2,))
    combined = Divisor(d1.points + d2.points, d1.multiplicities + d2.multiplicities)
    grid = GridSpec(64, 64)
    u1 = divisor_potential(d1, UNIT, grid)
    u2 = divisor_potential(d2, UNIT, grid)
    u12 = divisor_potential(combined, UNIT, grid)
    assert np.abs(u12.values - (u1.values + u2.values)).max() <= 1e-12


def test_potential_sentinel_at_exact_sample():
    # Point placed on a grid sample: the log blows up there; the sample
    # stores the finite sentinel and exp() of it is exactly zero.
    div = Divisor(((0.5, 0.5),), (1,))
    u = divisor_potential(div, UNIT, GridSpec(16, 16))
    assert u.values[8, 8] == NEGATIVE_SENTINEL
    assert np.isfinite(u.values).all()
    dens, _ = _density_data(UNIT, GridSpec(16, 16), div, 1.0, False)
    assert dens.values[8, 8] == 0.0
    assert (dens.values >= 0.0).all()


@settings(max_examples=25, deadline=None)
@given(
    log_aspect=st.floats(-np.log(40.0), np.log(40.0)),
    pts=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    ),
)
def test_potential_non_square_torus(log_aspect, pts):
    # Aspect ratios 1:40 to 40:1, the short side of length 1: the sampled
    # potential is finite and the closed form has the far-field Laplacian
    # -4 pi d / V (h = 1e-4 keeps lap4 roundoff below 1e-4 at |u| ~ 250).
    aspect = float(np.exp(log_aspect))
    geo = TorusGeometry(max(1.0, 1.0 / aspect), max(1.0, aspect))
    lx, ly = geo.length_x, geo.length_y
    div = Divisor(tuple((x * lx, y * ly) for x, y, _ in pts), tuple(m for *_, m in pts))
    try:
        div.check_separated(geo, 0.05)
    except ValueError:
        assume(False)
    u = divisor_potential(div, geo, GridSpec(32, 32))
    assert np.isfinite(u.values).all()
    rng = np.random.default_rng(7)
    X, Y = rng.uniform(0.0, lx, 400), rng.uniform(0.0, ly, 400)
    dist = np.full(400, np.inf)
    for (px, py), _ in div:
        ddx = np.mod(X - px + 0.5 * lx, lx) - 0.5 * lx
        ddy = np.mod(Y - py + 0.5 * ly, ly) - 0.5 * ly
        dist = np.minimum(dist, np.hypot(ddx, ddy))
    sel = dist > 0.1
    vals = lap4(u_closed_form(div, geo), X[sel], Y[sel], h=1e-4)
    assert np.abs(vals - (-4.0 * np.pi * div.degree / geo.volume)).max() <= 1e-3


@pytest.mark.parametrize(
    "lengths,grid",
    [((1.0, 1.0), GridSpec(64, 64)), ((1.0, 8.0), GridSpec(32, 128)), ((20.0, 1.0), GridSpec(160, 16))],
)
def test_grid_potential_equals_pointwise_green(lengths, grid):
    # The separable grid path against 4 pi m G at every sample, on a square
    # torus and on both orientations of the Jacobi reflection. The first
    # point lies on a sample, whose sentinel must sit at the same index.
    geo = TorusGeometry(*lengths)
    lx, ly = lengths
    div = Divisor(((0.5 * lx, 0.5 * ly), (0.13 * lx, 0.71 * ly), (0.9 * lx, 0.05 * ly)), (1, 2, 3))
    u = divisor_potential(div, geo, grid).values
    X, Y = grid_points(geo, grid)
    ref = u_closed_form(div, geo)(X, Y)
    hit = np.isneginf(ref)
    assert np.argwhere(hit).tolist() == [[grid.nx // 2, grid.ny // 2]]
    assert (u[hit] == NEGATIVE_SENTINEL).all()
    assert np.abs(u[~hit] - ref[~hit]).max() <= 1e-13


def hypot_potential(divisor, geometry, grid):
    """``u_D`` by the separable series with ``2 m log hypot(Re theta1, Im
    theta1)`` per point, the evaluation the squared modulus replaced;
    ``-inf`` on the points."""
    lx, ly = geometry.length_x, geometry.length_y
    reflected = ly < lx
    short, long = (ly, lx) if reflected else (lx, ly)
    n = np.arange(_term_count(long / short))
    k = (2 * n + 1) * (np.pi / short)
    coeff = 2.0 * (-1.0) ** n * np.exp(-np.pi * (long / short) * (n + 0.5) ** 2)
    x, y = np.arange(grid.nx) * (lx / grid.nx), np.arange(grid.ny) * (ly / grid.ny)
    u = 0.0
    for (px, py), m in divisor:
        dx = np.mod(x - px + 0.5 * lx, lx) - 0.5 * lx
        dy = np.mod(y - py + 0.5 * ly, ly) - 0.5 * ly
        rows, cols = (dy, dx) if reflected else (dx, dy)
        a, b = np.multiply.outer(rows, k), np.multiply.outer(k, cols)
        re = (np.sin(a) * coeff) @ np.cosh(b)
        im = (np.cos(a) * coeff) @ np.sinh(b)
        with np.errstate(divide="ignore"):
            u = u + 2.0 * m * (np.log(np.hypot(re, im)) - np.pi / (lx * ly) * cols**2)
    if reflected:
        u = (u + divisor.degree * math.log(lx / ly)).T
    return u


@pytest.mark.parametrize(
    "lengths,grid",
    [((1.0, 1.0), GridSpec(64, 64)), ((1.0, 8.0), GridSpec(32, 128)), ((20.0, 1.0), GridSpec(160, 16))],
)
def test_grid_potential_equals_hypot_reference(lengths, grid):
    # log(Re^2 + Im^2) against 2 log hypot(Re, Im), with the Gaussian in
    # the column factors: roundoff apart, on the sentinels' samples too.
    geo = TorusGeometry(*lengths)
    lx, ly = lengths
    div = Divisor(((0.5 * lx, 0.5 * ly), (0.13 * lx, 0.71 * ly), (0.9 * lx, 0.05 * ly)), (1, 2, 3))
    u = divisor_potential(div, geo, grid).values
    ref = hypot_potential(div, geo, grid)
    hit = np.isneginf(ref)
    assert np.argwhere(hit).tolist() == [[grid.nx // 2, grid.ny // 2]]
    assert np.array_equal(u == NEGATIVE_SENTINEL, hit)
    assert (np.abs(u[~hit] - ref[~hit]) <= 1e-14 * np.maximum(1.0, np.abs(ref[~hit]))).all()


def test_point_closer_to_a_sample_than_the_offset_resolution_is_on_it():
    # |theta1|^2 would underflow within about 1e-154 of a point, but the
    # minimal-image offset of such a sample rounds to exactly 0: the
    # sample is on the point and stores the sentinel (derivations §2).
    div = Divisor(((1e-160, 0.5),), (1,))
    u = divisor_potential(div, UNIT, GridSpec(16, 16)).values
    assert u[0, 8] == NEGATIVE_SENTINEL
    assert np.count_nonzero(u == NEGATIVE_SENTINEL) == 1


def test_divisor_potential_memory():
    # Two points at 512^2: the accumulator, which becomes the result, is
    # the one grid (2 MiB); each theta term is built in two work bands of
    # 2^15 samples (0.25 MiB each). 2.65 MiB measured; full-grid real and
    # imaginary parts read 6.08 MiB, and a meshgrid path that holds full
    # coordinate arrays 30 MiB.
    geo, grid = UNIT, GridSpec(512, 512)
    div = Divisor(((0.25, 0.3), (0.7, 0.6)), (1, 2))
    tracemalloc.start()
    try:
        divisor_potential(div, geo, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_extreme_aspect_torus_is_rejected():
    # Past Im tau = 200 the nome is subnormal; fail loudly, not with zeros.
    with pytest.raises(ValidationError, match="nome underflows"):
        divisor_potential(Divisor(((0.5, 0.5),), (1,)), TorusGeometry(1.0, 300.0), GRID)


@pytest.mark.parametrize("lengths", [(1.0, 200.0), (200.0, 1.0)])
def test_largest_accepted_aspect_is_finite(lengths):
    # At Im tau = 200, in either orientation, G off the lattice, its
    # regular part at 0 and u_D off the point are finite: the Gaussian
    # column factor of the potential cancels cosh's growth along the long
    # side.
    geo = TorusGeometry(*lengths)
    pts = (np.array([0.3, 0.5, 99.0]), np.array([0.5, 99.0, 0.3]))
    if lengths[0] > lengths[1]:
        pts = pts[::-1]
    assert np.isfinite(torus_green(pts, geo)).all()
    assert np.isfinite(_green_constant(geo))
    grid = GridSpec(8, 64) if lengths[0] < lengths[1] else GridSpec(64, 8)
    u = divisor_potential(Divisor(((0.3, 0.3),), (1,)), geo, grid)
    assert np.isfinite(u.values).all() and (u.values > NEGATIVE_SENTINEL).all()


@pytest.mark.parametrize("lengths", [(1.0, 300.0), (300.0, 1.0)])
def test_extreme_aspect_rejected_by_every_evaluation(lengths):
    # The Im tau check of the shared series holds on both orientations, for
    # the pointwise G, its regular part and the grid potential alike.
    geo = TorusGeometry(*lengths)
    for evaluate in (
        lambda: torus_green((0.1, 0.1), geo),
        lambda: _green_constant(geo),
        lambda: divisor_potential(Divisor(((0.5, 0.5),), (1,)), geo, GRID),
    ):
        with pytest.raises(ValidationError, match="Im tau = 300.0 > 200.0: the nome underflows"):
            evaluate()


# ---------------------------------------------------------------------------
# Vanishing densities


@pytest.mark.parametrize("m,target,tol", [(1, 2.0, 0.02), (2, 4.0, 0.05)])
def test_density_log_slope(m, target, tol):
    dens, _ = _density_data(UNIT, GRID, Divisor(((0.5, 0.5),), (m,)), 1.0, False)
    radii = np.exp(np.linspace(np.log(0.02), np.log(0.1), 12))
    ang = np.arange(64) * 2.0 * np.pi / 64
    pts = np.concatenate(
        [
            np.stack([0.5 + r * np.cos(ang), 0.5 + r * np.sin(ang)], axis=1)
            for r in radii
        ]
    )
    means = trig_interpolant(dens, pts).reshape(12, 64).mean(axis=1)
    slope = np.polyfit(np.log(radii), np.log(means), 1)[0]
    assert abs(slope - target) <= tol


def test_density_positive_away_from_points():
    div = Divisor(((0.25, 0.25), (0.7, 0.6)), (1, 2))
    grid = GridSpec(128, 128)
    dens, _ = _density_data(UNIT, grid, div, 3.0, False)
    assert (dens.values >= 0.0).all()
    X = np.arange(128) / 128.0
    XX, YY = np.meshgrid(X, X, indexing="ij")
    dist = np.full((128, 128), np.inf)
    for (px, py), _ in div:
        ddx = np.mod(XX - px + 0.5, 1.0) - 0.5
        ddy = np.mod(YY - py + 0.5, 1.0) - 0.5
        dist = np.minimum(dist, np.hypot(ddx, ddy))
    far = dist >= 4.0 / 128
    assert dens.values[far].min() > 0.0


@settings(max_examples=20, deadline=None)
@given(
    x=st.floats(0.05, 0.95),
    y=st.floats(0.05, 0.95),
    m=st.integers(1, 3),
)
def test_density_scale_is_linear(x, y, m):
    div = Divisor(((x, y),), (m,))
    one, _ = _density_data(UNIT, GridSpec(16, 16), div, 1.0, False)
    five, _ = _density_data(UNIT, GridSpec(16, 16), div, 5.0, False)
    assert np.abs(five.values - 5.0 * one.values).max() <= 1e-12 * max(
        1.0, one.values.max()
    )
