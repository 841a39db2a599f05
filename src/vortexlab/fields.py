"""Scalar fields and spectral calculus on a flat 2-torus.

Conventions used throughout the package:

* The torus is ``[0, length_x) x [0, length_y)`` with the flat metric.
* Grids are uniform, ``values[i, j]`` sampling the point
  ``(i * length_x / nx, j * length_y / ny)`` (row-major).
* ``laplacian`` is the analyst's flat Laplacian ``d^2/dx^2 + d^2/dy^2``
  (negative semidefinite); the geometer's Hodge Laplacian is its negative.
  Mode ``(k1, k2)`` carries the symbol ``-((2 pi k1 / length_x)^2 +
  (2 pi k2 / length_y)^2)``.
* ``integrate`` is the periodic trapezoid rule, i.e. ``volume * mean``,
  which is exact for trigonometric polynomials up to the grid band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

import numpy as np

from .errors import NoConvergence, ValidationError

__all__ = [
    "TorusGeometry",
    "GridSpec",
    "ScalarField",
    "RegionMask",
    "grid_points",
    "torus_displacement",
    "torus_distance",
    "constant_field",
    "field_from_function",
    "laplacian",
    "gradient",
    "gradient_magnitude",
    "spectral_tail",
    "dirichlet_energy",
    "solve_linearized",
    "integrate",
    "lp_norm",
    "sup_norm",
    "sample_at",
    "bump_cutoff",
    "cutoff_ratio_sup",
    "resample",
]


@dataclass(frozen=True)
class TorusGeometry:
    """Side lengths of the flat torus; the unit torus by default."""

    length_x: float = 1.0
    length_y: float = 1.0

    def __post_init__(self):
        if not (self.length_x > 0 and self.length_y > 0):
            raise ValidationError("torus side lengths must be positive")
        if not (math.isfinite(self.length_x) and math.isfinite(self.length_y)):
            raise ValidationError("torus side lengths must be finite")

    @property
    def volume(self) -> float:
        return self.length_x * self.length_y

    @property
    def injectivity_radius(self) -> float:
        return 0.5 * min(self.length_x, self.length_y)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling resolution; both counts must be even and >= 8."""

    nx: int = 128
    ny: int = 128

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if n < 8 or n % 2 != 0:
                raise ValidationError("grid counts must be even and at least 8")

    def spacing(self, geometry: TorusGeometry) -> tuple[float, float]:
        return geometry.length_x / self.nx, geometry.length_y / self.ny


def _finite(value) -> float:
    """``value`` as a float, checked to be finite: a scalar entering a field."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"field values must be finite, got {value}")
    return value


def _adopted(cls, geometry: TorusGeometry, grid: GridSpec, samples: np.ndarray):
    """A ``cls`` (ScalarField or RegionMask) that adopts ``samples``.

    The array is frozen in place, not copied, and not checked: only for an
    array that the package has just built from checked data, and keeps no
    other reference to.
    """
    samples.flags.writeable = False
    new = object.__new__(cls)
    for name, value in zip((f.name for f in fields(cls)), (geometry, grid, samples)):
        object.__setattr__(new, name, value)
    return new


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on a torus grid.

    The constructor checks samples that enter from outside for shape and
    finiteness, then copies and freezes them; a field the package computes
    from checked data adopts its array with no scan and no copy (:meth:`_like`).
    """

    geometry: TorusGeometry
    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals, grid = np.array(self.values, dtype=np.float64, order="C"), self.grid
        if vals.shape != (grid.nx, grid.ny):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid ({grid.nx}, {grid.ny})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _like(self, values: np.ndarray) -> "ScalarField":
        """A field on this grid that adopts ``values``, frozen in place,
        neither scanned nor copied: only for an array of this grid's shape
        that the caller has just computed from checked data and keeps no
        other reference to. :func:`vortexlab.kw.kw_solve` checks each
        Newton iterate once."""
        return _adopted(ScalarField, self.geometry, self.grid, values)

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_compatible(self, other)
            return self._like(self.values + other.values)
        return self._like(self.values + _finite(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _check_compatible(self, other)
            return self._like(self.values - other.values)
        return self._like(self.values - _finite(other))

    def __rsub__(self, other):
        return self._like(_finite(other) - self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_compatible(self, other)
            return self._like(self.values * other.values)
        return self._like(self.values * _finite(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class RegionMask:
    """Quadrature weights in [0, 1] marking a region of the torus."""

    geometry: TorusGeometry
    grid: GridSpec
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, order="C")
        if w.shape != (self.grid.nx, self.grid.ny):
            raise ValidationError("mask shape does not match grid")
        if not (w.min() >= 0.0 and w.max() <= 1.0):  # NaN fails too
            raise ValidationError("mask weights must lie in [0, 1]")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def full(cls, geometry: TorusGeometry, grid: GridSpec) -> "RegionMask":
        return cls(geometry, grid, np.ones((grid.nx, grid.ny)))

    @classmethod
    def excluding_discs(
        cls,
        geometry: TorusGeometry,
        grid: GridSpec,
        centers: Iterable[tuple[float, float]],
        radius: float,
    ) -> "RegionMask":
        """Indicator of the complement of closed discs around ``centers``.

        Each disc is cleared inside the index box that holds it, so the
        only full grid built is the mask itself.
        """
        w = np.ones((grid.nx, grid.ny))
        for c in centers:
            box, dist = _disc_box(geometry, grid, c, radius)
            w[box] *= dist > radius
        return _adopted(cls, geometry, grid, w)

    def area(self) -> float:
        return float(self.weights.mean()) * self.geometry.volume


def _check_compatible(a, b) -> None:
    if a.geometry != b.geometry or a.grid != b.grid:
        raise ValidationError(
            f"incompatible geometry/grid: {a.geometry}/{a.grid} vs {b.geometry}/{b.grid}"
        )


def _axes(geometry: TorusGeometry, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """1-D sample coordinates along x (``nx``) and along y (``ny``)."""
    x = np.arange(grid.nx) * (geometry.length_x / grid.nx)
    y = np.arange(grid.ny) * (geometry.length_y / grid.ny)
    return x, y


def _minimal_image(d, length: float):
    """Offsets ``d`` along one period reduced to their minimal image.

    The result lies in ``[-length/2, length/2]``. Scalars, 1-D axes and
    full grids go through the same arithmetic, so a grid offset is
    bit-identical however it is broadcast.
    """
    return np.mod(d + 0.5 * length, length) - 0.5 * length


def grid_points(geometry: TorusGeometry, grid: GridSpec):
    """Meshgrid arrays (X, Y) of the sample coordinates, indexing='ij'."""
    return np.meshgrid(*_axes(geometry, grid), indexing="ij")


def torus_displacement(geometry: TorusGeometry, grid: GridSpec, center):
    """Minimal-image displacement (dx, dy) of every sample from ``center``.

    ``dx`` has shape ``(nx, 1)`` and ``dy`` shape ``(1, ny)``: each depends
    on one axis only, and together they broadcast to the grid.
    """
    x, y = _axes(geometry, grid)
    dx = _minimal_image(x - center[0], geometry.length_x)
    dy = _minimal_image(y - center[1], geometry.length_y)
    return dx[:, None], dy[None, :]


def torus_distance(geometry: TorusGeometry, grid: GridSpec, center):
    dx, dy = torus_displacement(geometry, grid, center)
    return np.hypot(dx, dy)


def _box_axis(offsets: np.ndarray, radius: float):
    """Indices along one axis whose offset is at most ``radius``: a slice
    when they are contiguous, else an index array (a disc across the seam)."""
    idx = np.flatnonzero(np.abs(offsets) <= radius)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _disc_box(
    geometry: TorusGeometry, grid: GridSpec, center, radius: float, unit: float = 1.0
):
    """The index box that holds the closed disc of ``radius`` about ``center``,
    and the distances on it.

    The box is the rows and columns whose minimal-image offset is at most
    ``radius``; every sample of the disc lies in it, since a distance is at
    least each of its offsets. It is a pair of slices (a view) unless the
    disc crosses the seam, and an ``np.ix_`` pair then. The distances are
    ``hypot(dx / unit, dy / unit)`` from the 1-D offsets of
    :func:`torus_displacement`, so with ``unit = 1`` they are bit-identical
    to :func:`torus_distance` on the box.
    """
    dx, dy = torus_displacement(geometry, grid, center)
    rows, cols = _box_axis(dx[:, 0], radius), _box_axis(dy[0], radius)
    dist = np.hypot(dx[rows] / unit, dy[:, cols] / unit)
    if isinstance(rows, slice) and isinstance(cols, slice):
        return (rows, cols), dist
    return np.ix_(np.arange(grid.nx)[rows], np.arange(grid.ny)[cols]), dist


def constant_field(geometry: TorusGeometry, grid: GridSpec, value: float) -> ScalarField:
    """``value`` everywhere, one checked scalar broadcast to the grid: it holds no grid."""
    samples = np.broadcast_to(_finite(value), (grid.nx, grid.ny))
    return _adopted(ScalarField, geometry, grid, samples)


def field_from_function(
    geometry: TorusGeometry, grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> ScalarField:
    X, Y = grid_points(geometry, grid)
    return ScalarField(geometry, grid, np.asarray(fn(X, Y), dtype=np.float64))


# ---------------------------------------------------------------------------
# Spectral machinery


@functools.lru_cache(maxsize=4)
def _wavenumbers(geometry: TorusGeometry, grid: GridSpec):
    """Half-spectrum symbols: -|k|^2 and the d/dx, d/dy multipliers.

    Real transforms keep columns ``0 .. ny/2`` of the y axis (``rfftfreq``),
    so ``-|k|^2`` has shape ``(nx, ny/2 + 1)``, the last column being the
    y-Nyquist mode; ``dx_mult`` has ``nx`` entries and ``dy_mult``
    ``ny/2 + 1``. The cache holds the few grids a run works on at once.
    """
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=1.0 / grid.nx) / geometry.length_x
    ky = 2.0 * np.pi * np.fft.rfftfreq(grid.ny, d=1.0 / grid.ny) / geometry.length_y
    minus_k2 = -(kx[:, None] ** 2 + ky[None, :] ** 2)
    # Odd derivatives cannot represent the Nyquist mode consistently;
    # zero it in the first-derivative multipliers.
    dx_mult = 1j * kx
    dy_mult = 1j * ky
    dx_mult[grid.nx // 2] = 0.0
    dy_mult[grid.ny // 2] = 0.0
    return minus_k2, dx_mult, dy_mult


# Every 2-D transform writes into an array through ``out=``: numpy 2.4
# transforms into a given array about twice as fast as into one that it
# allocates itself (derivations §8).


def _rfft2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum ``rfft2(values)``, written into ``out`` (a fresh array
    when omitted)."""
    if out is None:
        nx, ny = values.shape
        out = np.empty((nx, ny // 2 + 1), dtype=complex)
    return np.fft.rfft2(values, out=out)


def _irfft2(spec: np.ndarray, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of shape ``shape`` of the half spectrum ``spec``, written
    into ``out`` (a fresh array when omitted).

    irfftn, not irfft2: numpy's irfft2 drops its ``out`` argument.
    """
    if out is None:
        out = np.empty(shape)
    return np.fft.irfftn(spec, s=shape, axes=(0, 1), out=out)


def _half_spectrum(f: ScalarField, spectrum: np.ndarray | None) -> np.ndarray:
    """``spectrum`` if given, else ``rfft2(f.values)``.

    The spectral operators below take the half spectrum of ``f`` as an
    optional argument, so a caller that reads several of them from one
    field transforms it once.
    """
    return _rfft2(f.values) if spectrum is None else spectrum


def laplacian(f: ScalarField, spectrum: np.ndarray | None = None) -> ScalarField:
    """Flat Laplacian by Fourier multiplier; the output has zero mean."""
    minus_k2, _, _ = _wavenumbers(f.geometry, f.grid)
    return f._like(_irfft2(_half_spectrum(f, spectrum) * minus_k2, f.values.shape))


def gradient(
    f: ScalarField, spectrum: np.ndarray | None = None
) -> tuple[ScalarField, ScalarField]:
    """Spectral partial derivatives (df/dx, df/dy)."""
    _, dx_mult, dy_mult = _wavenumbers(f.geometry, f.grid)
    spec = _half_spectrum(f, spectrum)
    fx = _irfft2(spec * dx_mult[:, None], f.values.shape)
    fy = _irfft2(spec * dy_mult[None, :], f.values.shape)
    return f._like(fx), f._like(fy)


def gradient_magnitude(f: ScalarField, spectrum: np.ndarray | None = None) -> ScalarField:
    fx, fy = gradient(f, spectrum)
    return f._like(np.hypot(fx.values, fy.values))


# A non-mean spectrum below this fraction of the mean coefficient is
# roundoff: the field is constant, and its tail is 0.
_CONSTANT_RTOL = 1e-13


def spectral_tail(f: ScalarField, spectrum: np.ndarray | None = None) -> float:
    """Relative size of the top third of the spectrum of ``f``.

    The largest ``|F_k|`` over the modes with ``max(|k1|/nx, |k2|/ny) >
    1/3``, divided by the largest non-mean ``|F_k|``. A smooth field that
    the grid resolves has a geometrically decaying spectrum, so the tail
    tracks the error against a finer grid (Boyd, *Chebyshev and Fourier
    Spectral Methods*, ch. 2). A field constant to roundoff has tail 0.
    """
    mags = np.abs(_half_spectrum(f, spectrum))
    mean = float(mags[0, 0])
    mags[0, 0] = 0.0
    top = float(mags.max())
    if top <= _CONSTANT_RTOL * mean:
        return 0.0
    rows = np.abs(np.fft.fftfreq(f.grid.nx)) > 1.0 / 3.0
    cols = np.fft.rfftfreq(f.grid.ny) > 1.0 / 3.0
    return max(float(mags[rows].max()), float(mags[:, cols].max())) / top


def dirichlet_energy(f: ScalarField, spectrum: np.ndarray | None = None) -> float:
    """integral of |grad f|^2, evaluated exactly by Parseval.

    The half spectrum stands for each interior y column and its conjugate
    mirror, so those columns count twice; column 0 and the y-Nyquist
    column ``ny/2`` are their own mirrors and count once.
    """
    minus_k2, _, _ = _wavenumbers(f.geometry, f.grid)
    spec = _half_spectrum(f, spectrum)
    n = f.grid.nx * f.grid.ny
    dens = (spec.real**2 + spec.imag**2) * (-minus_k2)
    power = float(2.0 * dens.sum() - dens[:, 0].sum() - dens[:, -1].sum())
    return power / n**2 * f.geometry.volume


def integrate(f: ScalarField) -> float:
    """Periodic trapezoid quadrature: exact mean times the volume."""
    return float(f.values.mean()) * f.geometry.volume


def _mask_weights(f: ScalarField, mask: RegionMask | None) -> np.ndarray:
    if mask is None:
        return np.ones_like(f.values)
    _check_compatible(f, mask)
    if float(mask.weights.sum()) == 0.0:
        raise ValidationError("mask has zero area")
    return mask.weights


def lp_norm(f: ScalarField, p: float, mask: RegionMask | None = None) -> float:
    """(integral of mask * |f|^p)^(1/p) with the grid quadrature."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    w = _mask_weights(f, mask)
    val = float(np.mean(w * np.abs(f.values) ** p)) * f.geometry.volume
    return val ** (1.0 / p)


def sup_norm(f: ScalarField, mask: RegionMask | None = None) -> float:
    """Max of |f| over samples where the mask weight exceeds 1/2."""
    if mask is None:
        return float(np.abs(f.values).max())
    _check_compatible(f, mask)
    sel = mask.weights > 0.5
    if not sel.any():
        raise ValidationError("mask has no samples with weight > 1/2")
    return float(np.abs(f.values[sel]).max())


def _phase_matrix(
    coords: np.ndarray, n: int, length: float, half: bool = False
) -> np.ndarray:
    """Evaluation phases for the trigonometric interpolant along one axis.

    The Nyquist slot uses a cosine so the interpolant is real and agrees
    with the inverse DFT at grid points. With ``half`` the columns follow
    the real-transform layout ``0 .. n/2``; each interior column stands for
    a conjugate pair and carries weight 2, so the real part of the sum is
    the interpolant.
    """
    freqs = (np.fft.rfftfreq if half else np.fft.fftfreq)(n, d=1.0 / n)
    theta = np.multiply.outer(coords / length, freqs) * 2.0 * np.pi
    phases = np.exp(1j * theta)
    if half:
        phases[:, 1 : n // 2] *= 2.0
    phases[:, n // 2] = np.cos(theta[:, n // 2])
    return phases


def sample_at(f: ScalarField, points) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant of ``f`` at off-grid points.

    ``points`` is one (x, y) pair or an (M, 2) array. Exact for fields
    that are band-limited to the grid, and reproduces grid samples.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be (x, y) or an (M, 2) array")
    spec = _rfft2(f.values)
    px = _phase_matrix(pts[:, 0], f.grid.nx, f.geometry.length_x)
    py = _phase_matrix(pts[:, 1], f.grid.ny, f.geometry.length_y, half=True)
    vals = np.einsum("mj,jk,mk->m", px, spec, py).real / (f.grid.nx * f.grid.ny)
    if np.ndim(points) == 1:
        return float(vals[0])
    return vals


# ---------------------------------------------------------------------------
# Preconditioned conjugate gradients for (-eps*Laplacian + V) x = b


def solve_linearized(
    epsilon: float,
    potential: ScalarField,
    rhs: ScalarField,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> ScalarField:
    """Solve ``(-epsilon * laplacian + potential) x = rhs`` by CG.

    The potential must be strictly positive so the operator is symmetric
    positive definite. Preconditioner: the Fourier-diagonal inverse of
    ``-epsilon * laplacian + mean(potential)``. Convergence is declared
    on the true residual, ``||A x - rhs||_2 <= tol * ||rhs||_2``, widened
    to the roundoff floor ``~ u (lam_max ||x|| + ||rhs||)`` when that lies
    above ``tol * ||rhs||`` — finite-precision CG cannot reduce the true
    residual past that level, so a tighter target would stall forever.
    """
    _check_compatible(potential, rhs)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    vmin = potential.min()
    if vmin <= 0.0:
        raise ValidationError(f"potential minimum {vmin} is not positive")

    grid = rhs.grid
    cap = max_iter if max_iter is not None else 10 * (grid.nx + grid.ny)
    minus_k2, _, _ = _wavenumbers(rhs.geometry, grid)
    V = potential.values
    b = rhs.values
    shape = b.shape
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return rhs._like(np.zeros_like(b))

    v_mean = float(V.mean())
    inv_symbol = 1.0 / (epsilon * (-minus_k2) + v_mean)
    lam_max = epsilon * float((-minus_k2).max()) + float(V.max())

    def target(x_norm: float) -> float:
        floor = 32.0 * np.finfo(float).eps * (lam_max * x_norm + b_norm)
        return max(tol * b_norm, floor)

    # Work arrays for the whole solve; every update below writes into them
    # (the transforms through ``out=``, which needs numpy 2.0).
    spec = np.empty(minus_k2.shape, dtype=complex)
    x = np.zeros_like(b)
    r = b.copy()
    p = np.empty_like(b)
    q_p = np.empty_like(b)
    z = np.empty_like(b)
    work = np.empty_like(b)

    def precondition(src: np.ndarray, out: np.ndarray, q_out: np.ndarray) -> None:
        # out = M^-1 src, and q_out = -eps laplacian(out) without a second
        # inverse transform: (-eps laplacian + v_mean) out = src.
        _rfft2(src, spec)
        np.multiply(spec, inv_symbol, out=spec)
        _irfft2(spec, shape, out)
        np.multiply(out, v_mean, out=q_out)
        np.subtract(src, q_out, out=q_out)

    precondition(r, p, q_p)
    rz = float(np.vdot(r, p))
    iterations = 0
    while iterations < cap:
        # Recursive-residual PCG carrying q_p = -eps laplacian(p) alongside
        # the search direction, so A p needs no transform; the true
        # residual is checked at candidate convergence and the direction
        # restarted if the recursion has drifted.
        Ap = np.multiply(V, p, out=work)
        Ap += q_p
        denom = float(np.vdot(p, Ap))
        if denom <= 0.0:
            raise NoConvergence("operator lost positive definiteness")
        alpha = rz / denom
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(Ap, alpha, out=Ap)
        iterations += 1
        if float(np.linalg.norm(r)) <= target(float(np.linalg.norm(x))):
            # The true residual b - (V x - eps laplacian(x)), written over r.
            _rfft2(x, spec)
            spec *= minus_k2
            _irfft2(spec, shape, z)
            z *= epsilon
            np.multiply(V, x, out=r)
            r -= z
            np.subtract(b, r, out=r)
            if float(np.linalg.norm(r)) <= target(float(np.linalg.norm(x))):
                return rhs._like(x)
            precondition(r, p, q_p)
            rz = float(np.vdot(r, p))
            continue
        precondition(r, z, work)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p *= beta
        p += z
        q_p *= beta
        q_p += work
        rz = rz_new
    raise NoConvergence(f"CG failed to reach tol={tol} within {cap} iterations")


# ---------------------------------------------------------------------------
# Smooth radial cutoffs


def _bump_profile(dist: np.ndarray, r_inner: float, r_outer: float) -> np.ndarray:
    """Radial profile of the standard smooth bump at distances ``dist``.

    In the transition variable ``t = (r_outer - dist) / (r_outer - r_inner)``
    the profile is ``sigma(t) = e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)})``, which
    vanishes to infinite order at the outer edge, equals 1 inside, and is
    asymptotically proportional to ``e^{-1/t}`` near the vanishing edge.
    With ``t`` clipped to ``[0, 1]`` the same expression gives exactly 0 at
    ``t = 0`` (``e^{+inf}``) and exactly 1 at ``t = 1`` (``e^{-inf}``).
    """
    t = np.clip((r_outer - dist) / (r_outer - r_inner), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / t - 1.0 / (1.0 - t)))


def _bump_window(
    geometry: TorusGeometry,
    grid: GridSpec,
    center: tuple[float, float],
    r_inner: float,
    r_outer: float,
):
    """The :func:`bump_cutoff` profile on the box of its ``r_outer`` disc:
    ``(box, values)``; the bump is exactly 0 outside the box."""
    if not (0.0 < r_inner < r_outer < geometry.injectivity_radius):
        raise ValidationError(
            f"need 0 < r_inner < r_outer < {geometry.injectivity_radius}, "
            f"got ({r_inner}, {r_outer})"
        )
    box, dist = _disc_box(geometry, grid, center, r_outer)
    return box, _bump_profile(dist, r_inner, r_outer)


def bump_cutoff(
    geometry: TorusGeometry,
    grid: GridSpec,
    center: tuple[float, float],
    r_inner: float,
    r_outer: float,
) -> ScalarField:
    """Smooth bump: 1 on the r_inner disc, 0 outside the r_outer disc.

    Radii must satisfy ``0 < r_inner < r_outer < injectivity radius`` so
    the annulus embeds in the torus.
    """
    box, window = _bump_window(geometry, grid, center, r_inner, r_outer)
    values = np.zeros((grid.nx, grid.ny))
    values[box] = window
    return _adopted(ScalarField, geometry, grid, values)


def cutoff_ratio_sup(phi: ScalarField, alpha: float, floor: float = 1e-6) -> float:
    """Measured sup over grid samples of ``|grad phi|^2 / phi^alpha``.

    The gradient is spectral. Samples with ``phi <= floor`` are excluded:
    below the floor the true gradient underflows and the quotient would be
    differentiation noise divided by a vanishing power, not a measurement.
    Dropping them can only underestimate the supremum.
    """
    grad2 = gradient_magnitude(phi).values ** 2
    vals = phi.values
    sel = vals > floor
    if not sel.any():
        raise ValidationError("no samples above the cutoff floor")
    return float(np.max(grad2[sel] / vals[sel] ** alpha))


# ---------------------------------------------------------------------------
# Spectral resampling between grids


def _resample_half_axis(spec: np.ndarray, n: int, n_new: int) -> np.ndarray:
    """Carry a 2-D half spectrum from n to n_new samples along its last axis."""
    if n_new == n:
        return spec
    half = min(n, n_new) // 2
    out = np.zeros(spec.shape[:-1] + (n_new // 2 + 1,), dtype=complex)
    out[:, :half] = spec[:, :half]
    if n_new > n:
        # The old Nyquist mode splits between +/- half; the -half share is
        # the conjugate mirror that the half spectrum leaves implicit.
        out[:, half] = 0.5 * spec[:, half]
    else:
        # Fold the -half band, the conjugate mirror of +half at -kx, onto
        # the new Nyquist column.
        mirror = (-np.arange(spec.shape[0])) % spec.shape[0]
        out[:, half] = spec[:, half] + np.conj(spec[mirror, half])
    return out


def _resample_full_axis(spec: np.ndarray, n: int, n_new: int) -> np.ndarray:
    """Carry a spectrum from n to n_new samples along its first (full) axis."""
    if n_new == n:
        return spec
    half = min(n, n_new) // 2
    out = np.zeros((n_new,) + spec.shape[1:], dtype=complex)
    out[:half] = spec[:half]
    out[-half + 1 :] = spec[-half + 1 :]
    if n_new > n:
        # Split the old Nyquist mode between +/- half frequencies.
        out[half] += 0.5 * spec[half]
        out[-half] += 0.5 * spec[half]
    else:
        # Fold both source bands onto the new Nyquist mode.
        out[half] = spec[half] + spec[-half]
    return out


def resample(
    f: ScalarField, new_grid: GridSpec, spectrum: np.ndarray | None = None
) -> ScalarField:
    """Trigonometric interpolation of ``f`` onto another grid (``f`` itself on its own)."""
    if new_grid == f.grid:
        return f
    nx, ny = f.grid.nx, f.grid.ny
    spec = _resample_half_axis(_half_spectrum(f, spectrum), ny, new_grid.ny)
    spec = _resample_full_axis(spec, nx, new_grid.nx)
    vals = _irfft2(spec, (new_grid.nx, new_grid.ny))
    vals *= new_grid.nx * new_grid.ny / (nx * ny)
    return _adopted(ScalarField, f.geometry, new_grid, vals)
