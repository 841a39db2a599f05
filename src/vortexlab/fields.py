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
    "torus_displacement",
    "constant_field",
    "laplacian",
    "spectral_tail",
    "dirichlet_energy",
    "solve_linearized",
    "integrate",
    "lp_norm",
    "sup_norm",
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
            if _finite(n, "grid counts") < 8 or n % 2 != 0:
                raise ValidationError("grid counts must be even and at least 8")

    def spacing(self, geometry: TorusGeometry) -> tuple[float, float]:
        return geometry.length_x / self.nx, geometry.length_y / self.ny


def _finite(value, name: str = "field values") -> float:
    """``value`` as a float, checked to be finite: a scalar entering a field
    or a spec, where an integer or rational beyond the float range is not."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
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


def torus_displacement(geometry: TorusGeometry, grid: GridSpec, center):
    """Minimal-image displacement (dx, dy) of every sample from ``center``.

    ``dx`` has shape ``(nx, 1)`` and ``dy`` shape ``(1, ny)``: each depends
    on one axis only, and together they broadcast to the grid.
    """
    x, y = _axes(geometry, grid)
    dx = _minimal_image(x - center[0], geometry.length_x)
    dy = _minimal_image(y - center[1], geometry.length_y)
    return dx[:, None], dy[None, :]


def _distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx^2 + dy^2)`` of a column and a row of offsets, broadcast.

    Within an ulp of ``hypot``, and exactly ``|dx|`` where ``dy`` is 0:
    ``sqrt(fl(dx^2)) == |dx|`` unless the square underflows, and a nonzero
    minimal-image offset is at least about 1e-16 of its side. The squares
    are 1-D, and each sample is one add and one square root, where
    ``hypot`` calls libm once per sample.
    """
    dist = np.add(dx * dx, dy * dy)
    return np.sqrt(dist, out=dist)


def _box_axis(offsets: np.ndarray, radius: float):
    """Indices along one axis whose offset is at most ``radius``: a slice
    when they are contiguous, else an index array (a disc across the seam)."""
    idx = np.flatnonzero(np.abs(offsets) <= radius)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _box_offsets(geometry: TorusGeometry, grid: GridSpec, center, radius: float):
    """The index box that holds the closed disc of ``radius`` about ``center``,
    and the minimal-image offsets on it: ``(box, dx, dy)``.

    The box is the rows and columns whose offset is at most ``radius``;
    every sample of the disc lies in it, since a distance is at least each
    of its offsets. It is a pair of slices (a view) unless the disc
    crosses the seam, and an ``np.ix_`` pair then. ``dx`` is a column and
    ``dy`` a row of :func:`torus_displacement`, so together they broadcast
    to the box.
    """
    dx, dy = torus_displacement(geometry, grid, center)
    rows, cols = _box_axis(dx[:, 0], radius), _box_axis(dy[0], radius)
    if isinstance(rows, slice) and isinstance(cols, slice):
        box = (rows, cols)
    else:
        box = np.ix_(np.arange(grid.nx)[rows], np.arange(grid.ny)[cols])
    return box, dx[rows], dy[:, cols]


def _disc_box(geometry: TorusGeometry, grid: GridSpec, center, radius: float):
    """The box of :func:`_box_offsets` and the :func:`_distance` of its
    offsets: ``(box, distances)``. Each distance is bit for bit that of the
    same sample computed over the whole grid."""
    box, dx, dy = _box_offsets(geometry, grid, center, radius)
    return box, _distance(dx, dy)


def constant_field(geometry: TorusGeometry, grid: GridSpec, value: float) -> ScalarField:
    """``value`` everywhere, one checked scalar broadcast to the grid: it holds no grid."""
    samples = np.broadcast_to(_finite(value), (grid.nx, grid.ny))
    return _adopted(ScalarField, geometry, grid, samples)


# ---------------------------------------------------------------------------
# Spectral machinery


def _check_wavenumbers(geometry: TorusGeometry, grid: GridSpec) -> None:
    """Refuse a torus so small for ``grid`` that its largest ``|k|^2``,
    ``(pi nx / length_x)^2 + (pi ny / length_y)^2``, is not below half the
    largest float; the factor 2 keeps the symbols of :func:`_wavenumbers`
    finite whatever their rounding."""
    kx = math.pi * grid.nx / geometry.length_x
    ky = math.pi * grid.ny / geometry.length_y
    if not kx * kx + ky * ky <= 0.5 * np.finfo(float).max:
        raise ValidationError(
            f"torus sides {geometry.length_x} x {geometry.length_y} are too small for "
            f"the {grid.nx} x {grid.ny} grid: its largest |k|^2 overflows"
        )


@functools.lru_cache(maxsize=4)
def _wavenumbers(geometry: TorusGeometry, grid: GridSpec):
    """Half-spectrum symbols: -|k|^2 and the d/dx, d/dy multipliers.

    Real transforms keep columns ``0 .. ny/2`` of the y axis (``rfftfreq``),
    so ``-|k|^2`` has shape ``(nx, ny/2 + 1)``, the last column being the
    y-Nyquist mode; ``dx_mult`` has ``nx`` entries and ``dy_mult``
    ``ny/2 + 1``. The cache holds the few grids a run works on at once.
    """
    _check_wavenumbers(geometry, grid)
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


# A 2-D transform is two one-axis passes into one array: the real pass
# along y, and the complex pass along x over the half spectrum in place.
# numpy 2.4 transforms into a given array about twice as fast as into one
# that it allocates itself, and its irfftn puts the complex pass into a
# fresh temporary before honouring ``out`` (derivations §8).


def _rfft2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum ``rfft2(values)``, bit for bit, written into ``out`` (a
    fresh array when omitted)."""
    if out is None:
        nx, ny = values.shape
        out = np.empty((nx, ny // 2 + 1), dtype=complex)
    np.fft.rfft(values, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def _irfft2(spec: np.ndarray, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of shape ``shape`` of the half spectrum ``spec``, bit for
    bit ``irfftn(spec, s=shape)``, written into ``out`` (a fresh array when
    omitted).

    Overwrites ``spec``: its x pass runs in place, so a caller passes a
    spectrum that it no longer needs.
    """
    if out is None:
        out = np.empty(shape)
    np.fft.ifft(spec, axis=0, out=spec)
    return np.fft.irfft(spec, n=shape[1], axis=1, out=out)


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


def _squared_gradient(f: ScalarField, spectrum: np.ndarray | None = None) -> np.ndarray:
    """``|grad f|^2`` sample by sample, a fresh array: the spectral partial
    derivatives, squared and summed in place.

    Its square root is within 2 ulp of ``hypot`` of the partials. Raises
    :class:`ValidationError` where a square overflows, for ``|grad f|``
    above about 1e154, where ``hypot`` may be finite. A sample below about
    1e-154 loses relative precision as its square underflows.
    """
    _, dx_mult, dy_mult = _wavenumbers(f.geometry, f.grid)
    spec = _half_spectrum(f, spectrum)
    fx = _irfft2(spec * dx_mult[:, None], f.values.shape)
    fy = _irfft2(spec * dy_mult[None, :], f.values.shape)
    with np.errstate(over="ignore"):
        np.multiply(fx, fx, out=fx)
        np.multiply(fy, fy, out=fy)
        fx += fy
    if fx.max() == math.inf:
        raise ValidationError("|grad f| above about 1e154: its square overflows")
    return fx


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


def lp_norm(f: ScalarField, p: float, mask: RegionMask | None = None) -> float:
    """(integral of mask * |f|^p)^(1/p) with the grid quadrature."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    if mask is not None:
        _check_compatible(f, mask)
        if float(mask.weights.sum()) == 0.0:
            raise ValidationError("mask has zero area")
    mag = np.abs(f.values)
    # Factor out the largest sample so |f|^p cannot overflow when |f| does not.
    scale = float(mag.max())
    if scale == 0.0:
        return 0.0
    mag /= scale
    mag **= p
    if mask is not None:
        mag *= mask.weights
    return scale * (float(mag.mean()) * f.geometry.volume) ** (1.0 / p)


def sup_norm(f: ScalarField, mask: RegionMask | None = None) -> float:
    """Max of |f| over samples where the mask weight exceeds 1/2."""
    if mask is None:
        # abs() turns a -0.0 of an all-zero field into 0.0, as |f| would.
        return abs(max(float(f.values.max()), -float(f.values.min())))
    _check_compatible(f, mask)
    sel = mask.weights > 0.5
    if not sel.any():
        raise ValidationError("mask has no samples with weight > 1/2")
    return float(np.abs(f.values[sel]).max())


# ---------------------------------------------------------------------------
# Preconditioned conjugate gradients for (-eps*Laplacian + V) x = b


def solve_linearized(
    epsilon: float,
    potential: ScalarField,
    rhs: ScalarField,
    tol: float = 1e-12,
    max_iter: int | None = None,
    terminal: Callable[[np.ndarray], float | None] | None = None,
) -> tuple[ScalarField, ScalarField]:
    """Solve ``(-epsilon * laplacian + potential) x = rhs`` by CG.

    The potential must be strictly positive so the operator is symmetric
    positive definite. Preconditioner: the Fourier-diagonal inverse of
    ``-epsilon * laplacian + mean(potential)``. Convergence is declared
    on the true residual, ``||A x - rhs||_2 <= tol * ||rhs||_2``, widened
    to the roundoff floor ``~ u (lam_max ||x|| + ||rhs||)`` when that lies
    above ``tol * ||rhs||`` — finite-precision CG cannot reduce the true
    residual past that level, so a tighter target would stall forever.

    ``terminal``, if given, runs once, on the iterate at CG's first
    candidate stop (the recursive residual meets the target). A tolerance
    it returns replaces ``tol`` and CG iterates on in the same recursion,
    skipping the true-residual check at that stop; ``None`` keeps the stop
    as it is. It must not write into the iterate.

    Returns ``(x, epsilon * laplacian(x))``: the second is the product
    that the final true-residual check forms, in CG's own work array.
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
        zero = rhs._like(np.zeros_like(b))
        return zero, zero

    v_mean = float(V.mean())
    # 1 / (eps |k|^2 + v_mean), formed in one array.
    inv_symbol = np.multiply(minus_k2, -epsilon)
    inv_symbol += v_mean
    np.divide(1.0, inv_symbol, out=inv_symbol)
    lam_max = epsilon * -float(minus_k2.min()) + float(V.max())

    def target(x_norm: float) -> float:
        floor = 32.0 * np.finfo(float).eps * (lam_max * x_norm + b_norm)
        return max(tol * b_norm, floor)

    # Five work grids for the whole solve; every update below writes into
    # them (the transforms through ``out=``, which needs numpy 2.0). The
    # scratch grid holds A p, then alpha p, then z = M^-1 r and last
    # -eps laplacian(z), each dead before the next is written.
    spec = np.empty(minus_k2.shape, dtype=complex)
    x = np.zeros_like(b)
    r = b.copy()
    p = np.empty_like(b)
    q_p = np.empty_like(b)
    work = np.empty_like(b)

    def precondition(src: np.ndarray, out: np.ndarray) -> None:
        # out = M^-1 src.
        _rfft2(src, spec)
        np.multiply(spec, inv_symbol, out=spec)
        _irfft2(spec, shape, out)

    def laplacian_part(src: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
        # out = -eps laplacian(z) for z = M^-1 src, without a second inverse
        # transform: (-eps laplacian + v_mean) z = src. out may be z.
        np.multiply(z, v_mean, out=out)
        np.subtract(src, out, out=out)

    precondition(r, p)
    laplacian_part(r, p, q_p)
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
        r -= np.multiply(Ap, alpha, out=Ap)
        x += np.multiply(p, alpha, out=work)
        iterations += 1
        r_norm, x_norm = float(np.linalg.norm(r)), float(np.linalg.norm(x))
        if terminal is not None and r_norm <= target(x_norm):
            tighter, terminal = terminal(x), None
            if tighter is not None:
                tol = tighter
        if r_norm <= target(x_norm):
            # The true residual b - (V x - eps laplacian(x)), written over
            # r; work keeps eps laplacian(x).
            _rfft2(x, spec)
            spec *= minus_k2
            _irfft2(spec, shape, work)
            work *= epsilon
            np.multiply(V, x, out=r)
            r -= work
            np.subtract(b, r, out=r)
            if float(np.linalg.norm(r)) <= target(float(np.linalg.norm(x))):
                return rhs._like(x), rhs._like(work)
            precondition(r, p)
            laplacian_part(r, p, q_p)
            rz = float(np.vdot(r, p))
            continue
        z = work
        precondition(r, z)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        p *= beta
        p += z
        laplacian_part(r, z, z)
        q_p *= beta
        q_p += z
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
    t = np.subtract(r_outer, dist)
    t /= r_outer - r_inner
    np.clip(t, 0.0, 1.0, out=t)
    with np.errstate(divide="ignore", over="ignore"):
        u = np.subtract(1.0, t)
        np.divide(1.0, u, out=u)
        np.divide(1.0, t, out=t)
        t -= u
        np.exp(t, out=t)
        t += 1.0
        return np.divide(1.0, t, out=t)


def _bump_window(
    geometry: TorusGeometry,
    grid: GridSpec,
    center: tuple[float, float],
    r_inner: float,
    r_outer: float,
):
    """Smooth bump about ``center``: 1 on the ``r_inner`` disc, 0 outside
    the ``r_outer`` disc.

    Returns ``(box, values)``, the profile on the box of the ``r_outer``
    disc; the bump is exactly 0 outside the box. Radii must satisfy ``0 <
    r_inner < r_outer < injectivity radius`` so the annulus embeds in the
    torus.
    """
    if not (0.0 < r_inner < r_outer < geometry.injectivity_radius):
        raise ValidationError(
            f"need 0 < r_inner < r_outer < {geometry.injectivity_radius}, "
            f"got ({r_inner}, {r_outer})"
        )
    box, dist = _disc_box(geometry, grid, center, r_outer)
    return box, _bump_profile(dist, r_inner, r_outer)


def cutoff_ratio_sup(phi: ScalarField, alpha: float, floor: float = 1e-6) -> float:
    """Measured sup over grid samples of ``|grad phi|^2 / phi^alpha``.

    The gradient is spectral. Samples with ``phi <= floor`` are excluded:
    below the floor the true gradient underflows and the quotient would be
    differentiation noise divided by a vanishing power, not a measurement.
    Dropping them can only underestimate the supremum.
    """
    grad2 = _squared_gradient(phi)
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
    # The grids differ along some axis, so ``spec`` is a new array, which
    # the inverse transform may overwrite; a given spectrum is only read.
    vals = _irfft2(spec, (new_grid.nx, new_grid.ny))
    vals *= new_grid.nx * new_grid.ny / (nx * ny)
    return _adopted(ScalarField, f.geometry, new_grid, vals)
