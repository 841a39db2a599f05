"""Torus Green's function, effective divisors and their potentials.

The Green's function of the flat torus ``[0, l1) x [0, l2)`` is built from
the odd Jacobi theta function with modulus ``tau = i l2 / l1``:

    G(x, y) = (1/2pi) * (log|theta1((x + i y)/l1, tau)| - pi y^2 / (l1 l2))

``theta1`` is odd with a simple zero on the period lattice, so ``G`` is
doubly periodic, even, behaves like ``log(r)/(2pi)`` at the origin, and
satisfies ``laplacian G = delta_0 - 1/volume`` distributionally (the
quadratic correction compensates the quasi-periodicity of ``theta1`` in
the imaginary direction and carries the uniform background charge).

Every evaluation orients the torus first (:func:`_oriented`): a torus
with ``l2 < l1`` is evaluated through its reflection, so ``Im tau >= 1``,
and the displacement is reduced to its minimal image. Then at most four
terms of the sine series ``sum_n s_n sin(k_n z)`` (:func:`_series`) reach
machine precision, and each term factors into an x part and a y part,
``sin(a + ib) = sin a cosh b + i cos a sinh b``. :func:`torus_green`
sums these factors at points, :func:`_green_constant` takes the series'
slope at 0, and :func:`divisor_potential` forms ``Re theta1`` and ``Im
theta1`` over a whole grid as one matrix product each, of rank at most
four, from 1-D factors; each sample then costs two squares, an add and
one ``log``, since ``log|theta1|^2`` needs no square root.

An effective divisor ``sum_k m_k x_k`` (every ``m_k > 0``) induces the
potential

    u_D = sum_k 4 pi m_k G(. - x_k)

with ``u_D ~ 2 m_k log r`` near ``x_k``, so ``exp(u_D)`` vanishes to order
``2 m_k`` there and ``laplacian u_D = -4 pi deg(D) / volume`` away from the
points. Samples that coincide exactly with a divisor point store the
finite sentinel ``NEGATIVE_SENTINEL`` in place of ``-inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .fields import GridSpec, ScalarField, TorusGeometry, _adopted, _axes, _finite, _minimal_image

__all__ = [
    "NEGATIVE_SENTINEL",
    "torus_green",
    "Divisor",
    "divisor_potential",
]

# Finite stand-in for log(0) at samples that coincide with divisor points;
# exp() of it underflows to exactly 0.0.
NEGATIVE_SENTINEL = -1e300

# Above this the nome exp(-pi Im tau) is subnormal and the series decays
# to zero: a torus more than 200 times longer than wide is rejected.
_MAX_IM_TAU = 200.0

# The truncated tail must fall below the double-precision unit roundoff.
_TAIL_EXPONENT = 53.0 * math.log(2.0)


def _term_count(im_tau: float) -> int:
    """Fewest terms N whose omitted tail is below the unit roundoff.

    For ``|Im z| <= Im tau / 2`` the first omitted term is at most
    ``exp(-pi Im tau [(N+1/2)^2 - (N+1/2)])``, both in absolute value and,
    up to a factor ``2N + 1``, relative to the leading term. This gives 4
    terms at ``tau = i`` and fewer above it.
    """
    return math.ceil(math.sqrt(_TAIL_EXPONENT / (math.pi * im_tau) + 0.25))


def _oriented(geometry: TorusGeometry) -> tuple[float, float, bool]:
    """``(short, long, swapped)``: the sides ordered so that ``Im tau = long
    / short >= 1``, and whether ``x`` and ``y`` trade roles (``length_y <
    length_x``, the Jacobi reflection of :func:`torus_green`)."""
    lx, ly = geometry.length_x, geometry.length_y
    return (ly, lx, True) if ly < lx else (lx, ly, False)


def _series(short: float, long: float) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers ``k_n = (2n+1) pi / short`` and coefficients ``s_n = 2
    (-1)^n q^{(n+1/2)^2}`` of ``theta1(z / short, i long / short) = sum_n
    s_n sin(k_n z)``, truncated by :func:`_term_count`."""
    im_tau = long / short
    if im_tau > _MAX_IM_TAU:
        raise ValidationError(f"Im tau = {im_tau} > {_MAX_IM_TAU}: the nome underflows")
    n = np.arange(_term_count(im_tau))
    k = (2 * n + 1) * (np.pi / short)
    coeff = 2.0 * (-1.0) ** n * np.exp(-np.pi * im_tau * (n + 0.5) ** 2)
    return k, coeff


def torus_green(point, geometry: TorusGeometry):
    """Green's function (up to its fixed additive normalization) at ``point``.

    ``point`` is an (x, y) displacement, a pair of scalars or of
    equal-shape arrays, in any period cell. The value at a lattice point
    is ``-inf``.

    The displacement is reduced to its minimal image, and a torus with
    ``length_y < length_x`` is evaluated through its reflection (the
    Jacobi imaginary transform), ``G(x, y; lx, ly) = G(y, x; ly, lx) +
    log(lx / ly) / 4 pi``, from the factors of :func:`_add_log_theta`.
    """
    short, long, swapped = _oriented(geometry)
    x = _minimal_image(np.asarray(point[0], dtype=float), geometry.length_x)
    y = _minimal_image(np.asarray(point[1], dtype=float), geometry.length_y)
    if swapped:
        x, y = y, x
    k, coeff = _series(short, long)
    a, b = np.multiply.outer(x, k), np.multiply.outer(y, k)
    mag = np.hypot((np.sin(a) * np.cosh(b)) @ coeff, (np.cos(a) * np.sinh(b)) @ coeff)
    with np.errstate(divide="ignore"):
        out = (np.log(mag) - np.pi * y**2 / (short * long)) / (2.0 * np.pi)
    if swapped:
        out += math.log(long / short) / (4.0 * math.pi)
    return float(out) if np.ndim(out) == 0 else out


def _green_constant(geometry: TorusGeometry) -> float:
    """``lim_{z -> 0} G(z) - log|z| / 2 pi``, the regular part of ``G`` at 0.

    Near 0 the sine series is ``sum_n s_n sin(k_n z) = z sum_n s_n k_n +
    O(z^3)``, so the limit is ``log(sum_n s_n k_n) / 2 pi`` on the
    orientation with ``Im tau >= 1``, plus the reflection shift of
    :func:`torus_green` when ``length_y < length_x``.
    """
    short, long, swapped = _oriented(geometry)
    k, coeff = _series(short, long)
    out = math.log(coeff @ k) / (2.0 * math.pi)
    if swapped:
        out += math.log(long / short) / (4.0 * math.pi)
    return out


def _point_distance(geometry: TorusGeometry, p, q) -> float:
    """Torus distance between two points; ``math.remainder`` is an exact minimal image."""
    dx = math.remainder(p[0] - q[0], geometry.length_x)
    dy = math.remainder(p[1] - q[1], geometry.length_y)
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class Divisor:
    """Effective divisor: torus points with positive integer multiplicities."""

    points: tuple[tuple[float, float], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValidationError(f"divisor points must be finite, got {pts}")
        for m in self.multiplicities:
            if not _finite(m, "multiplicities").is_integer():
                raise ValidationError(f"multiplicities must be integers, got {m}")
        mults = tuple(int(m) for m in self.multiplicities)
        if len(pts) != len(mults):
            raise ValidationError("points and multiplicities must have equal length")
        if any(m <= 0 for m in mults):
            raise ValidationError(f"multiplicities must be positive, got {mults}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)

    @classmethod
    def from_items(cls, items: Iterable[Sequence[float]]) -> "Divisor":
        items = list(items)
        return cls(
            tuple((it[0], it[1]) for it in items),
            tuple(it[2] for it in items),
        )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.multiplicities))

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def check_separated(self, geometry: TorusGeometry, min_dist: float = 1e-9) -> None:
        """Require points pairwise distinct modulo the periods."""
        pts = self.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _point_distance(geometry, pts[i], pts[j]) < min_dist:
                    raise ValidationError(
                        f"divisor points {i} and {j} coincide modulo periods"
                    )


# Samples per band of :func:`_add_log_theta`: the band's two work arrays
# (512 KiB together) stay in cache through its passes.
_BAND_SAMPLES = 2**15


def _add_log_theta(u, weight: int, rows, cols, short: float, long: float, work) -> None:
    """``u[i, j] += weight * (log|theta1(z)|^2 - 2 pi cols[j]^2 / (short long))``
    with ``z = (rows[i] + i cols[j]) / short`` and ``tau = i long / short``.

    ``rows`` and ``cols`` are 1-D minimal-image offsets along the sides of
    length ``short <= long``. Term ``n`` of the sine series splits as
    ``s_n (sin(k_n r) cosh(k_n c) + i cos(k_n r) sinh(k_n c))`` (see
    :func:`_series`); the row factors carry the coefficients ``s_n`` and
    the column factors ``exp(-pi c^2 / (short long))``, so the real and
    imaginary parts of ``theta1 exp(-pi c^2 / (short long))`` are one
    ``(len(rows), N) @ (N, len(cols))`` product each. Each sample then
    costs two squares, an add and one ``log``. The grid is built in bands
    of rows, each in the pair of work arrays ``work`` (of equal shape, as
    wide as ``cols``). The logarithm is ``-inf`` where the squared modulus
    is 0: on the point, and where it would underflow, within about
    ``1e-162 short exp(pi Im tau / 4)`` of it, which minimal-image offsets
    never are (derivations §2).
    """
    k, coeff = _series(short, long)
    a = np.multiply.outer(rows, k)
    b = np.multiply.outer(k, cols)
    gauss = np.exp(-np.pi / (short * long) * cols**2)
    sin_r, cos_r = np.sin(a) * coeff, np.cos(a) * coeff
    cosh_c, sinh_c = np.cosh(b) * gauss, np.sinh(b) * gauss
    band = len(work[0])
    for start in range(0, len(rows), band):
        stop = min(start + band, len(rows))
        re, im = (w[: stop - start] for w in work)
        np.matmul(sin_r[start:stop], cosh_c, out=re)
        np.matmul(cos_r[start:stop], sinh_c, out=im)
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        re += im
        with np.errstate(divide="ignore"):
            np.log(re, out=re)
        re *= weight
        u[start:stop] += re


def divisor_potential(
    divisor: Divisor, geometry: TorusGeometry, grid: GridSpec
) -> ScalarField:
    """``u_D``, the sum of ``4 pi m_k G(. - x_k)`` sampled on the grid.

    Each term is ``m_k (log|theta1|^2 - 2 pi dy^2 / (lx ly))`` built from
    the 1-D offsets of the samples from ``x_k`` (see
    :func:`_add_log_theta`). A torus with ``length_y < length_x`` is
    evaluated on its reflection, with the axes swapped, as in
    :func:`torus_green`. Samples that coincide exactly with a divisor point
    store ``NEGATIVE_SENTINEL``, so ``exp(u_D)`` is exactly 0 there.
    """
    divisor.check_separated(geometry)
    lx, ly = geometry.length_x, geometry.length_y
    x, y = _axes(geometry, grid)
    short, long, swapped = _oriented(geometry)
    shape = (grid.ny, grid.nx) if swapped else (grid.nx, grid.ny)
    u = np.zeros(shape)
    band = (min(shape[0], max(1, _BAND_SAMPLES // shape[1])), shape[1])
    work = (np.empty(band), np.empty(band))
    for (px, py), m in divisor:
        dx = _minimal_image(x - px, lx)
        dy = _minimal_image(y - py, ly)
        rows, cols = (dy, dx) if swapped else (dx, dy)
        _add_log_theta(u, m, rows, cols, short, long, work)
    if swapped:
        u += divisor.degree * math.log(long / short)
        u = np.ascontiguousarray(u.T)
    # -inf (a sample on a point) becomes the sentinel; every finite value
    # is far above it.
    np.maximum(u, NEGATIVE_SENTINEL, out=u)
    return _adopted(ScalarField, geometry, grid, u)
