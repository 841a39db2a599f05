"""Torus Green's function, effective divisors and their potentials.

The Green's function of the flat torus ``[0, l1) x [0, l2)`` is built from
the odd Jacobi theta function with modulus ``tau = i l2 / l1``:

    G(x, y) = (1/2pi) * (log|theta1((x + i y)/l1, tau)| - pi y^2 / (l1 l2))

``theta1`` is odd with a simple zero on the period lattice, so ``G`` is
doubly periodic, even, behaves like ``log(r)/(2pi)`` at the origin, and
satisfies ``laplacian G = delta_0 - 1/volume`` distributionally (the
quadratic correction compensates the quasi-periodicity of ``theta1`` in
the imaginary direction and carries the uniform background charge).
The formula is used with ``l2 >= l1``, so ``Im tau >= 1`` and four
terms of the sine series reach machine precision; a wider torus is
evaluated through its reflection (see :func:`torus_green`).

An effective divisor ``sum_k m_k x_k`` (every ``m_k > 0``) induces the
potential

    u_D = sum_k 4 pi m_k G(. - x_k)

with ``u_D ~ 2 m_k log r`` near ``x_k``, so ``exp(u_D)`` vanishes to order
``2 m_k`` there and ``laplacian u_D = -4 pi deg(D) / volume`` away from the
points. Samples that coincide exactly with a divisor point store the
finite sentinel ``NEGATIVE_SENTINEL`` in place of ``-inf``.

On a grid, every series term factors into a row part and a column part,
``sin(a + ib) = sin a cosh b + i cos a sinh b``, where ``a`` depends only
on the x offset and ``b`` only on the y offset. So ``Re theta1`` and
``Im theta1`` over the whole grid are each one matrix product of rank at
most four. Each sample then costs two squares, an add and one ``log``,
since ``log|theta1|^2`` needs no square root (:func:`divisor_potential`).
:func:`torus_green` evaluates ``G`` at arbitrary points; the two agree at
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .fields import GridSpec, ScalarField, TorusGeometry, _adopted, _axes, _minimal_image

__all__ = [
    "NEGATIVE_SENTINEL",
    "theta1",
    "torus_green",
    "Divisor",
    "divisor_potential",
]

# Finite stand-in for log(0) at samples that coincide with divisor points;
# exp() of it underflows to exactly 0.0.
NEGATIVE_SENTINEL = -1e300

# Below this the sine series cancels: relative error 5e-11 at 0.05i and
# 3e-4 at 0.025i. Green's-function evaluations never get here, since
# they orient the torus so that Im tau >= 1.
_MIN_IM_TAU = 0.1
# Above this the nome exp(-pi Im tau) is subnormal and the series decays
# to zero: a torus more than 200 times longer than wide is rejected.
_MAX_IM_TAU = 200.0

# The truncated tail must fall below the double-precision unit roundoff.
_TAIL_EXPONENT = 53.0 * math.log(2.0)
# Relative slack on the fundamental cell, for rounding in the reduction.
_CELL_SLACK = 1e-9


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValidationError(f"tau must lie in the upper half plane, got {tau}")
    if tau.imag < _MIN_IM_TAU:
        raise ValidationError(f"Im tau = {tau.imag} < {_MIN_IM_TAU}: the sine series cancels")
    if tau.imag > _MAX_IM_TAU:
        raise ValidationError(f"Im tau = {tau.imag} > {_MAX_IM_TAU}: the nome underflows")
    return tau


def _term_count(im_tau: float) -> int:
    """Fewest terms N whose omitted tail is below the unit roundoff.

    For ``|Im z| <= Im tau / 2`` the first omitted term is at most
    ``exp(-pi Im tau [(N+1/2)^2 - (N+1/2)])``, both in absolute value and,
    up to a factor ``2N + 1``, relative to the leading term. This gives 4
    terms at ``tau = i`` and fewer above it.
    """
    return math.ceil(math.sqrt(_TAIL_EXPONENT / (math.pi * im_tau) + 0.25))


def theta1(z, tau):
    """Odd Jacobi theta function, sine series with nome q = exp(i pi tau).

    ``z`` may be a complex scalar or array in the fundamental cell,
    ``|Re z| <= 1/2`` and ``|Im z| <= Im tau / 2``: the term count is
    derived for it, and far outside it the sine factors overflow. Any
    other ``z`` raises :class:`ValidationError`.
    """
    tau = _check_tau(tau)
    z = np.asarray(z, dtype=complex)
    half = 0.5 + _CELL_SLACK
    if not (np.all(np.abs(z.real) <= half) and np.all(np.abs(z.imag) <= half * tau.imag)):
        raise ValidationError(
            f"theta1 argument outside the fundamental cell |Re z| <= 1/2, "
            f"|Im z| <= {0.5 * tau.imag:g}"
        )
    q = np.exp(1j * np.pi * tau)
    acc = np.zeros_like(z)
    for n in range(_term_count(tau.imag)):
        coeff = (-1) ** n * q ** ((n + 0.5) ** 2)
        acc = acc + coeff * np.sin((2 * n + 1) * np.pi * z)
    return 2.0 * acc


def torus_green(point, geometry: TorusGeometry):
    """Green's function (up to its fixed additive normalization) at ``point``.

    ``point`` is an (x, y) displacement, a pair of scalars or of
    equal-shape arrays, in any period cell. The value at a lattice point
    is ``-inf``.

    The displacement is reduced to its minimal image, and a torus with
    ``length_y < length_x`` is evaluated through its reflection (the
    Jacobi imaginary transform), ``G(x, y; lx, ly) = G(y, x; ly, lx) +
    log(lx / ly) / 4 pi``, so the modulus always has ``Im tau >= 1``.
    """
    lx, ly = geometry.length_x, geometry.length_y
    if ly < lx:
        reflected = torus_green((point[1], point[0]), TorusGeometry(ly, lx))
        return reflected + math.log(lx / ly) / (4.0 * math.pi)
    x = _minimal_image(np.asarray(point[0], dtype=float), lx)
    y = _minimal_image(np.asarray(point[1], dtype=float), ly)
    mag = np.abs(theta1((x + 1j * y) / lx, 1j * ly / lx))
    with np.errstate(divide="ignore"):
        logmag = np.log(mag)
    out = (logmag - np.pi * y**2 / (lx * ly)) / (2.0 * np.pi)
    return float(out) if np.ndim(out) == 0 else out


def _green_constant(geometry: TorusGeometry) -> float:
    """``lim_{z -> 0} G(z) - log|z| / 2 pi``, the regular part of ``G`` at 0.

    Near 0 the sine series is ``theta1(z) = theta1'(0) z + O(z^3)`` with
    ``theta1'(0) = 2 pi sum_n (-1)^n (2n+1) q^{(n+1/2)^2}``, so the limit is
    ``log(theta1'(0) / short) / 2 pi`` on the orientation with ``Im tau >=
    1``, plus the reflection shift of :func:`torus_green` when
    ``length_y < length_x``.
    """
    lx, ly = geometry.length_x, geometry.length_y
    short, long = min(lx, ly), max(lx, ly)
    im_tau = _check_tau(1j * long / short).imag
    n = np.arange(_term_count(im_tau) + 1)
    terms = (-1.0) ** n * (2 * n + 1) * np.exp(-np.pi * im_tau * (n + 0.5) ** 2)
    out = math.log(2.0 * np.pi * terms.sum() / short) / (2.0 * np.pi)
    if ly < lx:
        out += math.log(lx / ly) / (4.0 * np.pi)
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
            if not float(m).is_integer():
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
    ``sin(k_n r) cosh(k_n c) + i cos(k_n r) sinh(k_n c)`` with
    ``k_n = (2n+1) pi / short``; the row factors carry the coefficients
    ``2 (-1)^n q^{(n+1/2)^2}`` and the column factors ``exp(-pi c^2 /
    (short long))``, so the real and imaginary parts of ``theta1 exp(-pi
    c^2 / (short long))`` are one ``(len(rows), N) @ (N, len(cols))``
    product each. Each sample then costs two squares, an add and one
    ``log``. The grid is built in bands of rows, each in the pair of work
    arrays ``work`` (of equal shape, as wide as ``cols``). The logarithm
    is ``-inf`` where the squared modulus is 0: on the point, and where it
    would underflow, within about ``1e-162 short exp(pi Im tau / 4)`` of
    it, which minimal-image offsets never are (derivations §2).
    """
    im_tau = _check_tau(1j * long / short).imag
    n = np.arange(_term_count(im_tau))
    k = (2 * n + 1) * (np.pi / short)
    coeff = 2.0 * (-1.0) ** n * np.exp(-np.pi * im_tau * (n + 0.5) ** 2)
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
    reflected = ly < lx
    short, long = (ly, lx) if reflected else (lx, ly)
    shape = (grid.ny, grid.nx) if reflected else (grid.nx, grid.ny)
    u = np.zeros(shape)
    band = (min(shape[0], max(1, _BAND_SAMPLES // shape[1])), shape[1])
    work = (np.empty(band), np.empty(band))
    for (px, py), m in divisor:
        dx = _minimal_image(x - px, lx)
        dy = _minimal_image(y - py, ly)
        rows, cols = (dy, dx) if reflected else (dx, dy)
        _add_log_theta(u, m, rows, cols, short, long, work)
    if reflected:
        u += divisor.degree * math.log(lx / ly)
        u = np.ascontiguousarray(u.T)
    # -inf (a sample on a point) becomes the sentinel; every finite value
    # is far above it.
    np.maximum(u, NEGATIVE_SENTINEL, out=u)
    return _adopted(ScalarField, geometry, grid, u)
