"""Torus Green's function, divisors, and prescribed vanishing densities.

The Green's function of the flat torus ``[0, l1) x [0, l2)`` is built from
the odd Jacobi theta function with modulus ``tau = i l2 / l1``:

    G(x, y) = (1/2pi) * (log|theta1((x + i y)/l1, tau)| - pi y^2 / (l1 l2))

``theta1`` is odd with a simple zero on the period lattice, so ``G`` is
doubly periodic, even, behaves like ``log(r)/(2pi)`` at the origin, and
satisfies ``laplacian G = delta_0 - 1/volume`` distributionally (the
quadratic correction compensates the quasi-periodicity of ``theta1`` in
the imaginary direction and carries the uniform background charge).

A divisor ``sum_k m_k x_k`` induces the potential

    u_D = sum_k 4 pi m_k G(. - x_k)

with ``u_D ~ 2 m_k log r`` near ``x_k``, so ``exp(u_D)`` vanishes to order
``2 m_k`` there and ``laplacian u_D = -4 pi deg(D) / volume`` away from the
points. Samples that coincide exactly with a divisor point store a large
finite sentinel of the appropriate sign in place of ``-inf``/``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadTau, MixedSignDivisor
from .fields import (
    GridSpec,
    ScalarField,
    TorusGeometry,
    torus_displacement,
)

__all__ = [
    "NEGATIVE_SENTINEL",
    "theta1",
    "theta1_prime",
    "torus_green",
    "green_gradient",
    "Divisor",
    "DivisorPotential",
    "divisor_potential",
    "vanishing_density",
]

# Finite stand-in for log(0) at samples that coincide with divisor points;
# exp() of it underflows to exactly 0.0.
NEGATIVE_SENTINEL = -1e300

_MIN_IM_TAU = 0.1


def _check_tau(tau: complex) -> complex:
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise BadTau(f"tau must lie in the upper half plane, got {tau}")
    if tau.imag < _MIN_IM_TAU:
        raise BadTau(
            f"Im tau = {tau.imag} < {_MIN_IM_TAU}: truncated series unreliable"
        )
    return tau


def theta1(z, tau, n_terms: int = 32):
    """Odd Jacobi theta function, sine series with nome q = exp(i pi tau).

    ``z`` may be a complex scalar or array. Intended for arguments reduced
    to the fundamental cell; far outside it the sine factors overflow.
    """
    tau = _check_tau(tau)
    z = np.asarray(z, dtype=complex)
    q = np.exp(1j * np.pi * tau)
    acc = np.zeros_like(z)
    for n in range(n_terms):
        coeff = (-1) ** n * q ** ((n + 0.5) ** 2)
        acc = acc + coeff * np.sin((2 * n + 1) * np.pi * z)
    return 2.0 * acc


def theta1_prime(z, tau, n_terms: int = 32):
    """Derivative of ``theta1`` with respect to ``z``."""
    tau = _check_tau(tau)
    z = np.asarray(z, dtype=complex)
    q = np.exp(1j * np.pi * tau)
    acc = np.zeros_like(z)
    for n in range(n_terms):
        k = 2 * n + 1
        coeff = (-1) ** n * q ** ((n + 0.5) ** 2) * k * np.pi
        acc = acc + coeff * np.cos(k * np.pi * z)
    return 2.0 * acc


def _green_from_xy(dx, dy, geometry: TorusGeometry, n_terms: int):
    """Green's function at displacement (dx, dy); -inf at lattice points."""
    lx, ly = geometry.length_x, geometry.length_y
    z = (np.asarray(dx, dtype=float) + 1j * np.asarray(dy, dtype=float)) / lx
    mag = np.abs(theta1(z, 1j * ly / lx, n_terms))
    with np.errstate(divide="ignore"):
        logmag = np.log(mag)
    return (logmag - np.pi * np.asarray(dy) ** 2 / (lx * ly)) / (2.0 * np.pi)


def torus_green(point, geometry: TorusGeometry, n_terms: int = 32):
    """Green's function (up to its fixed additive normalization) at ``point``.

    ``point`` is an (x, y) pair of scalars or of equal-shape arrays. The
    value at a lattice point is ``-inf``.
    """
    x, y = point
    out = _green_from_xy(x, y, geometry, n_terms)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def green_gradient(point, geometry: TorusGeometry, n_terms: int = 32):
    """Closed-form gradient (dG/dx, dG/dy); undefined at lattice points."""
    x, y = point
    lx, ly = geometry.length_x, geometry.length_y
    z = (np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)) / lx
    tau = 1j * ly / lx
    w = theta1_prime(z, tau, n_terms) / theta1(z, tau, n_terms)
    gx = w.real / (2.0 * np.pi * lx)
    gy = -w.imag / (2.0 * np.pi * lx) - np.asarray(y) / (lx * ly)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(gx), float(gy)
    return gx, gy


def _point_distance(geometry: TorusGeometry, p, q) -> float:
    """Torus distance between two points (minimal image)."""
    dx = abs(p[0] - q[0]) % geometry.length_x
    dy = abs(p[1] - q[1]) % geometry.length_y
    dx = min(dx, geometry.length_x - dx)
    dy = min(dy, geometry.length_y - dy)
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class Divisor:
    """Formal sum of torus points with nonzero integer multiplicities."""

    points: tuple[tuple[float, float], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        mults = tuple(int(m) for m in self.multiplicities)
        if len(pts) != len(mults):
            raise ValueError("points and multiplicities must have equal length")
        if any(m == 0 for m in mults):
            raise ValueError("multiplicity must be nonzero")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)

    @classmethod
    def from_items(cls, items: Iterable[Sequence[float]]) -> "Divisor":
        items = list(items)
        return cls(
            tuple((it[0], it[1]) for it in items),
            tuple(int(it[2]) for it in items),
        )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.multiplicities))

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def positive_part(self) -> "Divisor":
        items = [(p, m) for p, m in self if m > 0]
        return Divisor(tuple(p for p, _ in items), tuple(m for _, m in items))

    def negative_part(self) -> "Divisor":
        items = [(p, m) for p, m in self if m < 0]
        return Divisor(tuple(p for p, _ in items), tuple(m for _, m in items))

    def translate(self, shift: tuple[float, float]) -> "Divisor":
        return Divisor(
            tuple((x + shift[0], y + shift[1]) for x, y in self.points),
            self.multiplicities,
        )

    def check_separated(self, geometry: TorusGeometry, min_dist: float = 1e-9) -> None:
        """Require points pairwise distinct modulo the periods."""
        pts = self.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _point_distance(geometry, pts[i], pts[j]) < min_dist:
                    raise ValueError(
                        f"divisor points {i} and {j} coincide modulo periods"
                    )


@dataclass(frozen=True)
class DivisorPotential:
    """Grid samples of the logarithmic potential of a divisor."""

    divisor: Divisor
    geometry: TorusGeometry
    grid: GridSpec
    u: ScalarField
    n_terms: int = 32

    @property
    def degree(self) -> int:
        return self.divisor.degree


def divisor_potential(
    divisor: Divisor,
    geometry: TorusGeometry,
    grid: GridSpec,
    n_terms: int = 32,
    recenter: bool = False,
) -> DivisorPotential:
    """Sum of ``4 pi m_k G(. - x_k)`` sampled on the grid.

    Exact coincidences between samples and divisor points are stored as
    large finite sentinels (negative for positive multiplicity). With
    ``recenter`` the mean over non-sentinel samples is subtracted.
    """
    divisor.check_separated(geometry)
    u = np.zeros((grid.nx, grid.ny))
    for (pt, m) in divisor:
        dx, dy = torus_displacement(geometry, grid, pt)
        u = u + (4.0 * np.pi * m) * _green_from_xy(dx, dy, geometry, n_terms)
    finite = np.isfinite(u)
    if recenter and finite.any():
        u = u - u[finite].mean()
    u = np.where(np.isneginf(u), NEGATIVE_SENTINEL, u)
    u = np.where(np.isposinf(u), -NEGATIVE_SENTINEL, u)
    field = ScalarField(geometry, grid, u)
    return DivisorPotential(divisor, geometry, grid, field, n_terms)


def vanishing_density(potential: DivisorPotential, scale: float = 1.0) -> ScalarField:
    """``scale * exp(u_D)``: nonnegative, vanishing to order 2 m_k at x_k.

    Requires an effective divisor (all multiplicities positive); a negative
    part would make the density blow up instead of vanish.
    """
    if any(m < 0 for m in potential.divisor.multiplicities):
        raise MixedSignDivisor("vanishing density needs all multiplicities positive")
    if not scale > 0:
        raise ValueError("scale must be positive")
    return ScalarField(
        potential.geometry, potential.grid, scale * np.exp(potential.u.values)
    )
