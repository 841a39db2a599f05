"""Shared oracles for the test suite.

``TrigPoly`` is a random real trigonometric polynomial with a known
closed form, so the same continuum function can be sampled on several
grids, differentiated analytically, and evaluated at arbitrary points —
the independent reference for spectral calculus and interpolation tests.
``record_transforms`` counts the ``np.fft`` calls of a test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vortexlab import GridSpec, ScalarField, TorusGeometry, field_from_function


@dataclass(frozen=True)
class TrigPoly:
    length_x: float
    length_y: float
    coeffs: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    phases: np.ndarray

    def _args(self, X, Y):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        return (
            2.0 * np.pi * (np.multiply.outer(self.kx / self.length_x, X)
                           + np.multiply.outer(self.ky / self.length_y, Y))
            + self.phases.reshape((-1,) + (1,) * np.ndim(X))
        )

    def __call__(self, X, Y):
        args = self._args(X, Y)
        return np.tensordot(self.coeffs, np.cos(args), axes=(0, 0))

    def laplacian(self, X, Y):
        lam = -(2.0 * np.pi) ** 2 * (
            (self.kx / self.length_x) ** 2 + (self.ky / self.length_y) ** 2
        )
        args = self._args(X, Y)
        return np.tensordot(self.coeffs * lam, np.cos(args), axes=(0, 0))

    def gradient(self, X, Y):
        args = self._args(X, Y)
        sin = np.sin(args)
        gx = np.tensordot(-self.coeffs * 2.0 * np.pi * self.kx / self.length_x, sin, axes=(0, 0))
        gy = np.tensordot(-self.coeffs * 2.0 * np.pi * self.ky / self.length_y, sin, axes=(0, 0))
        return gx, gy

    def field(self, geometry: TorusGeometry, grid: GridSpec) -> ScalarField:
        return field_from_function(geometry, grid, self)


def random_trig(
    seed: int,
    n_modes: int = 8,
    kmax: int = 5,
    length_x: float = 1.0,
    length_y: float = 1.0,
    amplitude: float = 1.0,
) -> TrigPoly:
    rng = np.random.default_rng(seed)
    kx = rng.integers(-kmax, kmax + 1, size=n_modes)
    ky = rng.integers(-kmax, kmax + 1, size=n_modes)
    # Avoid the constant mode so means/Laplacians stay informative.
    zero = (kx == 0) & (ky == 0)
    kx[zero] = 1
    coeffs = amplitude * rng.uniform(-1.0, 1.0, size=n_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    return TrigPoly(length_x, length_y, coeffs, kx, ky, phases)


def fd_laplacian(values: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """2nd-order centered finite-difference Laplacian with periodic wrap."""
    d2x = (np.roll(values, -1, axis=0) - 2.0 * values + np.roll(values, 1, axis=0)) / hx**2
    d2y = (np.roll(values, -1, axis=1) - 2.0 * values + np.roll(values, 1, axis=1)) / hy**2
    return d2x + d2y


FFT_ROUTINES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def record_transforms(monkeypatch) -> list:
    """Wrap every ``np.fft`` routine; each call appends (name, wrote into out)."""
    calls = []
    for name in FFT_ROUTINES:
        def counted(*args, _name=name, _orig=getattr(np.fft, name), **kwargs):
            result = _orig(*args, **kwargs)
            out = kwargs.get("out")
            calls.append((_name, out is not None and result is out))
            return result

        monkeypatch.setattr(np.fft, name, counted)
    return calls
