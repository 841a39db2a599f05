"""Shared oracles for the test suite.

``TrigPoly`` is a random real trigonometric polynomial with a known
closed form, so the same continuum function can be sampled on several
grids, differentiated analytically, and evaluated at arbitrary points —
the independent reference for spectral calculus and interpolation tests.
``field_from_function`` samples a closed form on a grid, ``bump_field``
spreads the package's bump window over the whole grid, and
``trig_interpolant`` evaluates a grid field's trigonometric interpolant
off the grid by direct summation. ``raise_if_failed`` turns a sweep
report's recorded error back into an exception.
``record_transforms`` counts the 2-D transforms of a test and checks how
each is split into one-axis passes. ``pure_python_echo`` is the config
echo as PyYAML's own emitter writes it. ``empty_caches`` lets a memory
test measure what a fresh process would, in any test order. ``theta1``
is the odd Jacobi theta function in complex arithmetic, independent of
the package's real factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import yaml

import vortexlab.config
import vortexlab.fields
import vortexlab.vortex
from vortexlab import GridSpec, ScalarField, TorusGeometry, VortexLabError
from vortexlab.fields import _bump_window


def grid_points(geometry: TorusGeometry, grid: GridSpec):
    """Meshgrid arrays (X, Y) of the sample coordinates, indexing='ij'."""
    x = np.arange(grid.nx) * (geometry.length_x / grid.nx)
    y = np.arange(grid.ny) * (geometry.length_y / grid.ny)
    return np.meshgrid(x, y, indexing="ij")


def field_from_function(geometry: TorusGeometry, grid: GridSpec, fn) -> ScalarField:
    """``fn(X, Y)`` sampled on the grid."""
    X, Y = grid_points(geometry, grid)
    return ScalarField(geometry, grid, np.asarray(fn(X, Y), dtype=np.float64))


def meshgrid_distance(geometry: TorusGeometry, grid: GridSpec, center) -> np.ndarray:
    """Minimal-image distances from full coordinate arrays, sample by sample."""
    lx, ly = geometry.length_x, geometry.length_y
    X, Y = grid_points(geometry, grid)
    dx = np.mod(X - center[0] + 0.5 * lx, lx) - 0.5 * lx
    dy = np.mod(Y - center[1] + 0.5 * ly, ly) - 0.5 * ly
    return np.sqrt(dx * dx + dy * dy)


def bump_field(geometry: TorusGeometry, grid: GridSpec, center, r_inner, r_outer) -> ScalarField:
    """The smooth bump of ``fields._bump_window`` on the whole grid: 1 on the
    ``r_inner`` disc, 0 outside the ``r_outer`` disc."""
    box, window = _bump_window(geometry, grid, center, r_inner, r_outer)
    values = np.zeros((grid.nx, grid.ny))
    values[box] = window
    return ScalarField(geometry, grid, values)


def trig_interpolant(f: ScalarField, points) -> np.ndarray:
    """The trigonometric interpolant of ``f`` at an (M, 2) array of points.

    Direct summation over the full DFT: mode ``k`` contributes ``F_k
    e^{2 pi i (k1 x / lx + k2 y / ly)}``, and a Nyquist mode, which the grid
    cannot tell from its mirror, the cosine of its phase.
    """
    pts = np.asarray(points, dtype=np.float64)
    nx, ny = f.grid.nx, f.grid.ny

    def phases(coords, n, length):
        theta = np.multiply.outer(coords / length, np.fft.fftfreq(n, d=1.0 / n)) * 2.0 * np.pi
        out = np.exp(1j * theta)
        out[:, n // 2] = np.cos(theta[:, n // 2])
        return out

    spec = np.fft.fft2(f.values) / (nx * ny)
    px = phases(pts[:, 0], nx, f.geometry.length_x)
    py = phases(pts[:, 1], ny, f.geometry.length_y)
    return ((px @ spec) * py).sum(axis=1).real


def raise_if_failed(report) -> None:
    """Raise :class:`VortexLabError` if the sweep ``report`` recorded an error."""
    if report.error is not None:
        raise VortexLabError(
            f"sweep failed at epsilon={report.error.get('epsilon')}: "
            f"{report.error['type']}: {report.error['message']}"
        )


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


def theta1(z, tau):
    """``2 sum_n (-1)^n q^{(n+1/2)^2} sin((2n+1) pi z)`` with ``q = e^{i pi
    tau}``, by complex powers and sines; eight terms reach machine
    precision on the fundamental cell for ``Im tau >= 1``. Terms whose
    coefficient underflows to zero are skipped: their sine may overflow."""
    z = np.asarray(z, dtype=complex)
    q = np.exp(1j * np.pi * tau)
    acc = np.zeros_like(z)
    for n in range(8):
        coeff = (-1) ** n * q ** ((n + 0.5) ** 2)
        if coeff != 0:
            acc = acc + coeff * np.sin((2 * n + 1) * np.pi * z)
    return 2.0 * acc


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
    """Wrap every ``np.fft`` routine; each 2-D transform appends (name,
    wrote into out).

    The package runs a 2-D transform as two one-axis passes, and the list
    records its real pass, ``rfft`` along y or ``irfft`` back. The complex
    pass along x must pair with it one to one, in place on the
    ``(nx, ny/2 + 1)`` half spectrum: ``fft`` on the array that the
    ``rfft`` just wrote, and ``ifft`` on the array that the next ``irfft``
    reads. A pass out of that order fails the test when it is called. Any
    other routine is recorded under its own name.
    """
    calls = []
    pending = []  # the half spectrum whose partner pass must come next

    def complex_pass(name, a, kwargs):
        assert kwargs.get("axis") == 0 and kwargs.get("out") is a, (name, kwargs)
        if name == "fft":
            assert pending and pending.pop() is a, "fft without its rfft"
        else:
            assert not pending, "ifft before the previous transform finished"
            pending.append(a)

    def real_pass(name, a, kwargs, result):
        assert kwargs.get("axis") == 1, (name, kwargs)
        if name == "rfft":
            assert not pending, "rfft before the previous transform finished"
            pending.append(result)
        else:
            assert pending and pending.pop() is a, "irfft without its ifft"
            assert a.shape[1] == kwargs["n"] // 2 + 1, (a.shape, kwargs)

    for name in FFT_ROUTINES:
        def counted(a, *args, _name=name, _orig=getattr(np.fft, name), **kwargs):
            if _name in ("fft", "ifft"):
                complex_pass(_name, a, kwargs)
                return _orig(a, *args, **kwargs)
            result = _orig(a, *args, **kwargs)
            if _name in ("rfft", "irfft"):
                real_pass(_name, a, kwargs, result)
            calls.append((_name, result is kwargs.get("out")))
            return result

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def pure_python_echo(config) -> str:
    """``echo_config(config)`` through PyYAML's own emitter: the text that
    libyaml's emitter must reproduce byte for byte."""
    with mock.patch.object(vortexlab.config, "_DUMPER", yaml.SafeDumper):
        return vortexlab.config.echo_config(config)


def empty_caches() -> None:
    """Empty the package's two process-wide caches (the half-spectrum
    symbols and the planar vortex profiles), so that a ``tracemalloc`` peak
    counts what they would build in a fresh process, whatever an earlier
    test left in them. numpy loads parts of ``numpy.fft`` on the first
    transform, which no test can undo; that is done here, outside the trace.
    """
    np.fft.rfft(np.zeros(8))
    vortexlab.fields._wavenumbers.cache_clear()
    vortexlab.vortex._planar_profile.cache_clear()
