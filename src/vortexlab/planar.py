"""The planar vortex that starts a classical solve (derivations §4).

At unit scale the radial vortex of degree ``m`` on the plane is
``|phi|^2 = e^{h_m(log rho)}`` with ``h'' = 2 e^{2s} (e^h - 1)``,
``h ~ 2m s + a_m`` as ``s -> -inf`` and ``h -> 0`` as ``s -> inf``.
:func:`_planar_collocation` solves it on Chebyshev points,
:func:`_planar_profiles` tabulates it as one cubic Hermite cell per table
interval in ``t = log rho^2``, and :meth:`_Profile.read` evaluates that
cubic, continued by the line ``m t + a_m`` below the table and by 0 past
it. :func:`_add_planar_core` adds a core of size ``eps`` to a grid, on
the disc out to where ``|h_m|`` falls below ``_CORE_CUT``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import _disc_blocks


# Log-radius range of the profile: below it h = 2 m s + a_m to roundoff,
# above it (rho > 40) |h| < 1e-24. Collocation degree, table size and the
# table's node spacing in s.
_PROFILE_RANGE = (-12.0, math.log(40.0))
_PROFILE_DEGREE = 128
_PROFILE_TABLE = 4097
_PROFILE_STEP = (_PROFILE_RANGE[1] - _PROFILE_RANGE[0]) / (_PROFILE_TABLE - 1)
# Table nodes per block of the barycentric evaluation (a 264 KB matrix).
_PROFILE_BLOCK = 256
# The start adds each core only on the disc where |h| exceeds this; below
# it the start's residual stops falling (derivations §4).
_CORE_CUT = 1e-10
# Samples per band of a core read: its work buffer (896 KiB) stays in cache.
_CORE_BAND = 2**14


def _planar_collocation(degrees) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(x, [h, ...])``: the planar vortex of each of ``degrees`` on the
    Chebyshev points ``x_j = cos(pi j / n)`` of ``[-1, 1]``, ``s = lo + (x
    + 1) (hi - lo) / 2``.

    ``|phi|^2 = e^{h(log rho)}`` is the radial vortex of the plane at unit
    scale (derivations §4): ``h'' = 2 e^{2s} (e^h - 1)`` with ``h_s = 2m``
    at the left end of ``_PROFILE_RANGE`` and ``h = 0`` at the right end,
    solved by Newton on Chebyshev collocation, one differentiation matrix
    for all degrees. Newton stops at ``max|dh| <= 1e-10``; collocation
    roundoff grows like ``n^4 u``, so a tighter stop is never met.
    """
    n = _PROFILE_DEGREE
    lo, hi = _PROFILE_RANGE
    half = 0.5 * (hi - lo)
    # The differentiation matrix in s (Trefethen, Spectral Methods in MATLAB).
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = (-1.0) ** np.arange(n + 1)
    c[[0, -1]] *= 2.0
    d1 = np.outer(c, 1.0 / c) / (np.subtract.outer(x, x) + np.eye(n + 1))
    d1 -= np.diag(d1.sum(axis=1))
    d1 /= half
    d2 = d1 @ d1
    s = lo + (x + 1.0) * half
    w = 2.0 * np.exp(2.0 * s)
    jac = np.empty_like(d2)
    solved = []
    for m in degrees:
        h = m * (2.0 * s - np.log1p(np.exp(2.0 * s)))
        while True:
            eh = np.exp(h)
            resid = d2 @ h - w * (eh - 1.0)
            np.copyto(jac, d2)
            jac.flat[:: n + 2] -= w * eh
            # h = 0 at the right end (x_0 = 1), h' = 2m at the left.
            resid[0], jac[0], jac[0, 0] = h[0], 0.0, 1.0
            resid[-1], jac[-1] = d1[-1] @ h - 2.0 * m, d1[-1]
            dh = np.linalg.solve(jac, -resid)
            h += dh
            if np.abs(dh).max() <= 1e-10:
                break
        solved += [h, d1 @ h]
    return x, solved


class _Profile(NamedTuple):
    """The planar vortex as a cubic in ``t = 2s = log rho^2`` and ``a = a_m``.

    ``cubic`` holds one row ``(c_0, c_1, c_2, c_3)`` per cell of ``t``,
    the value ``c_0 + c_1 u + c_2 u^2 + c_3 u^3`` at the position ``u`` in
    the cell: row 0 the line ``m t + a_m`` below the table, row ``i`` the
    cubic Hermite interpolant of ``h`` and ``h'`` from node ``i - 1`` to
    node ``i`` (spacing ``_PROFILE_STEP`` in ``s``), and a last row of
    zeros past the table, whose last node is 0.
    """

    a: float
    cubic: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return _PROFILE_RANGE[0] + _PROFILE_STEP * np.arange(len(self.cubic) - 1)

    @property
    def h(self) -> np.ndarray:
        return self.cubic[1:, 0]

    def read(self, t: np.ndarray, work: tuple | None = None) -> np.ndarray:
        """``h`` at the 1-D ``t``, written over ``t`` and returned: exactly 0
        past the table, ``m t + a_m`` below it (NaN at ``t = -inf``).
        ``work`` is from :func:`_core_work`, made when None."""
        n = len(t)
        _, u, index, cells = work if work is not None else _core_work(n)
        u, index, cells = u[:n], index[:n], cells[:n]
        # The position in cells from row 0, which ends at the first node,
        # and its cell: row 0 anywhere below the table.
        t -= 2.0 * (_PROFILE_RANGE[0] - _PROFILE_STEP)
        t *= 0.5 / _PROFILE_STEP
        np.maximum(t, 0.0, out=u)
        np.floor(u, out=u)
        np.copyto(index, u, casting="unsafe")
        np.subtract(t, u, out=u)
        np.take(self.cubic, index, axis=0, out=cells, mode="clip")
        np.multiply(cells[:, 3], u, out=t)
        t += cells[:, 2]
        t *= u
        t += cells[:, 1]
        t *= u
        t += cells[:, 0]
        return t


def _core_work(size: int) -> tuple[np.ndarray, ...]:
    """``(t, u, index, cells)`` for :meth:`_Profile.read` of ``size``
    samples, views of one buffer (896 KiB at 512^2)."""
    buffer = np.empty(7 * size)
    t, u, index = buffer[:size], buffer[size : 2 * size], buffer[2 * size : 3 * size]
    return t, u, index.view(np.intp), buffer[3 * size :].reshape(size, 4)


# The tables built so far, one per degree: one of the package's two
# process-wide caches (the other is ``fields._wavenumbers``).
_PROFILES: dict[int, _Profile] = {}


def _planar_profiles(degrees) -> list[_Profile]:
    """The planar vortex of each of ``degrees`` as a :class:`_Profile`, in
    order, read-only and cached. The degrees not cached yet are solved
    and interpolated together."""
    new = sorted(set(degrees) - _PROFILES.keys())
    if new:
        # The cached rows are taken before the temporaries, which then free
        # into the heap above them; taken after, they left the temporaries
        # as a hole under them, 0.25 MiB of peak_rss_mib on a 512^2
        # classical sweep. The table's cut leaves fewer than 200 rows
        # (6 KiB) unused at the end of each.
        rows = [np.zeros((_PROFILE_TABLE + 1, 4)) for _ in new]
        nodes, solved = _planar_collocation(new)
        table = _on_table(nodes, np.stack(solved, axis=1))
        for i, m in enumerate(new):
            _PROFILES[m] = _tabulate(m, table[:, 2 * i], table[:, 2 * i + 1], rows[i])
    return [_PROFILES[m] for m in degrees]


def _on_table(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The polynomials through the columns of ``values`` on the Chebyshev
    points ``nodes``, at the ``_PROFILE_TABLE`` uniform nodes of ``[-1,
    1]``: barycentric, ``_PROFILE_BLOCK`` nodes of each half at a time."""
    # The table in the collocation variable: dyadic, so x[-1 - i] = -x[i].
    x = np.linspace(-1.0, 1.0, _PROFILE_TABLE)
    # Barycentric weights (-1)^j, halved at the ends. The table's ends are
    # the Chebyshev end points and take their values; no interior node is
    # a Chebyshev point in floating point (x = 0 lies 6e-17 from
    # cos(pi/2)). Columns: sum w, then sum w v per column v of values.
    weights = (-1.0) ** np.arange(len(nodes))
    weights[[0, -1]] *= 0.5
    columns = np.concatenate([np.ones((len(nodes), 1)), values], axis=1)
    # The Chebyshev points and weights are symmetric about 0 as well (to
    # an ulp), so the terms at x, met with the values reversed, give the
    # sums at -x up to a common sign: each block serves both halves.
    k = columns.shape[1]
    both = np.concatenate([columns, columns[::-1]], axis=1)
    last = _PROFILE_TABLE - 1
    sums = np.empty((_PROFILE_TABLE, k))
    work, pairs = np.empty((_PROFILE_BLOCK, len(nodes))), np.empty((_PROFILE_BLOCK, 2 * k))
    for start in range(1, last // 2 + 1, _PROFILE_BLOCK):
        stop = min(start + _PROFILE_BLOCK, last // 2 + 1)
        block, pair = work[: stop - start], pairs[: stop - start]
        np.subtract.outer(x[start:stop], nodes, out=block)
        np.divide(weights, block, out=block)
        np.matmul(block, both, out=pair)
        sums[last - start : last - stop : -1] = pair[:, k:]
        sums[start:stop] = pair[:, :k]
    sums[[0, -1]] = columns[[-1, 0]]
    return sums[:, 1:] / sums[:, :1]


def _tabulate(m: int, h: np.ndarray, dh: np.ndarray, rows: np.ndarray) -> _Profile:
    """The :class:`_Profile` of the degree-``m`` vortex from ``h`` and
    ``h'`` on the uniform nodes, its cells written into the zeroed
    ``rows``.

    A running maximum restores the monotonicity that collocation roundoff
    breaks in the far tail (``|h| < 1e-12``), and ``h'`` is 0 wherever
    ``h`` is.
    """
    h = np.minimum(np.maximum.accumulate(h), 0.0)
    h[-1] = 0.0
    # Slopes per cell, h' ds.
    slope = dh * _PROFILE_STEP
    slope[h == 0.0] = 0.0
    # Cut the exact zeros of the tail but two: their cells read 0.
    end = min(int(np.flatnonzero(h)[-1]) + 3, _PROFILE_TABLE)
    h, slope, jump = h[:end], slope[:end], np.diff(h[:end])
    cubic = rows[: end + 1]
    cubic[0, :2] = h[0] - 2.0 * m * _PROFILE_STEP, 2.0 * m * _PROFILE_STEP
    cubic[1:end, 0], cubic[1:end, 1] = h[:-1], slope[:-1]
    cubic[1:end, 2] = 3.0 * jump - 2.0 * slope[:-1] - slope[1:]
    cubic[1:end, 3] = slope[:-1] + slope[1:] - 2.0 * jump
    cubic.flags.writeable = False
    return _Profile(float(h[0] - 2.0 * m * _PROFILE_RANGE[0]), cubic)


def _add_core(target: np.ndarray, dx: np.ndarray, dy: np.ndarray, reach: float, profile, work):
    """``target[i, j] += h(log(dx[i]^2 + dy[j]^2))`` on the disc of radius
    ``reach`` (offsets in units of eps), a band of rows at a time on the
    columns of its widest chord, in the :func:`_core_work` ``work``."""
    dx2, dy2 = np.square(dx), np.square(dy)
    band = len(work[0]) // len(dy)
    starts = np.arange(0, len(dx), band)
    chords = reach * reach - np.minimum.reduceat(dx2, starts)
    for start, chord in zip(starts.tolist(), chords.tolist()):
        cols = np.flatnonzero(dy2 <= chord)
        if not cols.size:
            continue
        rows, cols = slice(start, start + band), slice(cols[0], cols[-1] + 1)
        shape = (len(dx2[rows]), cols.stop - cols.start)
        t = work[0][: shape[0] * shape[1]]
        np.add(dx2[rows, None], dy2[cols], out=t.reshape(shape))
        np.log(t, out=t)
        target[rows, cols] += profile.read(t, work).reshape(shape)


def _add_planar_core(target: np.ndarray, geometry, grid, center, eps: float, profile, work):
    """``target += h(log(|x - center|^2 / eps^2))`` for the ``profile``
    ``h``, in the :func:`_core_work` ``work``.

    The core is read on the disc out to the first table node with ``|h|
    <= _CORE_CUT`` and left out past it, box by box of
    :func:`fields._disc_blocks`.
    """
    reach = math.exp(profile.s[np.searchsorted(profile.h, -_CORE_CUT)])
    for box, dx, dy in _disc_blocks(geometry, grid, center, eps * reach):
        _add_core(target[box], dx[:, 0] / eps, dy[0] / eps, reach, profile, work)
