"""Seeded inputs and correctness gates for the benchmark workloads.

Each workload is a vortexlab run config built from a seed. The seed moves
only the divisor layout: a torus translation for the two shipped
configurations, and lattice jitter plus a translation for the
many-point generalized model. Everything else (schedule, grids, solver
settings, outputs) is fixed, so two seeds do comparable work.

Why each workload exists:

* ``mixed_sweep`` -- the paper's headline adiabatic-limit experiment
  (``configs/sweep_mixed.yaml`` extended by one stage to eps = 0.0125, grids
  16^2 .. 512^2). Every stage is on a new grid, so every stage misses the
  density cache and is warm-started through ``resample``; it also runs the
  closed-form limit, the order fits and every artifact (3 heatmaps, CSV, SVG).
* ``classical_fixed_grid`` -- the ``configs/classical.yaml`` divisor
  (multiplicities 1 and 2) swept over eps = 0.05, 0.025, 0.0125 on one 512^2
  grid. CG/FFT-bound; the one-sided Newton path with constant-mode pinning;
  ``greens`` runs once and later stages hit the density cache.
* ``generalized_many_points`` -- 16 points on a jittered 4x4 lattice split
  over four terms with weights (2, 1, -1, -2), tau = 0, eps = 0.1, one stage
  at 384^2. Reduce-bound, and runs the multi-term bisection path of
  ``kw_limit``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Acceptance-suite tolerances (tests/test_acceptance.py, criteria 2-6).
IDENTITY_TOL = 1e-6  # times the torus volume
MASS_TOL = 0.02
ORDER_REL_TOL = 0.05
CLASSICAL_FINAL_DEVIATION = 0.05

MIXED_PLUS = ((0.25, 0.25, 1), (0.75, 0.75, 1))
MIXED_MINUS = ((0.75, 0.25, 1),)
CLASSICAL_DIVISOR = ((0.25, 0.25, 1), (0.75, 0.75, 2))
GENERALIZED_WEIGHTS = (2, 1, -1, -2)
LATTICE_JITTER = 0.04  # keeps lattice neighbours at least 0.17 apart
VOLUME = 1.0  # unit torus

OUTPUTS = {"csv": True, "heatmaps": True, "svg": True}


@dataclass(frozen=True)
class Workload:
    """A run config plus what its outputs must show."""

    name: str
    config: dict
    stages: int
    # (x, y, expected curvature mass) for points whose mass is gated.
    masses: tuple = ()
    # Expected vanishing order at every point, or None when not fitted.
    order: float | None = None
    final_deviation: float | None = None


def _items(points) -> list[dict]:
    return [{"x": x, "y": y, "m": m} for x, y, m in points]


def _translate(points, shift):
    return tuple(((x + shift[0]) % 1.0, (y + shift[1]) % 1.0, m) for x, y, m in points)


def _shift(rng: random.Random) -> tuple[float, float]:
    return rng.random(), rng.random()


def mixed_sweep(seed: int) -> Workload:
    shift = _shift(random.Random(seed))
    plus = _translate(MIXED_PLUS, shift)
    minus = _translate(MIXED_MINUS, shift)
    config = {
        "kind": "sweep",
        "mixed": {"divisor_plus": _items(plus), "divisor_minus": _items(minus), "tau": 0.0},
        "sweep": {"epsilons": [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]},
        "outputs": dict(OUTPUTS),
    }
    masses = tuple((x, y, 0.5 * m) for x, y, m in plus) + tuple(
        (x, y, -0.5 * m) for x, y, m in minus
    )
    return Workload("mixed_sweep", config, stages=6, masses=masses, order=0.5)


def classical_fixed_grid(seed: int) -> Workload:
    divisor = _translate(CLASSICAL_DIVISOR, _shift(random.Random(seed)))
    config = {
        "kind": "sweep",
        "classical": {"divisor": _items(divisor)},
        "sweep": {"epsilons": [0.05, 0.025, 0.0125], "min_grid": 512, "max_grid": 512},
        "outputs": dict(OUTPUTS),
    }
    masses = tuple((x, y, float(m)) for x, y, m in divisor)
    return Workload(
        "classical_fixed_grid",
        config,
        stages=3,
        masses=masses,
        final_deviation=CLASSICAL_FINAL_DEVIATION,
    )


def _lattice_terms(seed: int) -> list[tuple[int, tuple]]:
    """(weight, points) per term: a jittered, translated 4x4 lattice.

    Lattice site (i, j) goes to term (i + 2 j) mod 4, so every term gets
    four points spread over the torus.
    """
    rng = random.Random(seed)
    shift = _shift(rng)
    per_term: list[list] = [[] for _ in GENERALIZED_WEIGHTS]
    for j in range(4):
        for i in range(4):
            x = 0.125 + 0.25 * i + rng.uniform(-LATTICE_JITTER, LATTICE_JITTER)
            y = 0.125 + 0.25 * j + rng.uniform(-LATTICE_JITTER, LATTICE_JITTER)
            per_term[(i + 2 * j) % 4].append((x, y, 1))
    return [
        (w, _translate(pts, shift)) for w, pts in zip(GENERALIZED_WEIGHTS, per_term)
    ]


def generalized_many_points(seed: int) -> Workload:
    terms = [
        {"weight": w, "divisor": _items(pts)} for w, pts in _lattice_terms(seed)
    ]
    config = {
        "kind": "generalized",
        "epsilon": 0.1,
        "grid": {"nx": 384, "ny": 384},
        "generalized": {"tau": 0.0, "terms": terms},
        "outputs": dict(OUTPUTS),
    }
    return Workload("generalized_many_points", config, stages=1)


WORKLOADS = {
    "mixed_sweep": mixed_sweep,
    "classical_fixed_grid": classical_fixed_grid,
    "generalized_many_points": generalized_many_points,
}


# ---------------------------------------------------------------------------
# Gates


def _torus_dist(p, q) -> float:
    dx = abs(p[0] - q[0]) % 1.0
    dy = abs(p[1] - q[1]) % 1.0
    return math.hypot(min(dx, 1.0 - dx), min(dy, 1.0 - dy))


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def stage_failures(workload: Workload, result: dict) -> tuple[int, list[str]]:
    """Number of failed stages in one run, with the reasons.

    ``result`` is the child's report: ``error`` (an exception that escaped
    ``run``) and the manifest fields ``status``, ``stages``, ``points``
    and ``order_fits``. A status of ``ok`` is not trusted on its own: every
    expected stage must be present and meet its gate.
    """
    reasons: list[str] = []
    failed: set[int] = set()
    n = workload.stages
    if result.get("error"):
        reasons.append(f"run raised {result['error']}")
    manifest = result.get("manifest") or {}
    if manifest.get("status") != "ok":
        reasons.append(f"manifest status {manifest.get('status')!r}: {manifest.get('error')}")
    stages = manifest.get("stages") or []
    if reasons or len(stages) != n:
        if len(stages) != n:
            reasons.append(f"{len(stages)} stages recorded, expected {n}")
        return n, reasons

    for i, st in enumerate(stages):
        ident = (st.get("identity_residuals") or {}).get("identity")
        if not _finite(ident) or abs(ident) > IDENTITY_TOL * VOLUME:
            failed.add(i)
            reasons.append(f"stage {i}: identity residual {ident} > {IDENTITY_TOL}*vol")

    devs = [st.get("sup_deviation") for st in stages]
    for i in range(1, n):
        if not (_finite(devs[i]) and _finite(devs[i - 1]) and devs[i] < devs[i - 1]):
            failed.add(i)
            reasons.append(f"stage {i}: sup_deviation {devs[i]} not below {devs[i - 1]}")
    if workload.final_deviation is not None and not (
        _finite(devs[-1]) and devs[-1] <= workload.final_deviation
    ):
        failed.add(n - 1)
        reasons.append(f"final sup_deviation {devs[-1]} > {workload.final_deviation}")

    points = manifest.get("points") or []
    final_masses = stages[-1].get("curvature_masses") or []
    fits = manifest.get("order_fits") or []
    for x, y, expected in workload.masses:
        idx = [p["index"] for p in points if _torus_dist((p["x"], p["y"]), (x, y)) < 1e-9]
        mass = final_masses[idx[0]] if len(idx) == 1 and idx[0] < len(final_masses) else None
        if not (_finite(mass) and abs(mass - expected) <= MASS_TOL):
            failed.add(n - 1)
            reasons.append(f"final mass at ({x:.4f}, {y:.4f}) is {mass}, expected {expected}")
    if workload.order is not None:
        tol = ORDER_REL_TOL * workload.order
        if len(fits) != len(points) or not all(
            _finite(v) and abs(v - workload.order) <= tol for v in fits
        ):
            failed.add(n - 1)
            reasons.append(f"order fits {fits} not within {tol} of {workload.order}")
    return len(failed), reasons
