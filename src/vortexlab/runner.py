"""Experiment orchestration and artifact writing.

One process = one run. ``run(config)`` executes the configured solve or
sweep, writes the requested artifacts (CSV table, 16-bit PGM heatmaps
with JSON sidecars, optional SVG convergence plot) into the output
directory, and finishes by atomically writing ``manifest.json`` whether
the run succeeded or failed. Output writing is single-threaded and all
numbers are formatted with shortest round-trip ``repr``, so two runs of
the same config produce byte-identical tables.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import KWSection, RunConfig, echo_config
from .errors import VortexLabError
from .fields import ScalarField
from .kw import KWSolution, _check_resolved, interior_bounds, kw_solve
from .vortex import (
    DiagnosticsReport,
    SweepReport,
    adiabatic_sweep,
    solve_and_report,
)

__all__ = [
    "run",
    "emit_csv",
    "emit_heatmap",
    "emit_line_plot",
    "CSV_COLUMNS",
    "MANIFEST_NAME",
]

# Progress lines of ``run``; ``vortexlab.cli`` shows them unless ``--quiet``.
_log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "epsilon",
    "point_index",
    "curvature_mass",
    "sup_deviation",
    "bradlow_residual",
    "identity_residual",
    "sup_f",
    "sup_grad_f",
    "order_fit",
    "spectral_tail",
)

MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Formatting and atomic IO


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise VortexLabError(f"cannot write {path}: {exc}") from exc


def _jsonable(obj):
    """Recursively convert report objects to JSON-safe primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "nx") and hasattr(obj, "ny"):
        return [int(obj.nx), int(obj.ny)]
    return str(obj)


# ---------------------------------------------------------------------------
# CSV


def _row(point_index: int, **values) -> list[str]:
    """One CSV row; a column not named in ``values``, or None there, is empty."""
    return [
        str(point_index) if c == "point_index" else _fmt(values.get(c))
        for c in CSV_COLUMNS
    ]


def _report_rows(report: SweepReport) -> list[list[str]]:
    rows = []
    for stage in report.stages:
        residuals = stage.identity_residuals
        rows.append(
            _row(
                -1,
                epsilon=stage.epsilon,
                sup_deviation=stage.sup_deviation,
                bradlow_residual=residuals.get("bradlow"),
                identity_residual=residuals.get("identity"),
                sup_f=stage.sup_f,
                sup_grad_f=stage.sup_grad_f,
                spectral_tail=stage.spectral_tail,
            )
        )
        rows.extend(
            _row(
                p.index,
                epsilon=stage.epsilon,
                curvature_mass=stage.curvature_masses[p.index],
                order_fit=stage.order_fits[p.index],
            )
            for p in report.points
        )
    return rows


def _kw_rows(solution: KWSolution) -> list[list[str]]:
    bounds = interior_bounds(solution.f, spectrum=solution._take_final()[0])
    return [
        _row(
            -1,
            epsilon=solution.epsilon,
            sup_deviation=solution.residual_sup,
            identity_residual=solution.residual_l2,
            sup_f=bounds["sup_f"],
            sup_grad_f=bounds["sup_grad_f"],
            spectral_tail=solution.spectral_tail,
        )
    ]


def emit_csv(rows: Sequence[Sequence[str]], path: Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    _atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Heatmaps (binary portable graymap, 16-bit big-endian) and SVG line plots


def emit_heatmap(field: ScalarField, path: Path) -> None:
    """Write ``field`` as P5/65535 PGM plus a JSON sidecar.

    Pixels scale linearly from the field minimum (0) to the maximum
    (65535); the sidecar records the min/max so values are recoverable.
    Row 0 is the top of the image, i.e. y descending; columns are x
    ascending.
    """
    path = Path(path)
    vals = field.values
    lo = float(vals.min())
    hi = float(vals.max())
    if hi > lo:
        scaled = (vals - lo) * (65535.0 / (hi - lo))
    else:
        scaled = np.zeros_like(vals)
    pixels = np.clip(np.rint(scaled), 0, 65535).astype(">u2")
    raster = pixels.T[::-1, :]  # rows: y descending; columns: x ascending
    nx, ny = field.grid.nx, field.grid.ny
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    _atomic_write_bytes(path, header + raster.tobytes())
    sidecar = {
        "min": lo,
        "max": hi,
        "nx": nx,
        "ny": ny,
        "length_x": field.geometry.length_x,
        "length_y": field.geometry.length_y,
        "orientation": "row 0 is j = ny-1 (top, y descending); column i is x ascending",
    }
    _atomic_write_bytes(
        path.with_name(path.name + ".json"),
        (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("ascii"),
    )


def emit_line_plot(
    path: Path,
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    title: str = "",
) -> None:
    """Minimal log-log SVG polyline plot for convergence curves."""
    path = Path(path)
    width, height, margin = 640, 420, 60
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

    def transform(values):
        arr = np.asarray(values, dtype=float)
        return np.log10(np.where(arr > 0, arr, np.nan))

    tx = transform(xs)
    all_y = np.concatenate(
        [transform(v) for v in series.values()] or [np.array([0.0])]
    )
    finite_y = all_y[np.isfinite(all_y)]
    y_lo, y_hi = (
        (float(finite_y.min()), float(finite_y.max())) if finite_y.size else (0.0, 1.0)
    )
    x_lo, x_hi = float(np.nanmin(tx)), float(np.nanmax(tx))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for idx, (name, values) in enumerate(series.items()):
        ty = transform(values)
        pts = [
            f"{px(a):.2f},{py(b):.2f}"
            for a, b in zip(tx, ty)
            if np.isfinite(a) and np.isfinite(b)
        ]
        color = palette[idx % len(palette)]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 8}" '
            f'font-family="monospace" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    _atomic_write_bytes(path, ("\n".join(parts) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Run orchestration


def _stage_dict(record: DiagnosticsReport | KWSolution, **extra) -> dict:
    """Manifest entry of a stage or a kw solution: ``f`` and the solution's
    final transforms left out, trace inlined."""
    skip = ("f", "_final")
    out = {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.name not in skip}
    trace = dataclasses.asdict(out.pop("newton"))
    return _jsonable(out | trace | extra)


def _emit_report_artifacts(report: SweepReport, out: Path, config: RunConfig) -> list[str]:
    written: list[str] = []
    if config.outputs.csv:
        emit_csv(_report_rows(report), out / "results.csv")
        written.append("results.csv")
    if config.outputs.heatmaps and report.final_reconstruction is not None:
        recon = report.final_reconstruction
        for j, phi in enumerate(recon.phi_sq):
            name = f"phi_sq_{j}.pgm"
            emit_heatmap(phi, out / name)
            written.extend([name, name + ".json"])
        emit_heatmap(recon.curvature, out / "curvature.pgm")
        written.extend(["curvature.pgm", "curvature.pgm.json"])
    if config.outputs.svg and len(report.stages) > 1:
        xs = [s.epsilon for s in report.stages]
        series: dict[str, list[float]] = {
            "sup_deviation": [s.sup_deviation for s in report.stages]
        }
        # Mass errors, on a log axis: only points with an expected mass.
        for p in report.points:
            if p.expected_mass is not None:
                errors = [abs(s.curvature_masses[p.index] - p.expected_mass) for s in report.stages]
                series[f"mass_error_{p.index}"] = errors
        emit_line_plot(
            out / "convergence.svg",
            xs,
            series,
            title=f"{report.kind} sweep",
        )
        written.append("convergence.svg")
    return written


def run(config: RunConfig, out_dir: str | Path | None = None, quiet: bool = False) -> dict:
    """Execute the configured experiment; returns the manifest dict.

    Progress goes to the ``vortexlab.runner`` logger at INFO level, unless
    ``quiet``. The manifest is also written to ``<out>/manifest.json`` atomically,
    on success and on failure alike; a solver failure mid-sweep keeps the
    rows of the completed stages. ``manifest['status']`` is ``"ok"`` or
    ``"failed"``. An exception that is not a :class:`VortexLabError`, an
    interrupt included, is recorded the same way and then re-raised. An
    output directory that cannot be created raises :class:`VortexLabError`
    before anything runs, and no manifest exists then.
    """
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise VortexLabError(f"cannot create output directory {out}: {exc}") from exc

    def log(message: str) -> None:
        if not quiet:
            _log.info(message)

    manifest: dict = {
        "artifact_version": __version__,
        "kind": config.kind,
        "status": "ok",
        "error": None,
        "config_echo": echo_config(config),
        "points": [],
        "stages": [],
        "order_fits": [],
        "outputs": [],
        "wall_seconds": 0.0,
    }
    t0 = time.perf_counter()
    try:
        if isinstance(config.model, KWSection):
            problem = config.build_kw_problem()
            log(f"kw solve epsilon={problem.epsilon} grid={problem.grid.nx}x{problem.grid.ny}")
            solution = kw_solve(problem, config.solver)
            log(
                f"done in {solution.iterations} iterations, "
                f"residual {solution.residual_sup:.3e}"
            )
            # The grid is fixed: an unresolved solution fails the run.
            _check_resolved(solution)
            manifest["stages"] = [_stage_dict(solution, grid=problem.grid)]
            if config.outputs.csv:
                emit_csv(_kw_rows(solution), out / "results.csv")
                manifest["outputs"].append("results.csv")
            if config.outputs.heatmaps:
                emit_heatmap(solution.f, out / "f.pgm")
                manifest["outputs"].extend(["f.pgm", "f.pgm.json"])
        else:
            if config.kind == "sweep":
                def progress(stage: DiagnosticsReport) -> None:
                    log(
                        f"epsilon={stage.epsilon:g} grid={stage.grid.nx}x{stage.grid.ny} "
                        f"iterations={stage.newton.iterations} sup_dev={stage.sup_deviation:.3e}"
                    )

                report = adiabatic_sweep(
                    config.model, config.sweep, config.solver, progress=progress
                )
            else:
                spec = config.model
                log(
                    f"{config.kind} solve epsilon={spec.epsilon:g} "
                    f"grid={spec.grid.nx}x{spec.grid.ny}"
                )
                report = solve_and_report(spec, config.solver)
            manifest["points"] = [
                _jsonable(
                    {
                        "index": p.index,
                        "x": p.point[0],
                        "y": p.point[1],
                        "m_plus": p.m_plus,
                        "m_minus": p.m_minus,
                        "expected_mass": p.expected_mass,
                        "expected_order": p.expected_order,
                    }
                )
                for p in report.points
            ]
            manifest["stages"] = [_stage_dict(s) for s in report.stages]
            manifest["skipped"] = _jsonable(report.skipped)
            manifest["order_fits"] = _jsonable(report.order_fits)
            manifest["outputs"].extend(_emit_report_artifacts(report, out, config))
            if report.error is not None:
                manifest["status"] = "failed"
                manifest["error"] = _jsonable(report.error)
                log(
                    f"failed at epsilon={report.error.get('epsilon')}: "
                    f"{report.error['type']}: {report.error['message']}"
                )
    except BaseException as exc:
        manifest["status"] = "failed"
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        log(f"failed: {type(exc).__name__}: {exc}")
        if not isinstance(exc, VortexLabError):
            raise
    finally:
        manifest["wall_seconds"] = time.perf_counter() - t0
        payload = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        _atomic_write_bytes(out / MANIFEST_NAME, payload)
    return manifest
