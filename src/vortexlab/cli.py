"""Command-line interface.

Subcommands ``kw``, ``classical``, ``mixed``, ``generalized`` and
``sweep`` each load a YAML config (whose ``kind`` must match the
subcommand) and execute one run; ``report`` summarizes a previous run
from its manifest. Exit codes: 0 success, 2 configuration/validation
error, 3 solver or I/O failure during the run.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import KINDS, override, parse_config
from .errors import ParseError, ValidationError, VortexLabError
from .fields import GridSpec
from .runner import MANIFEST_NAME, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Vortex adiabatic-limit experiments on flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in KINDS:
        p = sub.add_parser(name, help=f"run a '{name}' config")
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--epsilon", type=float, default=None, help="override epsilon")
        p.add_argument(
            "--grid", type=int, default=None, help="override grid to N x N"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    rp = sub.add_parser("report", help="summarize a finished run directory")
    rp.add_argument("--out", required=True, help="run directory holding manifest.json")
    return parser


def _apply_overrides(config, args):
    changes = {}
    if args.epsilon is not None:
        if config.kind == "sweep":
            raise ValidationError("--epsilon does not apply to sweep runs")
        changes["epsilon"] = args.epsilon
    if args.grid is not None:
        if config.kind == "sweep":
            raise ValidationError("--grid does not apply to sweep runs")
        try:
            changes["grid"] = GridSpec(args.grid, args.grid)
        except ValidationError as exc:
            raise ValidationError(f"--grid: {exc}") from None
    return override(config, **changes) if changes else config


def _real(value) -> float:
    """``value`` if it is a number; a manifest entry that should be one
    and is not raises :class:`TypeError`, as other wrong types do."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _summarize(manifest: dict) -> str:
    lines = [
        f"kind:     {manifest.get('kind')}",
        f"status:   {manifest.get('status')}",
        f"version:  {manifest.get('artifact_version')}",
        f"wall:     {_real(manifest.get('wall_seconds', 0.0)):.2f} s",
    ]
    stages = manifest.get("stages", [])
    for stage in stages:
        eps = stage.get("epsilon")
        grid = stage.get("grid")
        iters = stage.get("iterations")
        dev = stage.get("sup_deviation")
        masses = stage.get("curvature_masses")
        parts = [f"epsilon={eps}"]
        if grid:
            parts.append(f"grid={grid[0]}x{grid[1]}")
        parts.append(f"iterations={iters}")
        if dev is not None:
            parts.append(f"sup_dev={_real(dev):.3e}")
        if masses:
            parts.append(
                "masses=" + ",".join("-" if m is None else f"{_real(m):.4f}" for m in masses)
            )
        lines.append("  stage " + " ".join(parts))
        start = stage.get("start")
        if start and "grid" in start:
            g = start["grid"]
            lines.append(
                f"    start probe grid={g[0]}x{g[1]} iterations={start['iterations']} "
                f"residual={_real(start['residual_sup']):.3e}"
            )
        elif start:
            lines.append(f"    start zero, probe failed: {start['type']}: {start['message']}")
    fits = manifest.get("order_fits") or []
    if any(f is not None for f in fits):
        lines.append(
            "order_fits: "
            + ",".join("-" if f is None else f"{_real(f):.4f}" for f in fits)
        )
    if manifest.get("error"):
        err = manifest["error"]
        lines.append(f"error: {err.get('type')}: {err.get('message')}")
    outputs = manifest.get("outputs", [])
    if outputs:
        lines.append("outputs: " + ", ".join(outputs))
    return "\n".join(lines)


def _report_command(out_dir: Path) -> int:
    path = out_dir / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: corrupt manifest {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(manifest, dict):
        print(f"error: corrupt manifest {path}: not a JSON object", file=sys.stderr)
        return 2
    try:
        summary = _summarize(manifest)
    except (AttributeError, TypeError, KeyError, IndexError) as exc:
        # An entry of the wrong type or shape: a stage that is not an
        # object, a string where a number is formatted, a short grid.
        print(f"error: corrupt manifest {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _report_command(Path(args.out))

    try:
        text = Path(args.config).read_bytes().decode("utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
        if config.kind != args.command:
            raise ValidationError(
                f"config kind '{config.kind}' does not match subcommand "
                f"'{args.command}'"
            )
        config = _apply_overrides(config, args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # run() logs its progress; print it unless --quiet, for this run only.
    logger = logging.getLogger("vortexlab")
    level = logger.level
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("[vortexlab] %(message)s"))
    if not args.quiet:
        logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        manifest = run(config, out_dir=args.out, quiet=args.quiet)
    except VortexLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return 0 if manifest["status"] == "ok" else 3


if __name__ == "__main__":
    sys.exit(main())
