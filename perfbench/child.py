"""One benchmark process: import vortexlab, parse a config, run it.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):
child.py MODE CONFIG OUT_DIR, with MODE one of

* ``setup`` -- stop once the config is parsed, then time the reference
  kernel of ``reference.py``;
* ``run``   -- also call ``vortexlab.run(config, OUT_DIR, quiet=True)``;
* ``trace`` -- the same with the layer spans of ``layers.py`` installed.

Prints one JSON object. ``parsed_at`` is ``time.monotonic()`` when the
config was parsed, so the parent can time set-up from before it started
this process. Every process starts with cold program caches, as a CLI run
does.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # report, never fail the run over metadata
        return {"error": repr(exc)}


def main(mode: str, config_path: str, out_dir: str) -> dict:
    import vortexlab

    src = Path.cwd().resolve() / "src"
    if not Path(vortexlab.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported vortexlab from {vortexlab.__file__}, not from {src}")
    text = Path(config_path).read_text()
    t0 = time.perf_counter()
    config = vortexlab.parse_config(text)
    parse_s = time.perf_counter() - t0
    out = {"parsed_at": time.monotonic(), "parse_s": parse_s}
    if mode == "setup":
        import reference

        out["ref_s"] = reference.kernel_seconds()
        return out

    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.install()
    out["error"] = None
    manifest: dict = {}
    t0 = time.perf_counter()
    try:
        manifest = vortexlab.run(config, out_dir, quiet=True)
    except Exception as exc:  # the gate counts it; keep the traceback
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["wall_s"] = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    if tracer is not None:
        out["trace"] = layers.summarize(tracer, out["wall_s"])
        tracer.uninstall()

    root = Path(out_dir)
    out["manifest"] = {
        k: manifest.get(k) for k in ("status", "error", "stages", "points", "order_fits", "outputs")
    }
    artifacts = [root / name for name in manifest.get("outputs") or []]
    out["io_files"] = len(artifacts)
    out["io_bytes"] = sum(p.stat().st_size for p in artifacts if p.is_file())
    out["hashes"] = {
        p.name: _digest(p)
        for p in (sorted(root.iterdir()) if root.is_dir() else ())
        if p.name == "results.csv" or p.suffix == ".pgm"
    }
    out["numpy"] = sys.modules["numpy"].__version__
    out["blas"] = _blas()
    return out


if __name__ == "__main__":
    mode, config_path, out_dir = sys.argv[1:4]
    if mode not in ("setup", "run", "trace"):
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(main(mode, config_path, out_dir)))
