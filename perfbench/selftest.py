"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py    # about 3 minutes

Checks that

* ``BENCHMARK.json`` lists exactly the metrics and workloads ``run.py``
  reports;
* a seed changes only the generated divisor layout, and the same seed
  gives the same config;
* the tracer fails loudly when a traced binding is missing or an FFT
  routine is bound directly, and restores every binding it replaced;
* without ``src/vortexlab`` the benchmark exits non-zero and prints no
  result;
* two traced runs with the same seed give identical exact counts, and the
  layer spans cover at least 90% of the traced wall time.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import layers
import run
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
EXACT_COUNTS = (
    "fields.fft_calls",
    "fields.cg_ffts",
    "kw.newton_steps",
    "kw.linesearch_trials",
    "greens.potential_calls",
    "greens.point_samples",
)
MIN_COVERAGE = 90.0


def _strip_layout(node):
    """The config with every divisor coordinate removed."""
    node = copy.deepcopy(node)
    if isinstance(node, dict):
        return {k: _strip_layout(v) for k, v in node.items() if k not in ("x", "y")}
    if isinstance(node, list):
        return [_strip_layout(v) for v in node]
    return node


def _coordinates(node) -> list[float]:
    if isinstance(node, dict):
        own = [node[k] for k in ("x", "y") if k in node]
        return own + [c for v in node.values() for c in _coordinates(v)]
    if isinstance(node, list):
        return [c for v in node for c in _coordinates(v)]
    return []


def check_benchmark_json_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def check_seed_changes_only_layout() -> None:
    for name, make in workloads.WORKLOADS.items():
        a, b = make(1).config, make(2).config
        assert make(1).config == a, f"{name}: same seed gave different configs"
        assert _strip_layout(a) == _strip_layout(b), f"{name}: seed changed more than the layout"
        assert _coordinates(a) != _coordinates(b), f"{name}: seed did not move the divisor"


def _expect_missing(what: str) -> None:
    try:
        tracer = layers.install()
    except layers.BindingMissing as exc:
        print(f"  {what}: {exc}")
        return
    tracer.uninstall()
    raise AssertionError(f"{what}: install() did not fail")


def check_bindings_fail_loudly() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import vortexlab.fields
    import vortexlab.vortex

    solve, fft2 = vortexlab.kw.kw_solve, np.fft.fft2
    tracer = layers.install()
    assert vortexlab.vortex.kw_solve is not solve and np.fft.fft2 is not fft2, "nothing wrapped"
    tracer.uninstall()
    assert vortexlab.vortex.kw_solve is solve, "uninstall left a wrapper"
    assert vortexlab.kw.kw_solve is solve, "uninstall left a wrapper"
    assert np.fft.fft2 is fft2, "uninstall left an FFT wrapper"

    del vortexlab.vortex.kw_solve
    try:
        _expect_missing("caller binding removed")
    finally:
        vortexlab.vortex.kw_solve = solve
    vortexlab.fields.fft2 = fft2
    try:
        _expect_missing("direct FFT binding")
    finally:
        del vortexlab.fields.fft2
    assert vortexlab.vortex.kw_solve is solve and np.fft.fft2 is fft2


def check_no_program_fails() -> None:
    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mixed_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, f"{workload}: traced run failed\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_traced_counts_repeat(seed: int = 7) -> None:
    for name in workloads.WORKLOADS:
        first, second = _traced(name, seed), _traced(name, seed)
        for key in EXACT_COUNTS:
            assert first[key] == second[key], f"{name}: {key} {first[key]} != {second[key]}"
        for run in (first, second):
            assert run["trace.coverage"] >= MIN_COVERAGE, (
                f"{name}: layer spans cover {run['trace.coverage']:.1f}% of wall"
            )
        print("  " + name + ": " + ", ".join(f"{k}={first[k]}" for k in EXACT_COUNTS))


def main() -> int:
    checks = [
        check_benchmark_json_matches,
        check_seed_changes_only_layout,
        check_bindings_fail_loudly,
        check_no_program_fails,
        check_traced_counts_repeat,
    ]
    for check in checks:
        print(check.__name__)
        check()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
