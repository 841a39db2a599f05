"""vortexlab benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mixed_sweep --seed 1 --seconds 30 --trace 0

Every measured run is a fresh ``python3 perfbench/child.py`` process that
imports ``vortexlab`` from ``./src``, parses the seeded config and calls
``vortexlab.run(config, out_dir, quiet=True)`` -- closed loop, one run at a
time. BLAS threads are pinned to 1 (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``) and ``VORTEXLAB_THREADS`` is removed, so the program's
default is what is measured.

``--trace 0`` repeats the run while the next one fits in ``--seconds`` (at
least twice) plus a few set-up-only processes, each of which also times
the fixed kernel of ``reference.py`` (``ref_s``). It prints the medians of

* ``wall_s``       -- time inside ``run()`` (to ``newton_tol = 1e-10``);
* ``setup_s``      -- from before the process starts, through the
                      ``vortexlab`` import, until the config is parsed;
* ``cpu_s``        -- user plus system CPU time of the process;
* ``peak_rss_mib`` -- ``ru_maxrss`` of the process;
* ``ref_s``        -- the reference kernel;

and reports ``wall_ref`` and ``cpu_ref``, the median ``wall_s`` and
``cpu_s`` in units of the median ``ref_s``, in place of the raw times: the
host's speed drifts by more than the regression bound within minutes, and
the kernel, sampled throughout the same runs, drifts with it.

``--trace 1`` makes one untraced and one traced run and reports per-layer
self times and exact counts from ``layers.py``; ``trace.overhead_s`` is the
traced minus the untraced wall time.

Every run is gated (``workloads.stage_failures``) and all runs of one
invocation must write byte-identical ``results.csv`` and ``.pgm`` files. A
stage that fails a gate, or belongs to a run whose bytes differ, counts in
``failed`` (``fail_frac = failed / attempted``). The last stdout line is the
JSON result; the exit code is 1 when any gate failed and 2 on a usage or
set-up error (for instance, no ``src/vortexlab`` under the working
directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SCRATCH = ".perfbench_runs"
SETUPS_PER_RUN = 2
MIN_REPS = 2
# Each invocation must end within 180 s; stop starting runs past this.
DEADLINE_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not measure (not a gate failure)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("VORTEXLAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    env["PYTHONPATH"] = str(root / "src")
    return env


class Runner:
    def __init__(self, root: Path, work: Path, config_path: Path, deadline: float):
        self.root = root
        self.work = work
        self.config_path = config_path
        self.env = _child_env(root)
        self.deadline = deadline
        self.count = 0

    def child(self, mode: str) -> dict:
        """One fresh process; returns its report plus ``setup_s``."""
        self.count += 1
        out_dir = self.work / f"run{self.count}"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a required run")
        cmd = [sys.executable, str(CHILD), mode, str(self.config_path), str(out_dir)]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} run exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["parsed_at"] - started
        report["out_dir"] = out_dir
        return report


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git (the benchmark
    checkout is usually not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(root: Path, sample: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": sample.get("numpy"),
        "blas": sample.get("blas"),
        "threads": {**{var: PINNED_THREADS for var in THREAD_VARS}, "VORTEXLAB_THREADS": "unset"},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


class Tally:
    """Stage failures over all runs of one invocation."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None

    def add(self, report: dict) -> None:
        n, reasons = workloads.stage_failures(self.workload, report)
        hashes = report.get("hashes") or {}
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            n = self.workload.stages
            reasons.append("output bytes differ from the first run of this seed")
        self.attempted += self.workload.stages
        self.failed += n
        for reason in reasons:
            print(f"GATE FAIL [{self.workload.name}]: {reason}", file=sys.stderr)
        shutil.rmtree(report["out_dir"], ignore_errors=True)


END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("cpu_ref", "ref"), ("peak_rss_mib", "MiB"))

# (metric, unit, better). Times are self times (span minus child spans)
# except fields.cg_total_s, the CG span including its FFTs. kw.limit,
# vortex.orderfit and fields.resample are entered by some workloads only
# and read 0 s and 0 calls on the others.
PER_LAYER = (
    ("greens.potential_s", "s", "lower"),
    ("greens.potential_calls", "count", "lower"),
    ("greens.point_samples", "count", "lower"),
    ("vortex.reduce_s", "s", "lower"),
    ("vortex.reduce_calls", "count", "lower"),
    ("fields.cg_s", "s", "lower"),
    ("fields.cg_total_s", "s", "lower"),
    ("fields.cg_calls", "count", "lower"),
    ("fields.cg_ffts", "count", "lower"),
    ("fields.fft_s", "s", "lower"),
    ("fields.fft_calls", "count", "lower"),
    ("fields.fft_bytes_computed", "B", "lower"),
    ("kw.newton_s", "s", "lower"),
    ("kw.newton_steps", "count", "lower"),
    ("kw.linesearch_trials", "count", "lower"),
    ("kw.accept_ratio", "1", "higher"),
    ("kw.energy_s", "s", "lower"),
    ("kw.residual_s", "s", "lower"),
    ("kw.limit_s", "s", "lower"),
    ("kw.limit_calls", "count", "lower"),
    ("vortex.diagnostics_s", "s", "lower"),
    ("vortex.orderfit_s", "s", "lower"),
    ("vortex.orderfit_calls", "count", "lower"),
    ("fields.resample_s", "s", "lower"),
    ("fields.resample_calls", "count", "lower"),
    ("runner.io_s", "s", "lower"),
    ("runner.io_bytes", "B", "lower"),
    ("runner.io_files", "count", "lower"),
    ("config.parse_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "%", "higher"),
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """Repeat the run while the next one fits in ``seconds``; medians.

    Set-up-only processes run between the full runs, so the set-up and
    reference-kernel samples spread over the whole measurement like the run
    samples do.
    """
    start = time.monotonic()
    setups: list[float] = []
    refs: list[float] = []
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        for _ in range(SETUPS_PER_RUN):
            report = runner.child("setup")
            setups.append(report["setup_s"])
            refs.append(report["ref_s"])
        report = runner.child("run")
        durations.append(time.monotonic() - t0)
        tally.add(report)
        reps.append(report)
        setups.append(report["setup_s"])
        upcoming = statistics.median(durations)
        if len(reps) >= MIN_REPS and (
            time.monotonic() - start + upcoming > seconds
            or time.monotonic() + upcoming > runner.deadline
        ):
            break
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "ref_s": refs,
    }
    medians = {name: statistics.median(v) for name, v in samples.items()}
    values = {
        **medians,
        "wall_ref": medians["wall_s"] / medians["ref_s"],
        "cpu_ref": medians["cpu_s"] / medians["ref_s"],
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    raw = {name: _metric(medians[name], "s") for name in ("wall_s", "cpu_s", "ref_s")}
    counts = {name: len(v) for name, v in samples.items()}
    return metrics, {"samples": counts, "sample": reps[0], "raw": raw}


def layer_values(plain: dict, traced: dict) -> dict:
    """Per-layer metric values from one untraced and one traced run."""
    t = traced["trace"]
    self_s, calls, extra = t["self_s"], t["calls"], t["extra"]
    wall = traced["wall_s"]
    trials = t["linesearch_trials"]
    values = {
        "greens.point_samples": extra["greens.potential"],
        "fields.cg_total_s": t["total_s"]["fields.cg"],
        "fields.cg_ffts": t["cg_ffts"],
        "fields.fft_bytes_computed": extra["fields.fft"],
        "kw.newton_steps": t["newton_steps"],
        "kw.linesearch_trials": trials,
        "kw.accept_ratio": t["newton_steps"] / trials if trials else None,
        "runner.io_bytes": traced["io_bytes"],
        "runner.io_files": traced["io_files"],
        "config.parse_s": traced["parse_s"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - plain["wall_s"],
        "trace.coverage": 100.0 * t["coverage"],
    }
    for layer in self_s:
        values[layer + "_s"] = self_s[layer]
        values[layer + "_calls"] = calls[layer]
    return values


def measure_traced(runner: Runner, tally: Tally) -> tuple[dict, dict]:
    plain = runner.child("run")
    tally.add(plain)
    traced = runner.child("trace")
    tally.add(traced)
    t = traced["trace"]
    if t["calls"]["fields.cg"] and not t["cg_ffts"]:
        raise BenchError("CG ran but no FFT span was recorded inside it")
    # kw.linesearch_trials is inferred from kw_solve's residual pattern
    # (layers.summarize); refuse to report it once that pattern changes.
    loop_heads = t["calls"]["kw.newton"] + t["newton_steps"]
    if t["newton_residuals"] < loop_heads:
        raise BenchError(
            f"{t['newton_residuals']} kw_residual calls inside kw_solve, fewer than "
            f"its {loop_heads} loop heads; kw.linesearch_trials cannot be inferred"
        )
    trials = t["linesearch_trials"]
    if trials is not None and trials < t["newton_steps"]:
        raise BenchError(
            f"{trials} line-search trials for {t['newton_steps']} Newton steps; "
            "kw_solve's residual pattern no longer matches layers.summarize"
        )
    values = layer_values(plain, traced)
    metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    return metrics, {"samples": {}, "sample": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "vortexlab" / "__init__.py").is_file():
        print(f"error: no src/vortexlab under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = root / SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.yaml"
    config_path.write_text(yaml.safe_dump(workload.config, sort_keys=False))
    runner = Runner(root, work, config_path, deadline)
    tally = Tally(workload)
    try:
        runner.child("setup")  # compiles bytecode; not measured
        if args.trace:
            metrics, info = measure_traced(runner, tally)
        else:
            metrics, info = measure(runner, tally, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass

    print("env " + json.dumps(_environment(root, info["sample"]), sort_keys=True))
    for name, m in {**info.get("raw", {}), **metrics}.items():
        n = info["samples"].get(name)
        suffix = f"  (median of {n})" if n else ""
        print(f"{args.workload} {name} = {m['value']} {m['unit']}{suffix}")
    fail_frac = tally.failed / tally.attempted
    print(f"{args.workload} fail_frac = {fail_frac} 1  ({tally.failed}/{tally.attempted} stages)")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
