"""Per-layer spans for vortexlab, recorded from outside the package.

``install`` replaces public functions with wrappers that record one span
per call: layer name, start, end, parent span and whether it raised. A
function is replaced at every module binding that refers to it, so both
``vortexlab.kw.kw_solve`` and the ``kw_solve`` that ``vortexlab.vortex``
imported are traced. ``numpy.fft`` transforms are wrapped on the
``numpy.fft`` module, which is where ``vortexlab.fields`` looks them up.

A missing binding is an error, never a silent zero: if a refactor renames
a function, or a caller stops importing it by name, or a module binds an
FFT routine directly, ``install`` raises :class:`BindingMissing`.

Spans nest as recorded: newton > energy/residual/cg > fft, reduce > greens,
diagnostics > limit/reduce/fft. ``summarize`` reports each layer's self
time (span minus child spans), its total time (outermost spans only,
children included) and exact call counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer -> (defining module, public function names, modules that must call
# them through their own binding)
LAYERS = {
    "greens.potential": ("vortexlab.greens", ("divisor_potential",), ("vortexlab.vortex",)),
    "vortex.reduce": ("vortexlab.vortex", ("reduce_any",), ("vortexlab.vortex",)),
    "kw.newton": ("vortexlab.kw", ("kw_solve",), ("vortexlab.vortex",)),
    "kw.energy": ("vortexlab.kw", ("kw_energy",), ("vortexlab.kw",)),
    "kw.residual": ("vortexlab.kw", ("kw_residual",), ("vortexlab.kw",)),
    "fields.cg": ("vortexlab.fields", ("solve_linearized",), ("vortexlab.kw",)),
    "vortex.diagnostics": ("vortexlab.vortex", ("diagnostics_report",), ("vortexlab.vortex",)),
    "kw.limit": ("vortexlab.kw", ("kw_limit",), ("vortexlab.vortex",)),
    "vortex.orderfit": (
        "vortexlab.vortex",
        ("vanishing_order_fit", "mixed_limit_phi_sq"),
        ("vortexlab.vortex",),
    ),
    "fields.resample": ("vortexlab.fields", ("resample",), ("vortexlab.vortex",)),
    "runner.io": (
        "vortexlab.runner",
        ("emit_csv", "emit_heatmap", "emit_line_plot"),
        ("vortexlab.runner",),
    ),
}
FFT_LAYER = "fields.fft"
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
# Transforms from these libraries would bypass the numpy.fft wrappers.
FOREIGN_FFT_MODULES = ("scipy.fft", "scipy.fftpack", "pyfftw", "mkl_fft")


class BindingMissing(RuntimeError):
    """A traced function or the caller binding it relies on is gone."""


class Tracer:
    """In-memory span log; one per traced process."""

    def __init__(self) -> None:
        # [layer, start, end, parent index, raised, extra count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, name: str, new) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def uninstall(self) -> None:
        while self._undo:
            module, name, old = self._undo.pop()
            setattr(module, name, old)


def _package_modules(package: str = "vortexlab") -> list:
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]


def _fft_bytes(args, kwargs, result) -> int:
    a = args[0] if args else kwargs.get("a")
    return int(np.asarray(a).nbytes) + int(np.asarray(result).nbytes)


def _point_samples(args, kwargs, result) -> int:
    divisor = args[0] if args else kwargs["divisor"]
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return len(divisor) * grid.nx * grid.ny


def _iterations(args, kwargs, result) -> int:
    return int(result.iterations)


EXTRA = {"greens.potential": _point_samples, "kw.newton": _iterations}


def install() -> Tracer:
    """Wrap every layer function; raise :class:`BindingMissing` on drift."""
    importlib.import_module("vortexlab")
    modules = _package_modules()
    tracer = Tracer()
    try:
        for layer, (home, names, callers) in LAYERS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                orig = getattr(home_mod, name, None)
                if not callable(orig):
                    raise BindingMissing(
                        f"{home}.{name} is gone; layer {layer!r} would read zero"
                    )
                for caller in callers:
                    bound = getattr(importlib.import_module(caller), name, None)
                    if bound is not orig:
                        raise BindingMissing(
                            f"{caller} no longer calls {home}.{name} through its own "
                            f"binding '{name}'; layer {layer!r} would read zero"
                        )
                wrapped = tracer.wrap(layer, orig, EXTRA.get(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            tracer._patch(mod, attr, wrapped)
        originals = set()
        for name in FFT_NAMES:
            orig = getattr(np.fft, name, None)
            if not callable(orig):
                raise BindingMissing(f"numpy.fft.{name} is gone")
            originals.add(id(orig))
            tracer._patch(np.fft, name, tracer.wrap(FFT_LAYER, orig, _fft_bytes))
        for mod in modules:
            for attr, value in vars(mod).items():
                owner = getattr(value, "__module__", None) or ""
                if callable(value) and (
                    id(value) in originals or owner.startswith(FOREIGN_FFT_MODULES)
                ):
                    raise BindingMissing(
                        f"{mod.__name__}.{attr} binds an FFT routine directly; "
                        f"calls through it would bypass the {FFT_LAYER!r} span"
                    )
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


def _has_ancestor(spans, idx: int, layer: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Self times, counts and coverage of one traced ``run`` call."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    covered = 0.0
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    self_s: dict[str, float] = {name: 0.0 for name in (*LAYERS, FFT_LAYER)}
    total_s = dict(self_s)
    calls: dict[str, int] = {name: 0 for name in self_s}
    extra: dict[str, int] = {name: 0 for name in self_s}
    for i, (layer, start, end, _, _, n) in enumerate(spans):
        self_s[layer] += (end - start) - child_time[i]
        if not _has_ancestor(spans, i, layer):
            total_s[layer] += end - start
        calls[layer] += 1
        extra[layer] += n

    # The trial count depends on kw_solve's residual pattern: per solve,
    # kw_residual runs once per loop head (iterations + 1 times) and once
    # per line-search trial; a trial whose energy overflowed (OverflowGuard)
    # skips its residual. run.measure_traced refuses counts that contradict
    # this pattern.
    residuals = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "kw.residual" and _has_ancestor(spans, i, "kw.newton")
    )
    if any(s[4] for s in spans if s[0] == "kw.newton"):
        trials = None  # a failed solve leaves the trial count undefined
    else:
        overflowed = sum(
            1 for i, s in enumerate(spans)
            if s[0] == "kw.energy" and s[4] and _has_ancestor(spans, i, "kw.newton")
        )
        trials = residuals - (extra["kw.newton"] + calls["kw.newton"]) + overflowed
    cg_ffts = sum(
        1 for i, s in enumerate(spans)
        if s[0] == FFT_LAYER and _has_ancestor(spans, i, "fields.cg")
    )
    return {
        "self_s": self_s,
        "total_s": total_s,
        "calls": calls,
        "extra": extra,
        "newton_steps": extra["kw.newton"],
        "newton_residuals": residuals,
        "linesearch_trials": trials,
        "cg_ffts": cg_ffts,
        "coverage": covered / wall_s if wall_s > 0 else 0.0,
    }
