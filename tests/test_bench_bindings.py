"""The benchmark's layer tracer must still find every binding it wraps.

``perfbench/layers.py`` times the package from outside by replacing named
functions (``reduce_any``, ``diagnostics_report``, ``kw_limit``, ...) at
their module bindings and wrapping the ``numpy.fft`` transforms. Renaming
or rebinding one of them makes ``install`` raise ``BindingMissing``; this
test surfaces that in the fast suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

import vortexlab.vortex

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_installs_and_uninstalls():
    layers = _load_layers()
    reduce_any = vortexlab.vortex.reduce_any
    transforms = {name: getattr(np.fft, name) for name in ("fft2", "rfft2", "irfft2")}
    tracer = layers.install()
    try:
        assert vortexlab.vortex.reduce_any is not reduce_any
        for name, fn in transforms.items():
            assert getattr(np.fft, name) is not fn, name
    finally:
        tracer.uninstall()
    assert vortexlab.vortex.reduce_any is reduce_any
    for name, fn in transforms.items():
        assert getattr(np.fft, name) is fn, name
