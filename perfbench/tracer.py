"""In-process tracing of slowlight from outside the program.

``Tracer.install`` wraps every public function and public method defined in
the layer modules and rebinds each wrapper wherever the original is bound in
a ``slowlight`` module, so ``from .x import y`` names in ``cli`` and the
package re-exports are traced too.  Spans (id, parent id, layer, name,
start, end, error) stay in memory until ``write``.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "spectral", "medium", "kramers_kronig", "fdprop", "tdprop",
    "analysis", "io", "config", "cli",
)

# tdprop refuses a z step whose phase k0*max|chi|*L/(2*nz) reaches this.
MAX_STEP_PHASE = 0.1


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = math.nan
    error: bool = False
    info: dict = field(default_factory=dict)


def _annotate_io_write(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text)}


def _annotate_io_read(args, kwargs):
    path = args[0] if args else kwargs["path"]
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {"bytes": 0}


def _annotate_hilbert(args, kwargs, pad_default=None):
    f = args[0] if args else kwargs["f"]
    pad = args[1] if len(args) > 1 else kwargs.get("pad_factor", pad_default)
    return {"padded": int(pad) * len(f)}


def _annotate_solve(args, kwargs):
    names = ("medium", "control", "pulse", "settings")
    bound = dict(zip(names, args)) | kwargs
    return {"solve_args": (bound["medium"], bound["control"].intensity,
                           bound["pulse"].grid, bound.get("settings"))}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, layer: str, name: str):
        annotate = None
        if layer == "io" and name == "atomic_write_text":
            annotate = _annotate_io_write
        elif layer == "io" and name.startswith("read_"):
            annotate = _annotate_io_read
        elif layer == "kramers_kronig" and name == "hilbert_transform":
            pad_default = inspect.signature(fn).parameters["pad_factor"].default
            annotate = functools.partial(_annotate_hilbert, pad_default=pad_default)
        elif layer == "tdprop" and name == "solve":
            annotate = _annotate_solve
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, layer, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if annotate is not None:
                    span.info = annotate(args, kwargs)

        return traced

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"slowlight.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, attr))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "slowlight" or module_name.startswith("slowlight.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, cls, layer: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                replacement = self._wrap(obj, layer, name)
            elif isinstance(obj, (classmethod, staticmethod)):
                replacement = type(obj)(self._wrap(obj.__func__, layer, name))
            else:
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ analysis

    def write(self, path: Path):
        """Write every span, with its self time, as one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
                          "start": s.start, "end": s.end, "self": own[s.id], "error": s.error}
                counts = {k: v for k, v in s.info.items() if k != "solve_args"}
                if counts:
                    record["info"] = counts
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# The span names behind each per-layer self time, keyed by metric prefix.
_GROUPS = {
    "spectral.transform": {"forward_transform", "inverse_transform"},
    "spectral.synth": {"synthesize_pulse"},
    "spectral.fwhm": {"interpolated_fwhm", "ComplexEnvelope.intensity_fwhm", "SpectralEnvelope.intensity_fwhm"},
    "spectral.centroid": {"moment_centroid", "ComplexEnvelope.centroid"},
    "medium.chi": {"chi"},
    "fdprop.susceptibility": {"susceptibility_from_medium"},
    "fdprop.transfer": {"transfer_function"},
    "fdprop.propagate": {"propagate"},
    "tdprop.solve": {"solve"},
    "tdprop.scan": {"delay_vs_control_scan"},
    "kramers_kronig.ingest": {"ingest_absorption"},
    "kramers_kronig.kk": {"kk_real_from_imag"},
    "kramers_kronig.hilbert": {"hilbert_transform"},
    "analysis.xcorr": {"cross_correlate"},
    "analysis.fwhm": {"fwhm"},
    "analysis.linearity": {"linearity_diagnostic"},
    "config.load": {"load_config"},
    "config.flat_items": {"SimulationConfig.flat_items"},
}


def _group_of(span: Span, spans: list[Span]) -> str | None:
    if span.layer == "io":
        if span.name.startswith("read_"):
            return "io.read"
        if span.name == "write_summary":
            return "io.summary_write"
        if span.name.startswith("write_") or span.name == "atomic_write_text":
            parent = spans[span.parent] if span.parent is not None else None
            if parent is not None and parent.layer == "io":
                return _group_of(parent, spans)
            return "io.write"
        return None
    if span.layer == "medium":
        return "medium.chi" if span.name == "chi" else "medium.figures"
    for group, names in _GROUPS.items():
        if group.startswith(span.layer + ".") and span.name in names:
            return group
    return None


def nz_needed(medium, intensity: float, grid) -> int:
    """Fewest z steps tdprop.solve accepts: ceil(k0*max|chi|*L/(2*0.1)),
    with chi sampled on the pulse's detuning grid by the public slowlight.chi."""
    import numpy as np
    from slowlight import chi

    loaded = medium.with_control_intensity(intensity)
    chi_max = float(np.max(np.abs(chi(loaded, grid.frequency_grid().omegas))))
    return math.ceil(loaded.k0 * chi_max * loaded.length_mm / (2.0 * MAX_STEP_PHASE))


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-cycle self times and counts of every layer.  Ratios are taken
    over the totals; ``*_bytes`` and ``tdprop.zsteps`` are computed from
    argument sizes and settings, not measured."""
    from slowlight.tdprop import SolverSettings

    own = self_times(spans)
    totals = {f"{g}_s": 0.0 for g in _GROUPS}
    totals.update({"medium.figures_s": 0.0, "io.write_s": 0.0, "io.read_s": 0.0,
                   "io.summary_write_s": 0.0, "io.write_bytes": 0.0, "io.read_bytes": 0.0,
                   "kramers_kronig.fft_bytes": 0.0, "spectral.transform_calls": 0.0,
                   "fdprop.calls": 0.0, "tdprop.solve_calls": 0.0, "tdprop.zsteps": 0.0})
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = 0.0
        totals[f"{layer}.errors"] = 0.0
    needed = 0
    for span in spans:
        totals[f"{span.layer}.self_s"] += own[span.id]
        totals[f"{span.layer}.errors"] += span.error
        group = _group_of(span, spans)
        if group is not None:
            totals[f"{group}_s"] += own[span.id]
            if group in ("io.write", "io.read"):
                totals[f"{group}_bytes"] += span.info.get("bytes", 0)
        if span.layer == "fdprop":
            totals["fdprop.calls"] += 1
        if group == "spectral.transform":
            totals["spectral.transform_calls"] += 1
        if group == "kramers_kronig.hilbert":
            # two complex128 FFTs of the padded length, each reading and writing it
            totals["kramers_kronig.fft_bytes"] += 4 * 16 * span.info["padded"]
        if group == "tdprop.solve":
            medium, intensity, grid, settings = span.info["solve_args"]
            used = (settings or SolverSettings()).nz
            totals["tdprop.solve_calls"] += 1
            totals["tdprop.zsteps"] += used
            needed += nz_needed(medium, intensity, grid)
    zsteps = totals["tdprop.zsteps"]
    out = {name: value / cycles for name, value in totals.items()}
    out["io.write_mb_per_s"] = (
        totals["io.write_bytes"] / 1e6 / totals["io.write_s"] if totals["io.write_s"] > 0 else 0.0
    )
    out["tdprop.solve_s_per_zstep"] = totals["tdprop.solve_s"] / zsteps if zsteps else 0.0
    out["tdprop.zstep_useful_ratio"] = needed / zsteps if zsteps else 0.0
    return out
