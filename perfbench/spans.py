"""Span tracing of the rotcouette package from outside it.

``Tracer.install`` reassigns module attributes: every layer function listed
in ``LAYERS`` is replaced, at every module that looks the name up, by a
wrapper that records one span per call (name, start, end, parent index).
``Tracer.uninstall`` puts the originals back.  No file of the package is
edited.  A name that a later version of the package no longer defines is
reported in ``Tracer.absent`` and simply produces no spans.

Spans stay in memory (``Tracer.spans``) and are written out by the caller at
exit.  ``summarize`` turns the spans of one command into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time

perf = time.perf_counter

# Span name -> every (module, attribute) through which the package looks the
# function up.  Names imported with ``from .x import y`` live in several
# namespaces; each of them is listed so that the wrapper survives a refactor
# that gives one of them its own definition.  Any other package module that
# holds the same object is patched too (see ``Tracer.install``).
LAYERS: list[tuple[str, list[tuple[str, str]]]] = [
    ("cli.main", [("rotcouette.cli", "main")]),
    ("threshold.sweep", [("rotcouette.threshold", "sweep"), ("rotcouette.cli", "sweep")]),
    ("simulation.run", [
        ("rotcouette.simulation", "run"),
        ("rotcouette.threshold", "run"),
        ("rotcouette.cli", "run"),
    ]),
    ("simulation.initial_condition", [("rotcouette.simulation", "initial_condition")]),
    ("simulation.step", [("rotcouette.simulation", "step")]),
    ("simulation.linear_rhs", [("rotcouette.simulation", "linear_rhs")]),
    ("simulation.nonlinear_rhs", [("rotcouette.simulation", "nonlinear_rhs")]),
    ("simulation.leray_project_L", [("rotcouette.simulation", "leray_project_L")]),
    ("simulation.propagator", [("rotcouette.simulation", "propagator")]),
    ("simulation.frame_symbols", [
        ("rotcouette.simulation", "frame_symbols"),
        ("rotcouette.diagnostics", "frame_symbols"),
    ]),
    ("diagnostics.bootstrap_report", [("rotcouette.diagnostics", "bootstrap_report")]),
    ("kernels.integral_w_values", [("rotcouette._kernels", "integral_w_values")]),
    ("kernels.m_values", [("rotcouette._kernels", "m_values")]),
    ("kernels.M_values", [("rotcouette._kernels", "M_values")]),
    ("kernels.neg_MdotM_values", [("rotcouette._kernels", "neg_MdotM_values")]),
    ("spectral.high_eta_energy_fraction", [
        ("rotcouette.spectral", "high_eta_energy_fraction"),
        ("rotcouette.simulation", "high_eta_energy_fraction"),
    ]),
    ("reporting.read_snapshot_csv", [("rotcouette.reporting", "read_snapshot_csv")]),
    ("reporting.write_snapshot_csv", [("rotcouette.reporting", "write_snapshot_csv")]),
    ("reporting.write_energy_csv", [("rotcouette.reporting", "write_energy_csv")]),
    ("reporting.write_cells_csv", [("rotcouette.reporting", "write_cells_csv")]),
    ("reporting.write_summary_csv", [("rotcouette.reporting", "write_summary_csv")]),
    ("reporting.write_gamma_json", [("rotcouette.reporting", "write_gamma_json")]),
]

# Transform entry points of both FFT libraries, so that counts stay right when
# the package moves from numpy.fft to scipy.fft.  All are traced as one layer.
FFT_SPAN = "simulation.fft"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

WEIGHT_KERNELS = ("kernels.m_values", "kernels.M_values", "kernels.neg_MdotM_values")


def _fft_note(fname: str):
    """Computed work of one transform: 5 N log2 n flops (half for real ones), bytes in + out.

    N is the number of points of the full (complex-side) array and n the
    points of one transform along the transformed axes.  Results are cached
    per (input shape, output shape, axes), which keeps the per-call cost low.
    """
    real = fname.startswith(("r", "ir", "h", "ih"))
    ndim_default = {"2": 2, "n": None}.get(fname[-1], 1)
    cache: dict = {}

    def work(a, out, axes):
        full = a if a.size >= out.size else out
        if axes is None:
            axes = range(full.ndim) if ndim_default is None else range(-ndim_default, 0)
        elif isinstance(axes, int):
            axes = (axes,)
        n = math.prod(full.shape[ax] for ax in axes)
        flops = (2.5 if real else 5.0) * full.size * math.log2(max(n, 2))
        return {"flops": flops, "bytes": a.nbytes + out.nbytes}

    def note(args, kwargs, out):
        a = args[0] if args else kwargs.get("a", kwargs.get("x"))
        axes = kwargs.get("axes", kwargs.get("axis"))
        if axes is None and len(args) > 2:
            axes = args[2]
        try:
            key = (a.shape, a.dtype, out.shape, out.dtype, axes if isinstance(axes, (int, type(None))) else tuple(axes))
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = work(a, out, axes)
            return hit
        except (AttributeError, TypeError, IndexError):
            return None

    return note


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _run_note(args, kwargs, result):
    """Diagnostic times and monitored norms of one ``run``, for steps-to-decision."""
    try:
        cfg = result.cfg
        ts, ys = result.norm_series("U_neq_HN_total")
        return {
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "times": [float(t) for t in ts],
            "norms": [float(y) for y in ys],
        }
    except (AttributeError, KeyError):
        return None


NOTES = {
    "reporting.read_snapshot_csv": lambda args, kwargs, out: {"bytes": _file_size(args[0] if args else None)},
    "reporting.write_snapshot_csv": lambda args, kwargs, out: {"bytes": _file_size(out)},
    "simulation.run": _run_note,
}


class Tracer:
    """Collects spans from wrapped package functions; one instance per run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, note dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # nested call of the same layer: one span
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    def begin(self, name: str) -> int:
        """Open a root span that groups the spans of one benchmark command."""
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, -1, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf()

    def _patch_everywhere(self, wrappers: dict[int, object], originals) -> None:
        """Replace each original, by identity, in the listed sites and in every package module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rotcouette" or n.startswith("rotcouette.")]
        modules += [m for m, _ in originals]
        seen = set()
        for mod in modules:
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))  # originals stay referenced, so ids are unique
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        self.absent = []
        for name, sites in LAYERS:
            found = []
            for mod_name, attr in sites:
                mod = sys.modules.get(mod_name) or importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    found.append((mod, fn))
            if not found:
                self.absent.append(name)
                continue
            wrappers = {id(fn): self._wrap(name, fn, NOTES.get(name)) for _, fn in found}
            self._patch_everywhere(wrappers, found)

        fft_sites = []
        for mod_name in FFT_MODULES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            fft_sites += [(mod, getattr(mod, f)) for f in FFT_FUNCS if callable(getattr(mod, f, None))]
        wrappers = {}
        for mod, fn in fft_sites:
            wrappers.setdefault(id(fn), self._wrap(FFT_SPAN, fn, _fft_note(fn.__name__)))
        self._patch_everywhere(wrappers, fft_sites)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def _decision_steps(note: dict, steps_run: int, growth_factor: float) -> int:
    """Steps after which the classifier's outcome was fixed.

    That is the first diagnostic time at which the monitored norm exceeded
    growth_factor times its initial value, or the whole run otherwise.
    """
    if not note or not note["norms"]:
        return steps_run
    n_steps = max(1, math.ceil(note["t_end"] / note["dt"] - 1e-12))
    dt = note["t_end"] / n_steps
    initial = note["norms"][0]
    for t, y in zip(note["times"], note["norms"]):
        if y > growth_factor * initial:
            return min(steps_run, round(t / dt))
    return steps_run


def summarize(spans: list[list], root: int, growth_factor: float) -> dict:
    """Per-layer numbers of the command whose root span is ``spans[root]``."""
    end = spans[root][2]
    idx = [i for i in range(root + 1, len(spans)) if spans[i][1] <= end]
    child_s: dict[int, float] = {}
    in_step = {root: False}  # span has a simulation.step ancestor
    in_sweep = {root: False}  # span has a threshold.sweep ancestor
    run_of = {root: None}  # nearest simulation.run ancestor
    for i in idx:
        name, start, stop, parent, _ = spans[i]
        child_s[parent] = child_s.get(parent, 0.0) + (stop - start)
        pname = spans[parent][0]
        in_step[i] = in_step[parent] or pname == "simulation.step"
        in_sweep[i] = in_sweep[parent] or pname == "threshold.sweep"
        run_of[i] = parent if pname == "simulation.run" else run_of[parent]
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    step_calls: dict[str, int] = {}  # calls made inside simulation.step
    run_steps: dict[int, int] = {}
    fft_flops = fft_bytes = 0.0
    read_bytes = write_bytes = 0
    sweep_runs = []
    for i in idx:
        name, start, stop, parent, note = spans[i]
        dur = stop - start
        durations.setdefault(name, []).append(dur)
        self_s[name] = self_s.get(name, 0.0) + dur - child_s.get(i, 0.0)
        if in_step[i]:
            step_calls[name] = step_calls.get(name, 0) + 1
        if name == FFT_SPAN and note:
            fft_flops += note["flops"]
            fft_bytes += note["bytes"]
        elif name == "reporting.read_snapshot_csv" and note:
            read_bytes += note["bytes"]
        elif name == "reporting.write_snapshot_csv" and note:
            write_bytes += note["bytes"]
        elif name == "simulation.run" and in_sweep[i]:
            sweep_runs.append(i)
        elif name == "simulation.step" and run_of[i] is not None:
            run_steps[run_of[i]] = run_steps.get(run_of[i], 0) + 1

    def calls(n):
        return len(durations.get(n, ()))

    def total(n):
        return sum(durations.get(n, ()))

    steps = calls("simulation.step")
    steps_run = sum(run_steps.get(i, 0) for i in sweep_runs)
    steps_decided = sum(
        _decision_steps(spans[i][4], run_steps.get(i, 0), growth_factor) for i in sweep_runs
    )
    return {
        "step_durations": durations.get("simulation.step", []),
        "report_durations": durations.get("diagnostics.bootstrap_report", []),
        "cell_durations": [spans[i][2] - spans[i][1] for i in sweep_runs],
        "simulation.step.calls": steps,
        "simulation.step.self_s": self_s.get("simulation.step", 0.0),
        "simulation.nonlinear_rhs.calls": calls("simulation.nonlinear_rhs"),
        "simulation.nonlinear_rhs.self_s": self_s.get("simulation.nonlinear_rhs", 0.0),
        "simulation.fft.calls": calls(FFT_SPAN),
        "simulation.fft.calls_per_step": step_calls.get(FFT_SPAN, 0) / steps if steps else 0.0,
        "simulation.fft.s": total(FFT_SPAN),
        "simulation.fft.flops_computed": fft_flops,
        "simulation.fft.bytes_computed": fft_bytes,
        "simulation.frame_symbols.calls_per_step":
            step_calls.get("simulation.frame_symbols", 0) / steps if steps else 0.0,
        "simulation.frame_symbols.s": total("simulation.frame_symbols"),
        "simulation.linear_rhs.s": total("simulation.linear_rhs"),
        "simulation.leray_project_L.calls": calls("simulation.leray_project_L"),
        "simulation.leray_project_L.s": total("simulation.leray_project_L"),
        "simulation.propagator.calls": calls("simulation.propagator"),
        "simulation.propagator.s": total("simulation.propagator"),
        "simulation.initial_condition.s": total("simulation.initial_condition"),
        "diagnostics.bootstrap_report.calls": calls("diagnostics.bootstrap_report"),
        "diagnostics.bootstrap_report.self_s": self_s.get("diagnostics.bootstrap_report", 0.0),
        "kernels.integral_w_values.calls": calls("kernels.integral_w_values"),
        "kernels.weights.s": sum(total(n) for n in WEIGHT_KERNELS),
        "spectral.high_eta_energy_fraction.s": total("spectral.high_eta_energy_fraction"),
        "threshold.run.s": sum(spans[i][2] - spans[i][1] for i in sweep_runs),
        "threshold.steps_run": steps_run,
        "threshold.steps_to_decision": steps_decided,
        "reporting.read_snapshot_csv.s": total("reporting.read_snapshot_csv"),
        "reporting.read_snapshot_csv.bytes": read_bytes,
        "reporting.write_snapshot_csv.s": total("reporting.write_snapshot_csv"),
        "reporting.write_snapshot_csv.bytes": write_bytes,
        "reporting.write_energy_csv.s": total("reporting.write_energy_csv"),
        "reporting.write_cells_csv.s": total("reporting.write_cells_csv"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
