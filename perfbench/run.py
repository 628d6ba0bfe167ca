#!/usr/bin/env python3
"""Benchmark of the rotcouette CLI: one seeded workload per invocation.

    python3 perfbench/run.py --workload nonlinear-16 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client runs the CLI command of the workload in
process, one command at a time, until ``--seconds`` have passed, with
FFT/BLAS threads pinned to 1.  Every command's outputs are checked (see
``workloads.py``) and compared byte for byte with the first command's.

``--trace 0`` prints the end-to-end metrics, with every time in reference
seconds: program time scaled to a fixed host speed measured by a
calibration probe run beside it (see ``refclock.py``).  ``--trace 1`` alternates
untraced and traced commands and prints the per-layer metrics of the traced
ones (see ``spans.py`` and ``README.md``).  The last line of standard output
is one JSON object; a fuller record, with the machine description, is
written to ``.perfbench/results/`` and the spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)  # before numpy is imported

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
IMPORT_SAMPLES = 9


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _file_text(path: str, default: str = "unknown") -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def machine_info(workload) -> dict:
    """Libraries, hardware and thread pins recorded with every result."""
    from rotcouette import _kernels

    model = "unknown"
    for line in _file_text("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        level, kind = _file_text(f"{base}/level"), _file_text(f"{base}/type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _file_text(f"{base}/size")
    l2 = caches.get("L2", "")
    l2_bytes = int(l2[:-1]) * 1024 if l2.endswith("K") else None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core": caches,
        "state_bytes": workload.state_bytes,
        "state_over_l2": workload.state_bytes / l2_bytes if l2_bytes else None,
        "thread_pins": THREAD_PINS,
    }


def pin_to_current_cpu() -> int | None:
    """Pin this process, and the interpreters it starts, to the CPU it runs on.

    The calibration probe must run on the CPU whose speed it stands for: the
    vCPUs of a shared host change speed independently of each other.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return cpu


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def import_seconds(n: int) -> list[float]:
    """Reference seconds of importing the CLI module in a fresh interpreter, n times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "perfbench")]))
    # numpy, which the probes need, is part of what is timed: import refclock after
    code = ("import time; t0 = time.perf_counter(); import rotcouette.cli; t1 = time.perf_counter()\n"
            "import refclock; print(refclock.reference_seconds_just_ended(t1 - t0))")
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                             capture_output=True, text=True).stdout)
        for _ in range(n)
    ]


class StepProbe:
    """Wraps ``simulation.step`` to time the first RK step and count completed steps.

    While ``clock`` is set, a host-speed probe may run before a step (see
    ``refclock.py``); it runs before the step's start is taken.
    """

    def __init__(self, simulation):
        self.module = simulation
        self.original = simulation.step
        self.clock = None
        self.first = None
        self.completed = 0
        original = self.original

        def step(*args, **kwargs):
            if self.clock is not None:
                self.clock.maybe_probe()
            if self.first is None:
                self.first = time.perf_counter()
            out = original(*args, **kwargs)
            self.completed += 1
            return out

        simulation.step = step

    def reset(self):
        self.first = None
        self.completed = 0

    def remove(self):
        self.module.step = self.original


def digest(outdir: Path) -> dict[str, str]:
    """sha256 of every data file; manifest.json holds wall-clock stamps and is skipped."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def main(argv=None) -> int:
    from refclock import RefClock
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rotcouette" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pin_to_current_cpu()
    imports = import_seconds(IMPORT_SAMPLES)
    import rotcouette.cli as cli
    import rotcouette.simulation as simulation
    import spans as spanlib

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        clock = RefClock(workload.probe_parts)
        result = measure(args, workload, cli, simulation, spanlib, workdir, imports, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = machine_info(workload)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    if result["absent"]:
        print(f"absent (not traced): {', '.join(result['absent'])}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(args, workload, cli, simulation, spanlib, workdir, imports, clock) -> dict:
    from workloads import GROWTH_FACTOR, Sweep8

    probe = StepProbe(simulation)
    tracer = spanlib.Tracer()
    untraced, traced = [], []  # per-command samples
    checks: list[tuple[str, bool, str]] = []
    reference = None
    attempted = failed = 0
    started = time.perf_counter()
    i = 0
    while True:
        trace_this = args.trace == 1 and i % 2 == 1
        outdir = workdir / f"out{i}"
        probe.reset()
        root = None
        if trace_this:
            tracer.install()
            root = tracer.begin("bench.command")
        if args.trace == 0:
            probe.clock = clock
            clock.probe()
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                rc = cli.main(workload.argv(outdir))
        except Exception:  # a crash of the program is a failed operation, not a harness error
            rc = "exception"
            sink.write(traceback.format_exc())
        finally:
            t1 = time.perf_counter()
            if trace_this:
                tracer.end(root)
                tracer.uninstall()
        sample = {
            "wall_s": t1 - t0,
            "to_first_step_s": (probe.first - t0) if probe.first is not None else None,
            "steps": probe.completed,
        }
        if args.trace == 0:
            clock.probe()
            probe.clock = None
            sample["raw_wall_s"] = sample["wall_s"]
            sample["wall_s"] = clock.reference_seconds(t0, t1)
            if probe.first is not None:
                sample["to_first_step_s"] = clock.reference_seconds(t0, probe.first)
        if rc != 0:
            attempted += 1
            failed += 1
            checks.append(("exit_code", False, f"command {i} exited {rc}: {sink.getvalue()[-300:]}"))
            break
        statuses = workload.cell_statuses(outdir)
        cell_errors = sum(st.startswith("error:") for st in statuses)
        sample["cells"] = len(statuses) - cell_errors
        attempted += len(statuses)
        failed += cell_errors
        files = digest(outdir)
        if reference is None:
            reference = files
            checks += [(name, bool(ok), detail) for name, ok, detail in workload.check(outdir)]
        else:
            same = files == reference
            kind = "traced" if trace_this else "untraced"
            checks.append((f"identical_outputs_{kind}_{i}", same, "data files vs command 0"))
        if trace_this:
            sample.update(spanlib.summarize(tracer.spans, root, GROWTH_FACTOR))
            if isinstance(workload, Sweep8):
                sample["threshold.cells"] = len(statuses)
                sample["threshold.cells_blown_up"] = statuses.count("blown_up")
                sample["threshold.cells_error"] = cell_errors
            traced.append(sample)
        else:
            untraced.append(sample)
        shutil.rmtree(outdir, ignore_errors=True)
        i += 1
        elapsed = time.perf_counter() - started
        typical = statistics.median(s.get("raw_wall_s", s["wall_s"]) for s in untraced + traced)
        enough = traced if args.trace else untraced
        # stop once another command would overrun by more than half its length
        if enough and elapsed + 0.5 * typical > args.seconds:
            break
    probe.remove()
    attempted += len(checks) - sum(name == "exit_code" for name, _, _ in checks)
    failed += sum(not ok for name, ok, _ in checks if name != "exit_code")

    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.csv")
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, imports, attempted, failed)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "import_s": imports,
        "samples": untraced + [{k: v for k, v in s.items() if not k.endswith("_durations")} for s in traced],
        "checks": checks,
        "absent": tracer.absent,
    }


def _median(samples, key):
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(samples, imports, attempted, failed) -> dict:
    wall = _median(samples, "wall_s")
    values = {
        "setup_s": statistics.median(imports) + _median(samples, "to_first_step_s"),
        "wall_s": wall,
        "steps_per_s": statistics.median(s["steps"] / s["wall_s"] for s in samples) if samples else 0.0,
        "cells_per_s": statistics.median(s.get("cells", 0) / s["wall_s"] for s in samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in declared_metrics("end_to_end").items()}


def per_layer(untraced, traced) -> dict:
    from spans import percentile

    declared = declared_metrics("per_layer")
    pooled = {
        key: [d for s in traced for d in s.get(key, [])]
        for key in ("step_durations", "report_durations", "cell_durations")
    }
    values = {k: _median(traced, k) for k in declared if traced and k in traced[0]}
    values.update({
        "simulation.step.p50_ms": 1e3 * percentile(pooled["step_durations"], 0.50),
        "simulation.step.p95_ms": 1e3 * percentile(pooled["step_durations"], 0.95),
        "diagnostics.bootstrap_report.p50_ms": 1e3 * percentile(pooled["report_durations"], 0.50),
        "threshold.cell_p50_s": percentile(pooled["cell_durations"], 0.50),
    })
    if traced and untraced:
        values["trace.overhead_frac"] = _median(traced, "wall_s") / _median(untraced, "wall_s") - 1.0
    run_steps = _median(traced, "threshold.steps_run")
    values["threshold.decided_step_frac"] = (
        _median(traced, "threshold.steps_to_decision") / run_steps if run_steps else 0.0
    )
    return {k: {"value": values.get(k, 0.0), "unit": declared[k]} for k in declared}


if __name__ == "__main__":
    sys.exit(main())
