"""Timed passes of one workload, run in a fresh interpreter.

Usage: ``python3 worker.py <spec.json>``; ``run.py`` writes the spec and
reads the result file it names.  A pass calls ``eetsim.cli.main`` once per
invocation of the workload.  Passes repeat until the next one would end
after the window (at least two passes).  With tracing on, untraced and
traced passes alternate, so the tracing overhead is measured in the same
process.  Peak RSS is read before the gates run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_PASSES = 2


def run_invocation(main, argv) -> dict:
    """One CLI call; the program's output and any crash are kept, not raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(list(argv))
    except Exception:  # a crash in the program is a failed operation
        return {"code": None, "output": sink.getvalue() + traceback.format_exc()}
    return {"code": code, "output": sink.getvalue()}


def file_hashes(work: Path, names) -> dict:
    hashes = {}
    for name in names:
        path = work / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return hashes


def install_capture(cli, names, captured: dict) -> None:
    """Keep the last result of each named ``eetsim.cli`` function for the gates."""
    def capturing(name, original):
        @functools.wraps(original)
        def keep(*args, **kwargs):
            captured[name] = result = original(*args, **kwargs)
            return result

        return keep

    for name in names:
        setattr(cli, name, capturing(name, getattr(cli, name)))


def substeps(grid, dt: float) -> int:
    """RK4 substeps the engines take on ``grid`` with step ``dt`` (computed)."""
    times = grid.times
    return sum(max(1, math.ceil(float(times[i + 1] - times[i]) / dt - 1e-9))
               for i in range(len(times) - 1))


def layer_counts(tracer) -> tuple[dict, float]:
    """Counts of one traced pass, and its ensemble trajectories per second."""
    counts = {
        "integrate.substeps": 0, "integrate.state_dim": 0, "integrate.dt": 0.0,
        "model.validate_calls": tracer.count("model.validate_s"),
        "stochastic.kicks": 0,
        "stochastic.add_path_calls": tracer.count("stochastic.accumulate_s"),
        "stochastic.streams": tracer.count("stochastic.streams_s"),
        "timeseries.write_bytes": 0,
    }
    steps = []
    n_traj = 0
    for layer, fn, args, kwargs in tracer.calls:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        if layer == "integrate.rk4_s":
            counts["integrate.substeps"] += substeps(arg["grid"], arg["dt"])
            counts["integrate.state_dim"] = max(counts["integrate.state_dim"], len(arg["y0"]))
            steps.append(arg["dt"])
        elif layer == "timeseries.write_s":
            counts["timeseries.write_bytes"] += os.path.getsize(arg["destination"])
        else:  # an ensemble engine
            from eetsim.integrate import resolve_step

            dt = resolve_step(arg["model"], arg["grid"])
            counts["stochastic.kicks"] += arg["n_traj"] * substeps(arg["grid"], dt)
            n_traj += arg["n_traj"]
    counts["integrate.dt"] = min(steps, default=0.0)
    ensemble_time = tracer.inclusive("stochastic.sse_s") + tracer.inclusive("stochastic.kubo_s")
    return counts, (n_traj / ensemble_time if ensemble_time > 0 else 0.0)


def blas_threads() -> str:
    """Thread count of the OpenBLAS numpy loaded, read through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import eetsim.cli as cli
    from spans import Tracer
    from workloads import GATES, make

    work = Path(spec["work"])
    os.chdir(work)
    workload = make(spec["workload"], spec["seed"], Path(spec["src"]))
    captured: dict = {}
    install_capture(cli, workload.capture, captured)
    tracer = Tracer() if spec["trace"] else None

    passes = []
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        for name in workload.out_dirs:
            shutil.rmtree(work / name, ignore_errors=True)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            start = perf_counter()
            calls = [run_invocation(cli.main, argv) for argv in workload.invocations]
            wall = perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        record = {"wall": wall, "traced": traced, "calls": calls,
                  "hashes": file_hashes(work, workload.outputs)}
        if traced:
            record["self"], record["faults"] = tracer.summarize(wall)
            record["counts"], record["traj_per_s"] = layer_counts(tracer)
            record["absent"] = tracer.absent
        passes.append(record)
        elapsed = perf_counter() - begin
        longest = max(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > spec["seconds"]:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # Spans of the last traced pass: [layer, parent index, start, end].
        (work / "spans.json").write_text(json.dumps(tracer.spans))

    try:
        gates = [list(g) for g in GATES[workload.name](work, captured)]
    except Exception:  # missing or malformed output: the gate fails, the run reports it
        gates = [[f"{workload.name}.outputs", False, traceback.format_exc(limit=3)]]

    result = {
        "passes": passes,
        "peak_rss_mib": peak_rss_mib,
        "gates": gates,
        "blas_threads": blas_threads(),
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
