"""eetsim benchmark: time one workload's CLI invocations and check their outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain29 --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median wall time of a pass, the median set-up time of fresh interpreters,
and the peak RSS of the process that ran the passes.  ``--trace 1`` prints
the per-layer metrics from traced passes instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
every pass and every gate.  Work files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
# How each count of a traced pass is obtained.
COUNT_KINDS = {
    "integrate.substeps": "computed", "integrate.state_dim": "computed", "integrate.dt": "computed",
    "model.validate_calls": "counted", "stochastic.kicks": "computed",
    "stochastic.add_path_calls": "counted", "stochastic.streams": "counted",
    "timeseries.write_bytes": "computed",
}
DEADLINE_S = 170.0  # probes and worker are stopped by then, so a run stays under 180 s


class Operations:
    """Attempted and failed operations, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def source_digest() -> str:
    """SHA-256 over the program's source tree, so results name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def probe_setup(workload, work: Path, ops: Operations, deadline: float) -> list[float]:
    """Median-ready set-up times of the first invocation; the first probe warms caches."""
    times = []
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC), *workload.invocations[0]]
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(argv, cwd=work, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        ok = proc.returncode == 0
        if ops.check(ok, f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}") and i:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_worker(args, work: Path, deadline: float) -> dict | None:
    spec_path = work / "worker_spec.json"
    result_path = work / "worker_result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "work": str(work), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace), "result": str(result_path),
    }))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print("perfbench: the worker did not finish before the deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: worker exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def check_history(key: str, field: str, value, ops: Operations) -> None:
    """Same code, workload and seed must reproduce ``value`` in every run in this checkout."""
    path = OUT / "history.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    entry = history.setdefault(key, {})
    if field in entry:
        ops.check(entry[field] == value, f"{field} differ from an earlier run of the same code and seed")
    else:
        entry[field] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
        tmp.replace(path)


def check_passes(workload, passes: list, ops: Operations, key: str) -> None:
    first = passes[0]["hashes"]
    for n, record in enumerate(passes):
        for argv, call in zip(workload.invocations, record["calls"]):
            ops.check(call["code"] == 0,
                      f"pass {n}: eetsim {argv[0]} exited {call['code']}: {call['output'][-300:]}")
        ops.check(all(first.values()) and record["hashes"] == first,
                  f"pass {n}: output files missing or not byte-identical to pass 0")
    check_history(key, "hashes", first, ops)
    traced = [p for p in passes if p["traced"]]
    for record in traced:
        ops.check(not record["faults"], f"span nesting: {record['faults'][:3]}")
        ops.check(record["counts"] == traced[0]["counts"], "layer counts differ between traced passes")
    if traced:
        check_history(key, "counts", traced[0]["counts"], ops)


def layer_metrics(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p["wall"] for p in passes if not p["traced"]]
    values = {name: statistics.median(p["self"][name] for p in traced) for name in traced[0]["self"]}
    values.update(traced[0]["counts"])
    values["stochastic.traj_per_s"] = statistics.median(p["traj_per_s"] for p in traced)
    traced_wall = statistics.median(p["wall"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(plain)
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS, make

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eetsim" / "cli.py").is_file():
        print(f"perfbench: no eetsim source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer"] if args.trace else declared["end_to_end"]

    env = environment()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    workload = make(args.workload, args.seed, SRC)
    for name, doc in workload.inputs.items():
        (work / name).write_text(json.dumps(doc, indent=1))

    ops = Operations()
    setup = [] if args.trace else probe_setup(workload, work, ops, deadline)
    result = run_worker(args, work, deadline)
    if result is None or not (setup or args.trace):
        print("perfbench: no complete measurement; " + "; ".join(ops.failures), file=sys.stderr)
        return 1
    env["blas_threads"] = result["blas_threads"]
    passes = result["passes"]
    check_passes(workload, passes, ops, f"{env['source_sha256']}:{args.workload}:{args.seed}")
    for name, ok, detail in result["gates"]:
        ops.check(ok, f"gate {name}: {detail}")

    if args.trace:
        values = layer_metrics(passes)
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mib"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"environment: {json.dumps(env)}")
    for n, record in enumerate(passes):
        kind = "traced" if record["traced"] else "plain"
        print(f"pass {n} ({kind}): {record['wall']:.4f} s")
    if setup:
        print(f"setup probes: {', '.join(f'{t:.4f}' for t in setup)} s")
    for name, ok, detail in result["gates"]:
        print(f"gate {name}: {'PASS' if ok else 'FAIL'}: {detail}")
    if args.trace:
        print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s on a "
              f"{values['trace.wall_s'] - values['trace.overhead_s']:.4f} s pass")
        counts = next(p["counts"] for p in passes if p["traced"])
        print("counts: " + ", ".join(f"{k}={v} ({COUNT_KINDS[k]})" for k, v in counts.items()))
        absent = next(p["absent"] for p in passes if p["traced"])
        print(f"absent layer names: {', '.join(absent) or 'none'}")
    for message in ops.failures:
        print(f"FAILED: {message}")
    summary = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "passes": passes, "gates": result["gates"],
                    "setup_probes_s": setup, **summary}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
