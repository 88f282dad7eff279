"""The benchmark workloads: ``eetsim`` CLI invocations made from a seed, and their gates.

A workload is the README's ``eetsim run`` / ``compare`` / ``rca`` calls for
one scenario.  The seed picks an input that leaves the amount of work
unchanged (the excited chain site, the excited FMO pigment, the ensemble
master seed), so every seed measures the same cost.  Gates read the written
files back with plain numpy and hold them to the acceptance criteria; they
run after the timed window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_TRAJ = 1024  # one full batch of the ensemble engines


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # files every pass must write byte-identically
    capture: tuple[str, ...] = ()  # eetsim.cli names whose results the gates read
    inputs: dict = field(default_factory=dict)  # generated input files: name -> JSON document

    @property
    def out_dirs(self) -> list[str]:
        return sorted({str(Path(name).parent) for name in self.outputs})


def _chain29(seed: int, src: Path) -> Workload:
    start = 10 + seed % 9  # any site at least 10 from both ends; same work for all
    chain40 = f"29,V=1,eps=40,gamma=1,start={start}"
    return Workload(
        name="chain29",
        invocations=(
            ("run", "--chain", chain40, "--engines", "lindblad,classical",
             "--grid", "0:10:201", "--out", "chain40"),
            ("compare", "chain40/lindblad.csv", "chain40/classical.csv",
             "--report", "chain40/diff.json"),
            ("rca", "--chain", chain40),
            ("run", "--chain", f"29,V=1,eps=0,gamma=0,start={start}", "--engines", "lindblad,bessel",
             "--grid", "0:6:121", "--out", "bessel"),
        ),
        outputs=("chain40/lindblad.csv", "chain40/classical.csv", "chain40/diff.json",
                 "bessel/lindblad.csv", "bessel/bessel.csv"),
    )


def _fmo(seed: int, src: Path) -> Workload:
    doc = json.loads((src / "eetsim" / "data" / "fmo_7site.json").read_text())
    doc["initial_state"] = {"site": seed % len(doc["sites"])}
    engines = ("--engines", "lindblad,classical", "--grid", "0:1:101")
    return Workload(
        name="fmo",
        invocations=(
            ("run", "--model", "model.json", *engines, "--out", "fmo"),
            ("run", "--model", "model.json", "--shift", "-12000", *engines, "--out", "fmo_shifted"),
        ),
        outputs=("fmo/lindblad.csv", "fmo/classical.csv",
                 "fmo_shifted/lindblad.csv", "fmo_shifted/classical.csv"),
        inputs={"model.json": doc},
    )


def _dimer_ens(seed: int, src: Path) -> Workload:
    return Workload(
        name="dimer_ens",
        invocations=(
            ("run", "--chain", "2,V=1,eps=10,gamma=1,start=0", "--engines", "sse,kubo",
             "--grid", "0:5:101", "--ntraj", str(N_TRAJ), "--seed", str(seed % 2**32), "--out", "dimer"),
        ),
        outputs=("dimer/sse.csv", "dimer/kubo.csv"),
        capture=("run_sse_ensemble", "run_kubo_ensemble"),
    )


WORKLOADS = {"chain29": _chain29, "fmo": _fmo, "dimer_ens": _dimer_ens}


def make(name: str, seed: int, src: Path) -> Workload:
    return WORKLOADS[name](seed, Path(src))


# --- gates ------------------------------------------------------------------


def read_csv(path: Path) -> dict:
    """Channels of an eetsim CSV file, read without eetsim's own reader."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def populations(channels: dict):
    names = sorted((k for k in channels if k.startswith("population:")), key=lambda k: int(k[11:]))
    return np.column_stack([channels[k] for k in names])


def max_population_deviation(out_dir: Path) -> float:
    """Largest |P_lindblad - P_classical| over sites and samples in one --out directory."""
    a = populations(read_csv(out_dir / "lindblad.csv"))
    b = populations(read_csv(out_dir / "classical.csv"))
    return float(np.abs(a - b).max())


def gate_chain29(work: Path, captured: dict) -> list[tuple[str, bool, str]]:
    dev = max_population_deviation(work / "chain40")
    report = json.loads((work / "chain40" / "diff.json").read_text())
    reported = max(v["max_abs"] for k, v in report["channels"].items() if k.startswith("population:"))
    # Pre-reflection window, from the reference alone: the probability mass
    # the infinite chain puts beyond the ends stays an order below 1e-4.
    bessel = populations(read_csv(work / "bessel" / "bessel.csv"))
    lindblad = populations(read_csv(work / "bessel" / "lindblad.csv"))
    times = read_csv(work / "bessel" / "bessel.csv")["t"]
    window = 1.0 - bessel.sum(axis=1) < 1e-5
    err = float(np.abs(lindblad - bessel)[window].max())
    t_window = float(times[window][-1])
    return [
        ("chain29.lindblad_vs_classical", dev < 0.01, f"max population deviation {dev:.5f} (< 0.01)"),
        ("chain29.compare_report", abs(reported - dev) <= 1e-12,
         f"compare report population max {reported:.5f} equals the CSV deviation"),
        ("chain29.lindblad_vs_bessel", err < 1e-4 and t_window >= 3.0,
         f"max |P - J^2| {err:.2e} (< 1e-4) for t <= {t_window:.2f} (window >= 3)"),
    ]


def gate_fmo(work: Path, captured: dict) -> list[tuple[str, bool, str]]:
    real = max_population_deviation(work / "fmo")
    shifted = max_population_deviation(work / "fmo_shifted")
    return [
        ("fmo.realistic", real < 0.01, f"realistic deviation {real:.5f} (< 0.01)"),
        ("fmo.shifted", 10.0 * real <= shifted < 0.5,
         f"shifted deviation {shifted:.4f} (< 0.5, {shifted / real:.0f}x >= 10x realistic)"),
    ]


def _density_stack(traj, n: int, scale=None):
    """(n_samples, N, N) matrices from a trajectory's public accessors."""
    pops = traj.populations()
    out = np.zeros((pops.shape[0], n, n), dtype=complex)
    for i in range(n):
        out[:, i, i] = pops[:, i]
        for j in range(i + 1, n):
            out[:, i, j] = traj.coherence(i, j)
            out[:, j, i] = np.conj(out[:, i, j])
    return out if scale is None else out * np.asarray(scale)[:, None, None]


def gate_dimer_ens(work: Path, captured: dict) -> list[tuple[str, bool, str]]:
    """Ensemble means within 5 standard errors of the deterministic engines."""
    import eetsim as ee  # on sys.path only in the worker

    model, init = ee.make_chain(2, 1.0, 10.0, 1.0, 0)
    grid = ee.TimeGrid(0.0, 5.0, 101)
    rho = _density_stack(ee.propagate_lindblad(model, init.rho, grid), 2)
    classical = ee.propagate_classical_rst(model, ee.initial_rst_pure(init.amplitudes), grid)
    sigma = _density_stack(classical, 2, scale=classical.norm_factor)
    results = []
    for name, engine, reference in (("sse", "run_sse_ensemble", rho), ("kubo", "run_kubo_ensemble", sigma)):
        ens = captured[engine]
        mean = ens.mean_bilinear
        err = np.abs(mean - reference)
        bound = 5.0 * ens.standard_error() + 1e-9
        worst = float((err / bound).max())
        results.append((f"dimer_ens.{name}_vs_deterministic", worst <= 1.0,
                        f"max |mean - exact| / (5 SE) = {worst:.3f} (<= 1) at n_traj={ens.n_traj}"))
        diag = np.einsum("tii->ti", mean).real
        if name == "kubo":
            diag = diag / diag.sum(axis=1, keepdims=True)
        written = populations(read_csv(work / "dimer" / f"{name}.csv"))
        mismatch = float(np.abs(written - diag).max())
        results.append((f"dimer_ens.{name}_csv", mismatch <= 1e-12,
                        f"written populations match the ensemble mean to {mismatch:.1e}"))
    return results


GATES = {"chain29": gate_chain29, "fmo": gate_fmo, "dimer_ens": gate_dimer_ens}
