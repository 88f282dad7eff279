"""Command-line front end: run engines on a scenario, compare outputs, check RCA.

Exit codes: 0 success, 1 numerical failure (naming the engine), 2
configuration error.  Every error path prints a single machine-parsable line
to standard error.  A failed run leaves the output directory as it found it.
A successful run whose classical trace grew past NORM_GROWTH_WARNING prints
one warning line per engine to standard error and still exits 0.
The default output directory is taken from the ``EETSIM_OUTDIR`` environment
variable when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import _recurrence_steps, chain_bessel_populations
from .classical import initial_rst_mixed, propagate_classical_rst
from .errors import EetsimError, ValidationError
from .integrate import TimeGrid, ensemble_work
from .model import rca_check
from .quantum import propagate_lindblad
from .scenarios import _model_from_document, _read_document, make_chain
from .stochastic import NoiseSpec, run_kubo_ensemble, run_sse_ensemble
from .timeseries import (
    TimeSeries,
    compare_series,
    read_timeseries,
    series_from_classical,
    series_from_ensemble,
    series_from_quantum,
    write_timeseries,
)

ENGINES = ("lindblad", "classical", "sse", "kubo", "bessel")
DEFAULT_SEED = 1234
DEFAULT_NTRAJ = 10_000
#: sse and kubo requests of more kicks x trajectories x sites are refused:
#: at 5e-8 (dimer, 10^4 trajectories) to 7e-8 s (29-site chain, 1024) per
#: update in one process on a 2-core x86-64 host, 10^10 is 8 to 12 minutes;
#: the README's ensembles need at most 5.8e8.
ENSEMBLE_WORK_BUDGET = 10**10
#: bessel requests of more recurrence steps are refused: at about 0.35 us per step, a quarter of an hour.
BESSEL_WORK_BUDGET = 25 * 10**8
#: A classical or kubo run warns when its norm_factor (the trace divided
#: out of sigma, 1 at t = 0) exceeds this: the oscillators are blowing up,
#: and the normalized output means little.
NORM_GROWTH_WARNING = 10.0


class _Parser(argparse.ArgumentParser):
    # Single-line errors, no usage dump, stable exit code 2.
    def error(self, message):
        raise _ConfigError(message)


class _ConfigError(Exception):
    pass


def _fail_config(msg: str) -> int:
    print(f"eetsim: error: {msg}", file=sys.stderr)
    return 2


def _fail_numeric(engine: str, exc: Exception) -> int:
    print(f"eetsim: error: engine={engine} {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def _parse_chain(text: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise _ConfigError("empty --chain specification")
    try:
        n_sites = int(parts[0])
    except ValueError:
        raise _ConfigError(f"--chain: first field must be the site count, got {parts[0]!r}")
    params = {"v": 1.0, "eps": 0.0, "gamma": 0.0, "start": 0}
    keys = {"v": "v", "eps": "eps", "epsilon": "eps", "gamma": "gamma", "start": "start"}
    for item in parts[1:]:
        if "=" not in item:
            raise _ConfigError(f"--chain: expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = keys.get(key.strip().lower())
        if key is None:
            raise _ConfigError(f"--chain: unknown key {item.split('=')[0]!r}")
        try:
            params[key] = int(value) if key == "start" else float(value)
        except ValueError:
            raise _ConfigError(f"--chain: bad value in {item!r}")
    return n_sites, params


def _parse_grid(text: str, dt: float | None) -> TimeGrid:
    fields = text.split(":")
    if len(fields) != 3:
        raise _ConfigError(f"--grid: expected t_start:t_end:n_samples, got {text!r}")
    try:
        t0, t1, n = float(fields[0]), float(fields[1]), int(fields[2])
    except ValueError:
        raise _ConfigError(f"--grid: bad field in {text!r}")
    flag = "--grid"
    try:
        TimeGrid(t0, t1, n)
        flag = "--dt"  # the grid holds, so only dt_integrate is left to refuse
        return TimeGrid(t0, t1, n, dt_integrate=dt)
    except ValidationError as exc:
        raise _ConfigError(f"{flag}: {exc}")


def _build_scenario(args):
    """Returns (model, initial, chain_params or None)."""
    if bool(args.chain) == bool(args.model):
        raise _ConfigError("exactly one of --chain or --model is required")
    if args.gamma is not None and args.gamma < 0:
        raise _ConfigError("--gamma must be non-negative")
    if args.chain:
        if args.shift:
            raise _ConfigError("--shift applies to model files only")
        n_sites, p = _parse_chain(args.chain)
        if args.gamma is not None:
            p["gamma"] = args.gamma
        model, initial = make_chain(n_sites, p["v"], p["eps"], p["gamma"], p["start"])
        return model, initial, {"v": p["v"], "start": p["start"], "n_sites": n_sites}
    model, initial = _model_from_document(_read_document(args.model), args.model, args.shift, args.gamma)
    return model, initial, None


def _check_engines(engines, model, initial, chain, grid, args) -> None:
    """Refuse a configuration that any requested engine cannot run, before any engine starts."""
    for engine in engines:
        if engine not in ENGINES:
            raise _ConfigError(f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")
    for engine in engines:
        if engine == "bessel":
            if chain is None:
                raise _ConfigError("engine 'bessel' requires a --chain scenario")
            if float(model.gamma.max()) != 0.0:
                raise _ConfigError("engine 'bessel' requires gamma=0")
            if grid.t_start < 0.0:
                raise _ConfigError(f"engine 'bessel' requires t_start >= 0, got {grid.t_start}")
            order = max(chain["start"], chain["n_sites"] - 1 - chain["start"])  # the farthest site
            ends = [_recurrence_steps(order, 2.0 * abs(chain["v"] * t)) for t in (grid.t_start, grid.t_end)]
            steps = grid.n_samples * sum(ends) / 2  # one recurrence per time, its steps about linear in t
            if steps > BESSEL_WORK_BUDGET:
                raise _ConfigError(f"engine 'bessel': {steps:.2e} recurrence steps exceed the budget of "
                                   f"{BESSEL_WORK_BUDGET:.1e}; reduce the grid")
        elif engine in ("sse", "kubo"):
            if not initial.is_pure:
                raise _ConfigError(f"engine {engine!r} needs a pure initial state")
            if args.ntraj < 1:
                raise _ConfigError(f"--ntraj must be at least 1, got {args.ntraj}")
            if args.seed < 0:
                raise _ConfigError(f"--seed must be non-negative, got {args.seed}")
            work = ensemble_work(model, grid, args.ntraj)
            if work > ENSEMBLE_WORK_BUDGET:
                raise _ConfigError(f"engine {engine!r}: {work:.2e} kicks x trajectories x sites exceed "
                                   f"the budget of {ENSEMBLE_WORK_BUDGET:.0e}; reduce --ntraj or the grid")


def _run_one_engine(engine, model, initial, grid, chain, args) -> TimeSeries:
    units = "ps" if model.units == "wavenumber" else "hbar/V"
    if engine == "lindblad":
        traj = propagate_lindblad(model, initial.rho, grid)
        return series_from_quantum(traj, units=units)
    if engine == "classical":
        traj = propagate_classical_rst(model, initial_rst_mixed(initial.rho), grid)
        return series_from_classical(traj, units=units)
    if engine in ("sse", "kubo"):
        noise = NoiseSpec(gamma=model.gamma, seed=args.seed)
        if engine == "sse":
            ens = run_sse_ensemble(model, initial.amplitudes, grid, noise, n_traj=args.ntraj)
            return series_from_ensemble(ens, "sse-ensemble", units=units)
        ens = run_kubo_ensemble(model, initial.amplitudes, grid, noise, n_traj=args.ntraj)
        return series_from_ensemble(ens, "kubo-ensemble", units=units, normalize=True)
    offsets = np.arange(chain["n_sites"]) - chain["start"]
    table = np.column_stack([grid.times, [chain_bessel_populations(chain["v"], offsets, t) for t in grid.times]])
    names = [f"population:{site}" for site in range(chain["n_sites"])]
    return TimeSeries(names, table, engine="bessel", units=units)


def cmd_run(args) -> int:
    try:
        model, initial, chain = _build_scenario(args)
        grid = _parse_grid(args.grid, args.dt)
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        if not engines:
            raise _ConfigError("--engines: need at least one engine")
        _check_engines(engines, model, initial, chain, grid, args)
        out_dir = Path(args.out)
        created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    except (_ConfigError, OSError, EetsimError) as exc:
        return _fail_config(str(exc))

    destinations = [out_dir / f"{engine}.{args.format}" for engine in engines]
    # Files of an earlier run wait under hidden temporary names until every
    # engine has succeeded.  After a failure this run's files and directories
    # are removed and the earlier files put back.
    earlier = {}
    written = []
    warnings = []
    complete = False
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for destination in dict.fromkeys(destinations):
            if destination.exists():
                handle, name = tempfile.mkstemp(prefix=f".{destination.name}.", dir=out_dir)
                os.close(handle)
                try:
                    earlier[destination] = destination.replace(name)
                except OSError:
                    os.unlink(name)
                    raise
        for engine, destination in zip(engines, destinations):
            try:
                # A blown-up run is reported by the engine's checks, not by numpy warnings.
                with np.errstate(over="ignore", invalid="ignore"):
                    series = _run_one_engine(engine, model, initial, grid, chain, args)
            except (EetsimError, MemoryError) as exc:
                return _fail_numeric(engine, exc)
            written.append(destination)
            write_timeseries(series, args.format, destination)
            norms = series.channels.get("norm_factor")
            if norms is not None and norms.max() > NORM_GROWTH_WARNING:
                warnings.append(f"eetsim: warning: engine={engine} norm_factor grew to {norms.max():.3g} "
                                f"(> {NORM_GROWTH_WARNING:g}): the classical oscillators blow up")
        complete = True
    except OSError as exc:
        return _fail_config(str(exc))
    finally:
        if not complete:
            for destination in written:
                destination.unlink(missing_ok=True)
            for directory in created:
                with contextlib.suppress(OSError):  # never made (mkdir failed first), or not empty
                    directory.rmdir()
        for destination, hidden in earlier.items():
            if complete:
                hidden.unlink()
            else:
                hidden.replace(destination)
    for line in warnings:
        print(line, file=sys.stderr)
    for destination in destinations:
        print(f"wrote {destination}")
    return 0


def cmd_compare(args) -> int:
    try:
        report = compare_series(read_timeseries(args.file_a), read_timeseries(args.file_b))
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    except (EetsimError, OSError) as exc:
        return _fail_config(str(exc))
    print(f"overall max difference: {report.overall_max:.6e} (report: {args.report})")
    return 0


def cmd_rca(args) -> int:
    try:
        model, _, _ = _build_scenario(args)
        report = rca_check(model, threshold=args.threshold)
    except (_ConfigError, EetsimError) as exc:
        return _fail_config(str(exc))
    print(report.summary())
    return 0 if report.verdict == "pass" else 1


def _add_scenario_arguments(parser):
    parser.add_argument("--chain", help="chain scenario: N,V=..,eps=..,gamma=..,start=..")
    parser.add_argument("--model", help="path of a JSON model file")
    parser.add_argument("--shift", type=float, default=0.0,
                        help="add to all site energies of a model file (file units)")
    parser.add_argument("--gamma", type=float, default=None,
                        help="override the dephasing rate (file units for model files)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eetsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eetsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more engines on a scenario")
    _add_scenario_arguments(run)
    run.add_argument("--engines", required=True, help=f"comma-separated: {', '.join(ENGINES)}")
    run.add_argument("--grid", default="0:10:201", help="t_start:t_end:n_samples")
    run.add_argument("--dt", type=float, default=None,
                     help="substep of the sse and kubo ensembles, which refuse one too coarse for the "
                          "model's splitting rate (the eps spread, gamma and 2|V|); it must be positive "
                          "and at most the sample spacing for every engine, but the others take no step")
    run.add_argument("--ntraj", type=int, default=DEFAULT_NTRAJ, help="ensemble size")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed for ensembles")
    run.add_argument("--format", default="csv", choices=("csv", "json"), help="output file format")
    run.add_argument("--out", default=os.environ.get("EETSIM_OUTDIR", "."),
                     help="output directory (default: $EETSIM_OUTDIR or .)")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="difference report for two series files")
    comp.add_argument("file_a")
    comp.add_argument("file_b")
    comp.add_argument("--report", default="diff_report.json", help="report destination (JSON)")
    comp.set_defaults(func=cmd_compare)

    rca = sub.add_parser("rca", help="weak-coupling diagnostic for a scenario")
    _add_scenario_arguments(rca)
    rca.add_argument("--threshold", type=float, default=0.1, help="pass threshold for the ratios")
    rca.set_defaults(func=cmd_rca)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ConfigError as exc:
        return _fail_config(str(exc))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
