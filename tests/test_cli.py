import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eetsim
import eetsim.cli
from eetsim.cli import (
    ENSEMBLE_WORK_BUDGET,
    _build_scenario,
    _check_engines,
    _ConfigError,
    _parse_grid,
    build_parser,
    main,
)
from eetsim.integrate import TimeGrid, ensemble_work
from eetsim.scenarios import fmo_model_path, make_chain
from eetsim.timeseries import read_timeseries


MIXED_DIMER = {
    "units": "V",
    "sites": [{"label": "a", "energy": 1.0}, {"label": "b", "energy": 1.0}],
    "couplings": [{"i": 0, "j": 1, "value": 0.2}],
    "gamma": 0.1,
    "initial_state": {"mixture": [
        {"weight": 0.5, "amplitudes": [1.0, 0.0]},
        {"weight": 0.5, "amplitudes": [0.0, 1.0]},
    ]},
}


PURE_DIMER = dict(MIXED_DIMER, initial_state={"site": 0})


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_chain_two_engines(self, tmp_path, capsys):
        code = run_cli(
            "run", "--chain", "2,V=1,eps=0,gamma=0.5,start=0",
            "--engines", "lindblad,classical", "--grid", "0:2:21",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "lindblad.csv").exists()
        assert (tmp_path / "classical.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        args = ["run", "--chain", "2,V=1,eps=2,gamma=1,start=0",
                "--engines", "sse", "--grid", "0:1:6", "--ntraj", "50",
                "--seed", "7", "--out"]
        run_cli(*args, str(tmp_path / "a"))
        run_cli(*args, str(tmp_path / "b"))
        assert (tmp_path / "a/sse.csv").read_bytes() == (tmp_path / "b/sse.csv").read_bytes()

    def test_json_format(self, tmp_path):
        code = run_cli("run", "--chain", "2,V=1,eps=0,gamma=0,start=0",
                       "--engines", "lindblad", "--grid", "0:1:6",
                       "--format", "json", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "lindblad.json").read_text())
        assert doc["engine"] == "lindblad"
        assert len(doc["t"]) == 6

    def test_bessel_requires_zero_gamma(self, tmp_path, capsys):
        code = run_cli("run", "--chain", "2,V=1,eps=0,gamma=1,start=0",
                       "--engines", "bessel", "--out", str(tmp_path))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bessel_requires_chain(self, tmp_path):
        code = run_cli("run", "--model", str(fmo_model_path()), "--gamma", "0",
                       "--engines", "bessel", "--grid", "0:0.01:3", "--out", str(tmp_path))
        assert code == 2

    def test_bessel_matches_reference(self, tmp_path):
        # short times on a 9-site chain: boundary bleed-through stays tiny
        code = run_cli("run", "--chain", "9,V=1,eps=0,gamma=0,start=4",
                       "--engines", "bessel,lindblad", "--grid", "0:0.5:6",
                       "--out", str(tmp_path))
        assert code == 0
        bes = read_timeseries(tmp_path / "bessel.csv")
        lin = read_timeseries(tmp_path / "lindblad.csv")
        diff = np.abs(bes.channels["population:4"] - lin.channels["population:4"]).max()
        assert diff < 1e-5

    def test_fmo_model_run(self, tmp_path):
        code = run_cli("run", "--model", str(fmo_model_path()),
                       "--engines", "lindblad", "--grid", "0:0.02:5",
                       "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "lindblad.csv").exists()

    def test_unknown_engine(self, tmp_path, capsys):
        code = run_cli("run", "--chain", "2,V=1", "--engines", "magic",
                       "--out", str(tmp_path))
        assert code == 2

    def test_malformed_chain(self, tmp_path):
        assert run_cli("run", "--chain", "two,V=1", "--engines", "lindblad",
                       "--out", str(tmp_path)) == 2
        assert run_cli("run", "--chain", "2,what=1", "--engines", "lindblad",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("options,message", [
        (["--chain", ","], "empty --chain specification"),
        (["--chain", "3,V"], "--chain: expected key=value, got 'V'"),
        (["--chain", "3,V=x"], "--chain: bad value in 'V=x'"),
        (["--chain", "0"], "chain needs at least one site"),
        (["--chain", "3", "--grid", "0:1"], "--grid: expected t_start:t_end:n_samples, got '0:1'"),
        (["--chain", "3", "--grid", "0:a:3"], "--grid: bad field in '0:a:3'"),
        (["--chain", "3", "--gamma", "-1"], "--gamma must be non-negative"),
        (["--chain", "3", "--shift", "2"], "--shift applies to model files only"),
        (["--chain", "3", "--engines", ","], "--engines: need at least one engine"),
    ], ids=["chain-empty", "chain-key-without-value", "chain-value-text", "chain-no-site", "grid-two-fields",
            "grid-field-text", "gamma-negative", "shift-with-chain", "engines-empty"])
    def test_malformed_option_is_config_error(self, tmp_path, capsys, options, message):
        # the later of two equal options wins, so each case overrides the defaults given first
        out = tmp_path / "out"
        code = run_cli("run", "--engines", "lindblad", "--grid", "0:1:3", *options, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"eetsim: error: {message}"]
        assert not out.exists()

    def test_gamma_option_overrides_chain_gamma(self):
        args = build_parser().parse_args(["run", "--chain", "3,gamma=1", "--gamma", "2", "--engines", "lindblad"])
        model, _, _ = _build_scenario(args)
        assert np.array_equal(model.gamma, [2.0, 2.0, 2.0])

    def test_scenario_required(self, tmp_path):
        assert run_cli("run", "--engines", "lindblad", "--out", str(tmp_path)) == 2

    def test_both_scenarios_rejected(self, tmp_path):
        assert run_cli("run", "--chain", "2,V=1", "--model", "x.json",
                       "--engines", "lindblad", "--out", str(tmp_path)) == 2

    def test_step_too_large_is_numeric_failure(self, tmp_path, capsys):
        code = run_cli("run", "--chain", "2,V=1,eps=40,gamma=1,start=0",
                       "--engines", "sse", "--ntraj", "4", "--grid", "0:10:101",
                       "--dt", "0.1", "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "engine=sse" in err and "StepTooLarge" in err

    def test_overflowing_eps_spread_is_numeric_failure(self, tmp_path, capsys):
        # eps = +-1e308: the spread overflows, and the run is refused with no numpy warning
        doc = dict(PURE_DIMER, sites=[{"label": "a", "energy": 1e308}, {"label": "b", "energy": -1e308}])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "--model", str(path), "--engines", "kubo", "--grid", "0:1:3",
                           "--ntraj", "4", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("eetsim: error: engine=kubo StepTooLarge")
        assert not out.exists()

    def test_deterministic_engines_ignore_dt(self, tmp_path):
        # they take no step: a --dt the ensembles refuse changes no byte
        args = ("run", "--chain", "2,V=1,eps=40,gamma=1,start=0",
                "--engines", "lindblad,classical", "--grid", "0:10:101")
        assert run_cli(*args, "--out", str(tmp_path / "plain")) == 0
        assert run_cli(*args, "--dt", "0.05", "--out", str(tmp_path / "dt")) == 0
        for name in ("lindblad.csv", "classical.csv"):
            assert (tmp_path / "dt" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_blown_up_run_is_numeric_failure(self, tmp_path, capsys):
        # the classical norm factor passes 1e269 by t = 500 and overflows
        # before t = 1000: exit 1 with one stderr line, no file, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                           "--engines", "classical", "--grid", "0:1000:3",
                           "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("eetsim: error: engine=classical ValidationError")
        assert not (tmp_path / "classical.csv").exists()

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_gamma_is_config_error(self, tmp_path, capsys, rate):
        out = tmp_path / "out"
        code = run_cli("run", "--chain", f"2,V=1,eps=1,gamma={rate},start=0",
                       "--engines", "lindblad", "--grid", "0:1:3", "--out", str(out))
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_non_finite_gamma_in_model_file(self, tmp_path, capsys):
        doc = dict(MIXED_DIMER, gamma=float("inf"), initial_state={"site": 0})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))  # written as the JSON extension Infinity
        out = tmp_path / "out"
        code = run_cli("run", "--model", str(path), "--engines", "sse", "--grid", "0:1:3",
                       "--ntraj", "4", "--out", str(out))
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:0:3", "0:nan:3", "-1e308:1e308:3"])
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, grid):
        out = tmp_path / "out"
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad", f"--grid={grid}", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("eetsim: error: --grid:")
        assert not out.exists()

    @pytest.mark.parametrize("engine,extra", [
        ("kubo", ["--grid", "0:1:3", "--dt", "1e-320", "--ntraj", "4"]),
        ("sse", ["--grid", "0:1e308:3", "--ntraj", "4"]),
    ])
    def test_uncountable_substeps_is_numeric_failure(self, tmp_path, capsys, engine, extra):
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", engine, *extra, "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"eetsim: error: engine={engine} ")
        assert list(tmp_path.iterdir()) == []

    def test_lindblad_needs_no_substeps(self, tmp_path):
        # the exact propagator takes no step: a sample spacing of 5e5 (10^8
        # substeps under the ensembles' step rule) is one exponential, and the
        # populations have settled
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad", "--grid", "0:1e6:3", "--out", str(tmp_path))
        assert code == 0
        series = read_timeseries(tmp_path / "lindblad.csv")
        for site in (0, 1):
            assert abs(series.channels[f"population:{site}"][-1] - 0.5) <= 1e-12

    def test_failed_run_leaves_out_untouched(self, tmp_path, capsys):
        # lindblad succeeds, then classical blows up: no file of this run
        # remains, and the lindblad.csv of an earlier run is kept as it was
        out = tmp_path / "d"
        out.mkdir()
        (out / "lindblad.csv").write_text("earlier run\n")
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad,classical", "--grid", "0:1000:3", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["lindblad.csv"]
        assert (out / "lindblad.csv").read_text() == "earlier run\n"

    def test_memory_error_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # an engine that cannot allocate its arrays: exit 1 with one stderr
        # line, not a traceback, and --out kept as it was
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 1.22 TiB for an array with shape (100000000, 1682)")

        monkeypatch.setattr("eetsim.cli.propagate_lindblad", out_of_memory)
        out = tmp_path / "d"
        out.mkdir()
        (out / "lindblad.csv").write_text("earlier run\n")
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad", "--grid", "0:1:3", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("eetsim: error: engine=lindblad MemoryError: Unable to allocate")
        assert [p.name for p in out.iterdir()] == ["lindblad.csv"]
        assert (out / "lindblad.csv").read_text() == "earlier run\n"

    def test_failed_run_removes_the_out_it_created(self, tmp_path, capsys):
        # a fresh nested --out: the classical blow-up leaves neither directory behind
        out = tmp_path / "a" / "b"
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "classical", "--grid", "0:1000:3", "--out", str(out))
        assert code == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()
        assert not (tmp_path / "a").exists()

    def test_completed_run_replaces_earlier_files(self, tmp_path, capsys):
        (tmp_path / "lindblad.csv").write_text("earlier run\n")
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad,classical", "--grid", "0:1:3", "--out", str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["classical.csv", "lindblad.csv"]
        assert read_timeseries(tmp_path / "lindblad.csv").n_samples == 3
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / name}" for name in ("lindblad.csv", "classical.csv")]

    def test_long_grid_small_system(self, tmp_path):
        # sample intervals of 5e5: a small system applies each as one
        # precomputed exponential, where 10^9 steps of 1e-3 would take hours
        start = time.perf_counter()
        code = run_cli("run", "--chain", "2,V=1,eps=10,gamma=1,start=0",
                       "--engines", "lindblad", "--grid", "0:1e6:3", "--out", str(tmp_path))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 10.0
        series = read_timeseries(tmp_path / "lindblad.csv")
        trace = series.channels["population:0"] + series.channels["population:1"]
        assert np.abs(trace - 1.0).max() <= 1e-8

    def test_long_intervals_large_system(self, tmp_path):
        # intervals of 500 on the 29-site chain take Krylov steps with tau |H|
        # in the hundreds; the run relaxes to the uniform population, and its
        # slowest mode (rate 0.0238) has decayed to about 5e-7 by t = 500 and
        # 3e-12 by t = 1000
        code = run_cli("run", "--chain", "29,V=1,eps=1,gamma=1,start=0",
                       "--engines", "lindblad", "--grid", "0:1000:3", "--out", str(tmp_path))
        assert code == 0
        series = read_timeseries(tmp_path / "lindblad.csv")
        pops = np.array([series.channels[f"population:{i}"] for i in range(29)])
        assert np.abs(pops.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(pops[:, 1] - 1.0 / 29).max() <= 1e-6
        assert np.abs(pops[:, 2] - 1.0 / 29).max() <= 1e-11

    def test_classical_blow_up_warns(self, tmp_path, capsys):
        # at eps = 1 the classical chain's trace grows to about 2e10 by t = 10:
        # the run completes, exit 0, with one warning line naming the engine
        code = run_cli("run", "--chain", "29,V=1,eps=1,gamma=1,start=14",
                       "--engines", "lindblad,classical", "--grid", "0:10:201", "--out", str(tmp_path))
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("eetsim: warning: engine=classical norm_factor grew to 2")
        assert (tmp_path / "classical.csv").exists()

    @pytest.mark.parametrize("scenario", [
        ["--chain", "29,V=1,eps=40,gamma=1,start=14", "--grid", "0:10:201"],
        ["--model", str(fmo_model_path()), "--grid", "0:1:101"],
    ], ids=["readme-chain", "fmo"])
    def test_bounded_classical_run_is_silent(self, tmp_path, capsys, scenario):
        # the README's chain (norm_factor up to 1.014) and FMO (1.001) warn of nothing
        code = run_cli("run", *scenario, "--engines", "lindblad,classical", "--out", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("engine", ["sse", "kubo"])
    def test_runaway_ensemble_refused(self, tmp_path, capsys, engine):
        # 10^8 substeps per interval: 2e8 kicks x 4 trajectories x 29 sites,
        # refused in one line before --out is made
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run_cli("run", "--chain", "29,V=1,eps=40,gamma=1,start=14", "--engines", f"lindblad,{engine}",
                       "--ntraj", "4", "--grid", "0:1e6:3", "--out", str(out))
        assert code == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"eetsim: error: engine '{engine}': 2.32e+10 kicks x trajectories x sites")
        assert not out.exists()

    @pytest.mark.parametrize("n_sites,eps,grid", [
        (2, 10.0, TimeGrid(0.0, 5.0, 101)),  # README dimer, criterion 7
        (29, 40.0, TimeGrid(0.0, 10.0, 201)),  # README library example
    ], ids=["dimer", "chain29"])
    def test_documented_ensembles_within_budget(self, n_sites, eps, grid):
        # 10^4 trajectories of every documented ensemble stay at least 10x below the budget
        model, _ = make_chain(n_sites, 1.0, eps, 1.0, 0)
        assert 0 < 10 * ensemble_work(model, grid, 10_000) <= ENSEMBLE_WORK_BUDGET

    @pytest.mark.parametrize("chain,grid,refused", [
        ("29,V=1,eps=0,gamma=0,start=14", "0:6:121", None),  # README: 6.66e3 steps
        ("29,V=1,eps=0,gamma=0,start=14", "0:5000:100001", None),  # 5.15e8 steps, about 3.5 min
        ("29,V=1,eps=0,gamma=0,start=14", "0:50000:1000001", "5.03e+10"),
        ("3,V=1e300,eps=0,gamma=0", "0:1e10:3", "inf"),  # 2 V t overflows
    ], ids=["readme", "100k-samples", "1m-samples", "overflowing-argument"])
    def test_bessel_budget(self, chain, grid, refused):
        # the estimate alone decides; no grid here is run
        args = build_parser().parse_args(["run", "--chain", chain, "--engines", "bessel",
                                          "--grid", grid])
        model, initial, chain_params = _build_scenario(args)
        refusal = re.escape(f"engine 'bessel': {refused} recurrence steps")
        expected = contextlib.nullcontext() if refused is None else pytest.raises(_ConfigError, match=refusal)
        with expected:
            _check_engines(["bessel"], model, initial, chain_params, _parse_grid(args.grid, args.dt), args)

    def test_bessel_at_overflowing_coupling(self, tmp_path, capsys):
        # 2 V overflows, but 2 |V t| does not: t = 0 gives the start site alone
        code = run_cli("run", "--chain", "3,V=1e308,eps=0,gamma=0", "--engines", "bessel",
                       "--grid", "0:1e-307:3", "--out", str(tmp_path))
        assert code == 0
        series = read_timeseries(tmp_path / "bessel.csv")
        assert series.table[0].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_runaway_bessel_refused(self, tmp_path, capsys, monkeypatch):
        # the README grid against a budget below its estimate: one line, before --out is made
        monkeypatch.setattr(eetsim.cli, "BESSEL_WORK_BUDGET", 6000)
        out = tmp_path / "out"
        code = run_cli("run", "--chain", "29,V=1,eps=0,gamma=0,start=14", "--engines", "lindblad,bessel",
                       "--grid", "0:6:121", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["eetsim: error: engine 'bessel': 6.66e+03 recurrence "
                                                        "steps exceed the budget of 6.0e+03; reduce the grid"]
        assert not out.exists()

    @pytest.mark.parametrize("dt,reason", [
        ("0.5", "dt_integrate exceeds the sample spacing"),
        ("0", "dt_integrate must be positive"),
    ])
    def test_out_of_range_dt_names_dt(self, tmp_path, capsys, dt, reason):
        # checked for every engine, though only sse and kubo take a step
        out = tmp_path / "out"
        code = run_cli("run", "--chain", "3,V=1,eps=1,gamma=1", "--engines", "lindblad", "--grid", "0:1:5",
                       "--dt", dt, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"eetsim: error: --dt: {reason}"]
        assert not out.exists()

    def test_mixed_initial_rejects_sse(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(MIXED_DIMER))
        code = run_cli("run", "--model", str(path), "--engines", "sse",
                       "--grid", "0:1:6", "--ntraj", "10", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("scenario,engines,extra", [
        (["--chain", "2,V=1,eps=2,gamma=1,start=0"], "sse", ["--ntraj", "0"]),
        (["--chain", "2,V=1,eps=2,gamma=1,start=0"], "lindblad,sse", ["--ntraj", "-1"]),
        (["--chain", "2,V=1,eps=0,gamma=1,start=0"], "lindblad,bessel", []),
        (["--model", str(fmo_model_path())], "classical,bessel", []),
        (["--model", "MIXED"], "lindblad,kubo", ["--ntraj", "10"]),
        (["--chain", "2,V=1,eps=10,gamma=1"], "sse", ["--seed", "-1", "--ntraj", "3"]),
        (["--chain", "3,V=1,eps=5,gamma=0"], "lindblad,bessel", ["--grid=-1:1:3"]),
    ], ids=["ntraj-zero", "ntraj-negative", "bessel-gamma", "bessel-model-file", "kubo-mixed",
            "seed-negative", "bessel-negative-time"])
    def test_config_checked_before_any_engine(self, tmp_path, capsys, scenario, engines, extra):
        # a configuration error exits 2 before any engine writes its file
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(MIXED_DIMER))
        scenario = [str(mixed) if arg == "MIXED" else arg for arg in scenario]
        out = tmp_path / "out"
        code = run_cli("run", *scenario, "--engines", engines, "--grid", "0:0.01:3", *extra,
                       "--out", str(out))
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_kubo_and_sse_series(self, tmp_path):
        code = run_cli("run", "--chain", "2,V=1,eps=10,gamma=1,start=0", "--engines", "sse,kubo",
                       "--grid", "0:1:11", "--ntraj", "64", "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        kubo = read_timeseries(tmp_path / "kubo.csv")
        assert kubo.names[-1] == "norm_factor"
        populations = [kubo.channels[f"population:{site}"] for site in (0, 1)]
        assert np.abs(np.sum(populations, axis=0) - 1.0).max() <= 1e-12
        assert "norm_factor" not in read_timeseries(tmp_path / "sse.csv").names

    def test_classical_ignores_global_phase(self, tmp_path):
        # c and i c are one quantum state, so the classical output must agree
        written = []
        for name, amplitudes in (("c", [0.6, [0.0, 0.8], 0.0]),
                                 ("ic", [[0.0, 0.6], -0.8, 0.0])):
            doc = {
                "units": "V",
                "sites": [{"label": f"s{k}", "energy": 6.0} for k in range(3)],
                "couplings": [{"i": 0, "j": 1, "value": 1.0}, {"i": 1, "j": 2, "value": 1.0}],
                "gamma": 1.0,
                "initial_state": {"amplitudes": amplitudes},
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            code = run_cli("run", "--model", str(path), "--engines", "classical",
                           "--grid", "0:2:21", "--out", str(tmp_path / name))
            assert code == 0
            written.append((tmp_path / name / "classical.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("text,shift", [
        (json.dumps(dict(PURE_DIMER, gamma="abc")), None),
        (json.dumps(dict(PURE_DIMER, shift="abc")), None),
        (json.dumps(dict(PURE_DIMER, shift="abc")), "1"),
        (json.dumps(dict(PURE_DIMER, couplings=[[0.0, 0.2], [0.2]])), None),
        (json.dumps(dict(PURE_DIMER, initial_state={"amplitudes": [[1, "x"], 0]})), None),
        (json.dumps([PURE_DIMER]), None),
        (json.dumps([PURE_DIMER]), "1"),
        (json.dumps(dict(PURE_DIMER, initial_state={"site": True})), None),
    ], ids=["gamma-text", "shift-text", "shift-text-with-flag", "ragged-couplings",
            "amplitude-pair-text", "array-document", "array-document-with-flag", "bool-site"])
    def test_malformed_model_file_is_config_error(self, tmp_path, capsys, text, shift):
        path = tmp_path / "model.json"
        path.write_text(text)
        out = tmp_path / "out"
        extra = ["--shift", shift] if shift else []
        code = run_cli("run", "--model", str(path), *extra, "--engines", "lindblad",
                       "--grid", "0:0.01:3", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("eetsim: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("doc,message", [
        (dict(PURE_DIMER, couplings=[[0.0, 0.2], [0.2]]),
         "couplings: expected a number or a regular list of numbers"),
        (dict(PURE_DIMER, gamma=-0.1), "gamma must be non-negative, got min -0.1"),
        (dict(PURE_DIMER, gamma=float("nan")), "gamma contains non-finite values"),
        (dict(PURE_DIMER, couplings=[[0.0, float("inf")], [float("inf"), 0.0]]),
         "coupling contains non-finite values"),
        (dict(PURE_DIMER, sites=[{"label": f"s{k}", "energy": 1.0} for k in range(7)],
              couplings=[[1.0 if (i, j) == (0, 1) else 0.0 for j in range(7)] for i in range(7)]),
         "coupling asymmetry 1.000e+00 exceeds tolerance"),
        (dict(PURE_DIMER, gamma=[0.1, 0.1, 0.1]), "gamma must have length 2, got shape (3,)"),
        (dict(PURE_DIMER, initial_state={"mixture": [{"weight": 0.5, "amplitudes": [1.0, 0.0]},
                                                     {"weight": 0.4, "amplitudes": [0.0, 1.0]}]}),
         "mixture weights sum to 0.9, expected 1"),
        (dict(PURE_DIMER, initial_state=[0]), "initial_state: expected an object"),
        (dict(PURE_DIMER, initial_state={"amplitudes": [1.0]}),
         "initial_state.amplitudes: amplitudes must be a list of 2 entries"),
        (dict(PURE_DIMER, initial_state={"site": 2}),
         "initial_state.site: expected a site index in 0..1, got 2"),
        (dict(PURE_DIMER, initial_state={"amplitudes": [[1, 2, 3], 0]}),
         "initial_state.amplitudes: amplitude 0 must be a number or an [re, im] pair"),
        (dict(PURE_DIMER, initial_state={"amplitudes": [0, 0]}), "initial_state.amplitudes: zero or non-finite norm"),
        (dict(PURE_DIMER, initial_state={"mixture": []}), "initial_state.mixture: expected a non-empty list"),
        (dict(PURE_DIMER, initial_state={"mixture": [{"weight": 1.5, "amplitudes": [1.0, 0.0]}]}),
         "initial_state.mixture[0].weight: must lie in [0, 1]"),
        (dict(PURE_DIMER, couplings=[{"i": 0, "j": 0, "value": 0.2}]), "couplings[0]: bad site pair (0, 0)"),
        (dict(PURE_DIMER, gamma=10**400), "gamma: expected a number or a regular list of numbers"),
    ], ids=["ragged-couplings", "negative-gamma", "nan-gamma", "infinite-coupling", "asymmetric-7x7",
            "gamma-length", "mixture-weights", "initial-state-not-object", "amplitude-count",
            "site-out-of-range", "amplitude-triple", "amplitudes-zero", "mixture-empty", "weight-above-one",
            "coupling-self-pair", "gamma-integer-overflows-float"])
    @pytest.mark.parametrize("command", ["run", "rca"])
    def test_model_file_error_names_the_file(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))  # NaN and infinities as JSON's extensions
        out = tmp_path / "out"
        extra = ["--engines", "lindblad", "--out", str(out)] if command == "run" else []
        assert run_cli(command, "--model", str(path), *extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"eetsim: error: {path}: {message}"]
        assert not out.exists()

    def test_coupling_asymmetry_overflow_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(PURE_DIMER, couplings=[[0.0, 1e308], [-1e308, 0.0]])))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would print two more lines
            code = run_cli("run", "--model", str(path), "--engines", "lindblad", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "coupling asymmetry" in err[0]
        assert not out.exists()

    def test_unwritable_destination_leaves_out_untouched(self, tmp_path, capsys):
        # classical.csv of an earlier run is set aside, then setting aside the
        # directory lindblad.csv fails: the earlier file comes back, no temporary remains
        out = tmp_path / "d"
        (out / "lindblad.csv").mkdir(parents=True)
        (out / "classical.csv").write_text("earlier run\n")
        code = run_cli("run", "--chain", "2,V=1,eps=1,gamma=1,start=0",
                       "--engines", "classical,lindblad", "--grid", "0:1:3", "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["classical.csv", "lindblad.csv"]
        assert (out / "classical.csv").read_text() == "earlier run\n"
        assert not any((out / "lindblad.csv").iterdir())

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EETSIM_OUTDIR", str(tmp_path / "envdir"))
        code = run_cli("run", "--chain", "2,V=1,eps=0,gamma=0,start=0",
                       "--engines", "lindblad", "--grid", "0:1:6")
        assert code == 0
        assert (tmp_path / "envdir" / "lindblad.csv").exists()


class TestReproducibility:
    """The README's FMO run in fresh interpreters, under one and the default number of BLAS threads.

    OpenBLAS may split a gemm of the dense path (flat dimension 105 for the
    classical run) differently with one thread than with several, so the
    bytes depend on the thread count; the values agree to rounding.
    """

    @staticmethod
    def _run_fmo(out: Path, threads) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        src = str(Path(eetsim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "eetsim.cli", "run", "--model", str(fmo_model_path()),
             "--engines", "lindblad,classical", "--grid", "0:1:101", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        return {name: (out / f"{name}.csv").read_bytes() for name in ("lindblad", "classical")}

    def test_readme_fmo_run(self, tmp_path):
        single = self._run_fmo(tmp_path / "single", 1)
        default = self._run_fmo(tmp_path / "default", None)
        again = self._run_fmo(tmp_path / "again", None)
        assert again == default
        for name in single:
            a = read_timeseries(tmp_path / "single" / f"{name}.csv")
            b = read_timeseries(tmp_path / "default" / f"{name}.csv")
            assert a.channels.keys() == b.channels.keys()
            assert all(np.abs(a.channels[k] - b.channels[k]).max() <= 1e-13 for k in a.channels)


class TestCompare:
    def make_pair(self, tmp_path):
        # V = 0: both engines reduce to the same dephasing dynamics
        run_cli("run", "--chain", "2,V=0,eps=0,gamma=0.5,start=0",
                "--engines", "lindblad,classical", "--grid", "0:2:21",
                "--out", str(tmp_path))
        return tmp_path / "lindblad.csv", tmp_path / "classical.csv"

    def test_identical_files_zero_report(self, tmp_path):
        a, _ = self.make_pair(tmp_path)
        report = tmp_path / "report.json"
        assert run_cli("compare", str(a), str(a), "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["overall_max"] == 0.0

    def test_engines_compared_with_ignored_channels(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        report = tmp_path / "report.json"
        assert run_cli("compare", str(a), str(b), "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["ignored_channels"] == ["norm_factor"]
        assert doc["overall_max"] < 1e-8  # V=0-free dimer: engines agree here

    def test_no_common_channel(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,a\n0,1\n1,2\n")
        b.write_text("t,b\n0,1\n1,2\n")
        report = tmp_path / "r.json"
        assert run_cli("compare", str(a), str(b), "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not report.exists()

    def test_missing_file(self, tmp_path):
        a, _ = self.make_pair(tmp_path)
        assert run_cli("compare", str(a), str(tmp_path / "absent.csv")) == 2

    def test_report_byte_identical_across_runs(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("compare", str(a), str(b), "--report", str(r1))
        run_cli("compare", str(a), str(b), "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes()

    def test_report_text_with_non_finite_and_non_ascii(self, tmp_path, capsys):
        # magnitudes near the float limit give inf and NaN differences, with no numpy warning,
        # written as JSON's Infinity and NaN; the channel name is not ASCII; "extra" is in one file only
        a, b, report = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "r.json"
        a.write_text("t,\u03c1:0,coherence_re:0:1,coherence_im:0:1,big,extra\n"
                     "0,1,1.5e308,1.5e308,1e308,1\n1,0.5,0,0,-1e308,2\n", encoding="utf-8")
        b.write_text("t,\u03c1:0,coherence_re:0:1,coherence_im:0:1,big\n"
                     "0,0.25,1.5e308,1.5e308,-1e308\n1,0.5,0,0,1e308\n", encoding="utf-8")
        assert run_cli("compare", str(a), str(b), "--report", str(report)) == 0
        assert capsys.readouterr().err == ""
        text = report.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["ignored_channels"] == ["extra"]
        assert doc["channels"]["\u03c1:0"]["max_abs"] == 0.75
        assert doc["channels"]["big"]["max_abs"] == np.inf
        assert np.isnan(doc["channels"]["coherence_abs:0:1"]["max_abs"])
        assert np.isnan(doc["overall_max"])

    def test_report_in_missing_directory(self, tmp_path, capsys):
        a, b = self.make_pair(tmp_path)
        capsys.readouterr()
        assert run_cli("compare", str(a), str(b), "--report", str(tmp_path / "missing/x.json")) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("content", [
        '{"t": [0, 1], "channels": [1, 2]}',
        '{"t": [0, 1], "channels": {"population:0": "ab"}}',
        '{"t": [0, 1], "channels": {"population:0": [[1], [1, 2]]}}',
        '{"t": 0.5, "channels": {"population:0": [1, 1]}}',
        '{"t": 0.5, "channels": {}}',
        '{"t": [0, 1], "channels": {"population:0": [1, 1, 1]}}',
        '{"t": [0, 1], "channels": {"population:0": [1, 1], "population:1": [0]}}',
        '{"t": [0, 1], "channels": {"population:0": [1, 0], "population:0": [0.3, 0.7]}}',
    ], ids=["channels-list", "channel-text", "channel-ragged", "scalar-t", "scalar-t-alone",
            "channel-longer-than-t", "channels-unequal", "channel-repeated"])
    def test_malformed_json_series(self, tmp_path, capsys, content):
        a, _ = self.make_pair(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        capsys.readouterr()
        assert run_cli("compare", str(a), str(bad), "--report", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    @pytest.mark.parametrize("name,content", [
        ("nan.csv", "t,population:0\r\n0,1\r\n1,nan\r\n"),
        ("nan_time.csv", "t,population:0\r\n0,1\r\nnan,1\r\n"),
        ("null.json", '{"t": [0, 1], "channels": {"population:0": [1, null]}}'),
        ("inf.json", '{"t": [0, 1], "channels": {"coherence_re:0:1": [0, Infinity]}}'),
    ], ids=["csv-nan", "csv-nan-time", "json-null", "json-infinity"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_text(content, newline="")
        report = tmp_path / "r.json"
        assert run_cli("compare", str(bad), str(bad), "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert "non-finite" in captured.err
        assert not report.exists()

    def test_duplicate_channel_refused(self, tmp_path, capsys):
        # a repeated name is refused, not read as its last column
        bad, one = tmp_path / "dup.csv", tmp_path / "one.csv"
        bad.write_text("t,population:0,population:0\r\n0,1,0.3\r\n1,0,0.7\r\n", newline="")
        one.write_text("t,population:0\r\n0,1\r\n1,0\r\n", newline="")
        report = tmp_path / "r.json"
        assert run_cli("compare", str(bad), str(one), "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"eetsim: error: {bad}: channel 'population:0' appears more than once"]
        assert captured.out == "" and not report.exists()

    def test_duplicate_json_key_refused(self, tmp_path, capsys):
        # json.load alone keeps the last of two equal keys: the file is refused instead
        bad, one = tmp_path / "dup.json", tmp_path / "one.csv"
        bad.write_text('{"t": [0, 1], "channels": {"population:0": [1, 0], "population:0": [0.3, 0.7]}}')
        one.write_text("t,population:0\r\n0,1\r\n1,0\r\n", newline="")
        report = tmp_path / "r.json"
        assert run_cli("compare", str(bad), str(one), "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"eetsim: error: {bad}: key 'population:0' appears more than once"]
        assert captured.out == "" and not report.exists()

    def test_unknown_suffix_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "a.txt"
        bad.write_text("t,population:0\r\n0,1\r\n", newline="")
        assert run_cli("compare", str(bad), str(bad), "--report", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"eetsim: error: {bad}: unknown format 'txt'; expected 'csv' or 'json'"]
        assert captured.out == ""

    def test_grid_mismatch(self, tmp_path):
        a, _ = self.make_pair(tmp_path)
        run_cli("run", "--chain", "2,V=1,eps=0,gamma=0.5,start=0",
                "--engines", "lindblad", "--grid", "0:2:11",
                "--out", str(tmp_path / "other"))
        assert run_cli("compare", str(a), str(tmp_path / "other/lindblad.csv"),
                       "--report", str(tmp_path / "r.json")) == 2


class TestRca:
    def test_chain_pass(self, capsys):
        assert run_cli("rca", "--chain", "29,V=1,eps=40,gamma=1,start=14") == 0
        assert "pass" in capsys.readouterr().out

    def test_chain_fail(self, capsys):
        assert run_cli("rca", "--chain", "29,V=1,eps=1,gamma=20,start=14") == 1
        assert "fail" in capsys.readouterr().out

    def test_fmo_passes(self, capsys):
        assert run_cli("rca", "--model", str(fmo_model_path())) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_utf8_model_file_in_an_ascii_locale(self, tmp_path):
        # JSON text is UTF-8: a model file holding raw non-ASCII text is read
        # the same under a C locale, where open() would default to ASCII
        doc = json.loads(fmo_model_path().read_text(encoding="utf-8"))
        doc["description"] += ", energies in cm\u207b\u00b9"
        path = tmp_path / "fmo.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        assert "cm⁻¹".encode("utf-8") in path.read_bytes()
        src = str(Path(eetsim.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "eetsim.cli", "rca", "--model", str(path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "verdict              : pass" in done.stdout.splitlines()

    def test_gamma_override(self, capsys):
        # an absurd dephasing rate breaks the weak-noise condition
        assert run_cli("rca", "--model", str(fmo_model_path()), "--gamma", "20000") == 1

    def test_nonpositive_frequency_prints_reason(self, capsys):
        # zero site energies leave no transition frequency to compare with
        assert run_cli("rca", "--chain", "3,eps=0") == 1
        assert "reason               : non-positive transition frequency" in capsys.readouterr().out.splitlines()

    def test_overflowing_ratio_fails_quietly(self, capsys):
        # V / eps = 1e600 overflows to inf: a fail, with no numpy warning on stderr
        assert run_cli("rca", "--chain", "3,V=1e300,eps=1e-300,gamma=0") == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "verdict              : fail" in captured.out.splitlines()

    @pytest.mark.parametrize("threshold", ["2", "nan", "inf", "0", "-0.1"])
    def test_threshold_outside_unit_interval(self, capsys, threshold):
        # the dephasing ratio is 1.5, a fail whatever the threshold
        code = run_cli("rca", "--chain", "29,V=1,eps=1,gamma=1.5", f"--threshold={threshold}")
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.out == ""


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"])
_VALUE = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False).map(repr)
_RATE = st.floats(min_value=0.0, max_value=5.0).map(repr)


@st.composite
def bad_run_arguments(draw):
    """``eetsim run`` arguments whose chain or grid is invalid, so no engine may start."""
    n_sites = draw(st.integers(min_value=2, max_value=6))
    chain = {"V": draw(_VALUE), "eps": draw(_VALUE), "gamma": draw(_RATE),
             "start": str(draw(st.integers(min_value=0, max_value=n_sites - 1)))}
    t_start = draw(st.floats(min_value=-100.0, max_value=100.0))
    t_end = t_start + draw(st.floats(min_value=1e-3, max_value=100.0))
    t_start, t_end = repr(t_start), repr(t_end)
    flaw = draw(st.sampled_from(["V", "eps", "gamma", "negative gamma", "t_start", "t_end",
                                 "t_end <= t_start"]))
    if flaw in ("V", "eps", "gamma"):
        chain[flaw] = draw(_NON_FINITE)
    elif flaw == "negative gamma":
        chain["gamma"] = repr(-draw(st.floats(min_value=1e-9, max_value=1e9)))
    elif flaw == "t_start":
        t_start = draw(_NON_FINITE)
    elif flaw == "t_end":
        t_end = draw(_NON_FINITE)
    else:
        t_end = repr(float(t_start) - draw(st.floats(min_value=0.0, max_value=100.0)))
    spec = ",".join([str(n_sites)] + [f"{key}={value}" for key, value in chain.items()])
    engines = draw(st.sampled_from(["lindblad", "classical", "sse", "kubo", "lindblad,kubo"]))
    n_samples = draw(st.integers(min_value=2, max_value=50))
    return ["run", "--chain", spec, "--engines", engines,
            f"--grid={t_start}:{t_end}:{n_samples}", "--ntraj", "4"]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(bad_run_arguments())
def test_bad_chain_or_grid_is_one_line_config_error(argv):
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("eetsim: error: ")
        assert stdout.getvalue() == ""
        assert not out.exists()


_NOT_AN_INT = st.sampled_from(["", "abc", "1.5", "1e3", "nan", "inf", "0x10"])


@st.composite
def bad_option_arguments(draw):
    """``eetsim run`` arguments on a valid ensemble scenario with one invalid
    ``--seed``, ``--ntraj``, ``--dt`` or ``--format``, so no engine may start."""
    t_end = draw(st.floats(min_value=0.1, max_value=10.0))
    n_samples = draw(st.integers(min_value=2, max_value=20))
    spacing = t_end / (n_samples - 1)
    options = {
        "seed": str(draw(st.integers(min_value=0, max_value=2**63))),
        "ntraj": str(draw(st.integers(min_value=1, max_value=8))),
        # a valid step stays above spacing / 1000, so no valid draw schedules a long run
        "dt": repr(spacing * draw(st.floats(min_value=1e-3, max_value=1.0))),
        "format": draw(st.sampled_from(["csv", "json"])),
    }
    flaw = draw(st.sampled_from(sorted(options)))
    if flaw == "seed":
        options["seed"] = draw(st.integers(max_value=-1).map(str) | _NOT_AN_INT)
    elif flaw == "ntraj":
        options["ntraj"] = draw(st.integers(max_value=0).map(str) | _NOT_AN_INT)
    elif flaw == "dt":
        options["dt"] = draw(
            st.floats(max_value=0.0).map(repr)
            | _NON_FINITE
            | st.floats(min_value=1.0 + 1e-9, max_value=1e6).map(lambda k: repr(spacing * k))
        )
    else:
        options["format"] = draw(st.text(max_size=6).filter(lambda f: f not in ("csv", "json")))
    engines = draw(st.sampled_from(["sse", "kubo", "lindblad,sse", "kubo,classical"]))
    return (["run", "--chain", "2,V=1,eps=10,gamma=1", "--engines", engines,
             f"--grid=0:{t_end!r}:{n_samples}"] + [f"--{key}={value}" for key, value in options.items()])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bad_option_arguments())
def test_bad_run_option_is_one_line_config_error(argv):
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("eetsim: error: ")
        assert stdout.getvalue() == ""
        assert not out.exists()


_VALID_MODEL = {
    "units": "V",
    "sites": [{"label": f"s{k}", "energy": 5.0 + k} for k in range(3)],
    "couplings": [{"i": 0, "j": 1, "value": 0.5}, {"i": 1, "j": 2, "value": -0.3}],
    "gamma": [0.1, 0.2, 0.3],
    "shift": 0.5,
}
# Each initial state with the paths of its fields that a corruption may replace.
_INITIAL_STATES = [
    ({"site": 1}, [("initial_state", "site")]),
    ({"amplitudes": [0.6, [0.0, 0.8], 0.0]},
     [("initial_state", "amplitudes", 1), ("initial_state", "amplitudes", 1, 0),
      ("initial_state", "amplitudes", 0)]),
    ({"mixture": [{"weight": 0.25, "amplitudes": [1.0, 0.0, 0.0]},
                  {"weight": 0.75, "amplitudes": [[0.0, 1.0], 0.0, 1.0]}]},
     [("initial_state", "mixture", 0, "weight"), ("initial_state", "mixture", 1, "amplitudes", 0)]),
]
# () is the whole document.
_COMMON_FIELDS = [(), ("units",), ("sites",), ("sites", 0), ("sites", 2, "energy"), ("couplings",),
                  ("couplings", 1), ("couplings", 0, "value"), ("couplings", 1, "i"),
                  ("couplings", 0, "j"), ("gamma",), ("gamma", 1), ("shift",), ("initial_state",)]
_CORRUPTIONS = st.sampled_from([
    "abc", "1.5", "", None, True, False, [[1.0]], [1.0, [2.0]], {"x": 1},
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400,
])


@st.composite
def corrupted_model(draw):
    """A valid model document with one field replaced by a value of the wrong kind or range."""
    initial, fields = draw(st.sampled_from(_INITIAL_STATES))
    doc = json.loads(json.dumps(dict(_VALID_MODEL, initial_state=initial)))
    path = draw(st.sampled_from(_COMMON_FIELDS + fields))
    value, shift = draw(_CORRUPTIONS), draw(st.booleans())
    if not path:
        return value, shift
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc, shift


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(corrupted_model())
@example((dict(_VALID_MODEL, couplings=[{"i": 0, "j": 1, "value": 1e308}], initial_state={"site": 0}),
          False))  # the rate 2V overflows
def test_corrupted_model_file_fails_in_one_line(case):
    doc, shift = case
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "model.json", Path(work) / "out"
        path.write_text(json.dumps(doc))  # NaN and infinities as JSON's Infinity extension
        argv = ["run", "--model", str(path), "--engines", "lindblad,classical",
                "--grid", "0:0.01:3", "--out", str(out)] + (["--shift", "1"] if shift else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2)
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("eetsim: error: ")
        if code == 2:
            assert stdout.getvalue() == "" and not out.exists()
