"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  The expensive chain propagations are shared
through module-scoped fixtures.

The classical runs start from the phase-averaged counterpart of the quantum
state (z = c e^{i theta}, theta uniform): sigma(0) = rho and the anomalous
moments <z z^T> vanish, so the result does not depend on the global phase of
c.  A single deterministic amplitude z = c would carry <z z^T> = c c^T,
whose counter-rotating transient of size ~V/(2 eps) in the coherences
(decaying at twice the dephasing rate) exceeds criterion 4's whole-run
bound.  Criterion 4 prints the whole-run and the post-transient values.
"""

import json
import time

import numpy as np
import pytest

import eetsim as ee


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def chain_pair(eps, gamma, grid):
    model, init = ee.make_chain(29, 1.0, eps, gamma, 14)
    quantum = ee.propagate_lindblad(model, init.rho, grid)
    classical = ee.propagate_classical_rst(model, ee.initial_rst_pure(init.amplitudes), grid)
    return quantum, classical


@pytest.fixture(scope="module")
def grid_10():
    return ee.TimeGrid(0.0, 10.0, 201)


@pytest.fixture(scope="module")
def chain_g1(grid_10):
    """gamma = V chain runs for eps/V in {40, 10, 6, 1}."""
    return {eps: chain_pair(eps, 1.0, grid_10) for eps in (40.0, 10.0, 6.0, 1.0)}


@pytest.fixture(scope="module")
def chain_g20(grid_10):
    """gamma = 20 V chain runs for eps/V in {40, 10}."""
    return {eps: chain_pair(eps, 20.0, grid_10) for eps in (40.0, 10.0)}


def test_criterion_1_bessel_limit():
    start = time.perf_counter()
    model, init = ee.make_chain(29, 1.0, 0.0, 0.0, 14)
    grid = ee.TimeGrid(0.0, 6.0, 61)
    traj = ee.propagate_lindblad(model, init.rho, grid)
    pops = traj.populations()
    reference = np.array(
        [[ee.chain_bessel_populations(1.0, n - 14, t) for n in range(29)] for t in grid.times]
    )
    # pre-reflection window, determined from the oracle alone: probability
    # mass beyond the chain ends stays an order below the tolerance
    tail = 1.0 - np.array(
        [sum(ee.chain_bessel_populations(1.0, k, t) for k in range(-14, 15)) for t in grid.times]
    )
    window = tail < 1e-5
    err = np.abs(pops - reference).max(axis=1)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(err[window] < 1e-4)) and elapsed < 5.0
    assert report(
        1, ok,
        f"max |P - J^2| = {err[window].max():.2e} (< 1e-4) for t <= "
        f"{grid.times[window][-1]:.1f} (pre-reflection window; full-range "
        f"max {err.max():.2e} is boundary physics), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_dephasing_analytic_limit():
    start = time.perf_counter()
    model = ee.build_aggregate([0.0, 0.0], np.zeros((2, 2)), [1.0, 1.0])
    rho0 = ee.DensityMatrix(np.full((2, 2), 0.5))
    grid = ee.TimeGrid(0.0, 5.0, 51)
    expected = 0.5 * np.exp(-grid.times)
    quantum = ee.propagate_lindblad(model, rho0, grid)
    classical = ee.propagate_classical_rst(model, ee.initial_rst_mixed(rho0), grid)
    err_q = np.abs(quantum.coherence(0, 1) - expected).max()
    err_c = np.abs(classical.coherence(0, 1) - expected).max()
    elapsed = time.perf_counter() - start
    ok = err_q < 1e-8 and err_c < 1e-8 and elapsed < 1.0
    assert report(
        2, ok,
        f"coherence vs rho12(0) e^-gt: quantum {err_q:.2e}, classical {err_c:.2e} "
        f"(< 1e-8), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_rca_population_agreement(chain_g1):
    start = time.perf_counter()
    dev = {}
    for eps, (quantum, classical) in chain_g1.items():
        dev[eps] = float(np.abs(quantum.populations() - classical.populations()).max())
    elapsed = time.perf_counter() - start
    ordered = dev[40.0] < dev[10.0] < dev[6.0] < dev[1.0]
    ok = dev[40.0] < 0.01 and 0.01 < dev[6.0] < 0.08 and ordered
    assert report(
        3, ok,
        f"max pop deviation: eps=40: {dev[40.0]:.4f} (< 0.01); eps=6: {dev[6.0]:.4f} "
        f"(in (0.01, 0.08)); ordering 40 < 10 < 6 < 1: {ordered} "
        f"({dev[40.0]:.4f} < {dev[10.0]:.4f} < {dev[6.0]:.4f} < {dev[1.0]:.4f}); "
        f"comparison time {elapsed:.1f}s",
    )


def test_criterion_4_coherence_agreement(chain_g1, grid_10):
    quantum40, classical40 = chain_g1[40.0]
    quantum6, classical6 = chain_g1[6.0]
    coh_q = np.abs(quantum40.coherence(14, 15))
    err40 = np.abs(coh_q - np.abs(classical40.coherence(14, 15)))
    err6 = np.abs(np.abs(quantum6.coherence(14, 15)) - np.abs(classical6.coherence(14, 15)))
    bound40 = 0.01 * coh_q.max()
    late = grid_10.times >= 2.0
    detail = (
        f"max ||rho01|qm - |sigma01|cl|: eps/g=40: {err40.max():.4f} vs bound "
        f"{bound40:.4f}; eps/g=6: {err6.max():.4f} vs bound 0.05. "
        f"Classical start phase-averaged (z = c e^(i theta), <z z^T> = 0), so no "
        f"counter-rotating transient of size ~V/2eps = {1 / 80:.4f} and {1 / 12:.4f}; "
        f"for t >= 2/gamma the same maxima are {err40[late].max():.4f} and "
        f"{err6[late].max():.4f}"
    )
    ok = err40.max() <= bound40 and err6.max() < 0.05
    assert report(4, ok, detail)


def test_criterion_4_post_transient_regression(chain_g1, grid_10):
    # the same bounds after two dephasing times, where a transient from any
    # anomalous moments <z z^T> in the classical start would have decayed
    quantum40, classical40 = chain_g1[40.0]
    quantum6, classical6 = chain_g1[6.0]
    late = grid_10.times >= 2.0
    coh_q = np.abs(quantum40.coherence(14, 15))
    err40 = np.abs(coh_q - np.abs(classical40.coherence(14, 15)))[late].max()
    err6 = np.abs(
        np.abs(quantum6.coherence(14, 15)) - np.abs(classical6.coherence(14, 15))
    )[late].max()
    assert err40 <= 0.01 * coh_q.max()
    assert err6 < 0.05


def test_criterion_5_strong_dephasing(chain_g1, chain_g20, grid_10):
    quantum, classical40 = chain_g20[40.0]
    _, classical10 = chain_g20[10.0]
    p_start = quantum.populations()[:, 14]
    dp = np.diff(p_start)
    mid = 0.5 * (grid_10.times[1:] + grid_10.times[:-1])
    dp_late = dp[(mid > 1.0) & (np.abs(dp) > 1e-12)]
    monotone = bool(np.all(np.sign(dp_late) == np.sign(dp_late[0])))
    dev40 = float(np.abs(classical40.populations() - quantum.populations()).max())
    dev10 = float(np.abs(classical10.populations() - quantum.populations()).max())
    ok = monotone and dev40 < 0.02 and dev10 > 0.02
    assert report(
        5, ok,
        f"gamma=20V: quantum start-site population monotone after t=1: {monotone}; "
        f"classical dev eps=40: {dev40:.4f} (< 0.02); eps=10: {dev10:.4f} (> 0.02)",
    )


def test_criterion_6_fmo_order_of_magnitude():
    grid = ee.TimeGrid(0.0, 1.0, 101)

    def deviation(doc_or_path):
        model, init = ee.load_model(doc_or_path)
        quantum = ee.propagate_lindblad(model, init.rho, grid)
        classical = ee.propagate_classical_rst(
            model, ee.initial_rst_pure(init.amplitudes), grid)
        return float(np.abs(quantum.populations() - classical.populations()).max())

    dev_real = deviation(ee.fmo_model_path())
    doc = json.load(open(ee.fmo_model_path()))
    doc["shift"] = -12000.0
    dev_shift = deviation(doc)
    ok = dev_real < 0.01 and dev_shift >= 10.0 * dev_real and dev_shift < 0.5
    assert report(
        6, ok,
        f"7-site FMO, gamma = 100/cm, 1 ps: realistic dev {dev_real:.5f} (< 0.01); "
        f"shifted by -12000/cm: {dev_shift:.4f} (< 0.5, ratio {dev_shift / dev_real:.0f}x >= 10x)",
    )


def test_criterion_7_unraveling_convergence():
    start = time.perf_counter()
    model, init = ee.make_chain(2, 1.0, 10.0, 1.0, 0)
    grid = ee.TimeGrid(0.0, 5.0, 101)
    noise = ee.NoiseSpec(gamma=model.gamma, seed=1234)

    quantum = ee.propagate_lindblad(model, init.rho, grid)
    rho = quantum.rho
    sse = ee.run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=10_000)
    err_sse = np.abs(sse.mean_bilinear - rho)
    ok_sse = bool(np.all(err_sse <= 5.0 * sse.standard_error() + 1e-9)) and err_sse.max() < 0.02

    classical = ee.propagate_classical_rst(model, ee.initial_rst_pure(init.amplitudes), grid)
    sigma = ee.assemble_sigma(classical.states)
    kubo = ee.run_kubo_ensemble(model, init.amplitudes, grid, noise, n_traj=10_000)
    err_kubo = np.abs(kubo.mean_bilinear - sigma)
    ok_kubo = bool(np.all(err_kubo <= 5.0 * kubo.standard_error() + 1e-9)) and err_kubo.max() < 0.02

    elapsed = time.perf_counter() - start
    ok = ok_sse and ok_kubo and elapsed < 120.0
    assert report(
        7, ok,
        f"n=10^4, seed 1234: SSE vs master max err {err_sse.max():.4f}; Kubo vs "
        f"moment system {err_kubo.max():.4f} (< 0.02 and < 5 SE each); "
        f"runtime {elapsed:.0f}s (< 120s)",
    )


def test_criterion_8_cross_engine_oracle():
    cases = []

    model, init = ee.make_chain(2, 1.0, 5.0, 0.8, 0)
    cases.append(("dimer", model, init, ee.TimeGrid(0.0, 10.0, 101)))
    model, init = ee.make_chain(9, 1.0, 12.0, 0.5, 4)
    cases.append(("chain-9", model, init, ee.TimeGrid(0.0, 8.0, 81)))
    model, init = ee.load_model(ee.fmo_model_path())
    cases.append(("fmo", model, init, ee.TimeGrid(0.0, 0.2, 21)))

    devs = {}
    for label, model, init, grid in cases:
        lind = ee.propagate_lindblad(model, init.rho, grid)
        rst = ee.propagate_quantum_rst(model, ee.initial_rst_pure(init.amplitudes), grid)
        devs[label] = float(np.abs(lind.rho - rst.rho).max())
    ok = all(d < 1e-7 for d in devs.values())
    assert report(
        8, ok,
        "moment form vs direct master equation: "
        + ", ".join(f"{k}: {v:.1e}" for k, v in devs.items()) + " (each < 1e-7)",
    )


def test_criterion_9_invariant_suites(chain_g1):
    quantum40, classical40 = chain_g1[40.0]
    _, classical1 = chain_g1[1.0]

    # density-matrix invariants along the quantum run
    rho = quantum40.rho
    trace_dev = float(np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0).max())
    herm_dev = float((
        np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        / np.maximum(1.0, np.abs(rho).max(axis=(1, 2)))
    ).max())
    min_eig = float(np.linalg.eigvalsh(rho).min())
    ok_q = trace_dev < 1e-8 and herm_dev < 1e-10 and min_eig > -1e-8

    # moment invariants along the classical run
    st = classical40.states
    sym_dev = float((
        np.maximum(np.abs(st.r - st.r.transpose(0, 2, 1)).max(axis=(1, 2)),
                   np.abs(st.s - st.s.transpose(0, 2, 1)).max(axis=(1, 2)))
        / np.maximum(1.0, np.maximum(np.abs(st.r).max(axis=(1, 2)), np.abs(st.s).max(axis=(1, 2))))
    ).max())
    sigma_eig = float(np.linalg.eigvalsh(ee.assemble_sigma(st)).min())
    ok_c = sym_dev < 1e-10 and sigma_eig > -1e-8

    # global energy shift: quantum blind, classical not
    rng_model = ee.build_aggregate(
        [5.0, 4.4, 5.6, 5.1],
        np.array([
            [0.0, 0.4, 0.1, 0.0],
            [0.4, 0.0, 0.3, 0.1],
            [0.1, 0.3, 0.0, 0.2],
            [0.0, 0.1, 0.2, 0.0],
        ]),
        [0.5, 0.3, 0.7, 0.4],
    )
    c0 = np.zeros(4, complex)
    c0[1] = 1.0
    grid = ee.TimeGrid(0.0, 5.0, 51, dt_integrate=0.0004)
    base = ee.propagate_lindblad(rng_model, ee.pure_density(c0), grid)
    moved = ee.propagate_lindblad(
        rng_model.with_shifted_energies(17.3), ee.pure_density(c0), grid)
    shift_dev = float(np.abs(base.rho - moved.rho).max())
    classical_shift_dev = float(
        np.abs(classical40.populations() - classical1.populations()).max())
    ok_shift = shift_dev < 1e-10 and classical_shift_dev > 1e-4

    # seed determinism: reruns are identical bit for bit
    model, init = ee.make_chain(2, 1.0, 2.0, 0.5, 0)
    small = ee.TimeGrid(0.0, 1.0, 6)
    noise = ee.NoiseSpec(gamma=model.gamma, seed=9)
    ens_a = ee.run_sse_ensemble(model, init.amplitudes, small, noise, n_traj=32)
    ens_b = ee.run_sse_ensemble(model, init.amplitudes, small, noise, n_traj=32)
    ok_seed = bool(np.array_equal(ens_a.mean_bilinear, ens_b.mean_bilinear))

    ok = ok_q and ok_c and ok_shift and ok_seed
    assert report(
        9, ok,
        f"trace {trace_dev:.1e}, hermiticity {herm_dev:.1e}, min eig {min_eig:.1e}; "
        f"R/S symmetry {sym_dev:.1e}, sigma min eig {sigma_eig:.1e}; quantum shift "
        f"invariance {shift_dev:.1e} (< 1e-10) vs classical shift response "
        f"{classical_shift_dev:.2f} (> 1e-4); ensemble reruns identical: {ok_seed}",
    )
