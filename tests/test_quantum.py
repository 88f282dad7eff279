import numpy as np
import pytest

import eetsim.classical
import eetsim.integrate
import eetsim.quantum
from eetsim import (
    DensityMatrix,
    TimeGrid,
    build_aggregate,
    initial_rst_pure,
    make_chain,
    propagate_lindblad,
    propagate_quantum_rst,
    pure_density,
)
from eetsim.classical import RstState
from eetsim.errors import EetsimError, InvalidInitialState, NotPositive, ValidationError


def random_model(n, seed, eps_scale=5.0, gamma_scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=0.5, size=(n, n))
    v = 0.5 * (v + v.T)
    np.fill_diagonal(v, 0.0)
    eps = eps_scale + rng.normal(scale=0.5, size=n)
    gamma = rng.uniform(0.0, gamma_scale, size=n)
    return build_aggregate(eps, v, gamma)


class TestLindblad:
    def test_rabi_oscillation(self):
        model, init = make_chain(2, 1.0, 0.0, 0.0, 0)
        grid = TimeGrid(0.0, np.pi / 2.0, 51)
        traj = propagate_lindblad(model, init.rho, grid)
        pops = traj.populations()
        assert np.abs(pops[:, 0] - np.cos(grid.times) ** 2).max() < 1e-8
        assert pops[-1, 0] < 1e-8  # P1(pi/2) = 0

    def test_pure_coherence_decay(self):
        model = build_aggregate([0.0, 0.0], np.zeros((2, 2)), [1.0, 1.0])
        rho0 = DensityMatrix(np.full((2, 2), 0.5))
        grid = TimeGrid(0.0, 5.0, 51)
        traj = propagate_lindblad(model, rho0, grid)
        assert np.abs(traj.coherence(0, 1) - 0.5 * np.exp(-grid.times)).max() < 1e-8

    def test_trace_hermiticity_positivity(self):
        model = random_model(5, seed=3)
        c0 = np.zeros(5, complex)
        c0[2] = 1.0
        grid = TimeGrid(0.0, 8.0, 81)
        traj = propagate_lindblad(model, pure_density(c0), grid)
        for rho in traj.rho:
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            herm = np.abs(rho - rho.conj().T).max()
            assert herm < 1e-10 * max(1.0, np.abs(rho).max())
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_global_energy_shift_invariance(self):
        model = random_model(4, seed=8)
        shifted = model.with_shifted_energies(17.3)
        c0 = np.zeros(4, complex)
        c0[0] = 1.0
        dt = 0.0005
        grid = TimeGrid(0.0, 5.0, 51, dt_integrate=dt)
        base = propagate_lindblad(model, pure_density(c0), grid)
        moved = propagate_lindblad(shifted, pure_density(c0), grid)
        diff = np.abs(base.rho - moved.rho).max()
        assert diff < 1e-10

    def test_step_guard(self):
        # the propagator takes no step: a dt_integrate the ensembles refuse
        # leaves every density matrix as it was
        model, init = make_chain(2, 1.0, 40.0, 1.0, 0)
        coarse = propagate_lindblad(model, init.rho, TimeGrid(0.0, 10.0, 101, dt_integrate=0.05))
        plain = propagate_lindblad(model, init.rho, TimeGrid(0.0, 10.0, 101))
        assert np.array_equal(coarse.rho, plain.rho)

    def test_uncoupled_chain_closed_form(self):
        # V = 0: populations stay and each coherence rotates and decays,
        # rho_nm(t) = rho_nm(0) exp(-i (eps_n - eps_m) t - (gamma_n + gamma_m) t / 2)
        # for n != m.  At 29 sites (D = 1682) the Krylov path propagates it.
        n = 29
        rng = np.random.default_rng(3)
        model = build_aggregate(rng.uniform(-5.0, 5.0, n), np.zeros((n, n)), rng.uniform(0.0, 1.0, n))
        assert 2 * n * n > eetsim.integrate._DENSE_MAX_DIM
        rho0 = pure_density(np.full(n, n**-0.5))
        grid = TimeGrid(0.0, 4.0, 41)
        traj = propagate_lindblad(model, rho0, grid)
        eps, gamma = model.epsilon, model.gamma
        decay = 0.5 * (gamma[:, None] + gamma[None, :])
        np.fill_diagonal(decay, 0.0)
        t = grid.times[:, None, None]
        exact = rho0.data * np.exp(-1j * (eps[:, None] - eps[None, :]) * t - decay * t)
        assert np.abs(traj.rho - exact).max() <= 1e-12

    def test_invalid_initial_state(self):
        model, _ = make_chain(2, 1.0, 0.0, 0.0, 0)
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(InvalidInitialState):
            propagate_lindblad(model, pure_density([1.0, 0.0, 0.0]), grid)
        half = DensityMatrix(np.diag([0.25, 0.25]))
        with pytest.raises(InvalidInitialState):
            propagate_lindblad(model, half, grid)

    def test_dephasing_suppresses_coherence(self):
        # stronger noise slows transfer and damps |rho_01| (Zeno-like)
        grid = TimeGrid(0.0, 5.0, 101)
        averages = []
        for gamma in (0.5, 2.0, 8.0):
            model, init = make_chain(2, 1.0, 0.0, gamma, 0)
            traj = propagate_lindblad(model, init.rho, grid)
            averages.append(np.abs(traj.coherence(0, 1)).mean())
        assert averages[0] > averages[1] > averages[2]


class TestQuantumRst:
    def test_dimer_matches_lindblad(self):
        model, init = make_chain(2, 1.0, 0.0, 0.0, 0)
        grid = TimeGrid(0.0, 6.0, 61)
        lind = propagate_lindblad(model, init.rho, grid)
        rst = propagate_quantum_rst(model, initial_rst_pure(init.amplitudes), grid)
        diff = np.abs(lind.populations() - rst.populations()).max()
        assert diff < 1e-8

    def test_uncoupled_populations_static(self):
        model = build_aggregate([3.0, 7.0], np.zeros((2, 2)), [0.0, 0.0])
        c0 = np.array([0.6, 0.8], dtype=complex)
        grid = TimeGrid(0.0, 4.0, 41)
        pops = propagate_quantum_rst(model, initial_rst_pure(c0), grid).populations()
        assert np.abs(pops - [0.36, 0.64]).max() < 1e-10

    def test_cross_engine_with_noise(self):
        model = random_model(3, seed=21)
        c0 = np.array([1.0, 1.0j, -0.5]) / np.sqrt(2.25)
        grid = TimeGrid(0.0, 6.0, 31)
        lind = propagate_lindblad(model, pure_density(c0), grid)
        rst = propagate_quantum_rst(model, initial_rst_pure(c0), grid)
        diff = np.abs(lind.rho - rst.rho).max()
        assert diff < 1e-7

    def test_trace_checked(self):
        model, init = make_chain(3, 1.0, 0.0, 0.5, 1)
        grid = TimeGrid(0.0, 3.0, 31)
        traj = propagate_quantum_rst(model, initial_rst_pure(init.amplitudes), grid)
        for rho in traj.rho:
            assert abs(np.trace(rho).real - 1.0) < 1e-8


def corrupt_middle_sample(monkeypatch, edit):
    """Let the engines' propagator output carry one edited sample halfway along the run.

    The Lindblad engine propagates through ``eetsim.quantum``; the quantum
    moment engine shares the moment propagation of ``eetsim.classical``.
    """
    propagate = eetsim.integrate.expm_propagate

    def corrupted(rhs, y0, grid):
        raw = propagate(rhs, y0, grid)
        edit(raw[grid.n_samples // 2])
        return raw

    for module in (eetsim.quantum, eetsim.classical):
        monkeypatch.setattr(module, "expm_propagate", corrupted)


def set_density(rho):
    def edit(row):
        row.view(complex).reshape(2, 2)[:] = rho
    return edit


def set_moments(rho):
    # phase-averaged moments R = S = Re(rho) / 2, T = -Im(rho) / 2 of a real rho
    def edit(row):
        half = 0.5 * np.asarray(rho)
        row[:] = RstState(half, half, np.zeros((2, 2))).pack()
    return lambda monkeypatch: corrupt_middle_sample(monkeypatch, edit)


def skew_moments(monkeypatch):
    """Let the quantum moment engine's stacks carry an asymmetric R halfway along the run.

    The engine shares the packed state and the stack assembly of
    ``eetsim.classical``; RstState must still refuse the sample.
    """
    build = eetsim.classical.RstState

    def skewed(r, s, t):
        # R and S skewed oppositely: sigma stays Hermitian, only the R/S symmetry check sees it
        r, s = np.array(r), np.array(s)
        if r.ndim == 3:
            r[r.shape[0] // 2, 0, 1] += 0.1
            s[s.shape[0] // 2, 0, 1] -= 0.1
        return build(r, s, t)

    monkeypatch.setattr(eetsim.classical, "RstState", skewed)


class TestStackChecks:
    """Every sample of the stack is checked; one bad sample fails the run."""

    @pytest.mark.parametrize("edit,exc_type", [
        (set_density([[0.5, 0.6], [0.0, 0.5]]), ValidationError),
        (set_density(np.diag([1.1, -0.1])), NotPositive),
        (set_density(np.diag([0.6, 0.5])), EetsimError),
    ], ids=["non-hermitian", "negative-eigenvalue", "trace-drift"])
    def test_lindblad_bad_sample(self, monkeypatch, edit, exc_type):
        model, init = make_chain(2, 1.0, 0.0, 0.5, 0)
        corrupt_middle_sample(monkeypatch, edit)
        with pytest.raises(exc_type) as info:
            propagate_lindblad(model, init.rho, TimeGrid(0.0, 1.0, 11))
        assert type(info.value) is exc_type

    @pytest.mark.parametrize("corrupt,exc_type", [
        (skew_moments, ValidationError),
        (set_moments(np.diag([1.1, -0.1])), NotPositive),
        (set_moments(np.diag([0.6, 0.5])), EetsimError),
    ], ids=["asymmetric-r", "negative-eigenvalue", "trace-drift"])
    def test_quantum_rst_bad_sample(self, monkeypatch, corrupt, exc_type):
        model, init = make_chain(2, 1.0, 0.0, 0.5, 0)
        corrupt(monkeypatch)
        with pytest.raises(exc_type) as info:
            propagate_quantum_rst(model, initial_rst_pure(init.amplitudes), TimeGrid(0.0, 1.0, 11))
        assert type(info.value) is exc_type

    def test_stacks_read_only(self):
        model, init = make_chain(3, 1.0, 2.0, 0.5, 1)
        grid = TimeGrid(0.0, 1.0, 11)
        for traj in (propagate_lindblad(model, init.rho, grid),
                     propagate_quantum_rst(model, initial_rst_pure(init.amplitudes), grid)):
            assert traj.rho.shape == (11, 3, 3)
            assert not traj.rho.flags.writeable
