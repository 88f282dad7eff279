import numpy as np
import pytest

import eetsim.stochastic
from eetsim import (
    NoiseSpec,
    TimeGrid,
    assemble_sigma,
    build_aggregate,
    initial_rst_pure,
    make_chain,
    propagate_classical_rst,
    propagate_lindblad,
    run_kubo_ensemble,
    run_sse_ensemble,
)
from eetsim.errors import GridMismatch, ValidationError, ZeroState
from eetsim.integrate import _substeps, resolve_step
from eetsim.stochastic import TrajectoryEnsemble, _deterministic_rhs, _strang_paths, derive_stream


def one_path(kind, model, z0, grid, stream):
    """A single trajectory's (n_samples, N) amplitudes."""
    return _strang_paths(kind, model, z0, grid, [stream])[0]


def accumulate(paths, grid):
    """Fold amplitude paths into an ensemble, in order."""
    ens = TrajectoryEnsemble(grid, np.shape(paths[0])[1])
    for path in paths:
        ens.add_path(path)
    return ens


class TestNoiseSpec:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(gamma=[-0.1], seed=1)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValidationError):
            NoiseSpec(gamma=[0.1, rate], seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(gamma=[0.1], seed=-1)


class TestDeriveStream:
    def test_deterministic(self):
        a = derive_stream(42, 0).standard_normal(1000)
        b = derive_stream(42, 0).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        n = 100_000
        x = derive_stream(42, 0).standard_normal(n)
        y = derive_stream(42, 1).standard_normal(n)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(n)

    def test_distinct_seeds_distinct_streams(self):
        a = derive_stream(42, 3).standard_normal(100)
        b = derive_stream(43, 3).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_independent_of_creation_order(self):
        late = derive_stream(7, 5).standard_normal(64)
        for k in (0, 1, 2, 3, 4):
            derive_stream(7, k)  # unrelated derivations must not matter
        again = derive_stream(7, 5).standard_normal(64)
        assert np.array_equal(late, again)

    def test_blockwise_draws_concatenate(self):
        # the samplers draw noise in segments of the path; equivalence with
        # stepwise draws keeps every segmentation on one stream
        whole = derive_stream(11, 2).standard_normal((20, 3))
        gen = derive_stream(11, 2)
        steps = np.stack([gen.standard_normal(3) for _ in range(20)])
        assert np.array_equal(whole, steps)


class TestSseTrajectory:
    def test_noise_free_reduces_to_rabi(self):
        model, init = make_chain(2, 1.0, 0.0, 0.0, 0)
        grid = TimeGrid(0.0, 3.0, 31)
        path = one_path("sse", model, init.amplitudes, grid, derive_stream(1, 0))
        pops = np.abs(path) ** 2
        assert np.abs(pops[:, 0] - np.cos(grid.times) ** 2).max() < 1e-8

    def test_norm_conserved(self):
        model, init = make_chain(3, 1.0, 4.0, 1.5, 1)
        grid = TimeGrid(0.0, 5.0, 26)
        path = one_path("sse", model, init.amplitudes, grid, derive_stream(2, 7))
        norms = np.sum(np.abs(path) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8 * (grid.t_end - grid.t_start + 1.0)

    def test_mean_amplitude_phase_diffusion(self):
        # single site: <c(t)> decays as exp(-gamma t / 2)
        model = build_aggregate([0.0], np.zeros((1, 1)), [1.0])
        grid = TimeGrid(0.0, 3.0, 13)
        n_traj = 4000
        paths = _strang_paths(
            "sse", model, np.array([1.0 + 0.0j]), grid,
            [derive_stream(5, k) for k in range(n_traj)],
        )
        mean = paths[:, :, 0].mean(axis=0)
        spread = paths[:, :, 0].std(axis=0) / np.sqrt(n_traj)
        expected = np.exp(-0.5 * grid.times)
        assert np.all(np.abs(np.abs(mean) - expected) <= 3.0 * spread + 1e-12)

    def test_zero_state_rejected(self):
        model, _ = make_chain(2, 1.0, 0.0, 0.0, 0)
        noise = NoiseSpec(gamma=model.gamma, seed=0)
        with pytest.raises(ZeroState):
            run_sse_ensemble(model, [0.0, 0.0], TimeGrid(0.0, 1.0, 11), noise, n_traj=2)


class TestKuboTrajectory:
    def test_free_oscillator_phase(self):
        model = build_aggregate([3.0], np.zeros((1, 1)), [0.0])
        grid = TimeGrid(0.0, 4.0, 41)
        path = one_path("kubo", model, [1.0 + 0.0j], grid, derive_stream(3, 0))
        expected = np.exp(-3.0j * grid.times)
        assert np.abs(path[:, 0] - expected).max() < 1e-9

    def test_phase_noise_preserves_modulus(self):
        model = build_aggregate([2.0], np.zeros((1, 1)), [1.0])
        grid = TimeGrid(0.0, 5.0, 26)
        path = one_path("kubo", model, [1.0 + 0.0j], grid, derive_stream(4, 9))
        assert np.abs(np.abs(path[:, 0]) - 1.0).max() < 1e-9

    def test_coupling_breaks_norm(self):
        # the 2 Re(z) coupling makes sum |z|^2 non-conserved
        model, init = make_chain(2, 1.0, 1.0, 0.0, 0)
        grid = TimeGrid(0.0, 3.0, 31)
        path = one_path("kubo", model, init.amplitudes, grid, derive_stream(6, 0))
        norms = np.sum(np.abs(path) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() > 1e-3


class TestStrangMap:
    @pytest.mark.parametrize("kind", ["sse", "kubo"])
    def test_substep_equals_four_call_rk4(self, kind):
        # one substep: RK4 half step, phase kick, RK4 half step, each half
        # step the explicit four-call formula
        model, _ = make_chain(3, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 0.004, 2)
        n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
        assert n_sub == 1
        z0 = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j])
        got = _strang_paths(kind, model, z0, grid, [derive_stream(3, 0)])[0, 1]

        rhs = _deterministic_rhs(model, kind)

        def half_step(z):
            k1 = rhs(z)
            k2 = rhs(z + (0.25 * h) * k1)
            k3 = rhs(z + (0.25 * h) * k2)
            k4 = rhs(z + (0.5 * h) * k3)
            return z + (h / 12.0) * (k1 + 2.0 * (k2 + k3) + k4)

        kick = np.exp(-1j * np.sqrt(h * model.gamma) * derive_stream(3, 0).standard_normal((1, 3))[0])
        expected = half_step(half_step(z0) * kick)
        assert np.abs(got - expected).max() <= 1e-14


class TestAccumulate:
    def grid(self):
        return TimeGrid(0.0, 1.0, 5)

    def test_single_path_mean_is_outer(self):
        rng = np.random.default_rng(0)
        path = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        ens = accumulate([path], self.grid())
        outer = path[:, :, None] * path[:, None, :].conj()
        outer = 0.5 * (outer + np.conj(np.swapaxes(outer, 1, 2)))
        assert np.allclose(ens.mean_bilinear, outer, atol=1e-15)

    def test_identical_paths_zero_error(self):
        rng = np.random.default_rng(1)
        path = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        ens = accumulate([path, path.copy()], self.grid())
        assert np.all(ens.standard_error() == 0.0)

    def test_order_independence(self):
        rng = np.random.default_rng(2)
        paths = [rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)) for _ in range(8)]
        fwd = accumulate(paths, self.grid()).mean_bilinear
        rev = accumulate(paths[::-1], self.grid()).mean_bilinear
        assert np.abs(fwd - rev).max() < 1e-12

    def test_grid_mismatch(self):
        ens = accumulate([np.ones((5, 2), complex)], self.grid())
        with pytest.raises(GridMismatch):
            ens.add_path(np.ones((4, 2), complex))

    def test_standard_error_needs_two(self):
        ens = accumulate([np.ones((5, 2), complex)], self.grid())
        with pytest.raises(ValidationError):
            ens.standard_error()

    def test_clt_scaling(self):
        model, init = make_chain(2, 1.0, 1.0, 1.0, 0)
        grid = TimeGrid(0.0, 1.0, 6)
        noise = NoiseSpec(gamma=model.gamma, seed=31)
        small = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=1000)
        large = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=10_000)
        se_small = small.standard_error()[-1].max()
        se_large = large.standard_error()[-1].max()
        ratio = se_small / se_large
        assert np.sqrt(10.0) / 2.0 < ratio < 2.0 * np.sqrt(10.0)


class TestEnsembleDrivers:
    def test_batched_equals_sequential_sampling(self):
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=55)
        driver = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=6)
        paths = [
            one_path("sse", model, init.amplitudes, grid, derive_stream(55, k))
            for k in range(6)
        ]
        manual = accumulate(paths, grid)
        assert np.abs(driver.mean_bilinear - manual.mean_bilinear).max() < 1e-12

    def test_kubo_batched_equals_phase_drawn_sampling(self):
        # Kubo trajectory k starts from z0 e^{i theta_k}, theta_k being the
        # first draw of stream k; its noise path follows on the same stream
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=57)
        driver = run_kubo_ensemble(model, init.amplitudes, grid, noise, n_traj=6)
        paths = []
        for k in range(6):
            stream = derive_stream(57, k)
            theta = stream.uniform(0.0, 2.0 * np.pi)
            z0 = init.amplitudes * np.exp(1j * theta)
            paths.append(one_path("kubo", model, z0, grid, stream))
        manual = accumulate(paths, grid)
        assert np.abs(driver.mean_bilinear - manual.mean_bilinear).max() < 1e-12

    @pytest.mark.parametrize("segment_bytes", [1, 672, 9600])
    def test_segmented_noise_equals_whole_path(self, monkeypatch, segment_bytes):
        # 40 substeps per interval, batch of 6, 96 bytes of kicks per substep:
        # blocks of 1, 7 (across interval ends) and 100 substeps, against the
        # whole path in one block
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)

        def paths():
            streams = [derive_stream(58, k) for k in range(6)]
            return _strang_paths("sse", model, init.amplitudes, grid, streams)

        whole = paths()
        monkeypatch.setattr(eetsim.stochastic, "_SEGMENT_BYTES", segment_bytes)
        assert np.array_equal(paths(), whole)

    def test_segments_bounded_on_coarse_grid(self, monkeypatch):
        # two sample intervals of 200 substeps each: a block must not grow
        # to a whole interval when the budget holds only 10 substeps
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 3)
        drawn = []

        class Recorder:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, shape, **kwargs):
                drawn.append(shape)
                return self.gen.standard_normal(shape, **kwargs)

        def paths():
            streams = [Recorder(derive_stream(59, k)) for k in range(6)]
            return _strang_paths("sse", model, init.amplitudes, grid, streams)

        whole = paths()
        assert sum(shape[0] for shape in drawn) == 6 * 400
        drawn.clear()
        monkeypatch.setattr(eetsim.stochastic, "_SEGMENT_BYTES", 960)
        assert np.array_equal(paths(), whole)
        assert max(shape[0] for shape in drawn) == 10
        assert sum(shape[0] for shape in drawn) == 6 * 400

    def test_batch_capped_by_path_memory(self, monkeypatch):
        # 11 samples x 2 sites x 16 bytes per path: a 700-byte budget makes
        # batches of 1, 1, 1; the ensemble is unchanged
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=61)
        whole = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=3)
        batches = []
        strang = eetsim.stochastic._strang_paths

        def recorded(kind, model, z0, grid, streams):
            batches.append(len(streams))
            return strang(kind, model, z0, grid, streams)

        monkeypatch.setattr(eetsim.stochastic, "_strang_paths", recorded)
        monkeypatch.setattr(eetsim.stochastic, "_CHUNK_MEMORY_BYTES", 700)
        capped = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=3)
        assert batches == [1, 1, 1]
        assert np.abs(capped.mean_bilinear - whole.mean_bilinear).max() < 1e-12

    def test_reruns_bit_identical(self):
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=56)
        a = run_kubo_ensemble(model, init.amplitudes, grid, noise, n_traj=40)
        b = run_kubo_ensemble(model, init.amplitudes, grid, noise, n_traj=40)
        assert np.array_equal(a.mean_bilinear, b.mean_bilinear)
        assert np.array_equal(a.standard_error(), b.standard_error())

    def test_gamma_mismatch_rejected(self):
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        noise = NoiseSpec(gamma=[0.1, 0.1], seed=1)
        with pytest.raises(ValidationError):
            run_sse_ensemble(model, init.amplitudes, TimeGrid(0.0, 1.0, 6), noise, n_traj=4)

    def test_sse_converges_to_lindblad(self):
        model, init = make_chain(2, 1.0, 1.0, 1.0, 0)
        grid = TimeGrid(0.0, 3.0, 31)
        noise = NoiseSpec(gamma=model.gamma, seed=60)
        ens = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=1500)
        rho = propagate_lindblad(model, init.rho, grid).rho
        err = np.abs(ens.mean_bilinear - rho)
        assert np.all(err <= 5.0 * ens.standard_error() + 1e-9)

    def test_kubo_converges_to_classical(self):
        model, init = make_chain(2, 1.0, 6.0, 1.0, 0)
        grid = TimeGrid(0.0, 3.0, 31)
        noise = NoiseSpec(gamma=model.gamma, seed=61)
        ens = run_kubo_ensemble(model, init.amplitudes, grid, noise, n_traj=1500)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        sigma = assemble_sigma(traj.states)
        err = np.abs(ens.mean_bilinear - sigma)
        assert np.all(err <= 5.0 * ens.standard_error() + 1e-9)
