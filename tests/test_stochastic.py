import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

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
from eetsim._seeding import streams as batch_streams
from eetsim.errors import DimensionMismatch, GridMismatch, ValidationError, ZeroState
from eetsim.integrate import _substeps, resolve_step
from eetsim.stochastic import TrajectoryEnsemble, _strang_samples, derive_stream


def amplitude_rhs(model, kind):
    """Noise-free derivative of (batch, N) amplitude rows.

    z' = -i H z for "sse"; z' = -i eps z - i V (z + z*) for "kubo", whose
    -i V z* is the counter-rotating term.
    """
    eps, v = model.epsilon, model.coupling
    if kind == "sse":
        return lambda z: -1j * (z * eps + z @ v)
    return lambda z: -1j * (z * eps + (z + z.conj()) @ v)


def strang_samples(kind, model, z0, grid, streams):
    """A batch's amplitudes stacked as (n_samples, batch, N)."""
    return np.stack(list(_strang_samples(kind, model, z0, grid, streams)))


def one_path(kind, model, z0, grid, stream):
    """A single trajectory's (n_samples, N) amplitudes."""
    return strang_samples(kind, model, z0, grid, [stream])[:, 0]


def accumulate(paths, grid):
    """Fold amplitude paths into an ensemble one at a time, in order."""
    ens = TrajectoryEnsemble(grid, np.shape(paths[0])[1])
    for path in paths:
        ens.add_batch(np.asarray(path)[:, None, :])
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


def oracle_stream(seed, k):
    """Trajectory k's stream derived by numpy's SeedSequence, one trajectory at a time."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))


class TestBatchKeys:
    """A batch's Philox keys come from one vectorized pass of numpy's SeedSequence
    algorithm; every stream must be the one SeedSequence derives.  Indices of
    2^32 and more take two words, seeds of 2^64 and more three to five."""

    SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3]
    INDICES = [0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**40]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", INDICES)
    def test_key_equals_seed_sequence(self, seed, k):
        got = derive_stream(seed, k).bit_generator.state["state"]
        expected = oracle_stream(seed, k).bit_generator.state["state"]
        assert np.array_equal(got["key"], expected["key"])
        assert np.array_equal(got["counter"], expected["counter"])

    @pytest.mark.parametrize("indices", [range(0, 1024), range(1000, 1030), range(2**32 - 3, 2**32 + 3)],
                             ids=["full-batch", "second-batch-edge", "across-two-words"])
    def test_batch_equals_one_at_a_time(self, indices):
        batch = batch_streams(1234, indices)
        assert len(batch) == len(indices)
        for k in (indices[0], indices[len(indices) // 2], indices[-1]):
            got, one = batch[k - indices.start], derive_stream(1234, k)
            assert got.uniform(0.0, 2.0 * np.pi) == one.uniform(0.0, 2.0 * np.pi)
            assert np.array_equal(got.standard_normal(1000), one.standard_normal(1000))
        for k, got in zip(indices, batch):
            assert np.array_equal(got.bit_generator.state["state"]["key"],
                                  oracle_stream(1234, k).bit_generator.state["state"]["key"])

    @pytest.mark.parametrize("seed,k", [(5, 3), (2**64 + 7, 2**40)])
    def test_spawn_equals_seed_sequence_children(self, seed, k):
        stream = derive_stream(seed, k)
        children = np.random.SeedSequence(seed, spawn_key=(k,)).spawn(3)
        for got, expected in zip(stream.spawn(2) + stream.spawn(1), children):
            expected = np.random.Generator(np.random.Philox(expected))
            assert np.array_equal(got.standard_normal(8), expected.standard_normal(8))

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs about 10 ms and 6 MiB at import; runs that draw
        # no noise (every deterministic engine) must not pay for it
        src = str(Path(eetsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = "import sys, eetsim.cli; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


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
        samples = strang_samples(
            "sse", model, np.array([1.0 + 0.0j]), grid,
            [derive_stream(5, k) for k in range(n_traj)],
        )
        mean = samples[:, :, 0].mean(axis=1)
        spread = samples[:, :, 0].std(axis=1) / np.sqrt(n_traj)
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
    def test_flows_exponentiate_the_amplitude_derivative(self, kind, monkeypatch):
        # the generator taken from the model's drift is, entry for entry, the
        # amplitude derivative probed on the interleaved (re, im) basis rows
        rng = np.random.default_rng(8)
        v = np.triu(rng.normal(size=(4, 4)), 1)  # every pair coupled, not only neighbours
        model = build_aggregate(10.0 + 3.0 * rng.normal(size=4), v + v.T, [0.5, 1.0, 0.2, 2.0])
        grid = TimeGrid(0.0, 0.05, 3)
        _, h = _substeps(grid.spacing, resolve_step(model, grid))
        exponentiated, expm = [], eetsim.stochastic._expm

        def recording_expm(a):
            exponentiated.append(a.copy())
            return expm(a)

        monkeypatch.setattr(eetsim.stochastic, "_expm", recording_expm)
        strang_samples(kind, model, np.ones(4, dtype=complex), grid, [derive_stream(1, 0)])

        generator = amplitude_rhs(model, kind)(np.eye(8).view(complex)).view(float)
        assert len(exponentiated) == 2
        assert np.array_equal(exponentiated[0], 0.5 * h * generator)
        assert np.array_equal(exponentiated[1], h * generator)

    @pytest.mark.parametrize("kind", ["sse", "kubo"])
    def test_substep_equals_exact_flow(self, kind):
        # one substep: exact half step, phase kick, exact half step, each half
        # step scipy's e^{G h/2} of the probed real 2N x 2N generator
        model, _ = make_chain(3, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 0.004, 2)
        n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
        assert n_sub == 1
        z0 = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j])
        got = strang_samples(kind, model, z0, grid, [derive_stream(3, 0)])[1, 0]

        generator = amplitude_rhs(model, kind)(np.eye(6).view(complex)).view(float)
        flow = scipy.linalg.expm(0.5 * h * generator)

        def half_step(z):
            return (z.view(float) @ flow).view(complex)

        kick = np.exp(-1j * np.sqrt(h * model.gamma) * derive_stream(3, 0).standard_normal((1, 3))[0])
        expected = half_step(half_step(z0) * kick)
        assert np.abs(got - expected).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["sse", "kubo"])
    def test_interval_equals_merged_exact_flows(self, kind):
        # three substeps: e^{G h/2} K_1 e^{G h} K_2 e^{G h} K_3 e^{G h/2}, the
        # interior half steps merged, each flow scipy's exponential of the
        # probed real 2N x 2N generator
        model, _ = make_chain(3, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 0.012, 2)
        n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
        assert n_sub == 3
        z0 = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.7 - 0.4j])
        got = strang_samples(kind, model, z0, grid, [derive_stream(3, 0)])[1, 0]

        generator = amplitude_rhs(model, kind)(np.eye(6).view(complex)).view(float)
        half, full = scipy.linalg.expm(0.5 * h * generator), scipy.linalg.expm(h * generator)

        def flow(z, m):
            return (z.view(float) @ m).view(complex)

        kicks = np.exp(-1j * np.sqrt(h * model.gamma) * derive_stream(3, 0).standard_normal((3, 3)))
        z = flow(z0, half) * kicks[0]
        for kick in kicks[1:]:
            z = flow(z, full) * kick
        assert np.abs(got - flow(z, half)).max() <= 1e-14


def exponential_kick_samples(kind, model, z0, grid, streams):
    """Reference stepper: each trajectory's whole noise path in one draw, each
    kick np.exp(-1j * phase) of its (batch, N) slice, flows as in the engine.

    Returns the kick phases (batch, n_steps, N) and the samples (n_samples, batch, N).
    """
    n = model.n_sites
    n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
    n_steps = n_sub * (grid.n_samples - 1)
    generator = amplitude_rhs(model, kind)(np.eye(2 * n).view(complex)).view(float)
    half = eetsim.stochastic._expm(0.5 * h * generator)
    full = eetsim.stochastic._expm(h * generator)
    phases = np.stack([gen.standard_normal((n_steps, n)) for gen in streams]) * np.sqrt(h * model.gamma)
    z = np.broadcast_to(np.asarray(z0, dtype=complex), (len(streams), n)).copy()
    out, flow = [z], half
    for step in range(n_steps):
        z = (z.view(float) @ flow).view(complex)
        z *= np.exp(-1j * phases[:, step])
        flow = full
        if (step + 1) % n_sub == 0:
            out.append((z.view(float) @ half).view(complex))
    return phases, np.stack(out)


class TestKickTable:
    """The engine evaluates kicks as cos and sin of the negated phases, a
    sub-block of substeps at a time, instead of np.exp(-1j * phase) per
    substep.  With a dimer batch of 6 (96 bytes of phases a substep) and
    40 substeps per interval, a budget of B bytes gives sub-blocks of
    sub = B // 3072 substeps (at least 1) and noise blocks of
    (B - 288 sub) // 96, the table and its step-major scratch taking 288
    bytes a substep; sub-blocks restart at each noise block."""

    @pytest.mark.parametrize("segment_bytes", [1, 960, 9504, 9600, 22368, 25344, 8_000_000], ids=[
        "sub1-block1",  # every substep its own noise block and sub-block
        "sub1-block10",  # budget below one table substep: a one-row table beside the block
        "sub3-block90",  # sub-blocks run across sample times, edges on the block edges
        "sub3-block91",  # each block's last sub-block cut to 1 at the block edge
        "sub7-block212",  # cut to 2 at block edges, across sample times inside blocks
        "sub8-block240",  # sub-block edges on every sample time and block edge
        "one-sub-block",  # the 400-substep path is shorter than one sub-block
    ])
    @pytest.mark.parametrize("kind", ["sse", "kubo"])
    def test_equals_exponential_kicks(self, monkeypatch, kind, segment_bytes):
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        self.check(monkeypatch, kind, model, init.amplitudes, grid, segment_bytes)

    @pytest.mark.parametrize("segment_bytes", [1, 18432, 8_000_000])
    def test_equals_exponential_kicks_with_a_noiseless_site(self, monkeypatch, segment_bytes):
        # a zero rate makes signed-zero phases; two intervals of 30 substeps
        # against sub-blocks of 1, 4 (across the sample time) and 1736
        model = build_aggregate([1.0, -2.0, 0.5], [[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]], [0.7, 0.0, 2.0])
        grid = TimeGrid(0.0, 0.2, 3)
        self.check(monkeypatch, "sse", model, np.array([0.6, 0.8j, 0.0]), grid, segment_bytes)

    @staticmethod
    def check(monkeypatch, kind, model, z0, grid, segment_bytes):
        phases, expected = exponential_kick_samples(
            kind, model, z0, grid, [derive_stream(63, k) for k in range(6)])
        monkeypatch.setattr(eetsim.stochastic, "_SEGMENT_BYTES", segment_bytes)
        got = strang_samples(kind, model, z0, grid, [derive_stream(63, k) for k in range(6)])
        # numpy 2.4's cos and sin reproduce np.exp(-1j * phi) bit for bit on
        # x86-64 with glibc; a platform whose trig differs may move a kick by
        # 1 ulp (and the path by as many ulps as it has kicks), never more
        kicks = np.exp(-1j * phases)
        gap = max(np.testing.assert_array_max_ulp(np.cos(-phases), kicks.real, maxulp=1).max(),
                  np.testing.assert_array_max_ulp(np.sin(-phases), kicks.imag, maxulp=1).max())
        if gap == 0:
            assert np.array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= phases.shape[1] * 4 * np.finfo(float).eps


def strang_second_moment(kind, model, y0, grid):
    """Exact ensemble mean of z z^H under the Strang scheme at each grid time, with no sampling.

    The state is Y = E[y^T y] of the interleaved (re, im) row y of z, started
    from ``y0`` (2N x 2N).  A flow y <- y M maps Y to M^T Y M.  A kick rotates
    site n's (re, im) pair by an angle of variance gamma_n h, whose mean
    factor is e^{-gamma_n h / 2} and whose double-angle factor is
    e^{-2 gamma_n h}: the kick average scales the off-diagonal site blocks by
    e^{-(gamma_n + gamma_m) h / 2} and each diagonal block's traceless part
    by e^{-2 gamma_n h}.  Each substep is half flow, kick average, half flow.
    """
    n = model.n_sites
    n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
    generator = amplitude_rhs(model, kind)(np.eye(2 * n).view(complex)).view(float)
    half = scipy.linalg.expm(0.5 * h * generator)
    decay = np.repeat(np.exp(-0.5 * h * model.gamma), 2)
    off_diagonal = np.outer(decay, decay)
    traceless = np.exp(-2.0 * h * model.gamma)

    def kick_average(y):
        blocks = [y[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(n)]
        y = y * off_diagonal
        for k, block in enumerate(blocks):
            mean = 0.5 * np.trace(block) * np.eye(2)
            y[2 * k:2 * k + 2, 2 * k:2 * k + 2] = mean + traceless[k] * (block - mean)
        return y

    y = np.array(y0, dtype=float)
    out = [y]
    for _ in range(grid.n_samples - 1):
        for _ in range(n_sub):
            y = half.T @ kick_average(half.T @ y @ half) @ half
        out.append(y)
    out = np.array(out)
    re, im = out[:, 0::2], out[:, 1::2]
    return re[:, :, 0::2] + im[:, :, 1::2] + 1j * (im[:, :, 0::2] - re[:, :, 1::2])


def bias_cases():
    """Dimers at eps = 10 and 40, and a 6-chain at eps = 10 with site disorder of sd = 3 and 10 V."""
    dimers = [make_chain(2, 1.0, eps, 1.0, 0) for eps in (10.0, 40.0)]
    model, init = make_chain(6, 1.0, 10.0, 1.0, 0)
    disorder = np.random.default_rng(5).normal(size=6)
    chains = [
        (build_aggregate(model.epsilon + sd * disorder, model.coupling, model.gamma), init)
        for sd in (3.0, 10.0)
    ]
    return dimers + chains


class TestStrangBias:
    """The splitting's bias at the default step, computed exactly: the second
    moment the ensembles estimate against the master equations they unravel.
    At sd = 10 one site energy is negative and the Kubo sigma grows to a
    trace of about 250."""

    @pytest.mark.parametrize("model,init", bias_cases(),
                             ids=["dimer-eps10", "dimer-eps40", "chain6-sd3", "chain6-sd10"])
    @pytest.mark.parametrize("kind", ["sse", "kubo"])
    def test_bias_below_bound(self, kind, model, init):
        grid = TimeGrid(0.0, 5.0, 101)
        y0 = init.amplitudes.astype(complex).view(float)
        if kind == "sse":
            exact = propagate_lindblad(model, init.rho, grid).rho
            moment = strang_second_moment(kind, model, np.outer(y0, y0), grid)
        else:
            # the phase-averaged start: the average over theta in {0, pi/2}
            # keeps exactly the part of y0^T y0 that is invariant under a
            # global phase rotation
            y1 = (1j * init.amplitudes.astype(complex)).view(float)
            rst = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
            exact = assemble_sigma(rst.states)
            moment = strang_second_moment(kind, model, 0.5 * (np.outer(y0, y0) + np.outer(y1, y1)), grid)
        assert np.abs(moment - exact).max() < 1e-5


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
            ens.add_batch(np.ones((4, 1, 2), complex))

    @pytest.mark.parametrize("samples", [
        np.ones((4, 3, 2), complex),  # too few samples
        np.ones((6, 3, 2), complex),  # too many samples
        np.ones((5, 3, 3), complex),  # wrong N
        np.ones((5, 3), complex),  # no batch axis
        [np.ones((3, 2), complex)] * 4 + [np.ones((2, 2), complex)],  # batch changes
    ], ids=["few", "many", "dimension", "unbatched", "ragged"])
    def test_mismatch_leaves_ensemble_as_it_was(self, samples):
        ens = accumulate([np.ones((5, 2), complex)], self.grid())
        before = ens.mean_bilinear.copy()
        with pytest.raises(GridMismatch):
            ens.add_batch(samples)
        assert ens.n_traj == 1
        assert np.array_equal(ens.mean_bilinear, before)

    def test_one_batch_equals_one_at_a_time(self):
        # the fold of a whole batch adds the trajectories in the same order as
        # folding them one by one, so both sums agree to the last bit
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(5, 7, 3)) + 1j * rng.normal(size=(5, 7, 3))
        batched = TrajectoryEnsemble(self.grid(), 3)
        batched.add_batch(samples)
        single = accumulate(list(np.swapaxes(samples, 0, 1)), self.grid())
        assert batched.n_traj == single.n_traj == 7
        assert np.array_equal(batched.mean_bilinear, single.mean_bilinear)
        assert np.array_equal(batched.standard_error(), single.standard_error())

    def test_empty_ensemble_has_no_mean(self):
        with pytest.raises(ValidationError, match="empty ensemble"):
            TrajectoryEnsemble(self.grid(), 2).mean_bilinear

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
        # blocks of 1, 7 (across interval ends) and 91 substeps, against the
        # whole path in one block
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)

        def paths():
            streams = [derive_stream(58, k) for k in range(6)]
            return strang_samples("sse", model, init.amplitudes, grid, streams)

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
            return strang_samples("sse", model, init.amplitudes, grid, streams)

        whole = paths()
        assert sum(shape[0] for shape in drawn) == 6 * 400
        drawn.clear()
        monkeypatch.setattr(eetsim.stochastic, "_SEGMENT_BYTES", 960)
        assert np.array_equal(paths(), whole)
        assert max(shape[0] for shape in drawn) == 10
        assert sum(shape[0] for shape in drawn) == 6 * 400

    def test_batch_capped_by_fold_memory(self, monkeypatch):
        # 2 x 2 outer products x 16 bytes per trajectory: a 100-byte budget
        # makes batches of 1, 1, 1; the ensemble is unchanged
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=61)
        whole = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=3)
        batches = []
        strang = eetsim.stochastic._strang_samples

        def recorded(kind, model, z0, grid, streams):
            batches.append(len(streams))
            return strang(kind, model, z0, grid, streams)

        monkeypatch.setattr(eetsim.stochastic, "_strang_samples", recorded)
        monkeypatch.setattr(eetsim.stochastic, "_CHUNK_MEMORY_BYTES", 100)
        capped = run_sse_ensemble(model, init.amplitudes, grid, noise, n_traj=3)
        assert batches == [1, 1, 1]
        assert np.abs(capped.mean_bilinear - whole.mean_bilinear).max() < 1e-12

    @pytest.mark.parametrize("run", [run_sse_ensemble, run_kubo_ensemble])
    def test_no_buffer_spans_the_samples(self, monkeypatch, run):
        # 10 intervals of 40 substeps, batches of 3, 3 and 1: each batch maps
        # only its (batch, 400 substeps, 2 sites) noise block, no buffer with
        # a sample axis
        model, init = make_chain(2, 1.0, 2.0, 0.8, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        noise = NoiseSpec(gamma=model.gamma, seed=62)
        shapes = []
        mapped = eetsim.stochastic._mapped

        def recorded(shape, dtype):
            shapes.append(tuple(shape))
            return mapped(shape, dtype)

        monkeypatch.setattr(eetsim.stochastic, "_mapped", recorded)
        monkeypatch.setattr(eetsim.stochastic, "_CHUNK_TRAJECTORIES", 3)
        run(model, init.amplitudes, grid, noise, n_traj=7)
        assert shapes == [(3, 400, 2), (3, 400, 2), (1, 400, 2)]

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

    @pytest.mark.parametrize("amplitudes,n_traj,exc_type,message", [
        ([1.0, 0.0], 0, ValidationError, "n_traj must be positive"),
        ([1.0, 0.0, 0.0], 4, DimensionMismatch, "amplitude vector shape (3,) does not match model dimension 2"),
    ], ids=["no-trajectory", "three-amplitudes-on-dimer"])
    def test_bad_ensemble_arguments_rejected(self, amplitudes, n_traj, exc_type, message):
        model, _ = make_chain(2, 1.0, 2.0, 0.8, 0)
        noise = NoiseSpec(gamma=model.gamma, seed=1)
        with pytest.raises(exc_type, match=re.escape(message)) as info:
            run_sse_ensemble(model, amplitudes, TimeGrid(0.0, 1.0, 6), noise, n_traj=n_traj)
        assert type(info.value) is exc_type

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
