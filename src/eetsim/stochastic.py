"""Trajectory-level engines: stochastic amplitude paths and their averages.

Both the quantum amplitudes and the classical oscillator amplitudes obey the
same kind of stochastic equation: deterministic coupled evolution plus a
white-noise modulation of each site frequency.  A trajectory is integrated
with Strang splitting: half a deterministic RK4 step, an exactly unitary
per-site phase kick with variance gamma * h, and the second deterministic
half step.  Every sample interval takes the n_sub substeps of width h that
the deterministic engines take too.  The kick average reproduces the
dephasing functional exactly per step, so no separate noise-induced drift
term is (or may be) added.  The deterministic part is linear, so each RK4
half step is applied as one precomputed real 2N x 2N matrix on the (re, im)
view of the amplitudes, the same map for every substep and every trajectory
of a batch; adjacent half steps are not merged, since two half steps of RK4
differ from one full step.

Reproducibility contract: the stream for trajectory ``k`` is derived from
``(master_seed, k)`` alone through a counter-based generator, and every
trajectory consumes its noise in a fixed order, so ensembles are pure
functions of (seed, n_traj, model, grid) regardless of how trajectories are
batched internally.  Kubo trajectory k first draws a global phase theta_k,
uniform on [0, 2 pi), so the ensemble samples the phase-averaged state whose
moments the classical engine propagates: its path is the single-trajectory
path from z0 exp(i theta_k) with stream_k continued.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, ValidationError, ZeroState
from .integrate import TimeGrid, _rk4_map, _substeps, resolve_step
from .model import AggregateModel

_CHUNK_TRAJECTORIES = 1024
#: Bytes of sampled amplitudes one batch holds.
_CHUNK_MEMORY_BYTES = 256_000_000
#: Bytes of phase kicks one batch holds at once.
_SEGMENT_BYTES = 8_000_000


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model for the stochastic engines.

    Delta-correlated real Gaussian frequency noise with per-site rates
    ``gamma``; trajectory streams derive from the non-negative ``seed``.
    """

    gamma: np.ndarray
    seed: int

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float)).copy()
        if not (np.all(np.isfinite(gamma)) and np.all(gamma >= 0.0)):
            raise ValidationError("noise rates must be finite and non-negative")
        if int(self.seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "seed", int(self.seed))


def derive_stream(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Counter-based random stream for one trajectory.

    The stream depends only on ``(master_seed, trajectory_index)``, never on
    how many streams were created before, so trajectories can be computed in
    any order or in parallel and still reproduce bit-for-bit.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(trajectory_index),))
    return np.random.Generator(np.random.Philox(seq))


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array in its own anonymous mapping, unmapped when released.

    The noise block and the paths are an ensemble run's only large buffers.
    Kept out of the C heap, they leave no holes there for later small
    allocations to pin, so peak memory does not depend on heap layout.
    """
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _deterministic_rhs(model: AggregateModel, kind: str):
    """Noise-free amplitude derivative: -i H z for "sse", Kubo's 2 Re(z) coupling otherwise."""
    if kind == "sse":
        h_full = np.diag(model.epsilon).astype(complex) + model.coupling
        return lambda z: -1j * (z @ h_full)
    eps, v = model.epsilon, model.coupling
    return lambda z: -1j * (z * eps) - 2j * (z.real @ v)


def _strang_paths(
    kind: str,
    model: AggregateModel,
    z0: np.ndarray,
    grid: TimeGrid,
    streams: list[np.random.Generator],
) -> np.ndarray:
    """Propagate a batch from z0 of shape (N,) or (batch, N); returns (batch, n_samples, N)."""
    n = model.n_sites
    batch = len(streams)
    n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
    n_steps = n_sub * (grid.n_samples - 1)

    # Noise is drawn for a block of substeps at a time (about _SEGMENT_BYTES,
    # the last block stopping at the path end).  Each trajectory's draws
    # continue its own stream, so the kicks equal those of one whole-path draw.
    block = max(1, _SEGMENT_BYTES // (8 * n * batch))
    phases = _mapped((batch, min(block, n_steps), n), float)
    # Kick widths sqrt(gamma_n h) as a full (block, N) table: scaling by an
    # (N,) row would make numpy's inner loop N long, about 6x slower.
    widths = np.tile(np.sqrt(h * model.gamma), (phases.shape[1], 1))

    # The deterministic part is real-linear in the interleaved (re, im) view
    # of z.  Row j of ``generator`` is the derivative of the j-th real basis
    # vector (which also captures Kubo's Re(z) coupling), so a batch of rows
    # advances by one RK4 half step as y @ P, P being the RK4 polynomial of
    # that matrix for h / 2.
    generator = _deterministic_rhs(model, kind)(np.eye(2 * n).view(complex)).view(float)
    half_step = _rk4_map(generator, 1, 0.5 * h)

    z = np.broadcast_to(np.asarray(z0, dtype=complex), (batch, n)).copy()
    out = _mapped((batch, grid.n_samples, n), complex)
    out[:, 0, :] = z
    step = 0
    for i in range(1, grid.n_samples):
        for _ in range(n_sub):
            if step % block == 0:
                drawn = phases[:, : min(block, n_steps - step)]
                for b, gen in enumerate(streams):
                    gen.standard_normal(drawn.shape[1:], out=drawn[b])
                drawn *= widths[: drawn.shape[1]]
            z = (z.view(float) @ half_step).view(complex)
            z = z * np.exp(-1j * phases[:, step % block, :])
            z = (z.view(float) @ half_step).view(complex)
            step += 1
        out[:, i, :] = z
    return out


class TrajectoryEnsemble:
    """Running average of trajectory bilinears with error estimation.

    Accumulates the outer product path[t] path[t]^H per sample in plain sums:
    10^4 terms of size <= 1 round off by about 1e-13, far below the sampling
    error.  The second-moment sum gives a per-entry standard error of the
    mean (real and imaginary scatter combined).
    """

    def __init__(self, grid: TimeGrid, dimension: int):
        self.grid = grid
        self.dimension = int(dimension)
        shape = (grid.n_samples, self.dimension, self.dimension)
        self.n_traj = 0
        self._sum = np.zeros(shape, dtype=complex)
        self._sq = np.zeros(shape)

    def add_path(self, path: np.ndarray) -> None:
        """Fold one (n_samples, N) amplitude path into the running sums."""
        p = np.asarray(path, dtype=complex)
        if p.shape != (self.grid.n_samples, self.dimension):
            raise GridMismatch(
                f"path shape {p.shape} does not match ensemble grid "
                f"({self.grid.n_samples}, {self.dimension})"
            )
        outer = p[:, :, None] * p[:, None, :].conj()
        self._sum += outer
        self._sq += outer.real**2 + outer.imag**2
        self.n_traj += 1

    @property
    def mean_bilinear(self) -> np.ndarray:
        """Hermitized ensemble mean of the bilinears, (n_samples, N, N)."""
        if self.n_traj == 0:
            raise ValidationError("empty ensemble")
        mean = self._sum / self.n_traj
        return 0.5 * (mean + np.conj(np.swapaxes(mean, 1, 2)))

    def standard_error(self) -> np.ndarray:
        """Per-entry standard error of the mean; needs at least 2 paths."""
        if self.n_traj < 2:
            raise ValidationError("standard error needs at least two trajectories")
        mean = self._sum / self.n_traj
        var = (self._sq - self.n_traj * (mean.real**2 + mean.imag**2)) / (self.n_traj - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.n_traj)


def _run_ensemble(kind, model, z0, grid, noise: NoiseSpec, n_traj: int) -> TrajectoryEnsemble:
    if n_traj < 1:
        raise ValidationError("n_traj must be positive")
    if noise.gamma.shape != model.gamma.shape or not np.allclose(noise.gamma, model.gamma):
        raise ValidationError("noise rates must match the model dephasing rates")
    z = np.asarray(z0, dtype=complex)
    if z.ndim != 1 or z.shape[0] != model.n_sites:
        raise DimensionMismatch(
            f"amplitude vector shape {z.shape} does not match model dimension {model.n_sites}"
        )
    if not 0.0 < float(np.vdot(z, z).real) < np.inf:
        raise ZeroState("amplitude vector has zero or non-finite norm")
    per_traj = grid.n_samples * model.n_sites * 16
    chunk = min(_CHUNK_TRAJECTORIES, max(1, _CHUNK_MEMORY_BYTES // per_traj))
    ens = TrajectoryEnsemble(grid, model.n_sites)
    for start in range(0, n_traj, chunk):
        idx = range(start, min(start + chunk, n_traj))
        streams = [derive_stream(noise.seed, k) for k in idx]
        starts = z
        if kind == "kubo":  # phase-averaged start: theta_k is stream k's first draw
            starts = z * np.exp(1j * np.array([g.uniform(0.0, 2.0 * np.pi) for g in streams]))[:, None]
        paths = _strang_paths(kind, model, starts, grid, streams)
        for b in range(paths.shape[0]):
            ens.add_path(paths[b])
    return ens


def run_sse_ensemble(model, c0, grid, noise: NoiseSpec, n_traj: int = 10_000) -> TrajectoryEnsemble:
    """Ensemble of stochastic wavefunction trajectories; mean estimates rho."""
    return _run_ensemble("sse", model, c0, grid, noise, n_traj)


def run_kubo_ensemble(model, z0, grid, noise: NoiseSpec, n_traj: int = 10_000) -> TrajectoryEnsemble:
    """Ensemble of classical oscillator trajectories from z0 e^{i theta_k}; mean estimates sigma."""
    return _run_ensemble("kubo", model, z0, grid, noise, n_traj)
