"""Trajectory-level engines: stochastic amplitude trajectories and their averages.

Both the quantum amplitudes and the classical oscillator amplitudes obey the
same kind of stochastic equation: deterministic coupled evolution plus a
white-noise modulation of each site frequency.  A trajectory is integrated
with Strang splitting: the exact deterministic flow over half a step, an
exactly unitary per-site phase kick with variance gamma * h, and the second
deterministic half step.  Every sample interval takes the n_sub substeps of
width h of the step rule in :mod:`eetsim.integrate`, whose step follows the
spread of eps, gamma and 2 |V|: the on-site rotation commutes with the kicks,
so a uniform eps does not narrow it.  The kick average reproduces the
dephasing functional exactly per step, so no separate noise-induced drift
term is (or may be) added.  The deterministic part is the drift A of the
moment equation in :mod:`eetsim.classical`; its flows e^{G t}, G being A on
the (re, im) view of z, serve every substep and trajectory of a batch.  Exact
flows compose, so an interval is e^{G h/2} K_1 e^{G h} ... e^{G h} K_n
e^{G h/2}: one product per kick, and one more per sample.  A kick e^{-i phi}
is evaluated as cos(-phi) + i sin(-phi), for a cache-sized sub-block of
substeps at a time; with numpy 2.4 on x86-64 these reproduce numpy's complex
exponential bit for bit.  A batch is folded into the ensemble sums at each
sample time as it steps; no path is stored.

Reproducibility contract: the stream for trajectory ``k`` is derived from
``(master_seed, k)`` alone through a counter-based generator, and every
trajectory consumes its noise in a fixed order, so trajectories do not
depend on how they are batched, and batching moves an ensemble, a pure
function of (seed, n_traj, model, grid), only by rounding in its sums.  The
stream is Philox keyed as by ``SeedSequence(master_seed, spawn_key=(k,))``;
a batch's keys come from one numpy pass of SeedSequence's hashing over all
its indices (:mod:`eetsim._seeding`), the same keys bit for bit.  Kubo
trajectory k first draws a global phase theta_k, uniform on [0, 2 pi), so
the ensemble samples the phase-averaged state whose moments the classical
engine propagates: its path is the single-trajectory path from
z0 exp(i theta_k) with stream_k continued.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, ValidationError, ZeroState
from .integrate import TimeGrid, _expm, _substeps, resolve_step
from .model import AggregateModel, _drift

_CHUNK_TRAJECTORIES = 1024
#: Bytes of one sample's outer products a batch forms at once (16 N^2 per trajectory).
_CHUNK_MEMORY_BYTES = 256_000_000
#: Bytes of kick angles, and of their cos/sin table and its scratch, one batch holds at once.
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
    any order or in parallel and still reproduce bit-for-bit.  It is
    ``Generator(Philox(SeedSequence(master_seed, spawn_key=(trajectory_index,))))``,
    built as written: for one stream numpy's own hashing is faster than the
    batch pass of :func:`eetsim._seeding.streams`, which gives the same keys.
    """
    sequence = np.random.SeedSequence(int(master_seed), spawn_key=(int(trajectory_index),))
    return np.random.Generator(np.random.Philox(sequence))


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array in its own anonymous mapping, unmapped when released.

    The noise block is an ensemble run's only large long-lived buffer.  Kept
    out of the C heap, it leaves no hole there for later small allocations to
    pin, so peak memory does not depend on heap layout.
    """
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _strang_samples(
    kind: str,
    model: AggregateModel,
    z0: np.ndarray,
    grid: TimeGrid,
    streams: list[np.random.Generator],
) -> Iterator[np.ndarray]:
    """Step a batch from z0, (N,) or (batch, N); yields its (batch, N) amplitudes at each grid time."""
    n = model.n_sites
    batch = len(streams)
    n_sub, h = _substeps(grid.spacing, resolve_step(model, grid))
    n_steps = n_sub * (grid.n_samples - 1)

    # Noise is drawn for a block of substeps at a time (about _SEGMENT_BYTES,
    # the last block stopping at the path end).  Each trajectory's draws
    # continue its own stream, so the kicks equal those of one whole-path draw.
    # The block holds the kick angles -sqrt(gamma_n h) xi; their kicks are
    # evaluated as cos + i sin a sub-block of `sub` substeps at a time into
    # `table`, step-major so that each substep multiplies by a contiguous
    # (batch, N) row: the sub-block's angles are first copied step-major into
    # `scratch`, a trajectory's N angles as one item.  The table's sixteenth
    # of the budget and the scratch's thirty-second come out of the block's
    # share and keep both in cache from the trig to the substeps that read
    # them; where a thirty-second holds no substep, each is one substep
    # beside the block, the size of the per-kick temporaries they replace.
    row = 8 * n * batch
    sub = _SEGMENT_BYTES // (32 * row)
    block = max(1, (_SEGMENT_BYTES - 3 * row * sub) // row)
    sub = max(1, sub)
    phases = _mapped((batch, min(block, n_steps), n), float)
    table = np.empty((min(sub, n_steps), batch, n), dtype=complex)
    scratch = np.empty(table.shape)
    item = np.dtype((np.void, 8 * n))
    steps = scratch.view(item)[..., 0]
    # The angles' widths as a full (block, N) table: scaling by an (N,) row
    # would make numpy's inner loop N long, about 6x slower.
    widths = np.tile(-np.sqrt(h * model.gamma), (phases.shape[1], 1))

    # The model's drift A acts on u = (x, p); a batch row y = z.view(float)
    # interleaves (re, im) site by site, so G[(j, d), (i, c)] = A[(c, i), (d, j)]
    # and the rows advance by the exact flow over t as y @ e^{G t}.
    generator = _drift(model, kind == "sse").reshape(2, n, 2, n).transpose(3, 2, 1, 0).reshape(2 * n, 2 * n)
    half_step = _expm(0.5 * h * generator)
    full_step = _expm(h * generator)

    # Exact flows compose, so the two half steps between adjacent kicks are one
    # e^{G h}: z is kept just past its last kick, the first kick is preceded by
    # a half step and every later one by a full step, and each sample is z
    # carried the remaining half step to the grid time.  Sub-blocks restart at
    # every noise block and run across sample times.
    z = np.broadcast_to(np.asarray(z0, dtype=complex), (batch, n)).copy()
    yield z
    flow = half_step
    step = 0
    for _ in range(grid.n_samples - 1):
        for _ in range(n_sub):
            offset = step % block
            if offset == 0:
                drawn = phases[:, : min(block, n_steps - step)]
                for b, gen in enumerate(streams):
                    gen.standard_normal(drawn.shape[1:], out=drawn[b])
                drawn *= widths[: drawn.shape[1]]
                paths = drawn.view(item)[..., 0]
            if offset % sub == 0:
                angles = paths[:, offset : offset + sub]
                count = angles.shape[1]
                steps[:count] = angles.T
                np.cos(scratch[:count], out=table[:count].real)
                np.sin(scratch[:count], out=table[:count].imag)
            z = (z.view(float) @ flow).view(complex)
            z *= table[offset % sub]
            flow = full_step
            step += 1
        yield (z.view(float) @ half_step).view(complex)


class TrajectoryEnsemble:
    """Running average of trajectory bilinears with error estimation.

    Accumulates the outer products z z^H of each sample time in plain sums:
    10^4 terms of size <= 1 round off by about 1e-13, far below the sampling
    error.  The second-moment sum, from the same products, gives a per-entry
    standard error of the mean (real and imaginary scatter combined).
    """

    def __init__(self, grid: TimeGrid, dimension: int):
        self.grid = grid
        self.dimension = int(dimension)
        shape = (grid.n_samples, self.dimension, self.dimension)
        self.n_traj = 0
        self._sum = np.zeros(shape, dtype=complex)
        self._sq = np.zeros(shape)

    def add_batch(self, samples: Iterable[np.ndarray]) -> None:
        """Fold a batch given as its (batch, N) amplitudes at each grid time, in order.

        ``samples`` is the ensembles' stepping generator or a stacked
        (n_samples, batch, N) array.  On a mismatch with the grid the ensemble
        is left as it was.
        """
        sums, squares = np.zeros_like(self._sum), np.zeros_like(self._sq)
        shape, count = None, 0
        for z in samples:
            z = np.asarray(z, dtype=complex)
            shape = shape or z.shape[:1] + (self.dimension,)
            if z.shape != shape or count == len(sums):
                raise GridMismatch(f"sample {count} of shape {z.shape} does not fit {len(sums)} of {shape}")
            outer = z[:, :, None] * z[:, None, :].conj()
            outer.sum(0, out=sums[count])
            (outer.real**2 + outer.imag**2).sum(0, out=squares[count])
            count += 1
        if count != len(sums):
            raise GridMismatch(f"{count} samples do not match the ensemble grid's {len(sums)}")
        self._sum += sums
        self._sq += squares
        self.n_traj += shape[0]

    @property
    def mean_bilinear(self) -> np.ndarray:
        """Hermitized ensemble mean of the bilinears, (n_samples, N, N)."""
        if self.n_traj == 0:
            raise ValidationError("empty ensemble")
        mean = self._sum / self.n_traj
        return 0.5 * (mean + np.conj(np.swapaxes(mean, 1, 2)))

    def standard_error(self) -> np.ndarray:
        """Per-entry standard error of the mean; needs at least 2 trajectories."""
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
    chunk = min(_CHUNK_TRAJECTORIES, max(1, _CHUNK_MEMORY_BYTES // (16 * model.n_sites**2)))
    # imported here, with numpy.random (about 10 ms and 6 MiB), so runs that draw no noise skip it
    from ._seeding import streams as derive_streams

    ens = TrajectoryEnsemble(grid, model.n_sites)
    for start in range(0, n_traj, chunk):
        streams = derive_streams(noise.seed, range(start, min(start + chunk, n_traj)))
        starts = z
        if kind == "kubo":  # phase-averaged start: theta_k is stream k's first draw
            starts = z * np.exp(1j * np.array([g.uniform(0.0, 2.0 * np.pi) for g in streams]))[:, None]
        ens.add_batch(_strang_samples(kind, model, starts, grid, streams))
    return ens


def run_sse_ensemble(model, c0, grid, noise: NoiseSpec, n_traj: int = 10_000) -> TrajectoryEnsemble:
    """Ensemble of stochastic wavefunction trajectories; mean estimates rho."""
    return _run_ensemble("sse", model, c0, grid, noise, n_traj)


def run_kubo_ensemble(model, z0, grid, noise: NoiseSpec, n_traj: int = 10_000) -> TrajectoryEnsemble:
    """Ensemble of classical oscillator trajectories from z0 e^{i theta_k}; mean estimates sigma."""
    return _run_ensemble("kubo", model, z0, grid, noise, n_traj)
