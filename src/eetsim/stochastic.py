"""Trajectory-level engines: stochastic amplitude paths and their averages.

Both the quantum amplitudes and the classical oscillator amplitudes obey the
same kind of stochastic equation: deterministic coupled evolution plus a
white-noise modulation of each site frequency.  A trajectory is integrated
with Strang splitting: half a deterministic RK4 step, an exactly unitary
per-site phase kick with variance gamma * dt, and the second deterministic
half step.  The kick average reproduces the dephasing functional exactly per
step, so no separate noise-induced drift term is (or may be) added.  The
deterministic part is linear, so each RK4 half step is applied as one
precomputed real 2N x 2N matrix on the (re, im) view of the amplitudes, the
same map for every trajectory of a batch; adjacent half steps are not merged,
since two half steps of RK4 differ from one full step.

Reproducibility contract: the stream for trajectory ``k`` is derived from
``(master_seed, k)`` alone through a counter-based generator, and every
trajectory consumes its noise in a fixed order, so ensembles are pure
functions of (seed, n_traj, model, grid) regardless of how trajectories are
batched internally.  Kubo trajectory k first draws a global phase theta_k,
uniform on [0, 2 pi), so the ensemble samples the phase-averaged state whose
moments the classical engine propagates: it equals ``sample_kubo_trajectory(
model, z0 * exp(1j * theta_k), grid, stream_k)`` with stream_k continued.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMismatch,
    ValidationError,
    ZeroState,
)
from .integrate import TimeGrid, _rk4_map, resolve_step, substep_plan
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
    ``gamma``; trajectory streams derive from ``seed``.
    """

    gamma: np.ndarray
    seed: int

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float)).copy()
        if np.any(gamma < 0.0):
            raise ValidationError("noise rates must be non-negative")
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


def _deterministic_rhs(model: AggregateModel, kind: str):
    if kind == "sse":
        h_full = np.diag(model.epsilon).astype(complex) + model.coupling

        def rhs(z):
            return -1j * (z @ h_full)

    elif kind == "kubo":
        eps = model.epsilon
        v = model.coupling

        def rhs(z):
            return -1j * (z * eps) - 2j * (z.real @ v)

    else:  # pragma: no cover
        raise ValueError(kind)
    return rhs


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
    dt = resolve_step(model, grid)
    plan = substep_plan(grid, dt)
    # Width h of every substep, in path order.
    h_path = np.repeat([h for _, h in plan], [n_sub for n_sub, _ in plan])

    # Noise is drawn for a block of substeps at a time, holding about
    # _SEGMENT_BYTES of kicks.  Each trajectory's draws continue its own
    # stream, so the kicks equal those of one whole-path draw.
    block = max(1, _SEGMENT_BYTES // (8 * n * batch))

    # The deterministic part is real-linear in the interleaved (re, im) view
    # of z.  Row j of ``generator`` is the derivative of the j-th real basis
    # vector (which also captures Kubo's Re(z) coupling), so a batch of rows
    # advances by one RK4 half step as y @ P, P being the RK4 polynomial of
    # that matrix for h / 2; one P per distinct h.
    generator = _deterministic_rhs(model, kind)(np.eye(2 * n).view(complex)).view(float)
    half_steps = {h: _rk4_map(generator, 1, 0.5 * h) for h in {h for _, h in plan}}

    z = np.broadcast_to(np.asarray(z0, dtype=complex), (batch, n)).copy()
    out = np.empty((batch, grid.n_samples, n), dtype=complex)
    out[:, 0, :] = z
    step = 0
    for i, (n_sub, h) in enumerate(plan):
        half_step = half_steps[h]
        for _ in range(n_sub):
            if step % block == 0:
                # Kick widths sqrt(gamma_n * h) per substep, shared by all trajectories.
                std_table = np.sqrt(h_path[step : step + block, None] * model.gamma[None, :])
                phases = np.empty((batch,) + std_table.shape)
                for b, gen in enumerate(streams):
                    gen.standard_normal(std_table.shape, out=phases[b])
                phases *= std_table
            z = (z.view(float) @ half_step).view(complex)
            z = z * np.exp(-1j * phases[:, step % block, :])
            z = (z.view(float) @ half_step).view(complex)
            step += 1
        out[:, i + 1, :] = z
    return out


def _check_amplitudes(model: AggregateModel, z0) -> np.ndarray:
    z = np.asarray(z0, dtype=complex)
    if z.ndim != 1 or z.shape[0] != model.n_sites:
        raise DimensionMismatch(
            f"amplitude vector shape {z.shape} does not match model dimension {model.n_sites}"
        )
    if float(np.vdot(z, z).real) <= 0.0:
        raise ZeroState("amplitude vector has zero norm")
    return z


def sample_sse_trajectory(
    model: AggregateModel, c0, grid: TimeGrid, stream: np.random.Generator
) -> np.ndarray:
    """One stochastic wavefunction trajectory; returns (n_samples, N) amplitudes.

    The per-site phase kicks are exactly unitary, so the norm is conserved to
    integrator accuracy; with gamma = 0 the path reduces to deterministic
    evolution under the aggregate Hamiltonian.
    """
    c = _check_amplitudes(model, c0)
    return _strang_paths("sse", model, c, grid, [stream])[0]


def sample_kubo_trajectory(
    model: AggregateModel, z0, grid: TimeGrid, stream: np.random.Generator
) -> np.ndarray:
    """One classical oscillator trajectory; returns (n_samples, N) amplitudes.

    The deterministic part couples through 2 Re(z) rather than z, which is
    the structural difference from the quantum trajectory; the frequency
    noise enters as the identical phase kick.  |z| is not conserved once the
    coupling acts.
    """
    z = _check_amplitudes(model, z0)
    return _strang_paths("kubo", model, z, grid, [stream])[0]


class TrajectoryEnsemble:
    """Running average of trajectory bilinears with error estimation.

    Accumulates the outer product path[t] path[t]^H per sample with
    compensated summation, so the mean is independent of accumulation order
    to rounding level.  The second-moment accumulator provides a per-entry
    standard error of the mean (real and imaginary scatter combined).
    """

    def __init__(self, grid: TimeGrid, dimension: int):
        self.grid = grid
        self.dimension = int(dimension)
        shape = (grid.n_samples, self.dimension, self.dimension)
        self.n_traj = 0
        self._sum = np.zeros(shape, dtype=complex)
        self._sum_comp = np.zeros(shape, dtype=complex)
        self._sq = np.zeros(shape)
        self._sq_comp = np.zeros(shape)

    def add_path(self, path: np.ndarray) -> None:
        """Fold one (n_samples, N) amplitude path into the running sums."""
        p = np.asarray(path, dtype=complex)
        if p.shape != (self.grid.n_samples, self.dimension):
            raise GridMismatch(
                f"path shape {p.shape} does not match ensemble grid "
                f"({self.grid.n_samples}, {self.dimension})"
            )
        outer = p[:, :, None] * p[:, None, :].conj()
        # Kahan-compensated sums keep accumulation order-independent.
        y = outer - self._sum_comp
        t = self._sum + y
        self._sum_comp = (t - self._sum) - y
        self._sum = t
        sq = outer.real**2 + outer.imag**2
        y2 = sq - self._sq_comp
        t2 = self._sq + y2
        self._sq_comp = (t2 - self._sq) - y2
        self._sq = t2
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

    def populations(self) -> np.ndarray:
        """Diagonal of the mean bilinear, (n_samples, N) real."""
        mean = self.mean_bilinear
        idx = np.arange(self.dimension)
        return mean[:, idx, idx].real


def _run_ensemble(kind, model, z0, grid, noise: NoiseSpec, n_traj: int) -> TrajectoryEnsemble:
    if n_traj < 1:
        raise ValidationError("n_traj must be positive")
    if noise.gamma.shape != model.gamma.shape or not np.allclose(noise.gamma, model.gamma):
        raise ValidationError("noise rates must match the model dephasing rates")
    z = _check_amplitudes(model, z0)
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
