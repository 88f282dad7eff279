"""Classical oscillator engine: the closed second-moment system.

The classical analogue of the aggregate replaces every transition dipole by a
harmonic oscillator whose frequency carries the same white-noise fluctuations
as the quantum site energy.  The noise-averaged bilinear sigma_nm =
<z_n z*_m> of the complex oscillator amplitudes plays the role of a density
matrix after trace normalization, but its equation of motion is not closed:
it couples to the anomalous moments <z_n z_m>.  Propagating the real
second-moment triple

    R_nm = <x_n x_m>,  S_nm = <p_n p_m>,  T_nm = <x_n p_m>

closes the system exactly, and sigma is assembled from the whole
(n_samples, N, N) moment stack at once as

    sigma_nm = R_nm + S_nm + i (T_mn - T_nm).

A quantum state rho fixes sigma, not the anomalous moments <z z^T> =
R - S + i (T + T^T); one amplitude z = c would give them c c^T, which changes
under c -> e^{i phi} c while rho does not.  The classical counterpart of rho
is the phase-averaged ensemble z = c e^{i theta}, theta uniform: R = S =
Re(rho) / 2, T = -Im(rho) / 2, so sigma = rho and <z z^T> = 0.

The dephasing terms below are the exact Ito covariation of the underlying
stochastic flow: off-diagonals damp at (gamma_n + gamma_m)/2, while on the
diagonal the noise exchanges R_nn with S_nn and damps T_nn at 2 gamma_n.
Under assembly these terms reduce to the same elementwise functional as in
the quantum master equation, but the anomalous sector they govern feeds back
into sigma through the couplings, so the distinction matters whenever both V
and gamma are nonzero.  The ensemble of stochastic oscillator trajectories
(see :mod:`eetsim.stochastic`) converges to this engine by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInitialState,
    NormCollapse,
    NotPositive,
    ValidationError,
    ZeroState,
)
from .integrate import TimeGrid, resolve_step, rk4_propagate
from .model import AggregateModel, DensityMatrix, _check_stack

_SYMMETRY_TOL = 1e-12
_TRAJECTORY_PSD_TOL = 1e-8


@dataclass(frozen=True)
class RstState:
    """Second-moment triple (R, S, T) of the oscillator ensemble.

    R and S are symmetric (position-position and momentum-momentum moments);
    T (position-momentum) carries no symmetry.  Each array is N x N, or a
    (n_samples, N, N) stack along a trajectory, and is made read-only.
    """

    r: np.ndarray
    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        t = np.asarray(self.t, dtype=float)
        n = r.shape[-1] if r.ndim else 0
        for name, a in (("r", r), ("s", s), ("t", t)):
            if a.ndim < 2 or a.shape != r.shape[:-2] + (n, n):
                raise DimensionMismatch(f"{name} must be {n}x{n}, got {a.shape}")
        for name, a in (("r", r), ("s", s)):
            scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
            if np.any(np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1)) > _SYMMETRY_TOL * scale):
                raise ValidationError(f"{name} must be symmetric")
        for a in (r, s, t):
            a.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def dimension(self) -> int:
        return self.r.shape[-1]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.r.ravel(), self.s.ravel(), self.t.ravel()])


def _moment_stack(raw: np.ndarray, n: int) -> RstState:
    """The packed RK4 output rows as one triple of (n_samples, N, N) views."""
    moments = raw.reshape(raw.shape[0], 3, n, n)
    return RstState(moments[:, 0], moments[:, 1], moments[:, 2])


def _phase_averaged(rho: np.ndarray) -> RstState:
    return RstState(0.5 * rho.real, 0.5 * rho.real, -0.5 * rho.imag)


def initial_rst_pure(c_ini) -> RstState:
    """Moments of the phase-averaged ensemble z = c e^{i theta}, theta uniform.

    The assembled sigma equals c c^H exactly, and e^{i phi} c gives the same moments.
    """
    c = np.asarray(c_ini, dtype=complex)
    if c.ndim != 1:
        raise DimensionMismatch("amplitude vector must be one-dimensional")
    if float(np.vdot(c, c).real) <= 0.0:
        raise ZeroState("amplitude vector has zero norm")
    return _phase_averaged(np.outer(c, c.conj()))


def initial_rst_mixed(rho0: DensityMatrix) -> RstState:
    """Moments of the phase-averaged ensemble reproducing a density matrix.

    R = S = Re(rho0) / 2 and T = -Im(rho0) / 2, so the assembled sigma equals
    ``rho0`` elementwise and a pure ``rho0`` gives the moments of
    :func:`initial_rst_pure`.
    """
    lo = rho0.min_eigenvalue()
    if lo < -1e-9:
        raise NotPositive(f"initial state has eigenvalue {lo:.3e}")
    return _phase_averaged(rho0.data)


def assemble_sigma(rst: RstState) -> np.ndarray:
    """Classical density matrix (unnormalized) from the moment triple.

    Works on one triple or a stack; returns the validated, read-only
    (..., N, N) sigma.
    """
    sigma = np.empty(rst.r.shape, dtype=complex)
    np.add(rst.r, rst.s, out=sigma.real)
    np.subtract(rst.t.swapaxes(-1, -2), rst.t, out=sigma.imag)
    return _check_stack(sigma, _TRAJECTORY_PSD_TOL)


def normalize_sigma(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Scale (..., N, N) moment matrices to unit trace; returns (sigma / N, N).

    Both results are read-only; N holds one trace per matrix.
    """
    data = np.asarray(sigma, dtype=complex)
    norm = np.asarray(np.trace(data, axis1=-2, axis2=-1).real)
    collapsed = norm < 1e-12
    if np.any(collapsed):
        raise NormCollapse(f"trace {norm[collapsed].flat[0]:.3e} too small to normalize")
    norm.setflags(write=False)
    return _check_stack(data / norm[..., None, None], _TRAJECTORY_PSD_TOL), norm


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Sampled output of the classical engine; every array is read-only.

    ``states`` holds the raw moments as one triple of (n_samples, N, N)
    stacks, ``sigma`` the (n_samples, N, N) unit-trace classical density
    matrices, and ``norm_factor`` the trace that was divided out at each
    sample (it drifts; only the normalized matrices are meant for comparison
    with the quantum engine).
    """

    grid: TimeGrid
    states: RstState
    sigma: np.ndarray
    norm_factor: np.ndarray

    def populations(self) -> np.ndarray:
        """Normalized site populations, shape (n_samples, N)."""
        return np.diagonal(self.sigma, axis1=1, axis2=2).real.copy()

    def coherence(self, n: int, m: int) -> np.ndarray:
        """Normalized sigma_nm along the trajectory."""
        return self.sigma[:, n, m].copy()


def _rst_rhs(model: AggregateModel, quantum: bool):
    """Derivative callback for the moment triple, classical or quantum variant.

    Both share the local-frequency rotation and the exact dephasing
    covariation; they differ in how the couplings enter (the classical
    position equation carries no coupling, so the V terms sit asymmetrically).
    """
    n = model.n_sites
    n2 = n * n
    eps_col = model.epsilon[:, None]
    eps_row = model.epsilon[None, :]
    v = model.coupling
    gamma = model.gamma
    ghalf = 0.5 * (gamma[:, None] + gamma[None, :])
    idx = np.arange(n)

    def rhs(y: np.ndarray) -> np.ndarray:
        r = y[:n2].reshape(n, n)
        s = y[n2 : 2 * n2].reshape(n, n)
        t = y[2 * n2 :].reshape(n, n)
        tt = t.T

        dr = eps_col * tt + t * eps_row - ghalf * r
        ds = -(eps_col * t + tt * eps_row) - ghalf * s
        dtm = eps_col * s - r * eps_row - ghalf * t
        # Ito covariation of the common noise: diagonal exchange R <-> S and
        # double damping of T_nn.
        dr[idx, idx] += gamma * s[idx, idx]
        ds[idx, idx] += gamma * r[idx, idx]
        dtm[idx, idx] -= gamma * t[idx, idx]

        if quantum:
            dr += v @ tt + t @ v
            ds -= v @ t + tt @ v
            dtm += v @ s - r @ v
        else:
            ds -= 2.0 * (v @ t + tt @ v)
            dtm -= 2.0 * (r @ v)
        return np.concatenate([dr.ravel(), ds.ravel(), dtm.ravel()])

    return rhs


def propagate_classical_rst(model: AggregateModel, rst0: RstState, grid: TimeGrid) -> ClassicalTrajectory:
    """Integrate the closed classical moment system and assemble sigma.

    Parameters
    ----------
    model : AggregateModel
    rst0 : RstState
        Phase-averaged initial moments from :func:`initial_rst_pure` or
        :func:`initial_rst_mixed`, so the result ignores a global phase.
    grid : TimeGrid

    Returns
    -------
    ClassicalTrajectory
        Raw moment stacks, normalized sigma stack, and the norm factors.

    Raises
    ------
    StepTooLarge, InvalidInitialState, NormCollapse
    """
    if rst0.dimension != model.n_sites:
        raise InvalidInitialState(
            f"initial state dimension {rst0.dimension} does not match model {model.n_sites}"
        )
    dt = resolve_step(model, grid)
    y0 = rst0.pack()
    raw = rk4_propagate(_rst_rhs(model, quantum=False), y0, grid, dt)
    states = _moment_stack(raw, model.n_sites)
    sigma, norms = normalize_sigma(assemble_sigma(states))
    return ClassicalTrajectory(grid=grid, states=states, sigma=sigma, norm_factor=norms)
