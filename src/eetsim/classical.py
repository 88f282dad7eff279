"""Classical oscillator engine: the closed second-moment system.

The classical analogue of the aggregate replaces every transition dipole by a
harmonic oscillator whose frequency carries the same white-noise fluctuations
as the quantum site energy.  With amplitudes z = x + i p, the real moments
M = [[R, T], [T^T, S]] (R = <x x^T>, S = <p p^T>, T = <x p^T>) of quantum and
classical amplitudes alike obey one Lyapunov equation

    M' = A M + (A M)^T - G o M + sum_n gamma_n J_n M J_n^T,

with G_ab = (gamma_a + gamma_b) / 2 over both blocks and J_n = [[0, 1],
[-1, 0]] on site n's (x_n, p_n): the exact Ito covariation of the site
frequency noise.  The quantum drift is A_q = [[0, H], [-H, 0]], H = diag(eps)
+ V; the classical drift adds [[0, -V], [-V, 0]], the counter-rotating
-i V z* term that the realistic coupling approximation neglects.  The
trajectory ensembles of :mod:`eetsim.stochastic` take their noise-free flows
from the same drift A.  sigma_nm = <z_n z*_m>, a density matrix after trace
normalization, is assembled from the whole (n_samples, N, N) moment stack at
once as

    sigma_nm = R_nm + S_nm + i (T_mn - T_nm).

A quantum state rho fixes sigma, not the anomalous moments <z z^T> = R - S +
i (T + T^T) that the counter-rotating term feeds back into sigma; one
amplitude z = c would give c c^T, which changes under c -> e^{i phi} c while
rho does not.  The classical counterpart of rho is the phase-averaged
ensemble z = c e^{i theta}, theta uniform: R = S = Re(rho) / 2, T =
-Im(rho) / 2, so sigma = rho and <z z^T> = 0.  The ensemble of stochastic
oscillator trajectories (see :mod:`eetsim.stochastic`) converges to this
engine by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EetsimError, NormCollapse, ValidationError, ZeroState
from .integrate import TimeGrid, expm_propagate
from .model import _TRAJECTORY_PSD_TOL, AggregateModel, DensityMatrix, _check_dimension, _check_stack, _drift

_SYMMETRY_TOL = 1e-12
#: Below this trace a classical sample cannot be normalized.
_COLLAPSE_TRACE = 1e-12


class _Symmetric(np.ndarray):
    """An R or S stack gathered through M's symmetric index: :class:`RstState` skips its symmetry check.

    Any copy (``np.array``) or arithmetic result is a plain array again, so
    only the engine's own gather carries the mark.
    """


@dataclass(frozen=True)
class RstState:
    """Second-moment triple (R, S, T) of the oscillator ensemble.

    R and S are symmetric (position-position and momentum-momentum moments),
    and all three are finite, which is checked unless the engine gathered R
    and S from its packed state; T (position-momentum) carries no symmetry.
    Each array is N x N, or a (n_samples, N, N) stack along a trajectory,
    and is made read-only.
    """

    r: np.ndarray
    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        symmetric = isinstance(self.r, _Symmetric) and isinstance(self.s, _Symmetric)
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        t = np.asarray(self.t, dtype=float)
        n = r.shape[-1] if r.ndim else 0
        for name, a in (("r", r), ("s", s), ("t", t)):
            if a.ndim < 2 or a.shape != r.shape[:-2] + (n, n):
                raise DimensionMismatch(f"{name} must be {n}x{n}, got {a.shape}")
        checked = (("r", r), ("s", s), ("t", t)) if not symmetric else ()
        for name, a in checked:
            if not np.isfinite(a).all():
                raise ValidationError(f"{name} must be finite")
        for name, a in checked[:2]:
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
        m = np.block([[self.r, self.t], [self.t.transpose(1, 0), self.s]])  # one state: a stack raises
        return m.take(_moment_layout(self.dimension)[1])


def _moment_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed moment state: the upper triangle of M, row by row, N (2N + 1) reals.

    Returns the (2N, 2N) index of every entry of M in the packed vector, and
    the flat position in M of every packed entry.
    """
    rows, cols = np.triu_indices(2 * n)
    index = np.empty((2 * n, 2 * n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index, rows * (2 * n) + cols


def _moment_stack(raw: np.ndarray, n: int) -> RstState:
    """The packed propagator output rows as one triple of (n_samples, N, N) stacks."""
    index, _ = _moment_layout(n)
    # one gather of R, S and T: all of M would also keep T^T, 1.5 MiB more on the 29-chain run
    moments = raw.take(np.stack([index[:n, :n], index[n:, n:], index[:n, n:]]), axis=1)
    return RstState(moments[:, 0].view(_Symmetric), moments[:, 1].view(_Symmetric), moments[:, 2])


def _phase_averaged(rho: np.ndarray) -> RstState:
    return RstState(0.5 * rho.real, 0.5 * rho.real, -0.5 * rho.imag)


def initial_rst_pure(c_ini) -> RstState:
    """Moments of the phase-averaged ensemble z = c e^{i theta}, theta uniform.

    The assembled sigma equals c c^H exactly, and e^{i phi} c gives the same moments.
    """
    c = np.asarray(c_ini, dtype=complex)
    if c.ndim != 1:
        raise DimensionMismatch("amplitude vector must be one-dimensional")
    if not 0.0 < float(np.vdot(c, c).real) < np.inf:
        raise ZeroState("amplitude vector has zero or non-finite norm")
    return _phase_averaged(np.outer(c, c.conj()))


def initial_rst_mixed(rho0: DensityMatrix) -> RstState:
    """Moments of the phase-averaged ensemble reproducing a density matrix.

    R = S = Re(rho0) / 2 and T = -Im(rho0) / 2, so the assembled sigma equals
    ``rho0`` elementwise and a pure ``rho0`` gives the moments of
    :func:`initial_rst_pure`.
    """
    return _phase_averaged(rho0.data)


def _sigma(rst: RstState) -> np.ndarray:
    """The (..., N, N) sigma = R + S + i (T^T - T) of a triple or a stack, unchecked."""
    sigma = np.empty(rst.r.shape, dtype=complex)
    np.add(rst.r, rst.s, out=sigma.real)
    np.subtract(rst.t.swapaxes(-1, -2), rst.t, out=sigma.imag)
    return sigma


def assemble_sigma(rst: RstState) -> np.ndarray:
    """Classical density matrix (unnormalized) from the moment triple.

    Works on one triple or a stack; returns the validated, read-only
    (..., N, N) sigma.
    """
    return _check_stack(_sigma(rst), _TRAJECTORY_PSD_TOL)


def normalize_sigma(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Scale (..., N, N) moment matrices to unit trace; returns (sigma / N, N).

    Both results are read-only; N holds one trace per matrix.
    """
    data = np.asarray(sigma, dtype=complex)
    norm = np.asarray(np.trace(data, axis1=-2, axis2=-1).real)
    collapsed = norm < _COLLAPSE_TRACE
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
    """Derivative callback for the packed moment state: the Lyapunov equation above.

    Takes one packed state or a (k, N (2N + 1)) stack of them and returns the
    derivatives in the same shape, computed in packed form: entry (a, b) of
    A M + (A M)^T is (A M)_ab + (A M)_ba, so no (2N, 2N) derivative is formed.
    """
    n = model.n_sites
    drift = _drift(model, quantum)
    gamma = np.concatenate([model.gamma, model.gamma])
    index, upper = _moment_layout(n)
    rows, cols = np.divmod(upper, 2 * n)
    lower = cols * (2 * n) + rows
    damping = 0.5 * (gamma[rows] + gamma[cols])
    # gamma_n J_n M J_n^T on site n's packed entries: (x, x) <- S_nn,
    # (p, p) <- R_nn and (x, p) <- -T_nn.
    x, p = np.arange(n), np.arange(n, 2 * n)
    rotated = index[np.r_[x, p, x], np.r_[x, p, p]]
    source = index[np.r_[p, x, x], np.r_[p, x, p]]
    weight = np.r_[model.gamma, model.gamma, -model.gamma]

    def rhs(y: np.ndarray) -> np.ndarray:
        am = (drift @ y.take(index, axis=-1)).reshape(y.shape[:-1] + (-1,))
        dy = am.take(upper, axis=-1)
        dy += am.take(lower, axis=-1)
        dy -= damping * y
        dy[..., rotated] += weight * y[..., source]
        return dy

    return rhs


def _propagate_moments(model: AggregateModel, rst0: RstState, grid: TimeGrid, quantum: bool) -> RstState:
    """The sampled moment stacks of either variant, started from ``rst0``."""
    _check_dimension(model, rst0.dimension)
    raw = expm_propagate(_rst_rhs(model, quantum), rst0.pack(), grid)
    return _moment_stack(raw, model.n_sites)


def propagate_classical_rst(model: AggregateModel, rst0: RstState, grid: TimeGrid) -> ClassicalTrajectory:
    """Propagate the closed classical moment system exactly and assemble sigma.

    See :mod:`eetsim.integrate` for the propagator and its tolerance.

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
    InvalidInitialState, NormCollapse
    """
    states = _propagate_moments(model, rst0, grid, quantum=False)
    sigma = _sigma(states)
    norms = np.trace(sigma, axis1=-2, axis2=-1).real
    # One check of the raw stack, as strict as assemble_sigma's and
    # normalize_sigma's together: the check of sigma / N is the check of sigma
    # with each bound taken relative to max(N, size) instead of max(1, size),
    # so the floor min(1, N) keeps the stricter bound of every sample.
    if np.all(norms >= _COLLAPSE_TRACE):
        try:
            _check_stack(sigma, _TRAJECTORY_PSD_TOL, np.minimum(1.0, norms))
        except EetsimError:
            pass
        else:
            sigma = sigma / norms[:, None, None]
            sigma.setflags(write=False)
            norms.setflags(write=False)
            return ClassicalTrajectory(grid=grid, states=states, sigma=sigma, norm_factor=norms)
    # a collapsed trace or a failed sample: the two checks in turn word it
    sigma, norms = normalize_sigma(assemble_sigma(states))
    return ClassicalTrajectory(grid=grid, states=states, sigma=sigma, norm_factor=norms)
