"""Deterministic quantum engines: the master equation and its moment form.

Two independent formulations are provided as mutual oracles: direct
integration of the density matrix under coherent evolution plus pure
dephasing, and integration of the quantum second-moment triple (the
moment equation of :mod:`eetsim.classical` with the quantum drift A_q) with
the density matrix assembled from the whole moment stack via
rho_nm = R_nm + S_nm + i (T_mn - T_nm).
Both return the sampled density matrices as one (n_samples, N, N) stack,
validated once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import RstState, _propagate_moments, assemble_sigma
from .errors import EetsimError, InvalidInitialState
from .integrate import TimeGrid, expm_propagate
from .model import _TRAJECTORY_PSD_TOL, AggregateModel, DensityMatrix, _check_dimension, _check_stack

_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class QuantumTrajectory:
    """Density matrices sampled on a time grid.

    ``rho`` is the read-only (n_samples, N, N) stack; every sample was
    checked for Hermiticity, positivity and unit trace.
    """

    grid: TimeGrid
    rho: np.ndarray

    def populations(self) -> np.ndarray:
        """Site populations, shape (n_samples, N)."""
        return np.diagonal(self.rho, axis1=1, axis2=2).real.copy()

    def coherence(self, n: int, m: int) -> np.ndarray:
        """rho_nm along the trajectory."""
        return self.rho[:, n, m].copy()


def _lindblad_rhs(model: AggregateModel):
    n = model.n_sites
    # Elementwise multiplier: coherent phase from the energy gaps eps_n - eps_m
    # plus dephasing -(gamma_n + gamma_m) / 2, exactly zero on the diagonal so
    # populations are never touched by rounding.
    dephasing = -0.5 * (model.gamma[:, None] + model.gamma[None, :])
    np.fill_diagonal(dephasing, 0.0)
    factor = -1j * (model.epsilon[:, None] - model.epsilon[None, :]) + dephasing
    v = model.coupling.astype(complex)

    # The flat real state interleaves re/im (a complex matrix viewed as
    # floats), so packing and unpacking are zero-copy views; a (k, 2 N^2)
    # stack of states gives the k derivatives as rows.
    def rhs(y: np.ndarray) -> np.ndarray:
        rho = y.view(complex).reshape(y.shape[:-1] + (n, n))
        drho = factor * rho - 1j * (v @ rho - rho @ v)
        return drho.view(float).reshape(y.shape)

    return rhs


def _pack_density(rho: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rho, dtype=complex).view(float).ravel().copy()


def _check_unit_trace(rho: np.ndarray) -> None:
    trace = np.trace(rho, axis1=1, axis2=2).real
    drifted = np.abs(trace - 1.0) > _TRACE_TOL
    if np.any(drifted):
        raise EetsimError(f"trace drifted to {float(trace[drifted][0])}")


def propagate_lindblad(model: AggregateModel, rho0: DensityMatrix, grid: TimeGrid) -> QuantumTrajectory:
    """Propagate the pure-dephasing master equation exactly over each sample interval.

    See :mod:`eetsim.integrate` for the propagator and its tolerance.

    Parameters
    ----------
    model : AggregateModel
    rho0 : DensityMatrix
        Unit-trace initial state of matching dimension.
    grid : TimeGrid

    Returns
    -------
    QuantumTrajectory

    Raises
    ------
    InvalidInitialState
    """
    _check_dimension(model, rho0.dimension)
    if abs(rho0.trace - 1.0) > _TRACE_TOL:
        raise InvalidInitialState(f"initial trace {rho0.trace} is not 1")
    n = model.n_sites
    raw = expm_propagate(_lindblad_rhs(model), _pack_density(rho0.data), grid)
    rho = _check_stack(raw.view(complex).reshape(-1, n, n), _TRAJECTORY_PSD_TOL)
    _check_unit_trace(rho)
    return QuantumTrajectory(grid=grid, rho=rho)


def propagate_quantum_rst(model: AggregateModel, rst0: RstState, grid: TimeGrid) -> QuantumTrajectory:
    """Integrate the quantum moment triple and reassemble the density matrix.

    Uses the same initial-state builders as the classical engine.  Agrees
    with :func:`propagate_lindblad` to propagator accuracy; useful as a
    cross-check because the couplings enter the two formulations in
    structurally different ways.
    """
    rho = assemble_sigma(_propagate_moments(model, rst0, grid, quantum=True))
    _check_unit_trace(rho)
    return QuantumTrajectory(grid=grid, rho=rho)
