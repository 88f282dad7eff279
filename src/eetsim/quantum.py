"""Deterministic quantum engines: the master equation and its moment form.

Two independent formulations are provided as mutual oracles: direct
integration of the density matrix under coherent evolution plus pure
dephasing, and integration of the quantum second-moment triple (the
real/imaginary bilinears of the amplitudes) with the density matrix
assembled from the whole moment stack via rho_nm = R_nm + S_nm + i (T_mn - T_nm).
Both return the sampled density matrices as one (n_samples, N, N) stack,
validated once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import RstState, _moment_stack, _rst_rhs, assemble_sigma
from .errors import EetsimError, InvalidInitialState
from .integrate import TimeGrid, resolve_step, rk4_propagate
from .model import AggregateModel, DensityMatrix, _check_stack

_TRACE_TOL = 1e-8
_TRAJECTORY_PSD_TOL = 1e-8


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
    # Elementwise multiplier: coherent phase from energy gaps plus dephasing.
    factor = -1j * model.energy_gaps + model.dephasing_factor
    v = model.coupling.astype(complex)

    # The flat real state interleaves re/im (a complex matrix viewed as
    # floats), so packing and unpacking are zero-copy views.
    def rhs(y: np.ndarray) -> np.ndarray:
        rho = y.view(complex).reshape(n, n)
        drho = factor * rho - 1j * (v @ rho - rho @ v)
        return drho.view(float).ravel()

    return rhs


def _pack_density(rho: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rho, dtype=complex).view(float).ravel().copy()


def _check_initial(model: AggregateModel, rho0: DensityMatrix) -> None:
    if rho0.dimension != model.n_sites:
        raise InvalidInitialState(
            f"initial state dimension {rho0.dimension} does not match model {model.n_sites}"
        )
    if abs(rho0.trace - 1.0) > _TRACE_TOL:
        raise InvalidInitialState(f"initial trace {rho0.trace} is not 1")


def _check_unit_trace(rho: np.ndarray) -> None:
    trace = np.trace(rho, axis1=1, axis2=2).real
    drifted = np.abs(trace - 1.0) > _TRACE_TOL
    if np.any(drifted):
        raise EetsimError(f"trace drifted to {float(trace[drifted][0])}; step too coarse")


def propagate_lindblad(model: AggregateModel, rho0: DensityMatrix, grid: TimeGrid) -> QuantumTrajectory:
    """Integrate the pure-dephasing master equation with fixed-step RK4.

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
    StepTooLarge
        When the integration step cannot resolve the fastest model rate.
    InvalidInitialState
    """
    _check_initial(model, rho0)
    n = model.n_sites
    dt = resolve_step(model, grid)
    y0 = _pack_density(rho0.data)
    raw = rk4_propagate(_lindblad_rhs(model), y0, grid, dt)
    rho = _check_stack(raw.view(complex).reshape(-1, n, n), _TRAJECTORY_PSD_TOL)
    _check_unit_trace(rho)
    return QuantumTrajectory(grid=grid, rho=rho)


def propagate_quantum_rst(model: AggregateModel, rst0: RstState, grid: TimeGrid) -> QuantumTrajectory:
    """Integrate the quantum moment triple and reassemble the density matrix.

    Uses the same initial-state builders as the classical engine.  Agrees
    with :func:`propagate_lindblad` to integrator accuracy; useful as a
    cross-check because the couplings enter the two formulations in
    structurally different ways.  Like the classical engine it checks that
    R and S stay symmetric in every sample (ValidationError otherwise).
    """
    if rst0.dimension != model.n_sites:
        raise InvalidInitialState(
            f"initial state dimension {rst0.dimension} does not match model {model.n_sites}"
        )
    dt = resolve_step(model, grid)
    y0 = rst0.pack()
    raw = rk4_propagate(_rst_rhs(model, quantum=True), y0, grid, dt)
    rho = assemble_sigma(_moment_stack(raw, model.n_sites))
    _check_unit_trace(rho)
    return QuantumTrajectory(grid=grid, rho=rho)
