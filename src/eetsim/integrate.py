"""Sampling grid and the fixed-step RK4 core shared by all deterministic engines.

Every engine packs its state into one flat real vector (2 N^2 reals for a
density matrix, 3 N^2 for a second-moment triple) and supplies a derivative
callback, so a single tested integrator serves all of them.  Fixed steps keep
runs deterministic and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StepTooLarge, ValidationError
from .model import AggregateModel

#: A step is refused when dt * fastest-rate exceeds this.
STEP_GUARD = 0.1
#: Default step resolves the fastest phase with 100 steps per radian.
DEFAULT_STEP_FACTOR = 0.01
#: Beyond this flat dimension a dense generator costs more than the callback.
_LINEARIZE_MAX_DIM = 600


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid plus an optional internal integration step.

    ``dt_integrate`` is the upper bound on the internal RK4 step; when left
    ``None`` the propagators derive it from the model's fastest rate.
    """

    t_start: float
    t_end: float
    n_samples: int
    dt_integrate: float | None = None

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValidationError("t_end must exceed t_start")
        if self.n_samples < 2:
            raise ValidationError("need at least two samples")
        if self.dt_integrate is not None:
            if not self.dt_integrate > 0.0:
                raise ValidationError("dt_integrate must be positive")
            if self.dt_integrate > self.spacing * (1.0 + 1e-12):
                raise ValidationError("dt_integrate exceeds the sample spacing")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(self.t_start, self.t_end, self.n_samples)
        t.setflags(write=False)
        return t


def rate_scale(model: AggregateModel) -> float:
    """Fastest rate in the model: max of |eps|, gamma, and 2 |V| (hbar = 1)."""
    vmax = float(np.abs(model.coupling).max()) if model.coupling.size else 0.0
    return max(float(np.abs(model.epsilon).max()), float(model.gamma.max()), 2.0 * vmax)


def resolve_step(model: AggregateModel, grid: TimeGrid) -> float:
    """Integration step for this model/grid pair, refusing unsafe choices."""
    scale = rate_scale(model)
    if grid.dt_integrate is not None:
        dt = grid.dt_integrate
    elif scale > 0.0:
        dt = min(DEFAULT_STEP_FACTOR / scale, grid.spacing)
    else:
        dt = grid.spacing
    if dt * scale > STEP_GUARD * (1.0 + 1e-9):
        raise StepTooLarge(
            f"dt_integrate {dt:.3e} times fastest rate {scale:.3e} exceeds {STEP_GUARD}"
        )
    return dt


def substep_plan(grid: TimeGrid, dt: float) -> list[tuple[int, float]]:
    """Per-interval (n_substeps, h) so that h <= dt and substeps land on samples."""
    times = grid.times
    plan = []
    for i in range(grid.n_samples - 1):
        span = float(times[i + 1] - times[i])
        n_sub = max(1, math.ceil(span / dt - 1e-9))
        plan.append((n_sub, span / n_sub))
    return plan


def linearize_rhs(rhs, dim: int):
    """Collapse a linear autonomous derivative into one matrix-vector product.

    The engines' derivative callbacks are linear in the state, so for small
    systems it pays to probe them once per basis vector and replace ~30 small
    numpy calls per evaluation with a single matvec.  Larger systems keep the
    callback.
    """
    if dim > _LINEARIZE_MAX_DIM:
        return rhs
    basis = np.eye(dim)
    generator = np.column_stack([rhs(basis[i]) for i in range(dim)])

    def fast_rhs(y: np.ndarray) -> np.ndarray:
        return generator @ y

    return fast_rhs


def rk4_propagate(rhs, y0: np.ndarray, grid: TimeGrid, dt: float) -> np.ndarray:
    """Classic fixed-step RK4, sampling the state at every grid time.

    ``rhs`` maps a flat real state vector to its time derivative (autonomous
    systems only).  Returns an array of shape (n_samples, len(y0)).
    """
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((grid.n_samples, y.size))
    out[0] = y
    for i, (n_sub, h) in enumerate(substep_plan(grid, dt)):
        half = 0.5 * h
        sixth = h / 6.0
        for _ in range(n_sub):
            k1 = rhs(y)
            k2 = rhs(y + half * k1)
            k3 = rhs(y + half * k2)
            k4 = rhs(y + h * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[i + 1] = y
    return out
