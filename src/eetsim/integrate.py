"""Sampling grid and the fixed-step RK4 core shared by all deterministic engines.

Every engine packs its state into one flat real vector (2 N^2 reals for a
density matrix, N (2N + 1) for the symmetric second-moment matrix) and
supplies a linear derivative callback, so a single tested integrator serves
all of them.  Fixed steps keep runs deterministic and bit-reproducible.

One step rule serves every engine: the uniform sample spacing splits into
n_sub equal substeps h.  Each engine is a linear autonomous ODE y' = L y, so
one RK4 substep is the fixed matrix P = I + hL + ... + (hL)^4/24.  Small
systems probe L once and advance each sample interval by P^n_sub, built by
binary powering in O(log n_sub) products; large systems step the callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EetsimError, StepTooLarge, ValidationError
from .model import AggregateModel

#: A step is refused when dt * fastest-rate exceeds this.
STEP_GUARD = 0.1
#: Default step resolves the fastest phase with 100 steps per radian.
DEFAULT_STEP_FACTOR = 0.01
#: Up to this flat dimension rk4_propagate advances by a dense per-interval
#: RK4 map; beyond it the map measured slower than stepping the callback, and
#: one D x D matrix would dominate the run's memory.
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
        if not math.isfinite(self.spacing):  # an infinite bound or an overflowing span
            raise ValidationError("t_start, t_end and the sample spacing must be finite")
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
    if not dt * scale <= STEP_GUARD * (1.0 + 1e-9):  # also an overflowing rate: 0 * inf
        raise StepTooLarge(
            f"dt_integrate {dt:.3e} times fastest rate {scale:.3e} exceeds {STEP_GUARD}"
        )
    return dt


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """The step rule: (n_sub, h) with n_sub equal substeps h <= dt spanning ``span``."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise EetsimError(f"sample spacing {span:.3e} over step {dt:.3e} needs too many substeps")
    n_sub = max(1, math.ceil(ratio - 1e-9))
    return n_sub, span / n_sub


def _rk4_map(generator: np.ndarray, n_sub: int, h: float) -> np.ndarray:
    """The RK4 step matrix P = I + hL + ... + (hL)^4 / 24, raised to ``n_sub``.

    Binary powering acts on the increment E = P - I (square: E <- 2E + E E;
    combine: R <- R + E + R E) and adds I once at the end, so the small
    increments are not rounded against the identity at every product.  Three
    D x D buffers are reused throughout.  The products use np.einsum rather
    than BLAS gemm, whose operand-packing buffers stay resident for the rest
    of the process (about 0.5 MiB after one 147 x 147 product); one einsum
    product at D = 147 takes about 1.4 ms.
    """

    def product(x, y, out):
        return np.einsum("ij,jk->ik", x, y, out=out)

    dim = generator.shape[0]
    poly = np.eye(dim)
    tmp = np.empty_like(poly)
    for k in (4.0, 3.0, 2.0):  # Horner: I + A/2 (I + A/3 (I + A/4)), A = hL
        product(generator, poly, tmp)
        np.multiply(tmp, h / k, out=poly)
        poly.flat[:: dim + 1] += 1.0
    inc = product(generator, poly, tmp)
    inc *= h
    result = poly
    result.fill(0.0)
    tmp = np.empty_like(poly)
    n = n_sub
    while n:
        if n & 1:
            product(result, inc, tmp)
            result += inc
            result += tmp
        n >>= 1
        if n:
            product(inc, inc, tmp)
            inc *= 2.0
            inc += tmp
    result.flat[:: dim + 1] += 1.0
    return result


def rk4_propagate(rhs, y0: np.ndarray, grid: TimeGrid, dt: float) -> np.ndarray:
    """Fixed-step RK4 of a linear autonomous derivative ``rhs``, sampled at every grid time.

    Every interval takes the ``n_sub`` substeps ``h`` of :func:`_substeps`.  Up
    to ``_LINEARIZE_MAX_DIM`` the callback is probed once per basis vector and
    each sample is the interval map P^n_sub times the previous one; beyond it
    the callback is stepped.  Returns an array of shape (n_samples, len(y0)).
    """
    y = np.asarray(y0, dtype=float).copy()
    n_sub, h = _substeps(grid.spacing, dt)
    out = np.empty((grid.n_samples, y.size))
    out[0] = y
    if y.size <= _LINEARIZE_MAX_DIM:
        generator = np.column_stack([rhs(e) for e in np.eye(y.size)])
        interval = _rk4_map(generator, n_sub, h)
        for i in range(grid.n_samples - 1):
            np.matmul(interval, out[i], out=out[i + 1])
        return out
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(1, grid.n_samples):
        for _ in range(n_sub):
            k1 = rhs(y)
            k2 = rhs(y + half * k1)
            k3 = rhs(y + half * k2)
            k4 = rhs(y + h * k3)
            y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[i] = y
    return out
