"""Sampling grid, step rule and the exact propagator shared by all deterministic engines.

Every engine packs its state into one flat real vector (2 N^2 reals for a
density matrix, N (2N + 1) for the symmetric second-moment matrix) and
supplies a linear derivative callback y' = L y.  L is autonomous, so each
sample interval is exactly y <- e^{L spacing} y, and :func:`expm_propagate`
computes that product: small systems probe L once and form the dense
interval map by scaling and squaring (:func:`_expm`); large systems take
Krylov steps with the callback as the matrix-vector product.  The result
does not depend on a step size, and reruns are bit-reproducible.

Tolerance: the dense map is exact to rounding, about 1e-16 times the norm of
L spacing; each accepted Krylov step has an estimated error of at most 1e-12
times the norm of the state it starts from, by Saad's phi_1 estimate, checked
from the basis size the previous step needed.  That estimate does not
underflow on a long interval, so a collapsed step is no longer accepted.

The step rule serves only the stochastic engines, whose Strang splitting
needs a step: the uniform sample spacing splits into n_sub equal substeps h,
the step following the splitting rate of :func:`rate_scale` (the spread of
eps, gamma and 2 |V|, not |eps| itself), and the deterministic flows between
the kicks are exact maps from :func:`_expm`.  The deterministic engines take
no step and ignore the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EetsimError, StepTooLarge, ValidationError
from .model import AggregateModel

#: A step is refused when dt times the splitting rate of rate_scale exceeds this.
STEP_GUARD = 0.1
#: Default step resolves the splitting rate with 100 steps per radian.
DEFAULT_STEP_FACTOR = 0.01
#: Up to this flat dimension expm_propagate forms the dense interval map;
#: beyond it the D probes and D x D products cost more than Krylov steps, and
#: one D x D matrix would dominate the run's memory.
_LINEARIZE_MAX_DIM = 600
#: _expm's Taylor degree, the 1-norm its scaled argument is brought to, and
#: the powers X, ..., X^_TAYLOR_POWERS its Paterson-Stockmeyer form keeps.
_TAYLOR_DEGREE = 18
_TAYLOR_THETA = 1.0
_TAYLOR_POWERS = 4
#: Coefficients 1/k! of the increment e^X - I (none for k = 0), padded with
#: zeros to whole blocks; row j holds the coefficients of X^{4j}, ..., X^{4j+3}.
_TAYLOR_BLOCKS = np.array(
    [0.0] + [1.0 / math.factorial(k) for k in range(1, _TAYLOR_DEGREE + 1)]
    + [0.0] * (-(_TAYLOR_DEGREE + 1) % _TAYLOR_POWERS)
).reshape(-1, _TAYLOR_POWERS)
#: A Krylov step is accepted when its phi_1 error estimate is at most this times
#: the norm of the state; its basis grows to at most _KRYLOV_MAX_DIM vectors.
_KRYLOV_TOL = 1e-12
_KRYLOV_MAX_DIM = 30


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid plus an optional internal integration step.

    ``dt_integrate`` is the upper bound on the stochastic engines' substep;
    when left ``None`` it is derived from the model's splitting rate.  The
    deterministic engines take no step and ignore it.
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
    """Splitting rate of the ensembles' Strang step: max of the eps spread, gamma and 2 |V| (hbar = 1).

    The on-site rotation e^{-i eps t} is diagonal, as the phase kicks are, and
    commutes with them, so only differences of eps enter the splitting's
    nested commutators: a uniform eps sets no rate.  A spread that overflows
    is infinite, and :func:`resolve_step` refuses it.
    """
    vmax = float(np.abs(model.coupling).max()) if model.coupling.size else 0.0
    with np.errstate(over="ignore"):
        spread = float(np.ptp(model.epsilon))
    return max(spread, float(model.gamma.max()), 2.0 * vmax)


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
            f"dt_integrate {dt:.3e} times splitting rate {scale:.3e} exceeds {STEP_GUARD}"
        )
    return dt


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """The step rule: (n_sub, h) with n_sub equal substeps h <= dt spanning ``span``."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise EetsimError(f"sample spacing {span:.3e} over step {dt:.3e} needs too many substeps")
    n_sub = max(1, math.ceil(ratio - 1e-9))
    return n_sub, span / n_sub


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    # einsum, not BLAS gemm: gemm's packing buffers stay resident (0.5 MiB after one at D = 147)
    return np.einsum("ij,jk->ik", x, y, out=out)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring of a degree-18 Taylor polynomial.

    a is scaled by 2^-s until its 1-norm is at most 1, where the truncation
    error 1 / 19! = 8e-18 lies below the rounding of the increment.  The
    polynomial is the increment E = e^X - I, the s squarings act on it (E <-
    2E + E E) and I is added once at the end, so the small increments are not
    rounded against the identity at every product.  E is evaluated in the
    Paterson-Stockmeyer form: from X, ..., X^4, Horner's rule in X^4 over
    blocks of four terms, 7 products where Horner's rule in X takes 17.  Raises
    EetsimError when the norm of ``a`` or the result is not finite.
    """
    dim = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        if not math.isfinite(norm):
            raise EetsimError(f"e^(L t) over a propagation step: the norm of L t is {norm}")
        squarings = math.ceil(math.log2(norm / _TAYLOR_THETA)) if norm > _TAYLOR_THETA else 0
        powers = np.empty((_TAYLOR_POWERS, dim, dim))
        np.multiply(a, 2.0**-squarings, out=powers[0])
        for p in range(1, _TAYLOR_POWERS):
            _product(powers[p - 1], powers[0], powers[p])
        inc = np.empty((dim, dim))
        tmp = np.zeros((dim, dim))
        for j in range(len(_TAYLOR_BLOCKS) - 1, -1, -1):  # E = B_0 + X^4 (B_1 + ... + X^4 B_4)
            np.einsum("k,kij->ij", _TAYLOR_BLOCKS[j, 1:], powers[:-1], out=inc)
            inc.reshape(-1)[:: dim + 1] += _TAYLOR_BLOCKS[j, 0]
            inc += tmp
            if j:
                _product(powers[-1], inc, tmp)
        for _ in range(squarings):
            _product(inc, inc, tmp)
            inc *= 2.0
            inc += tmp
        inc.reshape(-1)[:: dim + 1] += 1.0
    if not np.isfinite(inc).all():
        raise EetsimError("e^(L t) over a propagation step is not finite")
    return inc


def _krylov_flow(rhs, y: np.ndarray, span: float, basis: np.ndarray, hess: np.ndarray,
                 aug: np.ndarray, check_from: int) -> tuple[np.ndarray, int]:
    """e^{L span} y by Arnoldi steps, with ``rhs`` as the product L v.

    Each step builds an orthonormal basis of {y, L y, ..., L^{m-1} y} by
    classical Gram-Schmidt applied twice (CGS2), and takes y <- beta V_m
    e^{tau H_m} e_1 with beta = |y|.  The exponential of [[tau H_m, e_1], [0,
    0]] holds it in column 0 and phi_1(tau H_m) e_1 in column m, and the step
    is accepted once Saad's corrected estimate beta h_{m+1,m} tau
    |[phi_1(tau H_m) e_1]_m| is at most _KRYLOV_TOL beta; phi_1 decays only
    like 1 / (tau |H_m|) where e^{tau H_m} e_1 underflows.  The estimate is
    checked at each m from ``check_from`` (the size the previous step needed),
    at a breakdown, and at m = _KRYLOV_MAX_DIM, where tau is halved on the same
    basis until it passes.  ``basis``, ``hess`` and ``aug`` are reused
    workspaces.  Returns the new state and its last step's basis size.
    """
    remaining = span
    while remaining > 0.0:
        beta = float(np.linalg.norm(y))
        if beta == 0.0:
            return y, check_from
        if not math.isfinite(beta):
            raise EetsimError("state is not finite")
        np.divide(y, beta, out=basis[0])
        tau = remaining
        for j in range(_KRYLOV_MAX_DIM):
            w = np.array(rhs(basis[j]))
            done = basis[: j + 1]
            coeffs = done @ w
            w -= coeffs @ done
            again = done @ w
            w -= again @ done
            hess[: j + 1, j] = coeffs + again
            hess[j + 1, j] = norm = float(np.linalg.norm(w))
            if j + 1 >= check_from or norm == 0.0 or j + 1 == _KRYLOV_MAX_DIM:
                aug[: j + 2, : j + 2] = 0.0
                np.multiply(hess[: j + 1, : j + 1], tau, out=aug[: j + 1, : j + 1])
                aug[0, j + 1] = 1.0
                flow = _expm(aug[: j + 2, : j + 2])
                if norm * tau * abs(flow[j, j + 1]) <= _KRYLOV_TOL or j + 1 == _KRYLOV_MAX_DIM:
                    break
            np.divide(w, norm, out=basis[j + 1])
        while norm * tau * abs(flow[j, j + 1]) > _KRYLOV_TOL:
            tau *= 0.5
            aug[: j + 1, : j + 1] *= 0.5
            flow = _expm(aug[: j + 2, : j + 2])
        y = beta * (flow[: j + 1, 0] @ done)
        remaining -= tau
        check_from = j + 1
    return y, check_from


def expm_propagate(rhs, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Exact flow y <- e^{L spacing} y of a linear autonomous derivative ``rhs``, at every grid time.

    Up to ``_LINEARIZE_MAX_DIM`` the callback is probed once per basis vector,
    the interval map e^{L spacing} is formed once and each sample is one
    product with it; beyond it every interval takes the Krylov steps of
    :func:`_krylov_flow`.  Returns an array of shape (n_samples, len(y0)).
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((grid.n_samples, y.size))
    out[0] = y
    # non-finite values are refused by _expm, _krylov_flow and the engines'
    # stack checks, never reported as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if y.size <= _LINEARIZE_MAX_DIM:
            generator = np.column_stack([rhs(e) for e in np.eye(y.size)])
            generator *= grid.spacing
            interval = _expm(generator)
            for i in range(grid.n_samples - 1):
                np.matmul(interval, out[i], out=out[i + 1])
            return out
        basis = np.empty((_KRYLOV_MAX_DIM, y.size))
        hess = np.zeros((_KRYLOV_MAX_DIM + 1, _KRYLOV_MAX_DIM))
        aug = np.empty((_KRYLOV_MAX_DIM + 1, _KRYLOV_MAX_DIM + 1))
        check_from = 1
        for i in range(1, grid.n_samples):
            out[i], check_from = _krylov_flow(rhs, out[i - 1], grid.spacing, basis, hess, aug, check_from)
    return out
