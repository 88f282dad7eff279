"""Sampling grid, step rule and the exact propagator shared by all deterministic engines.

Every engine packs its state into one flat real vector (2 N^2 reals for a
density matrix, N (2N + 1) for the symmetric second-moment matrix) and
supplies a linear derivative callback y' = L y, which also maps a (k, D)
stack of states to its k derivatives.  L is autonomous, so each sample
interval is exactly y <- e^{L spacing} y, and :func:`expm_propagate`
computes that product: systems up to ``_DENSE_MAX_DIM`` probe L with one
call on the identity stack and form the dense interval map by scaling and
squaring (:func:`_expm`, BLAS matrix products); larger ones take Krylov
steps with the callback as the matrix-vector product, one Arnoldi basis
spanning as many sample intervals as its error estimate allows, and each
basis sized by its counted work per written sample.  The result
does not depend on a step size, and reruns with the same numpy, BLAS build
and BLAS thread count are bit-reproducible; OpenBLAS 0.3.31 splits a product
of D >= 105 differently for one thread than for several, which moves the
last bits.

Tolerance: the dense map is exact to rounding, about 1e-16 times the norm of
L spacing; every sample a Krylov basis writes has an estimated error of at
most 1e-12 times the norm of the state the basis starts from, by Saad's
phi_1 estimate at that sample's time.  That estimate does not underflow on a
long interval, so a collapsed step is not accepted.

The step rule serves only the stochastic engines, whose Strang splitting
needs a step: the uniform sample spacing splits into n_sub equal substeps h,
the step following the splitting rate of :func:`rate_scale` (the spread of
eps, gamma and 2 |V|, not |eps| itself), and the deterministic flows between
the kicks are exact maps from :func:`_expm` of the model's drift.  The
deterministic engines take no step and ignore the rule.
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
#: Up to this flat dimension expm_propagate forms the dense interval map.
#: The crossover depends on the engine and the spectrum (2 cores, best of 7):
#: on a chain at eps = 40 over 0:10:201, Krylov steps are 4x faster on the
#: 13-site Lindblad run (D = 338) and 6x on the 17-site one (D = 578); the
#: classical run breaks even at 13 sites (D = 351) and is 3x faster by Krylov
#: at 17 (D = 595).  On FMO over 0:1:101 the dense map is 5-7x faster (D = 98
#: and 105).  The dense path holds about seven D x D matrices: 20 MiB at D =
#: 600 (the 17-site runs peak at 19-20 MiB, 2-3 MiB by Krylov), 160 MiB at
#: D = 1700.
_DENSE_MAX_DIM = 600
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
#: the norm of the state.
_KRYLOV_TOL = 1e-12
#: Most vectors one Krylov basis holds.  A basis's reach grows faster than its
#: size: on the 29-site chain's classical run (D = 1711, eps = 40, spacing
#: 0.05) 30 vectors span 4 sample intervals, 48 span 10, 60 span 18, 75 span
#: 27 and 100 span about 50.
_KRYLOV_MAX_DIM = 100
#: ... and at most this many bytes of basis, but never fewer than
#: _KRYLOV_MIN_DIM vectors, so a large state holds no more basis than
#: max(30 vectors, 2 MiB): 100 vectors up to D = 2621, 30 from D = 8738 on.
_KRYLOV_BASIS_BYTES = 2 * 2**20
_KRYLOV_MIN_DIM = 30
#: A basis checks its estimate at sizes this factor apart, from the size the
#: previous basis found cheapest (1 on the first), not at every vector.
_KRYLOV_CHECK_GROWTH = 1.25
#: The work model that sizes a basis, in passes over a D-vector: a product
#: with L counts _KRYLOV_MATVEC_PASSES, CGS2 four passes over the vectors it
#: orthogonalizes against, and a check exponential of order m + 1
#: _KRYLOV_EXPM_PASSES (m + 1)^3 / D.  Measured on the 29-site chain (2-core
#: Xeon, OpenBLAS 0.3.31): a product takes 36-43 us, a pass 0.3-0.46 us, and
#: _expm 0.9-1.0 ns (m + 1)^3 from m = 60 on.  Work is counted, never timed,
#: so reruns stay bit-identical; the chain's bases keep their sizes for any
#: product weight from 25 to 200 and any exponential weight from 2 to 8.
_KRYLOV_MATVEC_PASSES = 100
_KRYLOV_EXPM_PASSES = 4


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


def ensemble_work(model: AggregateModel, grid: TimeGrid, n_traj: int) -> int:
    """Kicks x trajectories x sites of an sse or kubo run: the measure of its cost.

    0 when the step rule refuses the request, which the engine then reports.
    """
    try:
        n_sub, _ = _substeps(grid.spacing, resolve_step(model, grid))
    except EetsimError:
        return 0
    return n_sub * (grid.n_samples - 1) * n_traj * model.n_sites


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """The step rule: (n_sub, h) with n_sub equal substeps h <= dt spanning ``span``."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise EetsimError(f"sample spacing {span:.3e} over step {dt:.3e} needs too many substeps")
    n_sub = max(1, math.ceil(ratio - 1e-9))
    return n_sub, span / n_sub


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
            np.matmul(powers[p - 1], powers[0], out=powers[p])
        inc = np.empty((dim, dim))
        tmp = np.zeros((dim, dim))
        for j in range(len(_TAYLOR_BLOCKS) - 1, -1, -1):  # E = B_0 + X^4 (B_1 + ... + X^4 B_4)
            np.matmul(_TAYLOR_BLOCKS[j, 1:], powers[:-1].reshape(_TAYLOR_POWERS - 1, -1), out=inc.reshape(-1))
            inc.reshape(-1)[:: dim + 1] += _TAYLOR_BLOCKS[j, 0]
            inc += tmp
            if j:
                np.matmul(powers[-1], inc, out=tmp)
        for _ in range(squarings):
            np.matmul(inc, inc, out=tmp)
            inc *= 2.0
            inc += tmp
        inc.reshape(-1)[:: dim + 1] += 1.0
    if not np.isfinite(inc).all():
        raise EetsimError("e^(L t) over a propagation step is not finite")
    return inc


def _passing_powers(flow: np.ndarray, scale: float, limit: int) -> np.ndarray:
    """Rows [flow^k e_1]_{:m} for k = 1, 2, ... up to the first k whose estimate fails, at most ``limit``.

    ``flow`` is e^{[[tau H_m, e_1], [0, 0]]}, so flow^k holds e^{k tau H_m} e_1
    in column 0 and k phi_1(k tau H_m) e_1 in column m, and ``scale``
    (h_{m+1,m} tau) times the latter's entry m - 1 is Saad's estimate at k tau.
    """
    m = flow.shape[0] - 1
    columns = flow[:, [0, m]]
    passed = []
    while len(passed) < limit and scale * abs(columns[m - 1, 1]) <= _KRYLOV_TOL:
        passed.append(columns[:m, 0])
        columns = flow @ columns
    return np.array(passed).reshape(-1, m)


def _krylov_propagate(rhs, out: np.ndarray, spacing: float) -> None:
    """Fill out[1:] with e^{L t} out[0] at the grid times by Arnoldi steps, ``rhs`` being the product L v.

    Each step builds an orthonormal basis V_m of {y, L y, ..., L^{m-1} y} by
    classical Gram-Schmidt applied twice (CGS2) and, at each check, exponentiates
    [[tau H_m, e_1], [0, 0]], tau being the spacing.  The k-th power of that
    exponential holds e^{k tau H_m} e_1 and k phi_1(k tau H_m) e_1, so one
    basis writes the samples k = 1, 2, ... as beta V_m e^{k tau H_m} e_1, beta
    = |y|, up to the first k whose corrected estimate beta h_{m+1,m} tau
    |[k phi_1(k tau H_m) e_1]_m| exceeds _KRYLOV_TOL beta; phi_1 decays only
    like 1 / (k tau |H_m|) where e^{k tau H_m} e_1 underflows.

    The estimate is checked at sizes _KRYLOV_CHECK_GROWTH apart, starting from
    the checked size of the previous basis with the least work per sample it
    could write (the model above _KRYLOV_MATVEC_PASSES).  The basis stops
    growing when its estimate passes at the last grid time, when it breaks
    down (which covers every remaining sample), when it is full, or at the
    second check in a row whose work per written sample is not below its
    best: one check past the first rise, since a few whole samples more can
    make the figure flat (30 vectors write 4 samples, 38 write 6, 48 write 10
    on the 29-site chain).  A basis is full at _KRYLOV_MAX_DIM vectors or
    _KRYLOV_BASIS_BYTES.  When a
    full basis does not span even one interval, tau is halved on it until the
    estimate passes, further steps cover the rest of that interval, and they
    check from the full size.
    """
    n_samples, dim = out.shape
    cap = min(_KRYLOV_MAX_DIM, max(_KRYLOV_MIN_DIM, _KRYLOV_BASIS_BYTES // (8 * dim)))
    basis = np.empty((cap, dim))
    hess = np.zeros((cap + 1, cap))
    aug = np.empty((cap + 1, cap + 1))
    y, i, tau, settled = out[0], 0, spacing, 1  # y lies tau before sample i + 1
    while i < n_samples - 1:
        beta = float(np.linalg.norm(y))
        if beta == 0.0:
            out[i + 1 :] = 0.0
            return
        if not math.isfinite(beta):
            raise EetsimError("state is not finite")
        np.divide(y, beta, out=basis[0])
        limit = n_samples - 1 - i if tau == spacing else 1  # the rest of a split interval
        check, work, best, stale = settled, 0.0, math.inf, 0
        for j in range(cap):
            w = np.array(rhs(basis[j]))
            done = basis[: j + 1]
            coeffs = done @ w
            w -= coeffs @ done
            again = done @ w
            w -= again @ done
            hess[: j + 1, j] = coeffs + again
            hess[j + 1, j] = norm = float(np.linalg.norm(w))
            m = j + 1
            work += _KRYLOV_MATVEC_PASSES + 4 * m
            if m >= check or norm == 0.0 or m == cap:
                aug[: m + 1, : m + 1] = 0.0
                np.multiply(hess[:m, :m], tau, out=aug[:m, :m])
                aug[0, m] = 1.0
                flow = _expm(aug[: m + 1, : m + 1])
                work += _KRYLOV_EXPM_PASSES * (m + 1) ** 3 / dim
                passed = _passing_powers(flow, norm * tau, limit)
                if len(passed):
                    if work / len(passed) < best:
                        best, settled, stale = work / len(passed), m, 0
                    else:
                        stale += 1
                if len(passed) == limit or norm == 0.0 or m == cap or stale == 2:
                    break
                check = math.ceil(_KRYLOV_CHECK_GROWTH * m)
            np.divide(w, norm, out=basis[m])
        if len(passed):
            np.matmul(beta * passed, done, out=out[i + 1 : i + 1 + len(passed)])
            i += len(passed)
            y, tau = out[i], spacing
            continue
        settled, step = m, tau  # not even one interval passes on a full basis
        while norm * step * abs(flow[m - 1, m]) > _KRYLOV_TOL:
            step *= 0.5
            aug[:m, :m] *= 0.5
            flow = _expm(aug[: m + 1, : m + 1])
        y = beta * (flow[:m, 0] @ done)
        tau -= step


def expm_propagate(rhs, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Exact flow y <- e^{L spacing} y of a linear autonomous derivative ``rhs``, at every grid time.

    ``rhs`` maps a (D,) state or a (k, D) stack of states to its derivatives.
    Up to ``_DENSE_MAX_DIM`` it is called once on the identity stack, the
    interval map e^{L spacing} is formed once and each sample is one product
    with it; beyond it :func:`_krylov_propagate` takes Krylov steps, each
    spanning as many sample intervals as its error estimate allows.  Returns
    an array of shape (n_samples, len(y0)).
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((grid.n_samples, y.size))
    out[0] = y
    # non-finite values are refused by _expm, _krylov_propagate and the
    # engines' stack checks, never reported as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if y.size <= _DENSE_MAX_DIM:
            generator = rhs(np.eye(y.size)).T  # row i of the probe is L e_i
            generator *= grid.spacing
            interval = _expm(generator)
            for i in range(grid.n_samples - 1):
                np.matmul(interval, out[i], out=out[i + 1])
            return out
        _krylov_propagate(rhs, out, grid.spacing)
    return out
