"""Aggregate model, unit handling, and the shared superoperator building blocks.

Units and conventions
---------------------
Internally hbar = 1 and all energies are stored as angular frequencies, so a
site energy, a coupling, and a dephasing rate share the same inverse-time
unit.  Two unit systems are supported:

- ``"dimensionless-in-V"``: the nearest-neighbour coupling V is the energy
  unit, hbar/V the time unit.  Values are stored as given.
- ``"wavenumber"``: inputs are quoted in cm^-1 and converted on ingestion via
  :func:`convert_energy`; the resulting time unit is the picosecond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricCoupling,
    DimensionMismatch,
    InvalidInitialState,
    NegativeRate,
    NotPositive,
    ValidationError,
)

SPEED_OF_LIGHT_CM_PER_PS = 0.0299792458
#: Multiply an energy in cm^-1 by this to get an angular frequency in rad/ps.
CM1_TO_RAD_PER_PS = 2.0 * np.pi * SPEED_OF_LIGHT_CM_PER_PS

UNIT_SYSTEMS = ("dimensionless-in-V", "wavenumber")

_COUPLING_SYMMETRY_TOL = 1e-12
_HERMITICITY_TOL = 1e-12
#: Positivity tolerance of a DensityMatrix.
_DENSITY_PSD_TOL = 1e-9
#: Positivity tolerance of every engine's sampled density matrices.
_TRAJECTORY_PSD_TOL = 1e-8
#: Any RCA ratio at or above this makes the verdict "fail".
_RCA_FAIL_RATIO = 1.0


def convert_energy(value):
    """Convert an energy in cm^-1 to an angular frequency in rad/ps.

    Works elementwise on arrays.  1 cm^-1 corresponds to
    2*pi*c = 0.18836515673 rad/ps with c in cm/ps.
    """
    out = CM1_TO_RAD_PER_PS * np.asarray(value, dtype=float)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AggregateModel:
    """Molecular aggregate with site energies, couplings, and dephasing rates.

    Attributes
    ----------
    epsilon : (N,) array
        Site transition energies as angular frequencies (hbar = 1).
    coupling : (N, N) array
        Real symmetric excitation-transfer couplings with zero diagonal.
    gamma : (N,) array
        Non-negative pure-dephasing rates.
    units : str
        Unit-system tag, one of ``UNIT_SYSTEMS``.

    Instances are immutable and safe to share across threads.
    """

    epsilon: np.ndarray
    coupling: np.ndarray
    gamma: np.ndarray
    units: str = "dimensionless-in-V"

    @property
    def n_sites(self) -> int:
        return self.epsilon.shape[0]

    def with_shifted_energies(self, delta: float) -> "AggregateModel":
        """Return a copy with every site energy shifted by ``delta``, checked by :func:`build_aggregate`."""
        return build_aggregate(self.epsilon + delta, self.coupling, self.gamma, self.units)


def build_aggregate(epsilon, coupling, gamma, units: str = "dimensionless-in-V") -> AggregateModel:
    """Validate raw arrays and assemble an :class:`AggregateModel`.

    The coupling matrix is symmetrized by averaging, but only if its
    asymmetry is at rounding level (<= 1e-12 relative to the largest
    magnitude); larger asymmetry is treated as a data error.

    Raises
    ------
    DimensionMismatch, AsymmetricCoupling, NegativeRate, ValidationError
    """
    eps = np.atleast_1d(np.asarray(epsilon, dtype=float)).copy()
    v = np.array(coupling, dtype=float)
    gam = np.array(gamma, dtype=float)
    if gam.ndim == 0:
        gam = np.full(eps.shape, float(gam))

    n = eps.shape[0]
    if n < 1:
        raise DimensionMismatch("model needs at least one site")
    if eps.ndim != 1:
        raise DimensionMismatch(f"epsilon must be a vector, got shape {eps.shape}")
    if v.shape != (n, n):
        raise DimensionMismatch(f"coupling must be {n}x{n}, got shape {v.shape}")
    if gam.shape != (n,):
        raise DimensionMismatch(f"gamma must have length {n}, got shape {gam.shape}")
    for name, arr in (("epsilon", eps), ("coupling", v), ("gamma", gam)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite values")
    if np.any(gam < 0.0):
        raise NegativeRate(f"gamma must be non-negative, got min {gam.min()}")
    if units not in UNIT_SYSTEMS:
        raise ValidationError(f"unknown unit system {units!r}; expected one of {UNIT_SYSTEMS}")

    # Halves first: a coupling near the float limit must not overflow.  n >= 1, so v is not empty.
    half = 0.5 * v
    scale = max(1.0, float(np.abs(v).max()))
    asym = 2.0 * float(np.abs(half - half.T).max())
    if asym > _COUPLING_SYMMETRY_TOL * scale:
        raise AsymmetricCoupling(f"coupling asymmetry {asym:.3e} exceeds tolerance")
    diag = float(np.abs(np.diag(v)).max())
    if diag > _COUPLING_SYMMETRY_TOL * scale:
        raise AsymmetricCoupling(f"coupling diagonal must be zero, max |V_nn| = {diag:.3e}")

    v = half + half.T
    np.fill_diagonal(v, 0.0)

    for arr in (eps, v, gam):
        arr.setflags(write=False)
    return AggregateModel(epsilon=eps, coupling=v, gamma=gam, units=units)


def _drift(model: AggregateModel, quantum: bool) -> np.ndarray:
    """Noise-free drift A of u = (x, p), z = x + i p: u' = A u (see :mod:`eetsim.classical`).

    A_q = [[0, H], [-H, 0]], H = diag(eps) + V, is z' = -i H z; the classical
    drift adds [[0, -V], [-V, 0]], the counter-rotating -i V z*.
    """
    drift = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.diag(model.epsilon) + model.coupling)
    if not quantum:
        drift -= np.kron([[0.0, 1.0], [1.0, 0.0]], model.coupling)
    return drift


def _check_stack(a: np.ndarray, psd_tol: float) -> np.ndarray:
    """Validate a (..., N, N) stack of density matrices and make it read-only.

    Each sample must be finite, Hermitian relative to its own largest entry,
    have a real trace, and have no eigenvalue below -psd_tol * max(1, largest
    entry); one batched eigvalsh serves the whole stack.
    """
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"density matrix must be square, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    bad = ~np.isfinite(scale)
    if np.any(bad):
        raise ValidationError(f"non-finite entry in sample {int(np.flatnonzero(bad)[0])}")
    # |A^H - A| from its real and imaginary parts: two real temporaries, not a complex one and its modulus
    skew_re = a.real.swapaxes(-1, -2) - a.real
    herm = np.hypot(skew_re, np.add(a.imag.swapaxes(-1, -2), a.imag), out=skew_re).max(axis=(-2, -1))
    del skew_re
    bad = herm > _HERMITICITY_TOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise ValidationError(f"matrix not Hermitian: max |A - A^H| = {herm[bad].flat[0]:.3e}")
    tr = np.trace(a, axis1=-2, axis2=-1)
    bad = np.abs(tr.imag) > _HERMITICITY_TOL * np.maximum(1.0, np.abs(tr))
    if np.any(bad):
        raise ValidationError(f"trace not real: {complex(tr[bad].flat[0])}")
    lo = np.linalg.eigvalsh(a).min(axis=-1)
    bad = lo < -psd_tol * np.maximum(1.0, scale)
    if np.any(bad):
        raise NotPositive(f"eigenvalue {lo[bad].flat[0]:.3e} below positivity tolerance")
    a.setflags(write=False)
    return a


def _check_dimension(model: AggregateModel, dimension: int) -> None:
    if dimension != model.n_sites:
        raise InvalidInitialState(
            f"initial state dimension {dimension} does not match model {model.n_sites}"
        )


class DensityMatrix:
    """N x N complex Hermitian matrix with trace and positivity checks.

    The wrapped array is made read-only.  Construction fails on an eigenvalue
    below ``-_DENSITY_PSD_TOL`` times max(1, largest entry).
    """

    __slots__ = ("data",)

    def __init__(self, data):
        a = np.array(data, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatch(f"density matrix must be square, got shape {a.shape}")
        self.data = _check_stack(a, _DENSITY_PSD_TOL)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dimension}, trace={self.trace:.6f})"


def pure_density(amplitudes) -> DensityMatrix:
    """Density matrix |c><c| of a normalized amplitude vector."""
    c = np.asarray(amplitudes, dtype=complex)
    if c.ndim != 1:
        raise DimensionMismatch("amplitude vector must be one-dimensional")
    norm = float(np.vdot(c, c).real)
    if not 0.0 < norm < np.inf:
        raise ValidationError("amplitude vector has zero or non-finite norm")
    c = c / np.sqrt(norm)
    return DensityMatrix(np.outer(c, c.conj()))


@dataclass(frozen=True)
class RcaReport:
    """Diagnostic ratios for the realistic coupling approximation.

    All three ratios must be well below 1 for the classical engines to track
    the quantum ones: coupling over transition frequency, site detuning over
    the smallest frequency, and dephasing rate over frequency.
    """

    ratio_v: float
    ratio_detune: float
    ratio_gamma: float
    verdict: str
    reason: str = ""

    def summary(self) -> str:
        lines = [
            f"coupling/frequency   : {self.ratio_v:.6g}",
            f"detuning/frequency   : {self.ratio_detune:.6g}",
            f"dephasing/frequency  : {self.ratio_gamma:.6g}",
            f"verdict              : {self.verdict}",
        ]
        if self.reason:
            lines.append(f"reason               : {self.reason}")
        return "\n".join(lines)


def rca_check(model: AggregateModel, threshold: float = 0.1) -> RcaReport:
    """Evaluate the three weak-coupling ratios behind the RCA.

    Verdict is ``"pass"`` when every ratio is below ``threshold``, ``"fail"``
    when any ratio reaches 1 (or the frequencies are not all
    positive, in which case the ratios are reported as infinite), otherwise
    ``"marginal"``.  ``threshold`` must lie in (0, 1].
    """
    if not 0.0 < threshold <= _RCA_FAIL_RATIO:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    eps = model.epsilon
    if np.any(eps <= 0.0):
        return RcaReport(
            ratio_v=float("inf"),
            ratio_detune=float("inf"),
            ratio_gamma=float("inf"),
            verdict="fail",
            reason="non-positive transition frequency",
        )
    ratio_v = float((np.abs(model.coupling).max(axis=1) / eps).max())
    spread = float(eps.max() - eps.min())
    ratio_detune = spread / float(eps.min())
    ratio_gamma = float((model.gamma / eps).max())

    ratios = (ratio_v, ratio_detune, ratio_gamma)
    if all(r < threshold for r in ratios):
        verdict = "pass"
    elif any(r >= _RCA_FAIL_RATIO for r in ratios):
        verdict = "fail"
    else:
        verdict = "marginal"
    return RcaReport(ratio_v, ratio_detune, ratio_gamma, verdict)
