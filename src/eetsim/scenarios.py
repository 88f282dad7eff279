"""Scenario builders and model-file ingestion.

Model files are JSON documents with the keys

- ``sites``: array of ``{"label", "energy"}``
- ``couplings``: array of ``{"i", "j", "value"}`` triplets or a full matrix
- ``gamma``: scalar or per-site array (required; there is no implicit default)
- ``units``: ``"V"`` (model units as stored) or ``"cm-1"`` (converted to
  angular frequency in rad/ps on ingestion)
- ``initial_state``: ``{"site": index}``, ``{"amplitudes": [...]}`` with
  entries given as numbers or ``[re, im]`` pairs, or
  ``{"mixture": [{"weight", "amplitudes"}, ...]}``
- optional ``shift``: added to every site energy, in file units, before
  conversion (useful for probing how dynamics depend on the absolute energy
  scale)

The 7-site FMO Hamiltonian ships as a data asset in this format; see
:func:`fmo_model_path`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    EetsimError,
    IndexOutOfRange,
    NonPositiveFrequency,
    ParseError,
    ValidationError,
)
from .model import AggregateModel, DensityMatrix, build_aggregate, convert_energy, pure_density


@dataclass(frozen=True)
class InitialState:
    """Initial excitation: amplitude vector when pure, density matrix always.

    The stochastic engines need the amplitudes and therefore reject mixed
    initial states; the deterministic engines use the density matrix.
    """

    rho: DensityMatrix
    amplitudes: np.ndarray | None = None

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None


def localized_state(n_sites: int, site: int) -> InitialState:
    """Excitation fully localized on one site."""
    if not 0 <= site < n_sites:
        raise IndexOutOfRange(f"site {site} outside 0..{n_sites - 1}")
    c = np.zeros(n_sites, dtype=complex)
    c[site] = 1.0
    return InitialState(rho=pure_density(c), amplitudes=c)


def make_chain(
    n_sites: int,
    v: float,
    epsilon: float,
    gamma: float,
    init_site: int = 0,
) -> tuple[AggregateModel, InitialState]:
    """Homogeneous chain with nearest-neighbour coupling.

    All site energies equal ``epsilon``, all dephasing rates equal ``gamma``,
    and the excitation starts fully localized on ``init_site``.  Energies are
    taken as model units (set ``v = 1`` to work in units of the coupling).
    """
    if n_sites < 1:
        raise ValidationError("chain needs at least one site")
    coupling = np.zeros((n_sites, n_sites))
    for k in range(n_sites - 1):
        coupling[k, k + 1] = coupling[k + 1, k] = v
    model = build_aggregate(
        epsilon=np.full(n_sites, float(epsilon)),
        coupling=coupling,
        gamma=float(gamma),
        units="dimensionless-in-V",
    )
    return model, localized_state(n_sites, init_site)


def fmo_model_path() -> Path:
    """Path of the shipped 7-site FMO model file."""
    return Path(resources.files("eetsim.data") / "fmo_7site.json")


def _floats(value, key: str, scalar: bool = False) -> np.ndarray:
    """A model-file number, or a regular nested list of numbers, as a float array.

    Text, null, booleans, objects, ragged lists and integers beyond the float
    range raise a ParseError naming ``key``; so does a list when ``scalar``.
    """
    try:
        cells = np.array(value, dtype=object)
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cells.flat):
            numbers = cells.astype(float)
            if not (scalar and numbers.ndim):
                return numbers
    except (ValueError, OverflowError):
        pass
    expected = "a number" if scalar else "a number or a regular list of numbers"
    raise ParseError(f"{key}: expected {expected}")


def _index(value, key: str, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
        raise ParseError(f"{key}: expected a site index in 0..{n - 1}, got {value!r}")
    return value


def _parse_amplitudes(raw, n: int, context: str) -> np.ndarray:
    """A list of n numbers or [re, im] pairs as a unit-norm complex vector."""
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ParseError(f"{context}: amplitudes must be a list of {n} entries")
    c = np.zeros(n, dtype=complex)
    for k, entry in enumerate(raw):
        value = _floats(entry, f"{context}[{k}]")
        if value.shape == ():
            c[k] = value
        elif value.shape == (2,):
            re, im = value.tolist()
            c[k] = re + 1j * im
        else:
            raise ParseError(f"{context}: amplitude {k} must be a number or an [re, im] pair")
    norm = float(np.vdot(c, c).real)
    if not 0.0 < norm < np.inf:
        raise ParseError(f"{context}: zero or non-finite norm")
    return c / np.sqrt(norm)


def _parse_initial(doc_initial, n: int) -> InitialState:
    if not isinstance(doc_initial, dict):
        raise ParseError("initial_state: expected an object")
    if "site" in doc_initial:
        return localized_state(n, _index(doc_initial["site"], "initial_state.site", n))
    if "amplitudes" in doc_initial:
        c = _parse_amplitudes(doc_initial["amplitudes"], n, "initial_state.amplitudes")
        return InitialState(rho=pure_density(c), amplitudes=c)
    if "mixture" in doc_initial:
        terms = doc_initial["mixture"]
        if not isinstance(terms, list) or not terms:
            raise ParseError("initial_state.mixture: expected a non-empty list")
        weights = []
        rho = np.zeros((n, n), dtype=complex)
        for k, term in enumerate(terms):
            context = f"initial_state.mixture[{k}]"
            term = term if isinstance(term, dict) else {}
            w = _floats(term.get("weight"), f"{context}.weight", scalar=True)
            if not 0.0 <= w <= 1.0:
                raise ParseError(f"{context}.weight: must lie in [0, 1]")
            c = _parse_amplitudes(term.get("amplitudes"), n, f"{context}.amplitudes")
            rho += w * np.outer(c, c.conj())
            weights.append(w)
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValidationError(f"mixture weights sum to {sum(weights)}, expected 1")
        return InitialState(rho=DensityMatrix(rho), amplitudes=None)
    raise ParseError("initial_state: expected one of 'site', 'amplitudes', 'mixture'")


def _read_document(path) -> dict:
    """Parse a model file into its JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8, whatever the locale
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_model(source) -> tuple[AggregateModel, InitialState]:
    """Load a model file (path or already-parsed dict).

    Energies, couplings, and rates quoted in cm^-1 are converted to angular
    frequencies in rad/ps; the optional ``shift`` is applied to the site
    energies first.  Validation is delegated to :func:`build_aggregate`.

    Raises
    ------
    ParseError
        Malformed document, with key context.
    ValidationError
        Inconsistent physics (asymmetric couplings, negative rates, ...).
    NonPositiveFrequency
        Non-positive site energy in the wavenumber unit system.
    """
    if isinstance(source, dict):
        return _model_from_document(source, "<dict>")
    return _model_from_document(_read_document(source), source)


def _model_from_document(doc: dict, origin, shift: float = 0.0,
                         gamma: float | None = None) -> tuple[AggregateModel, InitialState]:
    """The model and initial state of a parsed document; any error is raised again with ``origin`` in front.

    ``shift`` adds to the document's ``shift``, and ``gamma`` replaces its ``gamma``, in file units.
    """
    try:
        try:
            sites = doc["sites"]
            couplings_raw = doc["couplings"]
            gamma_raw = doc["gamma"] if gamma is None else gamma
            units = doc["units"]
            initial_raw = doc["initial_state"]
        except KeyError as exc:
            raise ParseError(f"missing key {exc}") from exc

        if units not in ("V", "cm-1"):
            raise ParseError(f"units must be 'V' or 'cm-1', got {units!r}")
        if not isinstance(sites, list) or not sites:
            raise ParseError("sites must be a non-empty list")
        n = len(sites)
        energies = _floats([s.get("energy") if isinstance(s, dict) else None for s in sites],
                           "sites[*].energy")

        shift = _floats(doc.get("shift", 0.0), "shift", scalar=True) + shift
        energies = energies + shift

        if isinstance(couplings_raw, list) and couplings_raw and isinstance(couplings_raw[0], dict):
            coupling = np.zeros((n, n))
            for k, entry in enumerate(couplings_raw):
                key = f"couplings[{k}]"
                entry = entry if isinstance(entry, dict) else {}
                i, j = _index(entry.get("i"), f"{key}.i", n), _index(entry.get("j"), f"{key}.j", n)
                if i == j:
                    raise ParseError(f"{key}: bad site pair ({i}, {j})")
                coupling[i, j] = coupling[j, i] = _floats(entry.get("value"), f"{key}.value", scalar=True)
        else:
            coupling = _floats(couplings_raw, "couplings")
            if coupling.shape != (n, n):
                raise ParseError(f"coupling matrix must be {n}x{n}")

        gamma = _floats(gamma_raw, "gamma")

        if units == "cm-1":
            if np.any(energies <= 0.0):
                raise NonPositiveFrequency(f"site energies must stay positive in cm^-1 (after shift {shift})")
            energies = convert_energy(energies)
            coupling = convert_energy(coupling)
            gamma = convert_energy(gamma)
            model_units = "wavenumber"
        else:
            model_units = "dimensionless-in-V"

        model = build_aggregate(energies, coupling, gamma, units=model_units)
        return model, _parse_initial(initial_raw, n)
    except EetsimError as exc:
        raise type(exc)(f"{origin}: {exc}") from exc
