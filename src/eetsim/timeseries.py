"""Sampled observables, file output, and quantum-vs-classical difference metrics.

A :class:`TimeSeries` holds named channels on a uniform time grid and is the
unit of exchange between engines, files, and the comparison report.  Channel
naming convention: ``population:n``, ``coherence_re:n:m`` / ``coherence_im:n:m``
for ``n < m``, and ``norm_factor`` for the classical engine's trace.
Coherence magnitudes are derived at comparison time from the stored
components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import ClassicalTrajectory, normalize_sigma
from .errors import ChannelMismatch, GridMismatch, ParseError, ValidationError
from .quantum import QuantumTrajectory
from .stochastic import TrajectoryEnsemble

_POPULATION_SLACK = 1e-9


@dataclass
class TimeSeries:
    """Named observable channels sampled on a shared time grid."""

    times: np.ndarray
    channels: dict[str, np.ndarray]
    engine: str = "unknown"
    units: str = "model"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValidationError("times must be a vector")
        if not np.all(np.isfinite(self.times)):
            raise ValidationError("times hold a non-finite sample")
        clean = {}
        for name, values in self.channels.items():
            v = np.asarray(values, dtype=float)
            if v.shape != self.times.shape:
                raise ValidationError(f"channel {name!r} length {v.shape} != grid {self.times.shape}")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"channel {name!r} holds a non-finite sample")
            if name.startswith("population:") and (
                np.any(v < -_POPULATION_SLACK) or np.any(v > 1.0 + _POPULATION_SLACK)
            ):
                raise ValidationError(f"channel {name!r} outside [0, 1]")
            clean[name] = v
        self.channels = clean

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


def _density_channels(times, data, engine, units, extra=None) -> TimeSeries:
    """Channels of an (n_samples, N, N) stack of density matrices."""
    n = data.shape[-1]
    channels: dict[str, np.ndarray] = {}
    for i in range(n):
        channels[f"population:{i}"] = data[:, i, i].real
    for i in range(n):
        for j in range(i + 1, n):
            channels[f"coherence_re:{i}:{j}"] = data[:, i, j].real
            channels[f"coherence_im:{i}:{j}"] = data[:, i, j].imag
    if extra:
        channels.update(extra)
    return TimeSeries(times=np.asarray(times, float).copy(), channels=channels, engine=engine, units=units)


def series_from_quantum(traj: QuantumTrajectory, units: str = "model") -> TimeSeries:
    """Populations and coherence components of a quantum trajectory."""
    return _density_channels(traj.grid.times, traj.rho, "lindblad", units)


def series_from_classical(traj: ClassicalTrajectory, units: str = "model") -> TimeSeries:
    """Normalized classical observables, including the norm-factor channel."""
    return _density_channels(
        traj.grid.times,
        traj.sigma,
        "classical-rst",
        units,
        extra={"norm_factor": traj.norm_factor.copy()},
    )


def series_from_ensemble(
    ens: TrajectoryEnsemble, engine: str, units: str = "model", normalize: bool = False
) -> TimeSeries:
    """Series from an ensemble mean; optionally normalized by its trace per sample."""
    mean = ens.mean_bilinear
    extra = None
    if normalize:
        mean, norms = normalize_sigma(mean)
        extra = {"norm_factor": norms}
    return _density_channels(ens.grid.times, mean, engine, units, extra=extra)


def write_timeseries(series: TimeSeries, fmt: str, destination) -> None:
    """Write a series as CSV (header ``t,<channel>...``) or JSON.

    Floats are written with 17 significant digits, so a read-back is exact.
    """
    names = list(series.channels)
    if fmt == "csv":
        table = np.column_stack([series.times, *(series.channels[n] for n in names)])
        with open(destination, "w", newline="") as fh:
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(["t", *names]),
                       comments="", newline="\r\n")
    elif fmt == "json":
        doc = {
            "engine": series.engine,
            "units": series.units,
            "t": series.times.tolist(),
            "channels": {n: series.channels[n].tolist() for n in names},
        }
        with open(destination, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def read_timeseries(source) -> TimeSeries:
    """Read a series written by :func:`write_timeseries`.

    The format is inferred from the file suffix.  CSV files do not carry
    engine or unit tags, so those fields read back as defaults.
    """
    path = Path(source)
    fmt = path.suffix.lstrip(".").lower() or "csv"
    if fmt == "csv":
        try:
            with open(path) as fh:
                header = fh.readline().rstrip("\n").split(",")
                start = fh.tell()
                rows = bool(fh.read(1))  # np.loadtxt warns on a header-only file
                fh.seek(start)
                body = np.loadtxt(fh, delimiter=",", ndmin=2) if rows else np.zeros((0, len(header)))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if header[0] != "t" or body.shape[1] != len(header):
            raise ParseError(f"{path}: not a time-series CSV ('t' header over every column)")
        times, channels, tags = body[:, 0], dict(zip(header[1:], body[:, 1:].T)), {}
    elif fmt == "json":
        try:
            with open(path) as fh:
                doc = json.load(fh)
            times = np.asarray(doc["t"], dtype=float)
            channels = {k: np.asarray(v, dtype=float) for k, v in doc["channels"].items()}
            tags = {"engine": doc.get("engine", "unknown"), "units": doc.get("units", "model")}
        except (KeyError, TypeError, AttributeError, ValueError) as exc:  # bad JSON or field kind
            raise ParseError(f"{path}: {exc}") from exc
    else:
        raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    try:
        return TimeSeries(times=times, channels=channels, **tags)
    except ValidationError as exc:  # a sample out of range or non-finite, a channel off the grid
        raise ValidationError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ChannelDiff:
    max_abs: float
    t_of_max: float
    l2: float


@dataclass(frozen=True)
class DiffReport:
    """Per-channel and overall differences between two series."""

    channels: dict[str, ChannelDiff]
    overall_max: float
    ignored_channels: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        doc = {
            "overall_max": self.overall_max,
            "channels": {
                name: {"max_abs": d.max_abs, "t_of_max": d.t_of_max, "l2": d.l2}
                for name, d in self.channels.items()
            },
        }
        if self.ignored_channels:
            doc["ignored_channels"] = list(self.ignored_channels)
        return doc


def _coherence_pairs(names: list[str]) -> list[tuple[str, str, str]]:
    available = set(names)
    pairs = []
    for name in names:  # keep the channel order deterministic
        if name.startswith("coherence_re:"):
            suffix = name[len("coherence_re:") :]
            im = f"coherence_im:{suffix}"
            if im in available:
                pairs.append((f"coherence_abs:{suffix}", name, im))
    return pairs


def compare_series(a: TimeSeries, b: TimeSeries) -> DiffReport:
    """Absolute differences per shared channel, plus derived coherence magnitudes.

    Requires identical grids and at least one shared channel (ChannelMismatch
    otherwise); the others are listed as ``ignored_channels``.  For every
    stored coherence component pair an extra ``coherence_abs:n:m`` entry
    reports the difference of magnitudes, which is the quantity usually plotted.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("series grids differ")
    common = [name for name in a.channels if name in b.channels]
    if not common:
        raise ChannelMismatch(f"no channel in common (a: {sorted(a.channels)}, b: {sorted(b.channels)})")

    diffs: dict[str, ChannelDiff] = {}

    def record(name, xa, xb):
        d = np.abs(xa - xb)
        k = int(np.argmax(d)) if d.size else 0
        diffs[name] = ChannelDiff(
            max_abs=float(d[k]) if d.size else 0.0,
            t_of_max=float(a.times[k]) if d.size else 0.0,
            l2=float(np.sqrt(np.sum(d * d))),
        )

    for name in common:
        record(name, a.channels[name], b.channels[name])
    for abs_name, re_name, im_name in _coherence_pairs(common):
        mag_a = np.hypot(a.channels[re_name], a.channels[im_name])
        mag_b = np.hypot(b.channels[re_name], b.channels[im_name])
        record(abs_name, mag_a, mag_b)

    overall = max((d.max_abs for d in diffs.values()), default=0.0)
    return DiffReport(diffs, overall, ignored_channels=tuple(sorted(set(a.channels) ^ set(b.channels))))
