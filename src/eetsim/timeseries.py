"""Sampled observables, file output, and quantum-vs-classical difference metrics.

A :class:`TimeSeries` holds named channels on a uniform time grid and is the
unit of exchange between engines, files, and the comparison report.  Channel
naming convention: ``population:n``, ``coherence_re:n:m`` / ``coherence_im:n:m``
for ``n < m``, and ``norm_factor`` for the classical engine's trace.
Coherence magnitudes are derived at comparison time from the stored
components.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import ClassicalTrajectory
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
        clean = {}
        for name, values in self.channels.items():
            v = np.asarray(values, dtype=float)
            if v.shape != self.times.shape:
                raise ValidationError(f"channel {name!r} length {v.shape} != grid {self.times.shape}")
            if name.startswith("population:") and (
                v.min() < -_POPULATION_SLACK or v.max() > 1.0 + _POPULATION_SLACK
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


def series_from_quantum(traj: QuantumTrajectory, engine: str = "lindblad", units: str = "model") -> TimeSeries:
    """Populations and coherence components of a quantum trajectory."""
    return _density_channels(traj.grid.times, traj.rho, engine, units)


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
        idx = np.arange(ens.dimension)
        norms = mean[:, idx, idx].real.sum(axis=1)
        if norms.min() < 1e-12:
            raise ValidationError("ensemble trace collapsed; cannot normalize")
        extra = {"norm_factor": norms.copy()}
        mean = mean / norms[:, None, None]
    return _density_channels(ens.grid.times, mean, engine, units, extra=extra)


def write_timeseries(series: TimeSeries, fmt: str, destination) -> None:
    """Write a series as CSV (header ``t,<channel>...``) or JSON.

    Floats are written with 17 significant digits, so a read-back is exact.
    """
    path = Path(destination)
    names = list(series.channels)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + names)
            columns = [series.channels[n] for n in names]
            for i in range(series.n_samples):
                writer.writerow([f"{series.times[i]:.17g}"] + [f"{col[i]:.17g}" for col in columns])
    elif fmt == "json":
        doc = {
            "engine": series.engine,
            "units": series.units,
            "t": series.times.tolist(),
            "channels": {n: series.channels[n].tolist() for n in names},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def read_timeseries(source, fmt: str | None = None) -> TimeSeries:
    """Read a series written by :func:`write_timeseries`.

    The format is inferred from the file suffix unless given.  CSV files do
    not carry engine or unit tags, so those fields read back as defaults.
    """
    path = Path(source)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower() or "csv"
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or not rows[0] or rows[0][0] != "t":
            raise ParseError(f"{path}: not a time-series CSV (missing 't' header)")
        names = rows[0][1:]
        try:
            body = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if body.size == 0:
            body = body.reshape(0, len(names) + 1)
        channels = {name: body[:, k + 1] for k, name in enumerate(names)}
        return TimeSeries(times=body[:, 0] if body.size else np.zeros(0), channels=channels)
    if fmt == "json":
        try:
            with open(path) as fh:
                doc = json.load(fh)
            times = np.asarray(doc["t"], dtype=float)
            channels = {k: np.asarray(v, dtype=float) for k, v in doc["channels"].items()}
            return TimeSeries(
                times=times,
                channels=channels,
                engine=doc.get("engine", "unknown"),
                units=doc.get("units", "model"),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


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

    def to_dict(self) -> dict:
        return {
            "overall_max": self.overall_max,
            "channels": {
                name: {"max_abs": d.max_abs, "t_of_max": d.t_of_max, "l2": d.l2}
                for name, d in self.channels.items()
            },
        }


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
    """Absolute differences per channel, plus derived coherence magnitudes.

    Requires identical grids and channel sets.  For every stored coherence
    component pair an extra ``coherence_abs:n:m`` entry reports the
    difference of magnitudes, which is the quantity usually plotted.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("series grids differ")
    if set(a.channels) != set(b.channels):
        only_a = sorted(set(a.channels) - set(b.channels))
        only_b = sorted(set(b.channels) - set(a.channels))
        raise ChannelMismatch(f"channel sets differ (only in a: {only_a}, only in b: {only_b})")

    diffs: dict[str, ChannelDiff] = {}

    def record(name, xa, xb):
        d = np.abs(xa - xb)
        k = int(np.argmax(d)) if d.size else 0
        diffs[name] = ChannelDiff(
            max_abs=float(d[k]) if d.size else 0.0,
            t_of_max=float(a.times[k]) if d.size else 0.0,
            l2=float(np.sqrt(np.sum(d * d))),
        )

    for name in a.channels:
        record(name, a.channels[name], b.channels[name])
    for abs_name, re_name, im_name in _coherence_pairs(list(a.channels)):
        mag_a = np.hypot(a.channels[re_name], a.channels[im_name])
        mag_b = np.hypot(b.channels[re_name], b.channels[im_name])
        record(abs_name, mag_a, mag_b)

    overall = max((d.max_abs for d in diffs.values()), default=0.0)
    return DiffReport(channels=diffs, overall_max=overall)
