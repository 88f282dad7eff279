"""Sampled observables, file output, and quantum-vs-classical difference metrics.

A :class:`TimeSeries` holds named channels on a uniform time grid as one
table, the one its CSV file holds, and is the unit of exchange between
engines, files, and the comparison report.  Channel naming convention:
``population:n``, ``coherence_re:n:m`` / ``coherence_im:n:m`` for ``n < m``,
and ``norm_factor`` for the classical engine's trace.  Coherence magnitudes
are derived at comparison time from the stored components.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._csvtext import write_rows
from .classical import ClassicalTrajectory, normalize_sigma
from .errors import ChannelMismatch, GridMismatch, ParseError, ValidationError
from .quantum import QuantumTrajectory
from .stochastic import TrajectoryEnsemble

_POPULATION_SLACK = 1e-9


@dataclass
class TimeSeries:
    """Named observable channels sampled on a shared time grid.

    ``table`` is the (n_samples, 1 + len(names)) array of the CSV file: the
    times in column 0, then one column per name.  ``times`` and ``channels``
    are views of it.
    """

    names: list[str]
    table: np.ndarray
    engine: str = "unknown"
    units: str = "model"

    def __post_init__(self):
        self.names = list(self.names)
        self.table = np.asarray(self.table, dtype=float)
        repeated = Counter(self.names).most_common(1)
        if repeated and repeated[0][1] > 1:
            raise ValidationError(f"channel {repeated[0][0]!r} appears more than once")
        if self.table.ndim != 2 or self.table.shape[1] != 1 + len(self.names):
            raise ValidationError(f"table of shape {self.table.shape} does not hold t and "
                                  f"{len(self.names)} channels")
        finite = np.isfinite(self.table).all(axis=0)
        population = np.array([False, *(name.startswith("population:") for name in self.names)])
        outside = ((self.table < -_POPULATION_SLACK) | (self.table > 1.0 + _POPULATION_SLACK)).any(axis=0)
        bad = ~finite | (population & outside)
        if bad.any():
            k = int(np.argmax(bad))
            name = "t" if k == 0 else self.names[k - 1]
            problem = "outside [0, 1]" if finite[k] else "holds a non-finite sample"
            raise ValidationError(f"channel {name!r} {problem}")

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def channels(self) -> dict[str, np.ndarray]:
        """Each name's column of the table, as a view."""
        return dict(zip(self.names, self.table[:, 1:].T))

    @property
    def n_samples(self) -> int:
        return self.table.shape[0]


def _density_channels(times, data, engine, units, norms=None) -> TimeSeries:
    """Series of an (n_samples, N, N) stack of density matrices, plus an optional norm_factor column."""
    n_samples, n = data.shape[0], data.shape[-1]
    rows, cols = np.triu_indices(n, 1)
    flat = data.reshape(n_samples, n * n)
    # the complex upper triangle, C-ordered, reads as re, im, re, im, ... in the file's column order
    coherences = flat.take(rows * n + cols, axis=1).view(float)
    columns = [np.asarray(times, float)[:, None], flat[:, :: n + 1].real, coherences]
    names = [f"population:{i}" for i in range(n)]
    names += [f"coherence_{part}:{i}:{j}" for i, j in zip(rows, cols) for part in ("re", "im")]
    if norms is not None:
        columns.append(np.asarray(norms, float)[:, None])
        names.append("norm_factor")
    return TimeSeries(names, np.concatenate(columns, axis=1), engine=engine, units=units)


def series_from_quantum(traj: QuantumTrajectory, units: str = "model") -> TimeSeries:
    """Populations and coherence components of a quantum trajectory."""
    return _density_channels(traj.grid.times, traj.rho, "lindblad", units)


def series_from_classical(traj: ClassicalTrajectory, units: str = "model") -> TimeSeries:
    """Normalized classical observables, including the norm-factor channel."""
    return _density_channels(traj.grid.times, traj.sigma, "classical-rst", units, norms=traj.norm_factor)


def series_from_ensemble(
    ens: TrajectoryEnsemble, engine: str, units: str = "model", normalize: bool = False
) -> TimeSeries:
    """Series from an ensemble mean; optionally normalized by its trace per sample."""
    mean = ens.mean_bilinear
    norms = None
    if normalize:
        mean, norms = normalize_sigma(mean)
    return _density_channels(ens.grid.times, mean, engine, units, norms=norms)


def write_timeseries(series: TimeSeries, fmt: str, destination) -> None:
    """Write a series as CSV (header ``t,<channel>...``) or JSON.

    Floats are written with 17 significant digits, so a read-back is exact.
    A CSV holds the bytes ``np.savetxt(fmt="%.17g", delimiter=",",
    newline="\\r\\n")`` would write: its digits are rounded from a
    double-double product accurate to about 1e-30 relative, and a value whose
    18th digit may be a tie, or whose magnitude lies outside 1e-260 to 1e280,
    is printed by Python's own ``%.17g``.  The file is written chunk by chunk
    straight to ``destination``, with no temporary file.  A channel name
    holding ``,``, ``\\r`` or ``\\n`` cannot be read back from a CSV header,
    so it is refused, as is one that cannot be encoded as UTF-8, before the
    file is opened.
    """
    if fmt == "csv":
        bad = [name for name in series.names if any(c in name for c in ",\r\n")]
        if bad:
            raise ValidationError(f"channel {bad[0]!r} cannot be a CSV column name")
        try:
            header = ",".join(["t", *series.names]).encode("utf-8") + b"\r\n"
        except UnicodeEncodeError as exc:
            raise ValidationError(f"channel names are not UTF-8: {exc}") from exc
        with open(destination, "wb") as fh:
            fh.write(header)
            write_rows(series.table, fh)
    elif fmt == "json":
        doc = {
            "engine": series.engine,
            "units": series.units,
            "t": series.times.tolist(),
            "channels": dict(zip(series.names, series.table[:, 1:].T.tolist())),
        }
        with open(destination, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def _unique_keys(pairs) -> dict:
    repeated = Counter(key for key, _ in pairs).most_common(1)
    if repeated and repeated[0][1] > 1:
        raise ValueError(f"key {repeated[0][0]!r} appears more than once")
    return dict(pairs)


def read_timeseries(source) -> TimeSeries:
    """Read a series written by :func:`write_timeseries`.

    The format is inferred from the file suffix.  CSV files do not carry
    engine or unit tags, so those fields read back as defaults.
    """
    path = Path(source)
    fmt = path.suffix.lstrip(".").lower() or "csv"
    if fmt == "csv":
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n").split(",")
                start = fh.tell()
                rows = bool(fh.read(1))  # np.loadtxt warns on a header-only file
                fh.seek(start)
                table = np.loadtxt(fh, delimiter=",", ndmin=2) if rows else np.zeros((0, len(header)))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if header[0] != "t" or table.shape[1] != len(header):
            raise ParseError(f"{path}: not a time-series CSV ('t' header over every column)")
        names, tags = header[1:], {}
    elif fmt == "json":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=_unique_keys)  # json.load alone keeps the last of equal keys
            names = list(doc["channels"])
            # a scalar t or a channel off the grid makes the rows ragged, which numpy refuses
            table = np.array([doc["t"], *doc["channels"].values()], dtype=float).T
            tags = {"engine": doc.get("engine", "unknown"), "units": doc.get("units", "model")}
        except (KeyError, TypeError, AttributeError, ValueError) as exc:  # bad JSON or field kind
            raise ParseError(f"{path}: {exc}") from exc
    else:
        raise ValidationError(f"{path}: unknown format {fmt!r}; expected 'csv' or 'json'")
    try:
        return TimeSeries(names, table, **tags)
    except ValidationError as exc:  # a repeated name, or a sample out of range or non-finite
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


def compare_series(a: TimeSeries, b: TimeSeries) -> DiffReport:
    """Absolute differences per shared channel, plus derived coherence magnitudes.

    Requires identical grids and at least one shared channel (ChannelMismatch
    otherwise); the others are listed as ``ignored_channels``.  For every
    stored coherence component pair an extra ``coherence_abs:n:m`` entry
    reports the difference of magnitudes, which is the quantity usually plotted.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("series grids differ")
    in_b = set(b.names)
    common = [name for name in a.names if name in in_b]
    if not common:
        raise ChannelMismatch(f"no channel in common (a: {sorted(a.names)}, b: {sorted(b.names)})")
    row = {name: k for k, name in enumerate(common)}
    re_names = [name for name in common if name.startswith("coherence_re:") and name.replace("_re:", "_im:", 1) in row]
    re_rows = [row[name] for name in re_names]
    im_rows = [row[name.replace("_re:", "_im:", 1)] for name in re_names]
    names = common + [name.replace("_re:", "_abs:", 1) for name in re_names]

    def channel_rows(series):
        # one contiguous row per channel: the sums below then round as on that channel alone
        column = {name: k for k, name in enumerate(series.names, start=1)}
        rows = series.table.T[[column[name] for name in common]]
        return np.concatenate([rows, np.hypot(rows[re_rows], rows[im_rows])])

    diff, times = np.abs(channel_rows(a) - channel_rows(b)), a.times
    if not a.n_samples:  # an empty grid reports zeros, as one equal sample at t = 0 would
        diff, times = np.zeros((len(names), 1)), np.zeros(1)
    max_abs = diff.max(axis=1)
    t_of_max = times[diff.argmax(axis=1)]
    l2 = np.sqrt(np.sum(diff * diff, axis=1))
    diffs = {name: ChannelDiff(peak, t, norm)
             for name, peak, t, norm in zip(names, max_abs.tolist(), t_of_max.tolist(), l2.tolist())}
    return DiffReport(diffs, float(max_abs.max()), ignored_channels=tuple(sorted(set(a.names) ^ set(b.names))))
