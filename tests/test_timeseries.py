import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eetsim
from eetsim import TimeGrid, initial_rst_pure, make_chain, propagate_classical_rst, propagate_lindblad
from eetsim.classical import ClassicalTrajectory
from eetsim.quantum import QuantumTrajectory
from eetsim.stochastic import TrajectoryEnsemble
from eetsim.timeseries import (
    TimeSeries,
    compare_series,
    read_timeseries,
    series_from_classical,
    series_from_ensemble,
    series_from_quantum,
    write_timeseries,
)
from eetsim.errors import ChannelMismatch, GridMismatch, NormCollapse, ParseError, ValidationError


@pytest.fixture(scope="module")
def dimer_series():
    model, init = make_chain(2, 1.0, 0.0, 0.5, 0)
    grid = TimeGrid(0.0, 3.0, 31)
    traj = propagate_lindblad(model, init.rho, grid)
    return series_from_quantum(traj, units="hbar/V")


class TestTimeSeries:
    def test_channel_names_and_order(self, dimer_series):
        assert list(dimer_series.channels) == [
            "population:0", "population:1", "coherence_re:0:1", "coherence_im:0:1"]

    def test_classical_series_has_norm_factor(self):
        model, init = make_chain(2, 1.0, 1.0, 0.5, 0)
        grid = TimeGrid(0.0, 2.0, 11)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        series = series_from_classical(traj)
        assert "norm_factor" in series.channels
        assert series.engine == "classical-rst"

    def test_population_bounds_enforced(self):
        with pytest.raises(ValidationError):
            TimeSeries(["population:0"], np.array([[0.0, 0.0], [1.0, 1.5]]))

    def test_length_mismatch_rejected(self):
        # a table cannot hold a ragged channel; its width must match t plus the names
        with pytest.raises(ValidationError, match="does not hold t and 1 channels"):
            TimeSeries(["x"], np.zeros((2, 3)))


    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="channel 'population:0' appears more than once"):
            TimeSeries(["population:0", "population:0"], np.array([[0.0, 1.0, 0.3]]))

    def test_channels_are_views_of_the_table(self, dimer_series):
        assert np.shares_memory(dimer_series.channels["coherence_im:0:1"], dimer_series.table)
        assert np.array_equal(dimer_series.times, dimer_series.table[:, 0])


def per_entry_table(times, stack, norms=None):
    """Names and table of a density stack, one matrix entry at a time."""
    n = stack.shape[-1]
    names, columns = ["t"], [times]
    for i in range(n):
        names.append(f"population:{i}")
        columns.append(stack[:, i, i].real)
    for i in range(n):
        for j in range(i + 1, n):
            names += [f"coherence_re:{i}:{j}", f"coherence_im:{i}:{j}"]
            columns += [stack[:, i, j].real, stack[:, i, j].imag]
    if norms is not None:
        names.append("norm_factor")
        columns.append(norms)
    return names, np.column_stack(columns)


class TestColumnLayout:
    grid = TimeGrid(0.0, 1.0, 7)

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(7, 5, 5)) + 1j * rng.normal(size=(7, 5, 5))
        hermitian = 0.5 * (raw + np.conj(np.swapaxes(raw, 1, 2)))
        idx = np.arange(5)
        hermitian[:, idx, idx] = rng.uniform(size=(7, 5))  # populations inside [0, 1]
        return hermitian

    def assert_layout(self, series, names, table):
        assert ["t", *series.names] == names
        assert np.array_equal(series.table, table)

    def test_quantum(self, stack):
        series = series_from_quantum(QuantumTrajectory(self.grid, stack))
        self.assert_layout(series, *per_entry_table(self.grid.times, stack))

    def test_classical(self, stack):
        norms = np.linspace(1.0, 1.5, 7)
        series = series_from_classical(ClassicalTrajectory(self.grid, None, stack, norms))
        self.assert_layout(series, *per_entry_table(self.grid.times, stack, norms))
        assert series.names[-1] == "norm_factor"

    @pytest.mark.parametrize("normalize", [False, True])
    def test_ensemble(self, normalize):
        rng = np.random.default_rng(12)
        ens = TrajectoryEnsemble(self.grid, 5)
        amplitudes = rng.normal(size=(7, 3, 5)) + 1j * rng.normal(size=(7, 3, 5))
        ens.add_batch(amplitudes / np.linalg.norm(amplitudes, axis=-1, keepdims=True))  # populations in [0, 1]
        mean, norms = ens.mean_bilinear, None
        if normalize:
            norms = np.trace(mean, axis1=1, axis2=2).real
            mean = mean / norms[:, None, None]
        series = series_from_ensemble(ens, "kubo-ensemble", normalize=normalize)
        self.assert_layout(series, *per_entry_table(self.grid.times, mean, norms))
        assert (series.names[-1] == "norm_factor") == normalize


class TestFileRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lossless(self, dimer_series, fmt, tmp_path):
        path = tmp_path / f"series.{fmt}"
        write_timeseries(dimer_series, fmt, path)
        back = read_timeseries(path)
        assert np.array_equal(back.times, dimer_series.times)
        for name, values in dimer_series.channels.items():
            assert np.array_equal(back.channels[name], values)

    def test_utf8_json_series_in_an_ascii_locale(self, tmp_path):
        # JSON text is UTF-8: raw non-ASCII channel names read back under a C locale
        path = tmp_path / "x.json"
        path.write_bytes('{"t": [0.0], "channels": {"ρ:0": [0.5]}}'.encode("utf-8"))
        script = ("import sys; from eetsim.timeseries import read_timeseries; "
                  "print(read_timeseries(sys.argv[1]).names == ['\\u03c1:0'])")
        src = str(Path(eetsim.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"

    def test_json_keeps_engine_and_units(self, dimer_series, tmp_path):
        path = tmp_path / "series.json"
        write_timeseries(dimer_series, "json", path)
        back = read_timeseries(path)
        assert back.engine == "lindblad"
        assert back.units == "hbar/V"

    def test_csv_bytes(self, tmp_path):
        series = TimeSeries(
            ["population:0", "coherence_re:0:1"],
            np.array([[0.0, 1.0, -0.0], [0.1, 1.0 / 3.0, -1.0 / 7.0], [2.5, 2e-300, 5e-324]]),
        )
        path = tmp_path / "series.csv"
        write_timeseries(series, "csv", path)
        assert path.read_bytes() == (
            b"t,population:0,coherence_re:0:1\r\n"
            b"0,1,-0\r\n"
            b"0.10000000000000001,0.33333333333333331,-0.14285714285714285\r\n"
            b"2.5,2.0000000000000001e-300,4.9406564584124654e-324\r\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_empty_channels_header_only_csv(self, tmp_path):
        empty = TimeSeries([], np.zeros((0, 1)))
        path = tmp_path / "empty.csv"
        write_timeseries(empty, "csv", path)
        assert path.read_text().strip() == "t"
        back = read_timeseries(path)
        assert back.times.size == 0 and back.channels == {}

    def test_header_only_population_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"t,population:0\r\n")
        back = read_timeseries(path)
        assert back.times.size == 0 and back.channels["population:0"].size == 0

    def test_populations_sum_to_one_after_roundtrip(self, dimer_series, tmp_path):
        path = tmp_path / "series.csv"
        write_timeseries(dimer_series, "csv", path)
        back = read_timeseries(path)
        total = back.channels["population:0"] + back.channels["population:1"]
        assert np.abs(total - 1.0).max() < 1e-8

    def test_unknown_format_rejected(self, dimer_series, tmp_path):
        with pytest.raises(ValidationError):
            write_timeseries(dimer_series, "xml", tmp_path / "x.xml")

    def test_csv_without_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            read_timeseries(path)

    @pytest.mark.parametrize("content", [
        b"",
        b"t,a\r\n1,x\r\n",  # not a number
        b"t,a\r\n1,2\r\n3\r\n",  # ragged rows
        b"t,a,b\r\n1,2\r\n",  # fewer columns than the header
        b"t,a\r\n1,2,3\r\n",  # more columns than the header
        b"t,a\r\n1,\xff\r\n",  # not UTF-8
    ])
    def test_malformed_csv_rejected(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            read_timeseries(path)

    @pytest.mark.parametrize("content", [
        '{"t": [0, 1], "channels": [1, 2]}',  # channels not an object
        '{"t": [0, 1], "channels": {"population:0": "ab"}}',  # text channel
        '{"t": [0, 1], "channels": {"population:0": [[1], [1, 2]]}}',  # ragged channel
    ])
    def test_malformed_json_rejected(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ParseError):
            read_timeseries(path)


def test_ensemble_trace_collapse_is_norm_collapse():
    grid = TimeGrid(0.0, 1.0, 3)
    ens = TrajectoryEnsemble(grid, 2)
    ens.add_batch(np.zeros((3, 1, 2)))
    with pytest.raises(NormCollapse):
        series_from_ensemble(ens, "kubo-ensemble", normalize=True)


class TestCompareSeries:
    def test_self_comparison_is_zero(self, dimer_series):
        report = compare_series(dimer_series, dimer_series)
        assert report.overall_max == 0.0
        assert all(d.max_abs == 0.0 and d.l2 == 0.0 for d in report.channels.values())

    def test_symmetry(self, dimer_series):
        table = dimer_series.table.copy()
        table[:, 1:] += 0.001 * np.sin(np.arange(dimer_series.n_samples))[:, None]
        other = TimeSeries(dimer_series.names, table)
        ab = compare_series(dimer_series, other)
        ba = compare_series(other, dimer_series)
        for name in ab.channels:
            assert np.isclose(ab.channels[name].max_abs, ba.channels[name].max_abs)
        assert np.isclose(ab.overall_max, ba.overall_max)

    def test_derived_coherence_magnitude_channel(self, dimer_series):
        report = compare_series(dimer_series, dimer_series)
        assert "coherence_abs:0:1" in report.channels

    def test_overall_is_max_over_channels(self, dimer_series):
        table = dimer_series.table.copy()
        table[:, 1:] *= 0.999
        other = TimeSeries(dimer_series.names, table)
        report = compare_series(dimer_series, other)
        assert np.isclose(report.overall_max,
                          max(d.max_abs for d in report.channels.values()))

    def test_grid_mismatch(self, dimer_series):
        table = dimer_series.table.copy()
        table[:, 0] += 0.5
        other = TimeSeries(dimer_series.names, table)
        with pytest.raises(GridMismatch):
            compare_series(dimer_series, other)

    def test_channel_mismatch(self, dimer_series):
        other = TimeSeries(["norm_factor"], np.column_stack([dimer_series.times, np.ones(dimer_series.n_samples)]))
        with pytest.raises(ChannelMismatch):
            compare_series(dimer_series, other)

    def test_common_channels_compared(self, dimer_series):
        other = TimeSeries(["population:0", "norm_factor"],
                           np.column_stack([dimer_series.times, dimer_series.channels["population:0"],
                                            np.ones(dimer_series.n_samples)]))
        doc = compare_series(dimer_series, other).to_dict()
        assert list(doc["channels"]) == ["population:0"]
        assert doc["ignored_channels"] == [
            "coherence_im:0:1", "coherence_re:0:1", "norm_factor", "population:1"]

    def test_report_dict_shape(self, dimer_series):
        doc = compare_series(dimer_series, dimer_series).to_dict()
        assert set(doc) == {"overall_max", "channels"}
        entry = doc["channels"]["population:0"]
        assert set(entry) == {"max_abs", "t_of_max", "l2"}


def per_channel_report(a, b):
    """compare_series's figures, one channel at a time."""
    ca, cb = a.channels, b.channels
    common = [name for name in ca if name in cb]
    diffs = {name: np.abs(ca[name] - cb[name]) for name in common}
    for name in common:
        im = name.replace("_re:", "_im:")
        if name.startswith("coherence_re:") and im in common:
            diffs[name.replace("_re:", "_abs:")] = np.abs(np.hypot(ca[name], ca[im]) - np.hypot(cb[name], cb[im]))
    expected = {}
    for name, d in diffs.items():
        k = int(np.argmax(d)) if d.size else 0
        expected[name] = (float(d[k]) if d.size else 0.0, float(a.times[k]) if d.size else 0.0,
                          float(np.sqrt(np.sum(d * d))))
    return expected


class TestCompareAgainstLoop:
    @pytest.mark.parametrize("n_samples", [201, 0])
    def test_partly_shared_channels(self, n_samples):
        rng = np.random.default_rng(13)
        names_a = ["population:0", "population:1", "population:2", "coherence_re:0:1", "coherence_im:0:1",
                   "coherence_re:0:2", "coherence_im:0:2", "coherence_re:1:2", "coherence_im:1:2"]
        names_b = ["norm_factor", "coherence_im:1:2", "coherence_re:0:1", "population:2", "coherence_im:0:1",
                   "coherence_re:1:2", "coherence_re:0:2", "population:0"]
        times = np.linspace(0.0, 2.0, n_samples)
        a = TimeSeries(names_a, np.column_stack([times, rng.uniform(size=(n_samples, len(names_a)))]))
        b = TimeSeries(names_b, np.column_stack([times, rng.uniform(size=(n_samples, len(names_b)))]))
        report = compare_series(a, b)
        expected = per_channel_report(a, b)
        assert list(report.channels) == list(expected)
        assert "coherence_abs:0:2" not in report.channels  # coherence_im:0:2 is in a only
        assert {name: (d.max_abs, d.t_of_max, d.l2) for name, d in report.channels.items()} == expected
        assert report.overall_max == max(v[0] for v in expected.values())
        assert report.ignored_channels == ("coherence_im:0:2", "norm_factor", "population:1")


def percent_g_rows(table) -> bytes:
    """The reference CSV body: each value as ``b"%.17g" % v``, joined by "," and ended by CRLF per row."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in table.tolist())


def savetxt_bytes(series) -> bytes:
    fh = io.BytesIO()
    np.savetxt(fh, series.table, fmt="%.17g", delimiter=",", header=",".join(["t", *series.names]), comments="",
               newline="\r\n")
    return fh.getvalue()


def write_csv(table, path) -> bytes:
    """The body write_timeseries gives a table, its header line dropped."""
    write_timeseries(TimeSeries([f"c{k}" for k in range(1, table.shape[1])], table), "csv", path)
    return path.read_bytes().split(b"\r\n", 1)[1]


def decimal_ties():
    """Doubles whose exact decimal value has 18 significant digits, the last a 5.

    Such a value is k * 2**-m with k odd and k * 5**m of 18 digits; its
    ``%.17g`` rounds the tie to an even 17th digit.
    """
    rng = np.random.default_rng(7)
    ties = [2.0 ** -25]
    for m in range(1, 26):
        low, high = -(-10 ** 17 // 5 ** m), min(10 ** 18 // 5 ** m, 2 ** 53)
        if low >= high:
            continue
        odd = rng.integers(low // 2, -(-high // 2), size=200) * 2 + 1
        ties += [int(k) * 2.0 ** -m for k in odd if len(str(int(k) * 5 ** m)) == 18]
    ties = np.array(ties)
    return np.concatenate([ties, -ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])


def float_cases():
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tiny = np.finfo(float).tiny
    return {
        "random-bits": bits[np.isfinite(bits)],
        "powers-of-ten": np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        "powers-of-two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "decimal-ties": decimal_ties(),
        "integers": np.concatenate([np.arange(2.0 ** 53 - 300, 2.0 ** 53 + 300),
                                    np.arange(1e16 - 300, 1e16 + 300), np.arange(1e17 - 3000, 1e17 + 3000, 16),
                                    np.arange(-20.0, 21.0)]),
        "extremes": np.array([0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, np.nextafter(tiny, 0), tiny, -tiny,
                              np.finfo(float).max, -np.finfo(float).max, 1e-100, -1e100, 1.5e-200, 9.99e299,
                              1e-261, 1e-259, 9.9e279, 1e280, 1e-5, 1e-4, 9.9999999999999991e-5,
                              123456.789, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e16 / 3.0, 1e17 / 3.0]),
        "times": np.concatenate([np.linspace(0.0, 5000.0, 100001), 0.01 * np.arange(5001), np.arange(0.0, 5000.0, 0.7)]),
    }


_FLOAT_CASES = float_cases()


class TestCsvText:
    """write_timeseries prints each value as Python's ``b"%.17g" % v`` does."""

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize("case", list(_FLOAT_CASES))
    def test_matches_percent_g(self, case, width, tmp_path):
        values = _FLOAT_CASES[case]
        table = np.resize(values, (-(-values.size // width), width))
        written = write_csv(table, tmp_path / "x.csv")
        expected = percent_g_rows(table)
        if written != expected:
            got = written.replace(b"\r\n", b",").split(b",")
            want = expected.replace(b"\r\n", b",").split(b",")
            k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            pytest.fail(f"value {k} ({table.flat[k]!r}): wrote {got[k:k + 1]}, %.17g gives {want[k:k + 1]}")

    def test_tie_rounds_to_even(self, tmp_path):
        assert write_csv(np.array([[2.0 ** -25, -(2.0 ** -25)]]), tmp_path / "x.csv") == (
            b"2.9802322387695312e-08,-2.9802322387695312e-08\r\n")


class TestCsvWriter:
    @pytest.mark.parametrize("width", [1, 2047, 2048, 2049, 843])
    def test_row_widths_match_savetxt(self, width, tmp_path):
        rng = np.random.default_rng(width)
        table = rng.standard_normal((5, width)) * 10.0 ** rng.integers(-8, 8, (5, width))
        table[rng.random((5, width)) < 0.3] = 0.0
        table[:, 0] = np.arange(5) * 0.1
        series = TimeSeries([f"coherence_re:0:{k}" for k in range(1, width)], table)
        path = tmp_path / "x.csv"
        write_timeseries(series, "csv", path)
        assert path.read_bytes() == savetxt_bytes(series)

    def test_memory_is_a_fraction_of_the_file(self, tmp_path):
        rng = np.random.default_rng(3)
        table = rng.uniform(size=(201, 843))
        table[:, 1::2] = 0.0
        series = TimeSeries([f"c{k}" for k in range(842)], table)
        path = tmp_path / "x.csv"
        write_timeseries(series, "csv", path)  # the formatter's tables are built once, on first use
        tracemalloc.start()
        try:
            write_timeseries(series, "csv", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_written_in_place(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"old")
        inode = path.stat().st_ino
        series = TimeSeries(["population:0"], np.array([[0.0, 1.0], [0.5, 0.25]]))
        write_timeseries(series, "csv", path)
        assert path.stat().st_ino == inode
        assert os.listdir(tmp_path) == ["x.csv"]
        assert path.read_bytes() == savetxt_bytes(series)

    @pytest.mark.parametrize("name", ["a,b", "a\rb", "a\nb", "a\r\n", ","])
    def test_name_that_breaks_the_header_refused(self, name, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match="CSV column name"):
            write_timeseries(TimeSeries([name], [[0.0, 0.5]]), "csv", path)
        assert not path.exists()

    def test_name_that_is_not_utf8_refused(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError):
            write_timeseries(TimeSeries(["population:\ud800"], [[0.0, 0.5]]), "csv", path)
        assert not path.exists()

    def test_unicode_names_round_trip_in_an_ascii_locale(self, tmp_path):
        path = tmp_path / "x.csv"
        script = ("import sys, numpy as np; from eetsim.timeseries import TimeSeries, read_timeseries, write_timeseries; "
                  "names = ['\\u03c1:0', '\\u03c3:1']; "
                  "write_timeseries(TimeSeries(names, np.array([[0.0, 0.5, 1.5]])), 'csv', sys.argv[1]); "
                  "print(read_timeseries(sys.argv[1]).names == names)")
        src = str(Path(eetsim.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONIOENCODING": "utf-8", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"
        assert path.read_bytes().startswith("t,ρ:0,σ:1\r\n".encode("utf-8"))
