import numpy as np
import pytest

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
