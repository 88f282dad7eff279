import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import eetsim.integrate
from eetsim import (
    build_aggregate,
    fmo_model_path,
    initial_rst_pure,
    load_model,
    make_chain,
    propagate_classical_rst,
)
from eetsim.classical import RstState, _rst_rhs
from eetsim.errors import EetsimError, NormCollapse, StepTooLarge, ValidationError
from eetsim.integrate import (
    TimeGrid,
    _expm,
    _substeps,
    expm_propagate,
    rate_scale,
    resolve_step,
)
from eetsim.quantum import _lindblad_rhs, _pack_density


def _fmo_engine(shift, engine):
    """Derivative callback and initial flat state of an engine on FMO, shifted by ``shift`` cm^-1."""
    doc = json.loads(fmo_model_path().read_text())
    doc["shift"] = shift
    model, init = load_model(doc)
    if engine == "lindblad":
        return _lindblad_rhs(model), _pack_density(init.rho.data)
    return _rst_rhs(model, quantum=engine == "quantum-rst"), initial_rst_pure(init.amplitudes).pack()


def _chain_engine(n_sites, epsilon, engine):
    """Derivative callback and initial flat state of an engine on a chain with V = gamma = 1."""
    model, init = make_chain(n_sites, 1.0, epsilon, 1.0, 0)
    if engine == "lindblad":
        return _lindblad_rhs(model), _pack_density(init.rho.data)
    return _rst_rhs(model, quantum=False), initial_rst_pure(init.amplitudes).pack()


class TestTimeGrid:
    def test_times_span(self):
        grid = TimeGrid(0.0, 2.0, 5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_reversed_range_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 1.0, 5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 1)

    def test_step_exceeding_spacing_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 11, dt_integrate=0.2)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 11, dt_integrate=0.0)

    @pytest.mark.parametrize("t_start,t_end", [
        (0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (np.nan, 1.0), (-1e308, 1e308),
    ], ids=["end-inf", "start-minus-inf", "end-nan", "start-nan", "spacing-overflows"])
    def test_non_finite_rejected(self, t_start, t_end):
        with pytest.raises(ValidationError):
            TimeGrid(t_start, t_end, 3)


class TestStepRule:
    def test_rate_scale(self):
        model = build_aggregate([3.0, -5.0], [[0.0, 2.0], [2.0, 0.0]], [1.0, 0.5])
        assert rate_scale(model) == 8.0  # max(ptp eps=8, gamma=1, 2V=4)

    def test_default_step(self):
        grid = TimeGrid(0.0, 10.0, 101)
        model = build_aggregate([10.0, 0.0], np.zeros((2, 2)), [0.0, 0.0])
        assert np.isclose(resolve_step(model, grid), 0.001)
        # the on-site rotation commutes with the kicks: with V = gamma = 0 a
        # uniform eps sets no rate, and the step is the spacing
        model = build_aggregate([10.0, 10.0], np.zeros((2, 2)), [0.0, 0.0])
        assert resolve_step(model, grid) == grid.spacing

    def test_zero_scale_uses_spacing(self):
        model = build_aggregate([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 11)
        assert np.isclose(resolve_step(model, grid), 0.1)

    def test_guard_refuses_coarse_step(self):
        model = build_aggregate([40.0, 40.0], [[0, 1], [1, 0]], [1.0, 1.0])
        grid = TimeGrid(0.0, 10.0, 101, dt_integrate=0.1)
        with pytest.raises(StepTooLarge):
            resolve_step(model, grid)

    def test_overflowing_rate_refused(self):
        # 2V overflows to inf, so the default step would be 0
        model = build_aggregate([1.0, 1.0], [[0.0, 1e308], [1e308, 0.0]], [0.0, 0.0])
        with pytest.raises(StepTooLarge):
            resolve_step(model, TimeGrid(0.0, 1.0, 3))

    def test_overflowing_spread_refused(self):
        # ptp(eps) = 2e308 overflows to inf: refused like an overflowing V,
        # with no numpy warning
        model = build_aggregate([1e308, -1e308], np.zeros((2, 2)), [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rate_scale(model) == np.inf
            with pytest.raises(StepTooLarge):
                resolve_step(model, TimeGrid(0.0, 1.0, 3))

    def test_substep_plan_covers_intervals(self):
        grid = TimeGrid(0.0, 1.0, 5)
        n_sub, h = _substeps(grid.spacing, 0.1)
        assert n_sub == 3 and np.isclose(h, 0.25 / 3)

    @pytest.mark.parametrize("span,dt", [(5e307, 5e-3), (0.5, 1e-320)])
    def test_uncountable_substeps_refused(self, span, dt):
        with pytest.raises(EetsimError, match="too many substeps"):
            _substeps(span, dt)


class TestKnownSolutions:
    """expm_propagate on systems with a known solution."""

    def test_exponential_decay(self):
        grid = TimeGrid(0.0, 3.0, 31)
        out = expm_propagate(lambda y: -y, np.array([1.0]), grid)
        assert np.abs(out[:, 0] - np.exp(-grid.times)).max() < 1e-14

    def test_samples_at_grid_points(self):
        grid = TimeGrid(0.0, 1.0, 6)
        out = expm_propagate(lambda y: 0.0 * y, np.array([2.0, 3.0]), grid)
        assert out.shape == (6, 2)
        assert np.all(out == [2.0, 3.0])


class TestExactFlow:
    @pytest.mark.parametrize("max_dim", [600, 0], ids=["dense", "krylov"])
    def test_matches_exact_solution(self, monkeypatch, max_dim):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        y0 = rng.normal(size=4)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", max_dim)
        grid = TimeGrid(0.0, 1.0, 5)
        out = expm_propagate(lambda y: y @ a.T, y0, grid)  # a state or a stack of states as rows
        exact = np.array([scipy.linalg.expm(a * t) @ y0 for t in grid.times])
        assert np.abs(out - exact).max() <= 1e-13 * np.abs(exact).max()


class TestExpm:
    @pytest.mark.parametrize("dim", [5, 20, 50, 105])
    @pytest.mark.parametrize("norm", [0.1, 1.0, 5.0, 30.0])
    def test_matches_scipy(self, dim, norm):
        # 1-norms from 0.1 sqrt(D) to 30 sqrt(D), general and antisymmetric
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        for b in (a, a - a.T):
            b = b * (norm * np.sqrt(dim) / np.abs(b).sum(axis=0).max())
            expected = scipy.linalg.expm(b)
            assert np.abs(_expm(b) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_zero_is_identity(self):
        assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("a", [
        np.full((3, 3), 1e308), np.diag([1.0, np.inf]), np.diag([1.0, np.nan]), np.diag([800.0, 0.0]),
    ], ids=["norm-overflows", "inf-entry", "nan-entry", "result-overflows"])
    def test_non_finite_refused(self, a):
        # an EetsimError, not an OverflowError or a numpy RuntimeWarning
        with pytest.raises(EetsimError) as info:
            _expm(a)
        assert type(info.value) is EetsimError


class TestKrylov:
    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    def test_matches_dense_on_fmo(self, monkeypatch, engine):
        # realistic FMO energies: each 0.01 interval turns the classical
        # on-site terms by about 45 rad, so the Krylov path must split it
        rhs, y0 = _fmo_engine(0.0, engine)
        grid = TimeGrid(0.0, 0.2, 21)
        assert y0.size <= eetsim.integrate._DENSE_MAX_DIM
        dense = expm_propagate(rhs, y0, grid)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        krylov = expm_propagate(rhs, y0, grid)
        assert np.abs(krylov - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_zero_state_stays_zero(self):
        # 18 sites: the classical moment state (D = 666) takes the Krylov path
        rhs, y0 = _chain_engine(18, 40.0, "classical")
        assert y0.size == 666 > eetsim.integrate._DENSE_MAX_DIM
        out = expm_propagate(rhs, np.zeros_like(y0), TimeGrid(0.0, 1.0, 4))
        assert out.shape == (4, 666) and not out.any()

    def test_zero_classical_state_collapses(self):
        model, _ = make_chain(18, 1.0, 40.0, 1.0, 0)
        zero = np.zeros((18, 18))
        with pytest.raises(NormCollapse):
            propagate_classical_rst(model, RstState(zero, zero, zero), TimeGrid(0.0, 1.0, 4))

    def test_non_finite_state_refused(self):
        rhs, y0 = _chain_engine(18, 40.0, "classical")
        y0[0] = np.nan
        with pytest.raises(EetsimError, match="state is not finite") as info:
            expm_propagate(rhs, y0, TimeGrid(0.0, 1.0, 4))
        assert type(info.value) is EetsimError

    def test_split_interval_honours_estimate(self, monkeypatch):
        # a fast rotation with damping: no basis of _KRYLOV_MAX_DIM vectors
        # spans one interval, so each interval is split into shorter steps
        rng = np.random.default_rng(5)
        dim = 160
        a = rng.normal(size=(dim, dim))
        a = 60.0 * (a - a.T) / np.sqrt(dim) - np.diag(rng.uniform(0.0, 1.0, dim))
        y0 = rng.normal(size=dim)
        calls = []

        def rhs(y):
            calls.append(None)
            return a @ y

        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        grid = TimeGrid(0.0, 1.0, 3)
        out = expm_propagate(rhs, y0, grid)
        assert len(calls) > 2 * eetsim.integrate._KRYLOV_MAX_DIM
        for t, y in zip(grid.times, out):
            exact = scipy.linalg.expm(a * t) @ y0
            assert np.abs(y - exact).max() <= 1e-10 * np.abs(y0).max()

    @pytest.mark.parametrize("engine, epsilon, t_end", [("lindblad", 1.0, 1000.0), ("classical", 40.0, 100.0)])
    def test_long_interval_matches_dense(self, monkeypatch, engine, epsilon, t_end):
        # tau |H_m| in the hundreds: the last entry of e^{tau H_m} e_1
        # underflows, so an estimate taken from it passes a collapsed
        # two-vector step; the phi_1 estimate does not underflow
        rhs, y0 = _chain_engine(5 if engine == "lindblad" else 8, epsilon, engine)
        grid = TimeGrid(0.0, t_end, 3)
        dense = expm_propagate(rhs, y0, grid)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        krylov = expm_propagate(rhs, y0, grid)
        assert np.abs(krylov - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    @pytest.mark.parametrize("epsilon", [40.0, 1.0])
    def test_one_exponential_per_step(self, monkeypatch, engine, epsilon):
        # the estimate is checked from the basis size the previous step
        # needed, so the basis grows past it (one more exponential per
        # vector) at most _KRYLOV_MAX_DIM times over the whole run, and every
        # other exponential serves a step that writes at least one sample
        rhs, y0 = _chain_engine(8, epsilon, engine)
        calls = []
        expm = eetsim.integrate._expm

        def counted(a):
            calls.append(None)
            return expm(a)

        monkeypatch.setattr(eetsim.integrate, "_expm", counted)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        grid = TimeGrid(0.0, 10.0, 201)
        expm_propagate(rhs, y0, grid)
        assert len(calls) <= grid.n_samples - 1 + eetsim.integrate._KRYLOV_MAX_DIM

    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    @pytest.mark.parametrize("epsilon", [40.0, 1.0])
    def test_basis_spanning_several_intervals_matches_scipy(self, monkeypatch, engine, epsilon):
        # one Arnoldi basis writes every sample its estimate passes, and each
        # of them, not only the last, matches e^{L t} y0
        rhs, y0 = _chain_engine(8, epsilon, engine)
        generator = np.column_stack([rhs(e) for e in np.eye(y0.size)])
        spans = []
        passing_powers = eetsim.integrate._passing_powers

        def counted(flow, scale, limit):
            passed = passing_powers(flow, scale, limit)
            spans.append(len(passed))
            return passed

        monkeypatch.setattr(eetsim.integrate, "_passing_powers", counted)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        grid = TimeGrid(0.0, 2.5, 51)
        out = expm_propagate(rhs, y0, grid)
        assert max(spans) > 1
        exact = np.array([scipy.linalg.expm(generator * t) @ y0 for t in grid.times])
        assert np.abs(out - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_basis_spanning_past_the_grid_stops_at_its_end(self, monkeypatch):
        # three decay rates: the basis breaks down at three vectors and would
        # cover any number of samples; exactly n_samples rows come back
        dim = 40
        rates = np.array([0.5, 1.0, 2.0])[np.arange(dim) % 3]
        y0 = np.linspace(1.0, 2.0, dim)
        calls = []

        def rhs(y):
            calls.append(None)
            return -rates * y

        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        grid = TimeGrid(0.0, 2.0, 5)
        out = expm_propagate(rhs, y0, grid)
        assert out.shape == (grid.n_samples, dim)
        assert len(calls) == 3
        exact = np.exp(-np.outer(grid.times, rates)) * y0
        assert np.abs(out - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_chain29_takes_fewer_products_than_intervals(self):
        # the README's 29-site chain at eps = 40 (flat dimension 1682, beyond
        # the dense threshold): one basis per interval took 8 products each;
        # bases spanning several intervals take fewer than one per interval
        model, init = make_chain(29, 1.0, 40.0, 1.0, 14)
        rhs = _lindblad_rhs(model)
        calls = []

        def counted(y):
            calls.append(None)
            return rhs(y)

        grid = TimeGrid(0.0, 10.0, 201)
        y0 = _pack_density(init.rho.data)
        assert y0.size > eetsim.integrate._DENSE_MAX_DIM
        expm_propagate(counted, y0, grid)
        assert len(calls) < grid.n_samples - 1


def _record_basis_sizes(monkeypatch) -> list:
    """Patch _expm to record the basis size m of every [[tau H_m, e_1], [0, 0]] it exponentiates."""
    sizes = []
    expm = eetsim.integrate._expm

    def recorded(a):
        sizes.append(a.shape[0] - 1)
        return expm(a)

    monkeypatch.setattr(eetsim.integrate, "_expm", recorded)
    monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
    return sizes


class TestKrylovBasisSize:
    """Each basis grows to where its counted work per written sample stops falling."""

    @staticmethod
    def _chain29_runs():
        # the README's and the benchmark's 29-site runs: eps = 40 and the noise-free Bessel check
        model, init = make_chain(29, 1.0, 40.0, 1.0, 14)
        free, free_init = make_chain(29, 1.0, 0.0, 0.0, 14)
        grid = TimeGrid(0.0, 10.0, 201)
        return {
            "classical": (_rst_rhs(model, quantum=False), initial_rst_pure(init.amplitudes).pack(), grid),
            "lindblad": (_lindblad_rhs(model), _pack_density(init.rho.data), grid),
            "bessel-lindblad": (_lindblad_rhs(free), _pack_density(free_init.rho.data), TimeGrid(0.0, 6.0, 121)),
        }

    def test_chain29_products(self):
        # a fixed basis of 30 vectors took 1380, 120 and 90 products
        most = {"classical": 700, "lindblad": 120, "bessel-lindblad": 90}
        for name, (rhs, y0, grid) in self._chain29_runs().items():
            assert y0.size > eetsim.integrate._DENSE_MAX_DIM
            calls = []
            expm_propagate(lambda y: calls.append(None) or rhs(y), y0, grid)
            assert len(calls) <= most[name], name

    def test_reruns_are_bit_identical(self):
        # the basis size follows counted work, never a clock
        rhs, y0, grid = self._chain29_runs()["classical"]
        assert np.array_equal(expm_propagate(rhs, y0, grid), expm_propagate(rhs, y0, grid))

    def test_bases_past_30_vectors_match_scipy(self, monkeypatch):
        rhs, y0 = _chain_engine(8, 40.0, "classical")
        generator = np.column_stack([rhs(e) for e in np.eye(y0.size)])
        sizes = _record_basis_sizes(monkeypatch)
        grid = TimeGrid(0.0, 10.0, 201)
        out = expm_propagate(rhs, y0, grid)
        assert max(sizes) > 30
        # every tenth sample: each of the three bases writes 47 to 80 samples
        exact = np.array([scipy.linalg.expm(generator * t) @ y0 for t in grid.times[::10]])
        assert np.abs(out[::10] - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("dim", [5000, 12000])
    def test_byte_budget_caps_the_basis(self, monkeypatch, dim):
        # decay rates up to 3000 over one interval: no basis within the cap
        # spans it, so every basis grows to the cap the byte budget sets
        ig = eetsim.integrate
        cap = min(ig._KRYLOV_MAX_DIM, max(ig._KRYLOV_MIN_DIM, ig._KRYLOV_BASIS_BYTES // (8 * dim)))
        assert cap < ig._KRYLOV_MAX_DIM
        rates = np.linspace(0.0, 3000.0, dim)
        y0 = np.ones(dim)
        sizes = _record_basis_sizes(monkeypatch)
        tracemalloc.start()
        try:
            out = expm_propagate(lambda y: -rates * y, y0, TimeGrid(0.0, 1.0, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(sizes) == cap
        assert peak <= 8 * dim * (cap + 16)  # the basis and a few state vectors
        assert np.abs(out[1] - np.exp(-rates)).max() <= 1e-12 * np.linalg.norm(y0)


class TestDenseOrCallback:
    @pytest.mark.parametrize("dim", [12, 601])
    def test_rhs_calls_pin_the_choice(self, dim):
        # up to the threshold: one probe of the whole identity stack, then
        # matrix products only; above it: Krylov products and no probes.  The
        # basis of -0.1 I breaks down at one vector, which spans the whole
        # grid, so one call either way
        a = -0.1 * np.eye(dim)
        calls = []

        def rhs(y):
            calls.append(y.copy())
            return y @ a.T

        grid = TimeGrid(0.0, 1.0, 4)
        out = expm_propagate(rhs, np.ones(dim), grid)
        assert np.abs(out - np.exp(-0.1 * grid.times)[:, None]).max() <= 1e-14
        assert len(calls) == 1
        if dim <= eetsim.integrate._DENSE_MAX_DIM:
            assert np.array_equal(calls[0], np.eye(dim))
        else:
            assert np.allclose(calls[0], dim**-0.5, rtol=0.0, atol=1e-15)


class TestDenseProbe:
    @pytest.mark.parametrize("engine", ["lindblad", "quantum-rst", "classical-rst"])
    def test_one_call_equals_stacked_derivatives(self, engine):
        # the identity stack in one call gives, row for row, the bytes of one
        # call per basis vector
        rhs, y0 = _fmo_engine(0.0, engine)
        basis = np.eye(y0.size)
        assert np.array_equal(rhs(basis), np.stack([rhs(e) for e in basis]))

    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    @pytest.mark.parametrize("shift", [0.0, -12000.0], ids=["realistic", "shifted"])
    def test_fmo_matches_scipy(self, engine, shift):
        # the README's FMO grid: 100 products with the interval map, checked
        # at every tenth sample
        rhs, y0 = _fmo_engine(shift, engine)
        assert y0.size <= eetsim.integrate._DENSE_MAX_DIM
        generator = np.column_stack([rhs(e) for e in np.eye(y0.size)])
        grid = TimeGrid(0.0, 1.0, 101)
        out = expm_propagate(rhs, y0, grid)[::10]
        exact = np.array([scipy.linalg.expm(generator * t) @ y0 for t in grid.times[::10]])
        assert np.abs(out - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    def test_peak_memory_at_17_sites(self, engine):
        # the 17-site chain, flat dimension 578 (Lindblad) and 595 (classical),
        # just below the dense threshold: the peak is _expm's six D x D arrays,
        # the generator and the sampled output; probing the identity stack in
        # one call must not add to it
        model, init = make_chain(17, 1.0, 40.0, 1.0, 8)
        grid = TimeGrid(0.0, 10.0, 201)
        if engine == "lindblad":
            run, dim = lambda: eetsim.propagate_lindblad(model, init.rho, grid), 2 * 17**2
        else:
            rst0 = initial_rst_pure(init.amplitudes)
            run, dim = lambda: eetsim.propagate_classical_rst(model, rst0, grid), 17 * 35
        assert dim <= eetsim.integrate._DENSE_MAX_DIM
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * dim * dim * 8
