import warnings

import numpy as np
import pytest
import scipy.linalg

import eetsim.integrate
from eetsim import build_aggregate, initial_rst_pure, load_model, fmo_model_path, make_chain
from eetsim.classical import _rst_rhs
from eetsim.errors import EetsimError, StepTooLarge, ValidationError
from eetsim.integrate import (
    TimeGrid,
    _expm,
    _substeps,
    expm_propagate,
    rate_scale,
    resolve_step,
)
from eetsim.quantum import _lindblad_rhs, _pack_density


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
        out = expm_propagate(lambda y: a @ y, y0, grid)
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
        model, init = load_model(fmo_model_path())
        if engine == "lindblad":
            rhs = _lindblad_rhs(model)
            y0 = _pack_density(init.rho.data)
        else:
            rhs = _rst_rhs(model, quantum=False)
            y0 = initial_rst_pure(init.amplitudes).pack()
        grid = TimeGrid(0.0, 0.2, 21)
        assert y0.size <= eetsim.integrate._DENSE_MAX_DIM
        dense = expm_propagate(rhs, y0, grid)
        monkeypatch.setattr(eetsim.integrate, "_DENSE_MAX_DIM", 0)
        krylov = expm_propagate(rhs, y0, grid)
        assert np.abs(krylov - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_split_interval_honours_estimate(self, monkeypatch):
        # a fast rotation with damping: no basis of _KRYLOV_MAX_DIM vectors
        # spans one interval, so each interval is split into shorter steps
        rng = np.random.default_rng(5)
        dim = 80
        a = rng.normal(size=(dim, dim))
        a = 20.0 * (a - a.T) / np.sqrt(dim) - np.diag(rng.uniform(0.0, 1.0, dim))
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
        # vector) at most _KRYLOV_MAX_DIM times over the whole run
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


class TestDenseOrCallback:
    @pytest.mark.parametrize("dim", [12, 601])
    def test_rhs_calls_pin_the_choice(self, dim):
        # up to the threshold: one probe per basis vector, then matrix
        # products only; above it: Krylov products and no probes.  -0.1 I
        # leaves every Krylov basis at one vector, so one call per interval
        a = -0.1 * np.eye(dim)
        calls = []

        def rhs(y):
            calls.append(y.copy())
            return a @ y

        grid = TimeGrid(0.0, 1.0, 4)
        out = expm_propagate(rhs, np.ones(dim), grid)
        assert np.abs(out - np.exp(-0.1 * grid.times)[:, None]).max() <= 1e-14
        if dim <= eetsim.integrate._DENSE_MAX_DIM:
            assert len(calls) == dim
            assert np.array_equal(np.array(calls), np.eye(dim))
        else:
            assert len(calls) == grid.n_samples - 1
            assert np.allclose(np.array(calls), dim**-0.5, rtol=0.0, atol=1e-15)
