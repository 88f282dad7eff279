import numpy as np
import pytest

import eetsim.integrate
from eetsim import build_aggregate, initial_rst_pure, load_model, fmo_model_path
from eetsim.classical import _rst_rhs
from eetsim.errors import EetsimError, StepTooLarge, ValidationError
from eetsim.integrate import (
    TimeGrid,
    _rk4_map,
    _substeps,
    rate_scale,
    resolve_step,
    rk4_propagate,
)
from eetsim.quantum import _lindblad_rhs, _pack_density


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
        assert rate_scale(model) == 5.0  # max(|eps|=5, gamma=1, 2V=4)

    def test_default_step(self):
        model = build_aggregate([10.0, 10.0], np.zeros((2, 2)), [0.0, 0.0])
        grid = TimeGrid(0.0, 10.0, 101)
        assert np.isclose(resolve_step(model, grid), 0.001)

    def test_zero_scale_uses_spacing(self):
        model = build_aggregate([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 11)
        assert np.isclose(resolve_step(model, grid), 0.1)

    def test_guard_refuses_coarse_step(self):
        model = build_aggregate([40.0, 40.0], [[0, 1], [1, 0]], [1.0, 1.0])
        grid = TimeGrid(0.0, 10.0, 101, dt_integrate=0.05)
        with pytest.raises(StepTooLarge):
            resolve_step(model, grid)

    def test_overflowing_rate_refused(self):
        # 2V overflows to inf, so the default step would be 0
        model = build_aggregate([1.0, 1.0], [[0.0, 1e308], [1e308, 0.0]], [0.0, 0.0])
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


class TestRk4:
    def test_fourth_order_convergence(self, monkeypatch):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = a - 2.0 * np.eye(4)  # keep it stable
        y0 = rng.normal(size=4)

        import scipy.linalg

        exact = scipy.linalg.expm(a) @ y0
        # the callback loop and the dense per-interval map
        for max_dim in (0, 600):
            monkeypatch.setattr(eetsim.integrate, "_LINEARIZE_MAX_DIM", max_dim)
            errors = []
            for dt in (0.05, 0.025):
                grid = TimeGrid(0.0, 1.0, 2, dt_integrate=dt)
                out = rk4_propagate(lambda y: a @ y, y0, grid, dt)
                errors.append(np.abs(out[-1] - exact).max())
            ratio = errors[0] / errors[1]
            assert 12.0 < ratio < 20.0

    def test_exponential_decay(self):
        grid = TimeGrid(0.0, 3.0, 31)
        out = rk4_propagate(lambda y: -y, np.array([1.0]), grid, 0.01)
        assert np.abs(out[:, 0] - np.exp(-grid.times)).max() < 1e-9

    def test_samples_at_grid_points(self):
        grid = TimeGrid(0.0, 1.0, 6)
        out = rk4_propagate(lambda y: 0.0 * y, np.array([2.0, 3.0]), grid, 0.07)
        assert out.shape == (6, 2)
        assert np.all(out == [2.0, 3.0])


class TestDenseOrCallback:
    @pytest.mark.parametrize("dim", [12, 601])
    def test_rhs_calls_pin_the_choice(self, dim):
        # up to the threshold: one probe per basis vector, then matrix
        # products only; above it: four calls per substep and no probes
        a = -0.1 * np.eye(dim)
        calls = []

        def rhs(y):
            calls.append(y.copy())
            return a @ y

        grid = TimeGrid(0.0, 1.0, 4)
        rk4_propagate(rhs, np.ones(dim), grid, 0.1)
        n_sub, _ = _substeps(grid.spacing, 0.1)
        if dim <= eetsim.integrate._LINEARIZE_MAX_DIM:
            assert len(calls) == dim
            assert np.array_equal(np.array(calls), np.eye(dim))
        else:
            assert len(calls) == 4 * n_sub * (grid.n_samples - 1)
            assert np.array_equal(calls[0], np.ones(dim))


def rk4_step_matrix(a, h):
    ah = h * a
    return sum(np.linalg.matrix_power(ah, k) / f for k, f in enumerate((1, 1, 2, 6, 24)))


class TestRk4Map:
    @pytest.mark.parametrize("n_sub", [1, 2, 7, 2380])
    def test_equals_power_of_step_matrix(self, n_sub):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) - 2.0 * np.eye(6)
        h = 1e-3
        expected = np.linalg.matrix_power(rk4_step_matrix(a, h), n_sub)
        got = _rk4_map(a, n_sub, h)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("engine", ["lindblad", "classical"])
    def test_fmo_matches_callback_loop(self, monkeypatch, engine):
        # realistic FMO energies, 20 intervals of 2380 substeps.  Rounding in
        # the dense powers grows with the rotation per interval: 1e-13 on
        # the classical D = 147 system, whose on-site terms turn 45 rad per
        # interval, 6e-15 on the Lindblad D = 98 one, which sees only gaps
        model, init = load_model(fmo_model_path())
        if engine == "lindblad":
            rhs = _lindblad_rhs(model)
            y0 = _pack_density(init.rho.data)
        else:
            rhs = _rst_rhs(model, quantum=False)
            y0 = initial_rst_pure(init.amplitudes).pack()
        grid = TimeGrid(0.0, 0.2, 21)
        dt = resolve_step(model, grid)
        assert y0.size <= eetsim.integrate._LINEARIZE_MAX_DIM
        mapped = rk4_propagate(rhs, y0, grid, dt)
        monkeypatch.setattr(eetsim.integrate, "_LINEARIZE_MAX_DIM", 0)
        stepped = rk4_propagate(rhs, y0, grid, dt)
        assert np.abs(mapped - stepped).max() <= 2e-13 * np.abs(stepped).max()
