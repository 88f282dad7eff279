import numpy as np
import pytest

from eetsim import build_aggregate, initial_rst_pure, load_model, fmo_model_path
from eetsim.classical import _rst_rhs
from eetsim.errors import StepTooLarge, ValidationError
from eetsim.integrate import (
    TimeGrid,
    _rk4_map,
    linearize_rhs,
    rate_scale,
    resolve_step,
    rk4_propagate,
    substep_plan,
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

    def test_substep_plan_covers_intervals(self):
        grid = TimeGrid(0.0, 1.0, 5)
        plan = substep_plan(grid, 0.1)
        assert len(plan) == 4
        for n_sub, h in plan:
            assert n_sub == 3 and np.isclose(h, 0.25 / 3)


class TestRk4:
    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = a - 2.0 * np.eye(4)  # keep it stable
        y0 = rng.normal(size=4)

        import scipy.linalg

        exact = scipy.linalg.expm(a) @ y0
        # the callback loop and the dense per-interval map
        for rhs in (lambda y: a @ y, a):
            errors = []
            for dt in (0.05, 0.025):
                grid = TimeGrid(0.0, 1.0, 2, dt_integrate=dt)
                out = rk4_propagate(rhs, y0, grid, dt)
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


class TestLinearize:
    def test_matches_direct_rhs(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12))
        direct = lambda y: a @ y
        generator = linearize_rhs(direct, 12)
        for _ in range(5):
            y = rng.normal(size=12)
            assert np.allclose(generator @ y, direct(y), atol=1e-13)

    def test_passthrough_beyond_threshold(self):
        direct = lambda y: 2.0 * y
        assert linearize_rhs(direct, 1000) is direct


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
    def test_fmo_matches_callback_loop(self, engine):
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
        generator = linearize_rhs(rhs, y0.size)
        assert generator.shape == (y0.size, y0.size)
        mapped = rk4_propagate(generator, y0, grid, dt)
        stepped = rk4_propagate(lambda y: generator @ y, y0, grid, dt)
        assert np.abs(mapped - stepped).max() <= 2e-13 * np.abs(stepped).max()
