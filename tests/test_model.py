import warnings

import numpy as np
import pytest

from eetsim import (
    DensityMatrix,
    NoiseSpec,
    TimeGrid,
    build_aggregate,
    initial_rst_pure,
    make_chain,
    pure_density,
    run_sse_ensemble,
)
from eetsim.errors import (
    AsymmetricCoupling,
    DimensionMismatch,
    NegativeRate,
    NotPositive,
    ValidationError,
    ZeroState,
)
from eetsim.model import AggregateModel, _check_stack, convert_energy, rca_check


def nn_chain_arrays(n, v, eps, gamma):
    coupling = np.zeros((n, n))
    for k in range(n - 1):
        coupling[k, k + 1] = coupling[k + 1, k] = v
    return np.full(n, eps), coupling, np.full(n, gamma)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def density_stack(n_samples, n, seed):
    """Unit-trace positive matrices h h^H / tr(h h^H) from random Hermitian h."""
    h = np.array([random_hermitian(n, seed + k) for k in range(n_samples)])
    rho = h @ h
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def raises_exactly(exc_type, fn, *args):
    with pytest.raises(exc_type) as info:
        fn(*args)
    assert type(info.value) is exc_type


class TestBuildAggregate:
    def test_decoupled_two_sites(self):
        model = build_aggregate([1.0, 1.0], [[0, 0], [0, 0]], [0.0, 0.0])
        assert model.n_sites == 2
        assert np.all(model.coupling == 0.0)

    def test_fig1_chain_model(self):
        eps, v, gam = nn_chain_arrays(29, 1.0, 40.0, 1.0)
        model = build_aggregate(eps, v, gam)
        assert model.n_sites == 29
        assert model.coupling[13, 14] == 1.0
        assert model.coupling[14, 13] == 1.0
        assert model.coupling[0, 2] == 0.0

    def test_asymmetric_coupling_rejected(self):
        v = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(AsymmetricCoupling):
            build_aggregate([1.0, 1.0], v, [0.0, 0.0])

    def test_rounding_level_asymmetry_averaged(self):
        v = np.array([[0.0, 1.0], [1.0 + 4e-16, 0.0]])
        model = build_aggregate([1.0, 1.0], v, [0.0, 0.0])
        assert model.coupling[0, 1] == model.coupling[1, 0]

    def test_coupling_near_float_limit_stays_finite(self):
        model = build_aggregate([1.0, 1.0], [[0.0, 1e308], [1e308, 0.0]], [0.0, 0.0])
        assert model.coupling[0, 1] == model.coupling[1, 0] == 1e308

    def test_asymmetry_near_float_limit_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AsymmetricCoupling):
                build_aggregate([1.0, 1.0], [[0.0, 1e308], [-1e308, 0.0]], [0.0, 0.0])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(AsymmetricCoupling):
            build_aggregate([1.0, 1.0], [[0.5, 1.0], [1.0, 0.0]], [0.0, 0.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            build_aggregate([1.0, 1.0], [[0, 1], [1, 0]], [0.1, -0.1])

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            build_aggregate([1.0, 1.0, 1.0], [[0, 1], [1, 0]], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            build_aggregate([1.0, 1.0], [[0, 1], [1, 0]], [0.0, 0.0, 0.0])

    def test_nonfinite_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            build_aggregate([1.0, np.inf], [[0, 1], [1, 0]], [0.0, 0.0])

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_nonfinite_gamma_rejected(self, rate):
        with pytest.raises(ValidationError, match="gamma"):
            build_aggregate([1.0, 1.0], [[0, 1], [1, 0]], [0.1, rate])

    def test_readback_identity(self):
        eps, v, gam = nn_chain_arrays(5, 0.7, 3.0, 0.2)
        model = build_aggregate(eps, v, gam, units="dimensionless-in-V")
        assert np.array_equal(model.epsilon, eps)
        assert np.array_equal(model.coupling, v)
        assert np.array_equal(model.gamma, gam)
        assert model.units == "dimensionless-in-V"

    def test_scalar_gamma_broadcasts(self):
        model = build_aggregate([1.0, 1.0, 1.0], np.zeros((3, 3)), 0.25)
        assert np.array_equal(model.gamma, [0.25, 0.25, 0.25])

    def test_arrays_immutable(self):
        model = build_aggregate([1.0, 1.0], [[0, 1], [1, 0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            model.coupling[0, 1] = 2.0

    def test_shifted_model_is_checked_and_immutable(self):
        model = build_aggregate([1.0, 2.0], [[0, 1], [1, 0]], [0.1, 0.2])
        shifted = model.with_shifted_energies(-0.5)
        assert np.array_equal(shifted.epsilon, [0.5, 1.5])
        assert np.array_equal(shifted.coupling, model.coupling) and np.array_equal(shifted.gamma, model.gamma)
        for arr in (shifted.epsilon, shifted.coupling, shifted.gamma):
            with pytest.raises(ValueError):
                arr[0] = 3.0

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_shift_rejected(self, delta):
        model = build_aggregate([1.0, 2.0], [[0, 1], [1, 0]], [0.1, 0.2])
        raises_exactly(ValidationError, model.with_shifted_energies, delta)


class TestRcaCheck:
    def test_fig1_chain_passes(self):
        eps, v, gam = nn_chain_arrays(29, 1.0, 40.0, 1.0)
        report = rca_check(build_aggregate(eps, v, gam))
        assert np.isclose(report.ratio_v, 0.025)
        assert np.isclose(report.ratio_gamma, 0.025)
        assert report.ratio_detune == 0.0
        assert report.verdict == "pass"

    def test_strong_noise_fails(self):
        eps, v, gam = nn_chain_arrays(29, 1.0, 1.0, 20.0)
        report = rca_check(build_aggregate(eps, v, gam))
        assert report.ratio_gamma == 20.0
        assert report.verdict == "fail"

    def test_single_site_passes(self):
        report = rca_check(build_aggregate([5.0], np.zeros((1, 1)), [0.0]))
        assert report.ratio_v == 0.0
        assert report.ratio_detune == 0.0
        assert report.ratio_gamma == 0.0
        assert report.verdict == "pass"

    @pytest.mark.parametrize("scale", [0.1, 1.0, 7.3, 1e4])
    def test_rescaling_invariance(self, scale):
        eps, v, gam = nn_chain_arrays(5, 1.0, 12.0, 0.6)
        base = rca_check(build_aggregate(eps, v, gam))
        scaled = rca_check(build_aggregate(scale * eps, scale * v, scale * gam))
        assert np.isclose(base.ratio_v, scaled.ratio_v)
        assert np.isclose(base.ratio_detune, scaled.ratio_detune)
        assert np.isclose(base.ratio_gamma, scaled.ratio_gamma)
        assert base.verdict == scaled.verdict

    def test_nonpositive_frequency_reports_fail(self):
        report = rca_check(build_aggregate([0.0, 1.0], np.zeros((2, 2)), [0.0, 0.0]))
        assert report.verdict == "fail"
        assert "frequency" in report.reason

    def test_marginal_band(self):
        eps, v, gam = nn_chain_arrays(3, 1.0, 4.0, 0.0)  # ratio_v = 0.25
        report = rca_check(build_aggregate(eps, v, gam))
        assert report.verdict == "marginal"


class TestConvertEnergy:
    def test_zero(self):
        assert convert_energy(0.0) == 0.0

    def test_one_wavenumber(self):
        # 2 pi c with c = 0.0299792458 cm/ps
        assert abs(convert_energy(1.0) - 0.18836515673) < 1e-11

    def test_fmo_scale(self):
        assert abs(convert_energy(12000.0) - 2260.3818807706) < 1e-9

    def test_array_input(self):
        out = convert_energy(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert abs(out[1] - 0.18836515673) < 1e-11


class TestDensityMatrix:
    def test_valid_pure_state(self):
        dm = pure_density([1.0, 1.0j])
        assert dm.dimension == 2
        assert np.isclose(dm.trace, 1.0)
        assert np.isclose(np.diag(dm.data).real.sum(), 1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            DensityMatrix(np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("caller,exc_type", [
        (pure_density, ValidationError),
        (initial_rst_pure, ZeroState),
        (lambda c: run_sse_ensemble(make_chain(2, 1.0, 2.0, 1.0, 0)[0], c, TimeGrid(0.0, 1.0, 3),
                                    NoiseSpec(gamma=np.ones(2), seed=1), n_traj=2), ZeroState),
    ], ids=["pure_density", "initial_rst_pure", "run_sse_ensemble"])
    def test_non_finite_amplitudes_rejected(self, caller, exc_type, value):
        # the zero-norm check also refuses a NaN or infinite amplitude, without a warning
        raises_exactly(exc_type, caller, [value, 0.0])

    @pytest.mark.parametrize("caller", [pure_density, initial_rst_pure],
                             ids=["pure_density", "initial_rst_pure"])
    @pytest.mark.parametrize("amplitudes", [[[1.0, 0.0], [0.0, 1.0]], 1.0], ids=["matrix", "scalar"])
    def test_amplitudes_not_a_vector_rejected(self, caller, amplitudes):
        # np.outer flattens its inputs: a 2 x 2 array would give a 4 x 4 state
        raises_exactly(DimensionMismatch, caller, amplitudes)

    def test_immutable(self):
        dm = pure_density([1.0, 0.0])
        with pytest.raises(ValueError):
            dm.data[0, 0] = 2.0


class TestCheckStack:
    def test_valid_stack_made_read_only(self):
        rho = density_stack(9, 4, 0)
        out = _check_stack(rho, 1e-8)
        assert out is rho
        assert not out.flags.writeable

    def test_non_hermitian_middle_sample(self):
        rho = density_stack(9, 4, 1)
        rho[4, 0, 1] += 1e-3
        raises_exactly(ValidationError, _check_stack, rho, 1e-8)

    def test_negative_eigenvalue_middle_sample(self):
        rho = density_stack(9, 4, 2)
        rho[4] = np.diag([1.1, -0.1, 0.0, 0.0])
        raises_exactly(NotPositive, _check_stack, rho, 1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_middle_sample(self, value):
        rho = density_stack(9, 4, 4)
        rho[4, 1, 1] = value
        raises_exactly(ValidationError, _check_stack, rho, 1e-8)

    def test_tolerance_scales_with_each_sample(self):
        # -5e-7 is within 1e-8 of a sample whose largest entry is 100, not of one at 1
        rho = density_stack(9, 2, 3)
        rho[4] = np.diag([100.0, -5e-7])
        _check_stack(rho.copy(), 1e-8)
        rho[5] = np.diag([1.0, -5e-7])
        raises_exactly(NotPositive, _check_stack, rho, 1e-8)

    def test_not_square(self):
        raises_exactly(DimensionMismatch, _check_stack, np.zeros((3, 2, 4), complex), 1e-8)
