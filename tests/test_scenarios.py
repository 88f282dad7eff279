import json

import numpy as np
import pytest

from eetsim import build_aggregate, fmo_model_path, load_model, make_chain
from eetsim.errors import (
    AsymmetricCoupling,
    IndexOutOfRange,
    NonPositiveFrequency,
    ParseError,
    ValidationError,
)
from eetsim.model import convert_energy

CM = convert_energy(1.0)


def minimal_doc(**overrides):
    doc = {
        "units": "V",
        "sites": [{"label": "a", "energy": 2.0}, {"label": "b", "energy": 3.0}],
        "couplings": [{"i": 0, "j": 1, "value": 0.5}],
        "gamma": 0.1,
        "initial_state": {"site": 0},
    }
    doc.update(overrides)
    return doc


class TestMakeChain:
    def test_fig1_scenario(self):
        model, init = make_chain(29, 1.0, 40.0, 1.0, 14)
        assert model.n_sites == 29
        assert np.all(model.epsilon == 40.0)
        assert np.all(model.gamma == 1.0)
        band = np.diag(model.coupling, k=1)
        assert np.all(band == 1.0)
        assert np.abs(model.coupling - np.diag(band, 1) - np.diag(band, -1)).max() == 0.0
        assert init.is_pure and init.amplitudes[14] == 1.0
        assert np.isclose(init.rho.data[14, 14].real, 1.0)

    def test_single_site(self):
        model, init = make_chain(1, 5.0, 2.0, 0.3, 0)
        assert model.n_sites == 1
        assert np.all(model.coupling == 0.0)

    def test_rabi_dimer(self):
        model, init = make_chain(2, 1.0, 0.0, 0.0, 0)
        assert model.coupling[0, 1] == 1.0

    def test_bad_site_index(self):
        with pytest.raises(IndexOutOfRange):
            make_chain(5, 1.0, 1.0, 0.0, 5)

    def test_valid_over_size_range(self):
        for n in range(1, 65):
            model, _ = make_chain(n, 1.0, 10.0, 0.5, n // 2)
            assert model.n_sites == n


class TestLoadModel:
    def test_shipped_fmo_asset(self):
        model, init = load_model(fmo_model_path())
        assert model.n_sites == 7
        assert model.units == "wavenumber"
        # energies of order 12000 cm^-1, spreads a few hundred
        assert np.all(model.epsilon > 11000 * CM) and np.all(model.epsilon < 14000 * CM)
        spread = model.epsilon.max() - model.epsilon.min()
        assert 200 * CM < spread < 900 * CM
        # couplings of order 100 cm^-1
        vmax = np.abs(model.coupling).max()
        assert 50 * CM < vmax < 150 * CM
        assert np.array_equal(model.coupling, model.coupling.T)
        assert np.isclose(model.gamma[0], 100 * CM)
        assert init.is_pure and np.isclose(abs(init.amplitudes[0]), 1.0)

    def test_shift_key(self):
        doc = json.loads(fmo_model_path().read_text())
        doc["shift"] = -12000.0
        model, _ = load_model(doc)
        assert np.all(model.epsilon > 0.0)
        assert np.all(model.epsilon < 1000 * CM)

    def test_excessive_shift_rejected(self):
        doc = json.loads(fmo_model_path().read_text())
        doc["shift"] = -13000.0
        with pytest.raises(NonPositiveFrequency):
            load_model(doc)

    def test_asymmetric_matrix_rejected(self):
        doc = minimal_doc(couplings=[[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises((AsymmetricCoupling, ValidationError)):
            load_model(doc)

    def test_matrix_couplings(self):
        doc = minimal_doc(couplings=[[0.0, 0.5], [0.5, 0.0]])
        model, _ = load_model(doc)
        assert model.coupling[0, 1] == 0.5

    def test_mixture_weights_must_sum(self):
        doc = minimal_doc(initial_state={"mixture": [
            {"weight": 0.6, "amplitudes": [1.0, 0.0]},
            {"weight": 0.3, "amplitudes": [0.0, 1.0]},
        ]})
        with pytest.raises(ValidationError):
            load_model(doc)

    def test_mixture_density(self):
        doc = minimal_doc(initial_state={"mixture": [
            {"weight": 0.6, "amplitudes": [1.0, 0.0]},
            {"weight": 0.4, "amplitudes": [0.0, 1.0]},
        ]})
        _, init = load_model(doc)
        assert not init.is_pure
        assert np.allclose(init.rho.data, np.diag([0.6, 0.4]))

    def test_complex_amplitudes_pairs(self):
        doc = minimal_doc(initial_state={"amplitudes": [[1.0, 0.0], [0.0, 1.0]]})
        _, init = load_model(doc)
        assert np.allclose(init.amplitudes, np.array([1.0, 1.0j]) / np.sqrt(2.0))

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["gamma"]
        with pytest.raises(ParseError):
            load_model(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert "line" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "absent.json")

    def test_roundtrip_identity(self, tmp_path):
        doc = {
            "units": "V",
            "sites": [{"label": "a", "energy": 1.25}, {"label": "b", "energy": 2.5},
                      {"label": "c", "energy": 0.75}],
            "couplings": [{"i": 0, "j": 1, "value": 0.3}, {"i": 1, "j": 2, "value": -0.4}],
            "gamma": [0.1, 0.2, 0.3],
            "initial_state": {"site": 2},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model, init = load_model(path)
        assert np.abs(model.epsilon - [1.25, 2.5, 0.75]).max() < 1e-12
        assert np.abs(model.gamma - [0.1, 0.2, 0.3]).max() < 1e-12
        assert model.coupling[0, 1] == 0.3 and model.coupling[2, 1] == -0.4
        assert init.amplitudes[2] == 1.0

    def test_wavenumber_conversion(self):
        doc = minimal_doc(units="cm-1", sites=[
            {"label": "a", "energy": 12000.0}, {"label": "b", "energy": 12100.0}])
        model, _ = load_model(doc)
        assert np.isclose(model.epsilon[0], 12000.0 * CM)
        assert np.isclose(model.coupling[0, 1], 0.5 * CM)
        assert np.isclose(model.gamma[0], 0.1 * CM)
        assert model.units == "wavenumber"

    def test_passes_through_build_validation(self):
        doc = minimal_doc(gamma=-0.5)
        with pytest.raises(ValidationError):
            load_model(doc)
