import numpy as np
import pytest

import eetsim.classical
from eetsim import (
    DensityMatrix,
    NoiseSpec,
    TimeGrid,
    assemble_sigma,
    build_aggregate,
    fmo_model_path,
    initial_rst_mixed,
    initial_rst_pure,
    load_model,
    make_chain,
    propagate_classical_rst,
    propagate_lindblad,
    propagate_quantum_rst,
    pure_density,
    run_kubo_ensemble,
)
from eetsim.classical import RstState, _rst_rhs, normalize_sigma
from eetsim.errors import DimensionMismatch, EetsimError, NormCollapse, NotPositive, ValidationError, ZeroState


def anomalous(rst):
    """<z z^T> = R - S + i (T + T^T); zero for a phase-averaged ensemble."""
    return rst.r - rst.s + 1j * (rst.t + rst.t.T)


class TestInitialStates:
    def test_localized_real_start(self):
        rst = initial_rst_pure([1.0, 0.0])
        # phase-averaged moments: R = S = Re(rho) / 2, T = -Im(rho) / 2
        assert np.array_equal(rst.r, np.diag([0.5, 0.0]))
        assert np.array_equal(rst.s, np.diag([0.5, 0.0]))
        assert np.all(rst.t == 0.0)
        assert np.all(anomalous(rst) == 0.0)
        sigma = assemble_sigma(rst)
        assert np.array_equal(sigma, np.diag([1.0, 0.0]).astype(complex))

    def test_complex_superposition_bilinears(self):
        c = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        rst = initial_rst_pure(c)
        assert np.allclose(rst.r, np.diag([0.25, 0.25]))
        assert np.allclose(rst.s, np.diag([0.25, 0.25]))
        assert np.allclose(rst.t, [[0.0, 0.25], [-0.25, 0.0]])
        assert np.allclose(anomalous(rst), 0.0)
        sigma = assemble_sigma(rst)
        assert np.isclose(sigma[0, 1], -0.5j)
        assert np.allclose(sigma, np.outer(c, c.conj()))

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            initial_rst_pure([0.0, 0.0])

    def test_mixed_maximally_mixed(self):
        rst = initial_rst_mixed(DensityMatrix(0.5 * np.eye(2)))
        assert np.allclose(rst.r, 0.25 * np.eye(2))
        assert np.allclose(rst.s, 0.25 * np.eye(2))
        assert np.allclose(rst.t, 0.0)
        assert np.allclose(anomalous(rst), 0.0)
        assert np.allclose(assemble_sigma(rst), 0.5 * np.eye(2))

    def test_mixed_reduces_to_pure(self):
        # complex c: eigenvector phases must not leak into the mixed moments
        for c in ([1.0, 0.0], np.array([0.6, 0.48j, -0.64]) * np.exp(0.3j)):
            pure = initial_rst_pure(c)
            mixed = initial_rst_mixed(pure_density(c))
            for a, b in ((pure.r, mixed.r), (pure.s, mixed.s), (pure.t, mixed.t)):
                assert np.abs(a - b).max() < 1e-15

    def test_mixture_reconstructs_density(self):
        psi_a = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
        psi_b = np.array([1.0, -1.0j, 1.0 + 1.0j]) / 2.0
        # orthogonalize b against a
        psi_b = psi_b - np.vdot(psi_a, psi_b) * psi_a
        psi_b = psi_b / np.sqrt(np.vdot(psi_b, psi_b).real)
        rho = 0.7 * np.outer(psi_a, psi_a.conj()) + 0.3 * np.outer(psi_b, psi_b.conj())
        rst = initial_rst_mixed(DensityMatrix(rho))
        assert np.abs(assemble_sigma(rst) - rho).max() < 1e-12


class TestAssembleNormalize:
    def test_zero_moments(self):
        zero = RstState(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(assemble_sigma(zero) == 0.0)

    def test_symmetric_t_gives_real_sigma(self):
        r = np.array([[0.5, 0.1], [0.1, 0.3]])
        s = np.array([[0.2, 0.0], [0.0, 0.1]])
        t = np.array([[0.1, 0.2], [0.2, 0.4]])
        rst = RstState(r, s, t)
        assert np.abs(assemble_sigma(rst).imag).max() == 0.0

    def test_normalize_diagonal(self):
        sigma, norm = normalize_sigma(np.diag([2.0, 2.0]).astype(complex))
        assert norm == 4.0
        assert np.allclose(sigma, np.diag([0.5, 0.5]))

    def test_normalize_unit_pure(self):
        c = np.array([0.6, 0.8j])
        sigma, norm = normalize_sigma(np.outer(c, c.conj()))
        assert np.isclose(norm, 1.0)
        assert np.allclose(sigma, np.outer(c, c.conj()))

    def test_negative_trace_collapses(self):
        with pytest.raises(NormCollapse):
            normalize_sigma(np.diag([-0.05, -0.05]).astype(complex))


class TestLyapunovDrift:
    """At gamma = 0 the moment derivative is the ensemble's d<u u^T>/dt, u = (x, p)."""

    @pytest.mark.parametrize("quantum,kind", [(True, "sse"), (False, "kubo")])
    def test_matches_amplitude_derivative(self, quantum, kind):
        rng = np.random.default_rng(11)
        n = 5
        v = rng.normal(size=(n, n))
        v = v + v.T
        np.fill_diagonal(v, 0.0)
        model = build_aggregate(3.0 + rng.normal(size=n), v, 0.0)
        z = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        w = rng.uniform(0.2, 1.0, size=4)
        # z' = -i H z, and Kubo's z' = -i eps z - i V (z + z*) adds the counter-rotating -i V z*
        zdot = -1j * (z * model.epsilon + (z if kind == "sse" else z + z.conj()) @ model.coupling)
        u = np.concatenate([z.real, z.imag], axis=1)  # z = x + i p -> u = (x, p)
        udot = np.concatenate([zdot.real, zdot.imag], axis=1)
        m = np.einsum("k,ka,kb->ab", w, u, u)
        dm = np.einsum("k,ka,kb->ab", w, udot, u)
        dm = dm + dm.T

        upper = np.triu_indices(2 * n)  # the packed state: M's upper triangle, row by row
        got = _rst_rhs(model, quantum)(m[upper])
        assert np.abs(got - dm[upper]).max() <= 1e-13 * np.abs(dm[upper]).max()


class TestPropagation:
    def test_single_site_population_constant(self):
        model = build_aggregate([4.0], np.zeros((1, 1)), [0.0])
        grid = TimeGrid(0.0, 5.0, 51)
        traj = propagate_classical_rst(model, initial_rst_pure([1.0 + 0.0j]), grid)
        assert np.abs(traj.populations() - 1.0).max() < 1e-12
        assert np.abs(traj.norm_factor - 1.0).max() < 1e-10

    def test_single_site_noise_preserves_modulus(self):
        model = build_aggregate([3.0], np.zeros((1, 1)), [2.0])
        grid = TimeGrid(0.0, 4.0, 41)
        traj = propagate_classical_rst(model, initial_rst_pure([1.0 + 0.0j]), grid)
        assert np.abs(traj.norm_factor - 1.0).max() < 1e-10

    def test_uncoupled_dimer_matches_quantum(self):
        # V = 0: dephasing acts identically in both theories
        model = build_aggregate([0.0, 0.0], np.zeros((2, 2)), [1.0, 1.0])
        rho0 = DensityMatrix(np.full((2, 2), 0.5))
        grid = TimeGrid(0.0, 5.0, 51)
        classical = propagate_classical_rst(model, initial_rst_mixed(rho0), grid)
        quantum = propagate_lindblad(model, rho0, grid)
        diff = np.abs(classical.sigma - quantum.rho).max()
        assert diff < 1e-10
        assert np.abs(classical.coherence(0, 1) - 0.5 * np.exp(-grid.times)).max() < 1e-8

    def test_rs_symmetry_preserved(self):
        model, init = make_chain(7, 1.0, 8.0, 0.7, 3)
        grid = TimeGrid(0.0, 6.0, 31)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        for r, s in zip(traj.states.r, traj.states.s):
            scale = max(1.0, np.abs(r).max(), np.abs(s).max())
            assert np.abs(r - r.T).max() < 1e-10 * scale
            assert np.abs(s - s.T).max() < 1e-10 * scale

    def test_sigma_positive_semidefinite(self):
        model, init = make_chain(4, 1.0, 2.0, 0.5, 1)
        grid = TimeGrid(0.0, 8.0, 41)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        for sigma in assemble_sigma(traj.states):
            assert np.linalg.eigvalsh(sigma).min() > -1e-8

    def test_normalized_output_unit_trace(self):
        model, init = make_chain(3, 1.0, 1.0, 0.3, 0)
        grid = TimeGrid(0.0, 5.0, 26)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        for sigma in traj.sigma:
            assert abs(np.trace(sigma).real - 1.0) < 1e-12
        assert np.all(traj.norm_factor > 0.0)

    def test_global_phase_of_start_is_irrelevant(self):
        # a global phase changes c c^T but not the quantum state c c^H; the
        # classical result must follow the quantum state
        model, _ = make_chain(5, 1.0, 6.0, 1.0, 2)
        grid = TimeGrid(0.0, 4.0, 41)
        c = np.array([0.0, 0.6, 0.48j, -0.64, 0.0], dtype=complex)
        runs = [
            propagate_classical_rst(model, initial_rst_pure(phase * c), grid)
            for phase in (1.0, 1.0j, np.exp(0.25j * np.pi))
        ]
        for other in runs[1:]:
            assert np.abs(other.sigma - runs[0].sigma).max() < 1e-12
            assert np.abs(other.norm_factor - runs[0].norm_factor).max() < 1e-12

    def test_energy_shift_changes_dynamics(self):
        # contrast with the quantum invariance: absolute frequency matters here
        grid = TimeGrid(0.0, 5.0, 51)
        runs = []
        for eps in (40.0, 1.0):
            model, init = make_chain(2, 1.0, eps, 1.0, 0)
            traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
            runs.append(traj.populations())
        assert np.abs(runs[0] - runs[1]).max() > 1e-4

    def test_matches_kubo_ensemble(self):
        # the trajectory ensemble is the defining model; the moment system
        # must reproduce it within Monte-Carlo resolution
        model, init = make_chain(2, 1.0, 10.0, 1.0, 0)
        grid = TimeGrid(0.0, 4.0, 41)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid)
        sigma = assemble_sigma(traj.states)
        ens = run_kubo_ensemble(model, init.amplitudes, grid,
                                NoiseSpec(gamma=model.gamma, seed=777), n_traj=2000)
        err = np.abs(ens.mean_bilinear - sigma)
        bound = 5.0 * ens.standard_error() + 1e-9
        assert np.all(err <= bound)


class TestParityLaw:
    """The classical-quantum population deviation on a uniform ring, against 1/eps.

    The counter-rotating term shifts H by about -V^2/2eps.  On a bipartite
    lattice (an even ring) the populations are even in that shift, so the
    deviation falls as (V/eps)^2; an odd ring is not bipartite and keeps the
    first-order term.  V = gamma = 1, eps = 160, 80, 40, grid 0:10:201, start
    site 0.  Measured maximum population deviations:

    - 8 sites: 7.60e-5, 2.98e-4, 1.12e-3; slopes 1.97, 1.90;
    - 9 sites: 4.42e-4, 8.82e-4, 1.78e-3; slopes 1.00, 1.01.
    """

    @staticmethod
    def slopes(n_sites):
        sites = np.arange(n_sites)
        coupling = np.zeros((n_sites, n_sites))
        coupling[sites, (sites + 1) % n_sites] = coupling[(sites + 1) % n_sites, sites] = 1.0
        start = np.zeros(n_sites, dtype=complex)
        start[0] = 1.0
        grid = TimeGrid(0.0, 10.0, 201)
        deviations = []
        for eps in (160.0, 80.0, 40.0):
            model = build_aggregate(np.full(n_sites, eps), coupling, 1.0)
            quantum = propagate_lindblad(model, pure_density(start), grid)
            classical = propagate_classical_rst(model, initial_rst_pure(start), grid)
            deviations.append(np.abs(quantum.populations() - classical.populations()).max())
        return np.log2(np.array(deviations[1:]) / np.array(deviations[:-1]))  # each step halves eps

    def test_even_ring_second_order(self):
        assert np.all(self.slopes(8) > 1.8)

    def test_odd_ring_first_order(self):
        assert np.all(np.abs(self.slopes(9) - 1.0) < 0.1)


def corrupt_middle_sample(monkeypatch, edit):
    """Let the classical propagator output carry one edited sample halfway along the run."""
    propagate = eetsim.classical.expm_propagate

    def corrupted(rhs, y0, grid):
        raw = propagate(rhs, y0, grid)
        edit(raw[grid.n_samples // 2])
        return raw

    monkeypatch.setattr(eetsim.classical, "expm_propagate", corrupted)


def set_sigma(sigma):
    # phase-averaged moments R = S = sigma / 2, T = 0 of a real sigma
    def edit(row):
        half = 0.5 * np.asarray(sigma)
        row[:] = RstState(half, half, np.zeros((2, 2))).pack()
    return lambda monkeypatch: corrupt_middle_sample(monkeypatch, edit)


def skew_r(monkeypatch):
    """Let the moment stacks the engine assembles carry an asymmetric R halfway along the run.

    The packed state holds one copy of each symmetric moment, so the skew goes
    in where the stacks are built; RstState must still refuse the sample.
    """
    build = eetsim.classical.RstState

    def skewed(r, s, t):
        # R and S skewed oppositely: sigma stays Hermitian, only the R/S symmetry check sees it
        r, s = np.array(r), np.array(s)
        if r.ndim == 3:
            r[r.shape[0] // 2, 0, 1] += 0.1
            s[s.shape[0] // 2, 0, 1] -= 0.1
        return build(r, s, t)

    monkeypatch.setattr(eetsim.classical, "RstState", skewed)


class TestStackChecks:
    """Every sample of the moment and sigma stacks is checked; one bad sample fails the run."""

    @pytest.mark.parametrize("corrupt,exc_type", [
        (skew_r, ValidationError),
        (set_sigma(np.diag([1.1, -0.1])), NotPositive),
        (set_sigma(np.zeros((2, 2))), NormCollapse),
        # raw eigenvalue -5e-9 passes at scale 0.1; after dividing by the
        # trace 0.1 it is -5e-8 and fails
        (set_sigma(np.diag([0.1, -5e-9])), NotPositive),
    ], ids=["asymmetric-r", "raw-negative-eigenvalue", "norm-collapse", "normalized-negative-eigenvalue"])
    def test_bad_sample(self, monkeypatch, corrupt, exc_type):
        model, init = make_chain(2, 1.0, 4.0, 0.5, 0)
        corrupt(monkeypatch)
        with pytest.raises(exc_type) as info:
            propagate_classical_rst(model, initial_rst_pure(init.amplitudes), TimeGrid(0.0, 1.0, 11))
        assert type(info.value) is exc_type

    @pytest.mark.parametrize("block", ["r", "s"])
    def test_asymmetric_stack_rejected(self, block):
        # the engines carry one copy of each symmetric moment; a stack built
        # elsewhere is still checked sample by sample
        moments = {name: np.zeros((11, 2, 2)) for name in "rst"}
        moments[block][5, 0, 1] = 0.1
        with pytest.raises(ValidationError) as info:
            RstState(moments["r"], moments["s"], moments["t"])
        assert type(info.value) is ValidationError

    @pytest.mark.parametrize("block", ["r", "s", "t"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, block, value):
        # refused before the symmetry pass, whose inf - inf would warn (an
        # error here) and whose nan > tol would let the triple through
        moments = {name: 0.25 * np.eye(2) for name in "rst"}
        moments[block] = np.diag([value, 0.25])
        with pytest.raises(ValidationError, match=f"{block} must be finite") as info:
            RstState(moments["r"], moments["s"], moments["t"])
        assert type(info.value) is ValidationError

    def test_non_finite_stack_rejected(self):
        r = np.zeros((3, 2, 2))
        r[1, 0, 1] = r[1, 1, 0] = np.nan
        with pytest.raises(ValidationError, match="r must be finite"):
            RstState(r, np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"s must be 2x2, got \(3, 3\)") as info:
            RstState(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))
        assert type(info.value) is DimensionMismatch

    def test_packed_size_on_fmo(self, monkeypatch):
        # both moment engines hand the propagator M's upper triangle: N (2N + 1) reals
        model, init = load_model(fmo_model_path())
        sizes = []
        propagate = eetsim.classical.expm_propagate

        def recording(rhs, y0, grid):
            sizes.append(y0.size)
            return propagate(rhs, y0, grid)

        monkeypatch.setattr(eetsim.classical, "expm_propagate", recording)
        rst0 = initial_rst_pure(init.amplitudes)
        grid = TimeGrid(0.0, 1e-3, 3)
        propagate_classical_rst(model, rst0, grid)
        propagate_quantum_rst(model, rst0, grid)
        assert sizes == [105, 105]  # 7 (2 * 7 + 1)

    def test_stacks_read_only(self):
        model, init = make_chain(3, 1.0, 2.0, 0.5, 1)
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), TimeGrid(0.0, 1.0, 11))
        st = traj.states
        for a in (st.r, st.s, st.t, traj.sigma):
            assert a.shape == (11, 3, 3)
        for a in (st.r, st.s, st.t, traj.sigma, traj.norm_factor):
            assert not a.flags.writeable


def _verdict(call):
    try:
        call()
    except EetsimError as exc:
        return type(exc), str(exc)
    return None


class TestOneSigmaCheck:
    """The engine checks sigma once, as strictly as assemble_sigma and normalize_sigma in turn."""

    # each a 2 x 2 real sigma put in halfway along a dimer run (trace N)
    CASES = {
        # N = 3: eigenvalue -2.5e-8 fails the raw bound 1.5e-8, passes the normalized one
        "raw-only-eigenvalue": [[1.5, 1.5 + 2.5e-8], [1.5 + 2.5e-8, 1.5]],
        "raw-eigenvalue-passes": [[1.5, 1.5 + 1.0e-8], [1.5 + 1.0e-8, 1.5]],
        # N = 0.1: eigenvalue -5e-9 passes the raw bound, fails the normalized one
        "normalized-only-eigenvalue": np.diag([0.1, -5e-9]),
        "normalized-eigenvalue-passes": np.diag([0.1, -5e-10]),
        "both-eigenvalue": np.diag([1.1, -0.1]),
        "large-trace-passes": np.diag([40.0, 2.0]),
        "collapse": np.zeros((2, 2)),
        "negative-trace": np.diag([-0.05, -0.05]),
        "non-finite": [[np.inf, 0.0], [0.0, 0.5]],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_same_verdict_as_the_two_checks(self, monkeypatch, name):
        model, init = make_chain(2, 1.0, 4.0, 0.5, 0)
        raws = []
        propagate = eetsim.classical.expm_propagate

        def corrupted(rhs, y0, grid):
            raw = propagate(rhs, y0, grid)
            # packed through the engine's mark: RstState refuses a plain non-finite R
            half = (0.5 * np.asarray(self.CASES[name], dtype=float)).view(eetsim.classical._Symmetric)
            raw[grid.n_samples // 2] = RstState(half, half, np.zeros((2, 2))).pack()
            raws.append(raw.copy())
            return raw

        monkeypatch.setattr(eetsim.classical, "expm_propagate", corrupted)
        grid = TimeGrid(0.0, 1.0, 11)
        engine = _verdict(lambda: propagate_classical_rst(model, initial_rst_pure(init.amplitudes), grid))
        states = eetsim.classical._moment_stack(raws[0], 2)
        assert engine == _verdict(lambda: normalize_sigma(assemble_sigma(states)))
        assert (engine is None) == name.endswith("passes")

    def test_engine_output_matches_the_two_checks(self):
        model, init = make_chain(5, 1.0, 4.0, 20.0, 2)  # norm_factor grows past 1
        traj = propagate_classical_rst(model, initial_rst_pure(init.amplitudes), TimeGrid(0.0, 2.0, 21))
        sigma, norms = normalize_sigma(assemble_sigma(traj.states))
        assert traj.norm_factor.max() > 1.1
        assert np.array_equal(traj.sigma, sigma) and np.array_equal(traj.norm_factor, norms)

    def test_one_stack_check_per_run(self, monkeypatch):
        calls = []
        check = eetsim.classical._check_stack

        def counted(*args):
            calls.append(None)
            return check(*args)

        monkeypatch.setattr(eetsim.classical, "_check_stack", counted)
        model, init = make_chain(3, 1.0, 2.0, 0.5, 1)
        propagate_classical_rst(model, initial_rst_pure(init.amplitudes), TimeGrid(0.0, 1.0, 11))
        assert len(calls) == 1

    def test_only_the_engine_gather_skips_the_symmetry_check(self):
        # the engine's R and S come from M's symmetric index; a copy of the
        # same skewed data, as a user would pass it, is still refused
        r = np.zeros((3, 2, 2))
        r[1, 0, 1] = 0.1
        marked = r.view(eetsim.classical._Symmetric)
        rst = RstState(marked, marked, np.zeros((3, 2, 2)))
        assert type(rst.r) is np.ndarray and type(rst.s) is np.ndarray
        with pytest.raises(ValidationError, match="r must be symmetric"):
            RstState(np.array(marked), np.array(marked), np.zeros((3, 2, 2)))
