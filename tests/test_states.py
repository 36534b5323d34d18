import numpy as np
import pytest

from qest.errors import ConfigError
from qest.linalg import gell_mann_basis
from qest.states import (
    Povm,
    Records,
    bloch_basis_povm,
    born_probabilities,
    check_density_matrix,
    cube_povms,
    expected_records,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    records_from_csv,
    records_to_csv,
    resolve_povm_label,
    rho_from_theta,
    simulate_measurements,
    theta_from_rho,
    validate_povm,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def z_basis():
    return Povm("cube:z", np.stack([pure_to_density(KET0), pure_to_density(KET1)]))


class TestThetaParameterization:
    def test_zero_theta_is_maximally_mixed(self):
        basis = gell_mann_basis(3)
        assert np.allclose(rho_from_theta(np.zeros(8), basis), np.eye(3) / 3)

    def test_ground_state_coordinates(self):
        basis = gell_mann_basis(2)
        theta = theta_from_rho(pure_to_density(KET0), basis)
        assert np.allclose(theta, [0.0, 0.0, 1.0 / np.sqrt(2)], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        basis = gell_mann_basis(d)
        theta = rng.normal(scale=0.2, size=d * d - 1)
        assert np.abs(theta_from_rho(rho_from_theta(theta, basis), basis) - theta).max() <= 1e-12
        rho = random_density_matrix(d, rng)
        assert np.linalg.norm(rho_from_theta(theta_from_rho(rho, basis), basis) - rho) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rho_from_theta(np.zeros(5), gell_mann_basis(2))
        with pytest.raises(ValueError):
            theta_from_rho(np.eye(3) / 3, gell_mann_basis(2))


class TestBornProbabilities:
    def test_ground_state_in_z(self):
        assert np.allclose(born_probabilities(pure_to_density(KET0), z_basis()), [1.0, 0.0])

    def test_maximally_mixed(self):
        for povm in cube_povms(2):
            assert np.allclose(born_probabilities(np.eye(2) / 2, povm), [0.5, 0.5])

    def test_plus_state_in_z(self):
        p = born_probabilities(pure_to_density(PLUS), z_basis())
        assert np.allclose(p, [0.5, 0.5])

    @pytest.mark.parametrize("d", [2, 4])
    def test_normalization_invariant(self, d):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(d, rng)
            for povm in cube_povms(d):
                p = born_probabilities(rho, povm)
                assert abs(p.sum() - 1.0) <= 1e-9
                assert p.min() >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            born_probabilities(np.eye(4) / 4, z_basis())


class TestSimulateMeasurements:
    def test_zero_probability_outcome_never_drawn(self):
        recs = simulate_measurements(pure_to_density(KET0), z_basis(), 5000, 123)
        assert list(recs.successes) == [5000, 0]

    def test_large_sample_frequencies(self):
        recs = simulate_measurements(np.eye(2) / 2, z_basis(), 10**6, 7)
        assert np.abs(recs.p_hat - 0.5).max() <= 0.005

    def test_seed_determinism(self):
        a = simulate_measurements(np.eye(2) / 2, z_basis(), 1000, 42)
        b = simulate_measurements(np.eye(2) / 2, z_basis(), 1000, 42)
        assert np.array_equal(a.successes, b.successes)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            simulate_measurements(np.eye(2) / 2, z_basis(), 0, 1)

    def test_empirical_convergence_bound(self):
        # max |p_hat - p| <= 5 sigma + 1e-6 must hold in at least 99% of trials
        rng = np.random.default_rng(13)
        shots = 2000
        violations = 0
        trials = 200
        for t in range(trials):
            rho = random_density_matrix(2, rng)
            povm = cube_povms(2)[t % 3]
            p = born_probabilities(rho, povm)
            recs = simulate_measurements(rho, povm, shots, rng)
            bound = 5 * np.sqrt(p * (1 - p) / shots) + 1e-6
            violations += bool(np.any(np.abs(recs.p_hat - p) > bound))
        assert violations <= trials * 0.01

    def test_record_gammas(self):
        basis = gell_mann_basis(2)
        recs = simulate_measurements(np.eye(2) / 2, z_basis(), 100, 5)
        for j, g0, gamma in zip(recs.element, recs.gamma0, recs.gamma):
            elem = z_basis().elements[j]
            assert g0 == pytest.approx(np.trace(elem).real, abs=1e-12)
            expected = [np.trace(elem @ om).real for om in basis.elements]
            assert np.allclose(gamma, expected, atol=1e-12)


class TestRecords:
    def test_slicing_and_concatenation_keep_rows(self):
        a = simulate_measurements(np.eye(2) / 2, z_basis(), 100, 1)
        b = expected_records(np.eye(2) / 2, cube_povms(2)[0], 50)
        both = Records.concat([a, b])
        assert len(both) == 4 and both.gamma.shape == (4, 3)
        assert list(both[2:].label) == ["cube:x", "cube:x"]
        assert np.array_equal(both[:2].successes, a.successes)
        assert np.array_equal(both[2:].p_hat, b.p_hat)

    @pytest.mark.parametrize("successes", [np.nan, np.inf, -5.0, 100.5])
    def test_rejects_counts_outside_shots(self, successes):
        with pytest.raises(ValueError):
            Records.of_povm(z_basis(), 100, [successes, 0.0])

    def test_povm_gammas_are_computed_once(self):
        povm = z_basis()
        assert povm.gamma is povm.gamma and povm.gamma0 is povm.gamma0


class TestExpectedRecords:
    def test_successes_are_exact_expected_counts(self):
        rho = pure_to_density(PLUS)
        recs = expected_records(rho, z_basis(), 1000)
        assert recs.successes[0] == pytest.approx(500.0, abs=1e-9)
        assert recs.p_hat[0] == pytest.approx(0.5, abs=1e-12)


class TestCubePovms:
    def test_qubit_cube(self):
        povms = cube_povms(2)
        assert [p.label for p in povms] == ["cube:x", "cube:y", "cube:z"]
        for povm in povms:
            validate_povm(povm)
            for elem in povm.elements:
                evals = np.linalg.eigvalsh(elem)
                assert np.allclose(sorted(evals), [0.0, 1.0], atol=1e-12)

    def test_two_qubit_cube(self):
        povms = cube_povms(4)
        assert len(povms) == 9
        for povm in povms:
            assert len(povm) == 4
            validate_povm(povm)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            cube_povms(3)


class TestMse:
    def test_zero_for_equal_states(self):
        rho = random_density_matrix(3, np.random.default_rng(1))
        assert mse(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert mse(pure_to_density(KET0), pure_to_density(KET1)) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = random_density_matrix(2, rng), random_density_matrix(2, rng)
        assert mse(a, b) == pytest.approx(mse(b, a), abs=1e-15)


class TestRandomStates:
    def test_pure_state_normalized(self):
        psi = random_pure_state(4, np.random.default_rng(3))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            check_density_matrix(random_density_matrix(d, rng))


class TestPovmJson:
    def test_round_trip_with_label(self):
        from qest.states import povm_from_json, povm_to_json

        povm = cube_povms(2)[1]
        obj = povm_to_json(povm)
        assert obj["label"] == "cube:y"
        loaded = povm_from_json(obj)
        assert loaded.label == povm.label
        assert np.allclose(loaded.elements, povm.elements)

    def test_malformed_rejected(self):
        from qest.states import povm_from_json

        with pytest.raises(ValueError):
            povm_from_json({"elements": []})


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(2, rng)
        povms = list(cube_povms(2)) + [bloch_basis_povm([1.0, 1.0, 0.0])]
        recs = Records.concat(simulate_measurements(rho, povm, 500, rng) for povm in povms)
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        loaded = records_from_csv(path, 2)
        assert len(loaded) == len(recs)
        assert list(loaded.label) == list(recs.label)
        assert np.array_equal(loaded.element, recs.element)
        assert np.array_equal(loaded.shots, recs.shots)
        assert np.array_equal(loaded.successes, recs.successes)
        assert np.allclose(loaded.gamma0, recs.gamma0, atol=1e-9)
        assert np.allclose(loaded.gamma, recs.gamma, atol=1e-9)

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            resolve_povm_label("mystery:abc", 2)
        with pytest.raises(ConfigError):
            resolve_povm_label("cube:xq", 4)
        with pytest.raises(ConfigError):
            resolve_povm_label("bloch:1,0,0", 4)
