from dataclasses import fields

import numpy as np
import pytest

from qest import states
from qest.errors import ConfigError
from qest.linalg import gell_mann_basis
from qest.states import (
    Povm,
    Records,
    bloch_basis_povm,
    born_probabilities,
    cube_draws,
    cube_pauli_tables,
    cube_povms,
    cube_records,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    records_from_csv,
    resolve_povm_label,
    rho_from_paulis,
    rho_from_theta,
    split_evenly,
)
from tests.oracles import (
    check_density_matrix,
    einsum_cube_table,
    expected_records,
    kron_cube_elements,
    pauli_strings,
    records_to_csv,
    same_bits,
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
        assert np.allclose(rho_from_theta(np.zeros(8)), np.eye(3) / 3)

    def test_ground_state_coordinates(self):
        theta = theta_from_rho(pure_to_density(KET0))
        assert np.allclose(theta, [0.0, 0.0, 1.0 / np.sqrt(2)], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        theta = rng.normal(scale=0.2, size=d * d - 1)
        assert np.abs(theta_from_rho(rho_from_theta(theta)) - theta).max() <= 1e-12
        rho = random_density_matrix(d, rng)
        assert np.linalg.norm(rho_from_theta(theta_from_rho(rho)) - rho) <= 1e-12

    def test_stack_matches_one_at_a_time(self):
        thetas = np.random.default_rng(3).normal(scale=0.1, size=(6, 15))
        stack = rho_from_theta(thetas)
        assert stack.shape == (6, 4, 4)
        for rho, theta in zip(stack, thetas):
            assert np.abs(rho - rho_from_theta(theta)).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_dimension_comes_from_the_coordinate_count(self, d):
        thetas = np.random.default_rng(d).normal(scale=0.1, size=(4, d * d - 1))
        stack = rho_from_theta(thetas)
        assert stack.shape == (4, d, d)
        expected = np.eye(d) / d + np.einsum("kp,pij->kij", thetas, gell_mann_basis(d))
        assert np.abs(stack - expected).max() <= 1e-15

    def test_dimension_mismatch(self):
        for size in (0, 1, 2, 5, 7, 9):
            with pytest.raises(ValueError, match="d\\^2 - 1 coordinates"):
                rho_from_theta(np.zeros(size))
            with pytest.raises(ValueError, match="d\\^2 - 1 coordinates"):
                rho_from_theta(np.zeros((3, size)))
        with pytest.raises(ValueError):
            rho_from_theta(0.0)


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
        recs = simulate_measurements(np.eye(2) / 2, z_basis(), 100, 5)
        for j, g0, gamma in zip(recs.element, recs.gamma0, recs.gamma):
            elem = z_basis().elements[j]
            assert g0 == pytest.approx(np.trace(elem).real, abs=1e-12)
            expected = [np.trace(elem @ om).real for om in gell_mann_basis(2)]
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

    @pytest.mark.parametrize("successes", [np.nan, -5.0, 100.5])
    def test_rejects_one_column_outside_shots(self, successes):
        # three members of two rows each; the last member's second count is out of range
        members = np.array([[10.0, 90.0], [20.0, 80.0], [30.0, successes]])
        with pytest.raises(ValueError, match="within"):
            Records.of_povm(z_basis(), 100, members)
        assert np.array_equal(Records.of_povm(z_basis(), 100, members[:2]).p_hat,
                              members[:2] / 100)

    def test_stacked_povm_gives_each_member_its_own_rows(self):
        directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
        counts = np.array([[30.0, 70.0], [55.0, 45.0], [100.0, 0.0]])
        stacked = Records.of_povm(bloch_basis_povm(directions), 100, counts)
        assert stacked.label.shape == stacked.successes.shape == (3, 2)
        assert stacked.gamma.shape == (3, 2, 3) and len(stacked) == 2
        for m, n in enumerate(directions):
            own = Records.of_povm(bloch_basis_povm(n), 100, counts[m])
            for name in ("label", "successes", "p_hat", "gamma0", "gamma"):
                assert np.array_equal(getattr(stacked, name)[m], getattr(own, name))
            assert np.array_equal(stacked.shots, own.shots)
            assert np.array_equal(stacked.element, own.element)

    def test_stacked_slicing_and_concatenation_select_rows(self):
        counts = [[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]
        stacked = Records.of_povm(bloch_basis_povm(np.eye(3)), 10, counts)
        first, second = stacked[:1], stacked[1:]
        assert first.successes.shape == (3, 1) and first.gamma.shape == (3, 1, 3)
        assert np.array_equal(second.successes, [[9.0], [8.0], [7.0]])
        rejoined = Records.concat([first, second])
        for field in fields(Records):
            assert np.array_equal(getattr(rejoined, field.name), getattr(stacked, field.name))

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

    @pytest.mark.parametrize("d", [6, 1, 0, -3, -4])
    def test_rejects_other_dimensions_without_warning(self, d):
        # an integer check: no log2 of zero or of a negative number
        with pytest.raises(ValueError, match="power-of-two"):
            cube_povms(d)

    def test_counts_qubits(self):
        assert [states._qubits(2**q) for q in range(1, 12)] == list(range(1, 12))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_elements_equal_nested_kron_bit_for_bit(self, d):
        elements = states._cube_elements(d)
        assert same_bits(elements.view(float), kron_cube_elements(d).view(float))
        assert not elements.flags.writeable
        assert all(np.shares_memory(povm.elements, elements) for povm in cube_povms(d))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_table_equals_all_bases_einsum_bit_for_bit(self, d):
        table = states._cube_table(d)
        gamma0, gamma = einsum_cube_table(d)
        assert same_bits(table.gamma0, gamma0)
        assert same_bits(table.gamma, gamma)
        labels = [p.label for p in cube_povms(d)]
        assert np.array_equal(table.label, np.repeat(labels, d))
        assert np.array_equal(table.element, np.tile(np.arange(d), len(labels)))


def per_basis_cube_records(rho, total, rng):
    """Reference: one simulate_measurements run per cube basis that gets copies."""
    povms = cube_povms(rho.shape[0])
    return Records.concat(simulate_measurements(rho, povm, n, rng)
                          for povm, n in zip(povms, split_evenly(total, len(povms))) if n > 0)


class TestCubeRecords:
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("total", [1, 2, 26, 27, 28, 20000])
    def test_equals_per_basis_loop_bit_for_bit(self, d, total):
        rho = random_density_matrix(d, np.random.default_rng(d))
        rng, ref_rng = np.random.default_rng(total), np.random.default_rng(total)
        got, ref = cube_records(rho, total, rng), per_basis_cube_records(rho, total, ref_rng)
        for field in fields(Records):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert rng.random() == ref_rng.random()

    def test_pure_state_with_zero_probabilities(self):
        rho = pure_to_density(np.eye(4)[0])
        got, ref = cube_records(rho, 900, 3), per_basis_cube_records(rho, 900, np.random.default_rng(3))
        assert np.array_equal(got.successes, ref.successes)

    def test_columns_are_the_cached_table_when_every_basis_is_measured(self):
        a = cube_records(np.eye(4) / 4, 90, 1)
        b = cube_records(random_density_matrix(4, np.random.default_rng(2)), 9, 2)
        for name in ("label", "element", "gamma0", "gamma"):
            assert getattr(a, name) is getattr(b, name)
            assert not getattr(a, name).flags.writeable

    def test_rejects_no_copies(self):
        with pytest.raises(ValueError):
            cube_records(np.eye(2) / 2, 0, 1)

    @pytest.mark.parametrize("total", [2**63, 10**22])
    def test_rejects_copies_beyond_int64(self, total):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            cube_records(np.eye(2) / 2, total, 1)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            simulate_measurements(np.eye(2) / 2, z_basis(), total, 1)

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("total", [1, 26, 27, 28, 20000])
    def test_stack_equals_per_state_calls_bit_for_bit(self, d, total):
        rng = np.random.default_rng(d + 40)
        stack = np.stack([random_density_matrix(d, rng) for _ in range(4)]
                         + [pure_to_density(np.eye(d)[0])])
        got_rng, ref_rng = np.random.default_rng(total), np.random.default_rng(total)
        got = cube_records(stack, total, got_rng)
        refs = [cube_records(rho, total, ref_rng) for rho in stack]
        assert got.successes.shape == (len(stack), len(refs[0]))
        for k, ref in enumerate(refs):
            assert np.array_equal(got.successes[k], ref.successes)
            assert np.array_equal(got.p_hat[k], ref.p_hat)
            for name in ("label", "element", "shots", "gamma0", "gamma"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        assert got_rng.random() == ref_rng.random()


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


class TestCubeDraws:
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("total", [1, 5, 26, 27, 28, 20000])
    def test_draws_are_the_records_successes_bit_for_bit(self, d, total):
        rng = np.random.default_rng(d + 50)
        stack = np.stack([random_density_matrix(d, rng) for _ in range(3)]
                         + [pure_to_density(np.eye(d)[0])])
        draws_rng, records_rng = np.random.default_rng(total), np.random.default_rng(total)
        copies, draws = cube_draws(stack, total, draws_rng)
        records = cube_records(stack, total, records_rng)
        assert draws.shape == (len(stack), len(cube_povms(d)), d)
        assert np.array_equal(copies, split_evenly(total, len(cube_povms(d))))
        measured = np.repeat(copies, d) > 0
        assert np.array_equal(records.shots, np.repeat(copies, d)[measured])
        assert np.array_equal(records.successes, draws.reshape(len(stack), -1)[:, measured])
        assert not draws[:, copies == 0].any()
        assert draws_rng.random() == records_rng.random()

    def test_single_state_draws_equal_per_basis_loop(self):
        rho = random_density_matrix(4, np.random.default_rng(9))
        copies, draws = cube_draws(rho, 30, np.random.default_rng(1))
        ref = per_basis_cube_records(rho, 30, np.random.default_rng(1))
        assert np.array_equal(draws.ravel(), ref.successes)
        assert np.array_equal(np.repeat(copies, 4), ref.shots)


class TestPauliCoordinates:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_cube_elements_expand_over_their_paulis(self, d):
        # E_bo = sum_S signs[o, S] P_(pauli_index[b, S]) / d, against dense Pauli strings
        signs, pauli_index = cube_pauli_tables(d)
        paulis = pauli_strings(d.bit_length() - 1)
        for b, povm in enumerate(cube_povms(d)):
            expanded = np.einsum("os,sij->oij", signs, paulis[pauli_index[b]]) / d
            assert np.abs(expanded - povm.elements).max() <= 1e-15
        assert not signs.flags.writeable and not pauli_index.flags.writeable

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_rho_from_paulis_equals_dense_sum(self, d):
        q = d.bit_length() - 1
        paulis = pauli_strings(q)
        e = np.random.default_rng(d).normal(size=(3, 4**q))
        e[:, 0] = 1.0
        stack = rho_from_paulis(e)
        assert stack.shape == (3, d, d)
        for row, rho in zip(e, stack):
            assert np.abs(rho - np.einsum("p,pij->ij", row, paulis) / d).max() <= 1e-14
        assert np.array_equal(rho_from_paulis(e[0]), stack[0])

    def test_rho_from_paulis_inverts_pauli_expectations(self):
        rho = random_density_matrix(8, np.random.default_rng(3))
        e = np.einsum("ij,pji->p", rho, pauli_strings(3)).real
        assert np.abs(rho_from_paulis(e) - rho).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 8, 15])
    def test_rho_from_paulis_needs_4_to_the_q(self, n):
        with pytest.raises(ValueError):
            rho_from_paulis(np.ones(n))
