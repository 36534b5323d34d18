from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from qest import states
from qest.errors import ConfigError, ContractViolationError
from qest.linalg import gell_mann_basis
from qest.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Records,
    bloch_rows,
    cube_draws,
    cube_pauli_tables,
    cube_records,
    cube_rows,
    mse,
    multinomial,
    paulis_from_rho,
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
    Povm,
    bloch_basis_povm,
    born_probabilities,
    check_density_matrix,
    concat_records,
    cube_labels,
    cube_povm,
    cube_povms,
    dense_cube_probabilities,
    exact_cube_probabilities,
    expected_records,
    pauli_strings,
    povm_records,
    record_rows,
    records_to_csv,
    same_bits,
    simulate_measurements,
    trine_povm,
    theta_from_rho,
    validate_povm,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def z_basis():
    return Povm(np.stack([pure_to_density(KET0), pure_to_density(KET1)]))


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
        for j, gamma in enumerate(recs.gamma):
            elem = z_basis().elements[j]
            expected = [np.trace(elem @ om).real for om in gell_mann_basis(2)]
            assert np.allclose(gamma, expected, atol=1e-12)


class TestRecords:
    def test_slicing_and_concatenation_keep_rows(self):
        a = simulate_measurements(np.eye(2) / 2, z_basis(), 100, 1)
        b = expected_records(np.eye(2) / 2, cube_povms(2)[0], 50)
        both = concat_records([a, b])
        assert len(both) == 4 and both.gamma.shape == (4, 3)
        assert record_rows(both, slice(2, None)).gamma.tobytes() == b.gamma.tobytes()
        assert np.array_equal(record_rows(both, slice(2)).successes, a.successes)
        assert np.array_equal(record_rows(both, slice(2, None)).p_hat, b.p_hat)

    @pytest.mark.parametrize("successes", [np.nan, np.inf, -5.0, 100.5])
    def test_rejects_counts_outside_shots(self, successes):
        with pytest.raises(ValueError):
            povm_records(z_basis(), 100, [successes, 0.0])

    @pytest.mark.parametrize("successes", [np.nan, -5.0, 100.5])
    def test_rejects_one_column_outside_shots(self, successes):
        # three members of two rows each; the last member's second count is out of range
        members = np.array([[10.0, 90.0], [20.0, 80.0], [30.0, successes]])
        with pytest.raises(ValueError, match="within"):
            povm_records(z_basis(), 100, members)
        assert np.array_equal(povm_records(z_basis(), 100, members[:2]).p_hat,
                              members[:2] / 100)

    def test_stacked_rows_give_each_member_its_own_rows(self):
        # as an adaptive step builds them: each member measured its own basis
        directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
        counts = np.array([[30.0, 70.0], [55.0, 45.0], [100.0, 0.0]])
        rows = np.stack([bloch_basis_povm(n).gamma for n in directions])
        stacked = Records(np.full(2, 100), counts, rows)
        assert stacked.successes.shape == (3, 2)
        assert stacked.gamma.shape == (3, 2, 3) and len(stacked) == 2
        for m, n in enumerate(directions):
            own = povm_records(bloch_basis_povm(n), 100, counts[m])
            for name in ("successes", "p_hat", "gamma"):
                assert np.array_equal(getattr(stacked, name)[m], getattr(own, name))
            assert np.array_equal(stacked.shots, own.shots)

    def test_stacked_slicing_and_concatenation_select_rows(self):
        counts = [[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]
        rows = np.stack([bloch_basis_povm(n).gamma for n in np.eye(3)])
        stacked = Records(np.full(2, 10), np.array(counts), rows)
        first, second = record_rows(stacked, slice(1)), record_rows(stacked, slice(1, None))
        assert first.successes.shape == (3, 1) and first.gamma.shape == (3, 1, 3)
        assert np.array_equal(second.successes, [[9.0], [8.0], [7.0]])
        rejoined = concat_records([first, second])
        for field in fields(Records):
            assert np.array_equal(getattr(rejoined, field.name), getattr(stacked, field.name))

    def test_povm_gammas_are_computed_once(self):
        povm = z_basis()
        assert povm.gamma is povm.gamma


class TestExpectedRecords:
    def test_successes_are_exact_expected_counts(self):
        rho = pure_to_density(PLUS)
        recs = expected_records(rho, z_basis(), 1000)
        assert recs.successes[0] == pytest.approx(500.0, abs=1e-9)
        assert recs.p_hat[0] == pytest.approx(0.5, abs=1e-12)


class TestCubePovms:
    """The oracle's cube elements, whose einsum rows :func:`cube_rows` must equal."""

    def test_qubit_cube(self):
        povms = cube_povms(2)
        # x, y, z in order, the plus eigenprojector first
        for povm, pauli in zip(povms, (PAULI_X, PAULI_Y, PAULI_Z), strict=True):
            assert np.allclose(povm.elements[0] - povm.elements[1], pauli, atol=1e-15)
            validate_povm(povm)
            for elem in povm.elements:
                evals = np.linalg.eigvalsh(elem)
                assert np.allclose(sorted(evals), [0.0, 1.0], atol=1e-12)

    def test_two_qubit_cube(self):
        stacked = cube_povm(4)
        assert stacked.elements.shape == (9, 4, 4, 4) and len(stacked) == 4
        for povm in cube_povms(4):
            assert len(povm) == 4
            validate_povm(povm)


class TestCubeRows:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            cube_rows(3)
        with pytest.raises(ValueError):
            cube_draws(np.eye(3) / 3, 10, 1)

    @pytest.mark.parametrize("d", [6, 1, 0, -3, -4])
    def test_rejects_other_dimensions_without_warning(self, d):
        # an integer check: no log2 of zero or of a negative number
        for table in (cube_rows, cube_pauli_tables):
            with pytest.raises(ValueError, match="power-of-two"):
                table(d)

    def test_counts_qubits(self):
        assert [states._qubits(2**q) for q in range(1, 12)] == list(range(1, 12))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_table_equals_the_elements_einsum_bit_for_bit(self, d):
        # d = 32 agrees too; its einsum takes about 20 s, so it is not run here
        assert same_bits(cube_rows(d), cube_povm(d).gamma)

    @pytest.mark.parametrize("d", [2, 8])
    def test_table_is_cached_read_only_contiguous_floats(self, d):
        table = cube_rows(d)
        assert table is cube_rows(d)
        assert table.shape == (3 ** (d.bit_length() - 1), d, d * d - 1)
        assert table.dtype == float and table.flags.c_contiguous and table.flags.owndata
        assert not table.flags.writeable

    @pytest.mark.parametrize("povm", [Povm(cube_povm(4).elements[5]),
                                      bloch_basis_povm([0.3, -1.0, 2.0])],
                             ids=["one-basis", "bloch"])
    def test_oracle_rows_are_contiguous_floats_that_own_their_data(self, povm):
        # no view keeps the complex contraction alive, so oracle rows have the table's layout
        gamma = povm.gamma
        assert gamma.dtype == float and gamma.flags.c_contiguous and gamma.flags.owndata


class TestBlochRows:
    def test_takes_one_direction_or_a_stack(self):
        h = 1.0 / np.sqrt(2.0)
        assert same_bits(bloch_rows(np.array([0.0, 0.0, 2.0])), np.array([[0.0, 0.0, h],
                                                                          [-0.0, -0.0, -h]]))
        directions = np.random.default_rng(29).normal(size=(4, 5, 3))
        rows = bloch_rows(directions)
        assert rows.shape == (4, 5, 2, 3)
        for m, n in np.ndindex(4, 5):
            assert same_bits(rows[m, n], bloch_rows(directions[m, n]))

    def test_equals_the_matrix_route_to_rounding(self):
        # the rows Tr(E O_i) of the matrices (I +- n.sigma) / 2, near the axes and off them
        rng = np.random.default_rng(30)
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        near_axis = (axes[:, None, :] + rng.normal(size=(50, 3))
                     * 10.0 ** rng.uniform(-17, -3, size=(50, 1))).reshape(-1, 3)
        for n in np.concatenate([rng.normal(size=(300, 3)), axes, near_axis]):
            assert np.abs(bloch_rows(n) - bloch_basis_povm(n).gamma).max() <= 4.5e-16

    @pytest.mark.parametrize("n", [[0.6, 0.8, 1e-6], [0.6, -1e-6, 0.8], [1.0, 1e-9, 0.3],
                                   [-0.2, 0.7, -1e-12], [1.0, 1.0, 1.0], [3.0, -4.0, 12.0]])
    def test_each_component_is_exact_to_a_decimal_oracle(self, n):
        # +-n_i / (||n|| sqrt(2)) in 60 significant digits from the doubles' exact values.
        # The matrix route cancels in 1 +- n_z / ||n|| and loses digits in a small
        # component (up to about 1e-8 relative at n_z near 1e-6); the formula keeps them
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 60
            exact = [Decimal(c) for c in n]
            scale = (sum(c * c for c in exact) * 2).sqrt()
            want = [c / scale for c in exact]
            rows = bloch_rows(np.array(n))
            for i, w in enumerate(want):
                assert rows[1, i] == -rows[0, i]
                assert abs((Decimal(float(rows[0, i])) - w) / w) <= Decimal("4.5e-16")
            if abs(n[2]) < 1e-5:  # the oracle tells the two routes apart
                matrix_route = Decimal(float(bloch_basis_povm(n).gamma[0, 2]))
                assert abs((matrix_route - want[2]) / want[2]) > Decimal("1e-13")


class TestUnitTraces:
    """Every element qest builds has trace exactly 1: regression takes p = 1/d + gamma . theta."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_every_cube_basis_sums_to_the_identity_exactly(self, d):
        # the oracle's elements, whose einsum rows the table equals bit for bit
        elements = cube_povm(d).elements
        for basis in elements:
            assert np.array_equal(basis.sum(axis=0), np.eye(d))
        assert (np.trace(elements, axis1=-2, axis2=-1) == 1.0).all()

    def test_bloch_element_traces_are_exactly_one(self):
        rng = np.random.default_rng(26)
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        # each signed axis tilted by 1000 offsets of magnitudes from 1e-17 to 1e-3
        offsets = rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-17, -3, size=(1000, 1))
        near_axis = (axes[:, None, :] + offsets).reshape(-1, 3)
        directions = np.concatenate([rng.normal(size=(100_000, 3)), axes, near_axis])
        traces = np.array([np.trace(bloch_basis_povm(n).elements, axis1=-2, axis2=-1)
                           for n in directions])
        assert traces.shape == (len(directions), 2) and (traces == 1.0).all()

    @pytest.mark.parametrize("label", ["bloch:1e308,1e308,0", "bloch:-1e308,0,1e308",
                                       "bloch:1e-320,0,0", "bloch:0,3e-200,-3e-200",
                                       "bloch:0.3,-2.5e-9,0.9"])
    def test_bloch_label_rows_are_a_unit_bases_rows(self, label):
        # the rows +-n / sqrt(2) of a unit n: elements (I +- n.sigma) / 2, each of trace 1
        rows = resolve_povm_label(label, 2)
        assert rows.shape == (2, 3) and np.array_equal(rows[1], -rows[0])
        assert abs(rows[0] @ rows[0] - 0.5) <= 2.3e-16


    def test_records_of_elements_without_unit_trace_raise(self):
        # a valid POVM whose rows the regression would misread as 1/d + gamma . theta
        trine = trine_povm()
        validate_povm(trine)
        with pytest.raises(ContractViolationError, match="unit trace"):
            povm_records(trine, 300, [100.0, 100.0, 100.0])
        # rounding-level traces, as kets with 1/sqrt(2) entries give, are unit traces
        kets = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        x_basis = Povm(kets[:, :, None] * kets[:, None, :].conj())
        assert np.trace(x_basis.elements, axis1=-2, axis2=-1).real.tolist() != [1.0, 1.0]
        assert len(povm_records(x_basis, 10, [4.0, 6.0])) == 2


def per_basis_cube_records(rho, total, rng):
    """Reference: one simulate_measurements run per cube basis that gets copies."""
    povms = cube_povms(rho.shape[0])
    return concat_records(simulate_measurements(rho, povm, n, rng)
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

    def test_columns_share_the_cube_rows_when_every_basis_is_measured(self):
        for records in (cube_records(np.eye(4) / 4, 90, 1),
                        cube_records(random_density_matrix(4, np.random.default_rng(2)), 9, 2)):
            assert np.shares_memory(records.gamma, cube_rows(4))
            assert not records.gamma.flags.writeable

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
            for name in ("shots", "gamma"):
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
        runs = [(label, simulate_measurements(rho, povm, 500, rng))
                for label, povm in zip(cube_labels(2) + ["bloch:1,1,0"], povms)]
        path = tmp_path / "records.csv"
        records_to_csv(runs, path)
        loaded = records_from_csv(path, 2)
        recs = concat_records(records for _, records in runs)
        for field in ("shots", "successes"):
            assert np.array_equal(getattr(loaded, field), getattr(recs, field))
        # the cube rows are the table's, the Bloch rows the formula's: the matrices' to rounding
        assert same_bits(loaded.gamma[:6], recs.gamma[:6])
        assert same_bits(loaded.gamma[6:], bloch_rows(np.array([1.0, 1.0, 0.0])))
        assert np.abs(loaded.gamma[6:] - recs.gamma[6:]).max() <= 4.5e-16

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_cube_labels_name_the_cube_povms(self, d):
        # each label's rows are its basis's block of the table, with the bits of the basis's
        # own contraction
        rows = [resolve_povm_label(label, d) for label in cube_labels(d)]
        assert same_bits(np.stack(rows), cube_rows(d))
        for got, povm in zip(rows, cube_povms(d), strict=True):
            assert same_bits(got, povm.gamma)

    @pytest.mark.parametrize("label, same_as", [
        ("bloch:1e308,1e308,0", "bloch:1,1,0"), ("bloch:-1e308,0,1e308", "bloch:-1,0,1"),
        ("bloch:1e-320,0,0", "bloch:1,0,0"), ("bloch:0,3e-200,-3e-200", "bloch:0,1,-1"),
    ])
    def test_extreme_bloch_components_are_rescaled(self, label, same_as):
        assert same_bits(resolve_povm_label(label, 2), resolve_povm_label(same_as, 2))

    @pytest.mark.parametrize("label", ["bloch:inf,0,0", "bloch:nan,1,0", "bloch:0,-inf,1"])
    def test_non_finite_bloch_components_rejected(self, label):
        with pytest.raises(ConfigError, match="non-finite"):
            resolve_povm_label(label, 2)

    @pytest.mark.parametrize("label, count", [("bloch:1", 1), ("bloch:1,0", 2),
                                              ("bloch:1,0,0,0", 4), ("bloch:inf,0,0,0", 4)])
    def test_bloch_component_count_named(self, label, count):
        with pytest.raises(ConfigError, match=f"has {count} components, need 3$"):
            resolve_povm_label(label, 2)

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            resolve_povm_label("mystery:abc", 2)
        with pytest.raises(ConfigError):
            resolve_povm_label("cube:xq", 4)
        with pytest.raises(ConfigError):
            resolve_povm_label("bloch:1,0,0", 4)
        with pytest.raises(ConfigError, match="^need nonzero 3-vector"):
            resolve_povm_label("bloch:0,-0,0", 2)


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
        bases = len(cube_rows(d))
        assert draws.shape == (len(stack), bases, d)
        assert np.array_equal(copies, split_evenly(total, bases))
        measured = np.repeat(copies, d) > 0
        assert np.array_equal(records.shots, np.repeat(copies, d)[measured])
        assert np.array_equal(records.successes, draws.reshape(len(stack), -1)[:, measured])
        assert not draws[:, copies == 0].any()
        assert draws_rng.random() == records_rng.random()

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_probabilities_are_within_rounding_of_the_exact_ones(self, d, monkeypatch):
        # 15 states per dimension, every third pure: the probabilities drawn from, against an
        # exact evaluation in rationals and against the dense Born product of the elements.
        # The worst error measured over these 45 states is 1.49e-16; the dense product's 1.13e-16
        drawn = []

        def draw(rng, n, p):
            drawn.append(p)
            return multinomial(rng, n, p)

        monkeypatch.setattr(states, "multinomial", draw)
        rng = np.random.default_rng([32, d])
        stack = np.stack([random_density_matrix(d, rng) if k % 3
                          else pure_to_density(random_pure_state(d, rng)) for k in range(15)])
        cube_draws(stack, 100, 0)
        (p,) = drawn
        for rho, got in zip(stack, p, strict=True):
            exact = exact_cube_probabilities(rho)
            assert max(abs(Fraction(x) - e) for row, want in zip(got.tolist(), exact)
                       for x, e in zip(row, want)) <= 2.5e-16
        assert np.abs(p - dense_cube_probabilities(stack)).max() <= 2.5e-16

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

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_paulis_from_rho_equals_dense_traces_and_round_trips(self, d):
        q = d.bit_length() - 1
        rng = np.random.default_rng(d + 60)
        stack = np.stack([random_density_matrix(d, rng) for _ in range(3)])
        e = paulis_from_rho(stack)
        assert e.shape == (3, 4**q) and e.dtype == float
        assert np.abs(e - np.einsum("kij,pji->kp", stack, pauli_strings(q)).real).max() <= 4.5e-16
        assert np.abs(rho_from_paulis(e) - stack).max() <= 1.5e-16
        assert np.array_equal(paulis_from_rho(stack[0]), e[0])
        coefficients = rng.normal(size=(3, 4**q))
        coefficients[:, 0] = 1.0
        assert np.abs(paulis_from_rho(rho_from_paulis(coefficients)) - coefficients).max() <= 1e-15

    @pytest.mark.parametrize("d", [3, 6])
    def test_paulis_from_rho_needs_a_power_of_two(self, d):
        with pytest.raises(ValueError, match="power-of-two"):
            paulis_from_rho(np.eye(d) / d)

    @pytest.mark.parametrize("n", [1, 8, 15])
    def test_rho_from_paulis_needs_4_to_the_q(self, n):
        with pytest.raises(ValueError):
            rho_from_paulis(np.ones(n))
