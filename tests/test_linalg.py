import numpy as np
import pytest

from qest.errors import BranchAmbiguityWarning, ContractViolationError
from qest.linalg import (
    gell_mann_basis,
    herm_expm,
    is_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    nearest_unitary,
    unitary_log,
    vec,
    vec_inv,
)
from tests import oracles

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(d, rng, norm=None):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    if norm is not None:
        h *= norm / np.linalg.norm(h, 2)
    return h


def random_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def log_inputs(count=100, seed=7):
    """(h, t) pairs with d = 2..16, ||h||_2 = 1 and ||h||_2 t < pi.

    Every third h with d >= 3 has a degenerate spectrum: its d eigenvalues
    take only max(2, d // 2) distinct values.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(2, 17))
        distinct = max(2, d // 2) if i % 3 == 0 and d >= 3 else d
        w = rng.normal(size=distinct)[np.arange(d) % distinct]
        w -= w.mean()
        q = random_unitary(d, rng)
        h = (q * (w / np.abs(w).max())) @ q.conj().T
        yield h, rng.uniform(0.05, 0.9) * np.pi


class TestGellMannBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        b = gell_mann_basis(2)
        expected = np.stack([SX, SY, SZ]) / np.sqrt(2)
        assert np.allclose(b, expected, atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_invariants(self, d):
        b = gell_mann_basis(d)
        assert b.shape == (d * d - 1, d, d)
        assert gell_mann_basis(d) is b and not b.flags.writeable
        for om in b:
            assert is_hermitian(om, 1e-12)
            assert abs(np.trace(om)) <= 1e-12
        gram = np.einsum("aij,bji->ab", b, b).real
        assert np.abs(gram - np.eye(d * d - 1)).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_total_hilbert_schmidt_norm(self, d):
        b = gell_mann_basis(d)
        total = sum(np.trace(om @ om).real for om in b)
        assert total == pytest.approx(d * d - 1, abs=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            gell_mann_basis(1)


class TestVec:
    def test_column_stacking_order(self):
        assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(vec_inv(vec(a), 3, 3), a)
        v = rng.normal(size=12)
        assert np.array_equal(vec(vec_inv(v, 3, 4)), v)

    def test_degenerate_1x1(self):
        assert np.array_equal(vec(np.array([[2.5 + 1j]])), [2.5 + 1j])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vec_inv(np.arange(5), 2, 3)


class TestHermExpm:
    def test_zero_time_is_identity(self):
        h = random_hermitian(4, np.random.default_rng(1))
        assert np.allclose(herm_expm(h, 0.0), np.eye(4), atol=1e-14)

    def test_pauli_z_half_period(self):
        # eigenvalues +-1 give exp(-i pi) = exp(+i pi) = -1 on both branches
        assert np.allclose(herm_expm(SZ, np.pi), -np.eye(2), atol=1e-12)

    def test_one_parameter_group(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(3, rng)
        lhs = herm_expm(h, 0.7) @ herm_expm(h, 1.8)
        assert np.linalg.norm(lhs - herm_expm(h, 2.5)) <= 1e-9

    def test_unitarity_for_large_generators(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hermitian(5, rng, norm=10.0)
            u = herm_expm(h, rng.uniform(0, 10))
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            herm_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_equals_per_matrix_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        stack = np.array([[random_hermitian(d, rng) for _ in range(5)] for _ in range(4)])
        u = herm_expm(stack, 0.1)
        assert u.shape == (4, 5, d, d)
        expected = np.array([[herm_expm(h, 0.1) for h in row] for row in stack])
        assert u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)])
    def test_stack_rejects_any_non_hermitian_member(self, bad):
        stack = np.array([[SX, SZ], [SY, SX]])
        stack[1, 0] = bad
        with pytest.raises(ContractViolationError):
            herm_expm(stack, 1.0)

    @pytest.mark.parametrize("h", [np.ones(2), np.ones((2, 3)), np.ones((2, 2, 3)),
                                   np.array([[SX, SZ], [SY, np.triu(SX)]])],
                             ids=["1-D", "non-square", "stacked-non-square",
                                  "stacked-non-hermitian"])
    def test_eigh_rejects_what_is_not_a_hermitian_stack(self, h):
        with pytest.raises(ContractViolationError):
            herm_expm(h, 1.0)


class TestNearestUnitary:
    def test_unitary_fixed_point(self):
        u = random_unitary(3, np.random.default_rng(4))
        assert np.linalg.norm(nearest_unitary(u) - u) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(nearest_unitary(3.7 * s), nearest_unitary(s), atol=1e-12)

    def test_beats_random_unitaries(self):
        # Monte-Carlo oracle: the polar factor minimizes the Frobenius distance
        rng = np.random.default_rng(6)
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        best = np.linalg.norm(nearest_unitary(s) - s)
        for _ in range(1000):
            assert best <= np.linalg.norm(random_unitary(2, rng) - s) + 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(ContractViolationError):
            nearest_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestUnitaryLog:
    def test_identity_gives_zero(self):
        h = unitary_log(np.eye(3, dtype=complex), 2.0)
        assert np.linalg.norm(h) <= 1e-12

    def test_pauli_z_round_trip(self):
        h = unitary_log(herm_expm(SZ, 0.3), 0.3)
        assert np.linalg.norm(h - SZ) <= 1e-9

    def test_random_round_trips_inside_branch(self):
        for h, t in log_inputs():
            recovered = unitary_log(herm_expm(h, t), t)
            assert np.linalg.norm(recovered - h) <= 1e-8

    def test_matches_schur_reference(self):
        rng = np.random.default_rng(8)
        for h, t in log_inputs():
            u = np.exp(1j * rng.uniform(-np.pi, np.pi)) * herm_expm(h, t)
            expected = oracles.unitary_log(u, t)
            assert np.linalg.norm(unitary_log(u, t) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractViolationError):
            unitary_log(np.diag([1.0, 2.0]).astype(complex), 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(ValueError):
            unitary_log(np.eye(2, dtype=complex), t)

    def test_branch_cut_warning(self):
        u = herm_expm(SZ, np.pi - 1e-7)
        with pytest.warns(BranchAmbiguityWarning):
            unitary_log(u, np.pi - 1e-7)


class TestPredicates:
    def test_hermitian_unitary_psd(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(3, rng)
        assert is_hermitian(h)
        assert not is_hermitian(h + 1e-6 * 1j * np.eye(3))
        u = random_unitary(3, rng)
        assert is_unitary(u)
        assert not is_unitary(1.01 * u)

    def test_hermitian_stack_needs_every_member(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        assert is_hermitian(stack)
        stack[2, 0, 1] += 1e-6
        assert not is_hermitian(stack)
        assert not is_hermitian(np.zeros((2, 3, 2)))
        assert is_hermitian(np.zeros((0, 3, 3)))

    def test_hermitian_distance_is_frobenius(self):
        # a - a^dag holds +-x at (0, 1) and (1, 0): Frobenius norm sqrt(2) x
        for x, expected in ((0.7e-10, True), (0.72e-10, False)):
            a = np.zeros((2, 2, 2))
            a[1, 0, 1] = x
            assert is_hermitian(a[1]) is expected
            assert is_hermitian(a) is expected


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        obj = matrix_to_json(a)
        assert obj["rows"] == 3 and obj["cols"] == 2
        assert np.allclose(matrix_from_json(obj), a)

    def test_data_is_column_stacked(self):
        obj = matrix_to_json(np.array([[1, 3], [2, 4]], dtype=complex))
        assert [c[0] for c in obj["data"]] == [1.0, 2.0, 3.0, 4.0]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "data": []})

    @pytest.mark.parametrize("obj", [
        {"rows": 1, "cols": 1, "data": [[True, 0]]},
        {"rows": 1, "cols": 1, "data": [[0, False]]},
        {"rows": 1.5, "cols": 1, "data": [[1, 0]]},
        {"rows": True, "cols": 1, "data": [[1, 0]]},
        {"rows": 1, "cols": "1", "data": [[1, 0]]},
    ], ids=["re-true", "im-false", "rows-fraction", "rows-bool", "cols-string"])
    def test_booleans_and_non_integral_sizes_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_json(obj)

    def test_integral_float_sizes_accepted(self):
        assert matrix_from_json({"rows": 1.0, "cols": 2, "data": [[1, 0], [0, 2]]}).shape == (1, 2)
