import numpy as np
import pytest

from qest.cli import _HALF_MAX
from qest.errors import BranchAmbiguityWarning, ContractViolationError
from qest.linalg import (
    gell_mann_basis,
    herm_eigh,
    herm_expm,
    is_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    nearest_unitary,
    stack_matmul,
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


def hermitian_pairs(h, a, c, z):
    """h with its diagonal set to the reals a, c and its off-diagonal pair to z, conj(z)."""
    h = np.array(h, dtype=complex)
    h[..., 0, 0], h[..., 1, 1], h[..., 1, 0] = a, c, z
    h[..., 0, 1] = np.conj(z)
    return h


def qubit_hermitian_set(n=100_000, seed=28):
    """n seeded 2 x 2 Hermitian matrices in four families of n/4, each at scales 10^-150 to
    10^150: Gaussian, near-multiples of I (a - c and z 1e-8 of the diagonal), nearly
    diagonal (z 1e-12 of a - c), and equal diagonals (a = c)."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=(2, n))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    family = np.arange(n) % 4
    c = np.where(family == 1, a + 1e-8 * c, np.where(family == 3, a, c))
    z = z * np.select([family == 1, family == 2], [1e-8 * np.abs(a), 1e-12 * np.abs(a - c)], 1.0)
    scale = 10.0 ** rng.uniform(-150, 150, size=n)
    return hermitian_pairs(np.zeros((n, 2, 2)), a * scale, c * scale, z * scale)


def eigen_errors(h, w, v):
    """Per member: ||H V - V diag(w)||_F / ||H||_F and ||V^dag V - I||_F, with H and w scaled
    by the power of two that brings H's largest entry into [1/2, 1), so that no square
    overflows or vanishes."""
    e = -np.frexp(np.abs(h).max((-2, -1)))[1]
    hs = np.ldexp(h.real, e[..., None, None]) + 1j * np.ldexp(h.imag, e[..., None, None])
    ws = np.ldexp(w, e[..., None])
    residual = (np.linalg.norm(hs @ v - v * ws[..., None, :], axis=(-2, -1))
                / np.linalg.norm(hs, axis=(-2, -1)))
    return residual, np.linalg.norm(v.conj().mT @ v - np.eye(v.shape[-1]), axis=(-2, -1))


class TestHermEigh:
    def test_as_accurate_as_lapack_on_a_seeded_set(self):
        h = qubit_hermitian_set()
        w, v = herm_eigh(h)
        w_ref, v_ref = np.linalg.eigh(h)
        residual, orthogonality = eigen_errors(h, w, v)
        residual_ref, orthogonality_ref = eigen_errors(h, w_ref, v_ref)
        assert residual.max() <= residual_ref.max()
        assert orthogonality.max() <= orthogonality_ref.max()
        assert residual.max() <= 1e-15 and orthogonality.max() <= 1e-15
        # ascending, and within a few ulp of ||H||_F of LAPACK's
        norm = np.linalg.norm(h, axis=(-2, -1))
        assert (w[:, 0] <= w[:, 1]).all()
        assert (np.abs(w - w_ref).max(-1) <= 8 * np.finfo(float).eps * norm).all()

    @pytest.mark.parametrize("x", [0.0, 1.5, -1e200, 1e-300])
    def test_multiple_of_the_identity_gets_the_identity(self, x):
        w, v = herm_eigh(x * np.eye(2, dtype=complex))
        assert w.tolist() == [x, x]
        assert np.array_equal(v, np.eye(2))

    def test_diagonal_members_are_exact(self):
        # z = 0 with a > c and with a < c: the spectrum is the diagonal, the vectors unit axes
        w, v = herm_eigh(np.array([np.diag([3.0, -1.0]), np.diag([-1.0, 3.0])], dtype=complex))
        assert w.tolist() == [[-1.0, 3.0], [-1.0, 3.0]]
        assert np.array_equal(np.abs(v), [[[0, 1], [1, 0]], [[1, 0], [0, 1]]])

    @pytest.mark.parametrize("a, c, z", [
        (1.0, 0.5, 3e-320 - 2e-320j),
        (0.5, 1.0, 5e-324j),
        (1.0, 1.0, 3e-320 - 2e-320j),  # only z splits the spectrum
    ])
    def test_subnormal_off_diagonal(self, a, c, z):
        h = hermitian_pairs(np.zeros((2, 2)), a, c, z)
        w, v = herm_eigh(h)
        assert w.tolist() == [min(a, c), max(a, c)]
        residual, orthogonality = eigen_errors(h, w, v)
        assert residual <= 1e-15 and orthogonality <= 1e-15

    @pytest.mark.parametrize("a, c, z", [
        (0.0, 0.0, 3e-320 - 2e-320j),
        (1e-310, 0.0, 3e-320 - 2e-320j),
        (1e-310, 1e-310, 0.0),
        (3e-310, 1e-310, 1e-310j),
    ])
    def test_subnormal_matrix(self, a, c, z):
        # the eigenvectors stay orthonormal; the eigenvalues, like every subnormal number,
        # keep only an absolute accuracy, a few steps of 2^-1074 from LAPACK's
        h = hermitian_pairs(np.zeros((2, 2)), a, c, z)
        w, v = herm_eigh(h)
        assert np.abs(w - np.linalg.eigh(h)[0]).max() <= 4 * 2.0**-1074
        assert eigen_errors(h, w, v)[1] <= 1e-15

    @pytest.mark.parametrize("scale", np.logspace(-150, 150, 7))
    def test_scale_invariant_from_1e_minus_150_to_1e150(self, scale):
        h = qubit_hermitian_set(1000, seed=5)
        h = h / np.abs(h).max((-2, -1), keepdims=True) * scale
        w, v = herm_eigh(h)
        residual, orthogonality = eigen_errors(h, w, v)
        assert residual.max() <= 1e-15 and orthogonality.max() <= 1e-15

    def test_entries_at_the_slc_generator_bound_do_not_overflow(self):
        # every combination of diagonal and off-diagonal entries up to the bound qest slc
        # puts on its generators; where LAPACK's pairs are finite, these are too
        values = [_HALF_MAX, -_HALF_MAX, _HALF_MAX / 2, 0.0]
        offdiag = [_HALF_MAX, _HALF_MAX * np.exp(0.7j), -_HALF_MAX / 2, 1e-300, 0.0]
        a, c, z = (np.array(x).ravel() for x in np.meshgrid(values, values, offdiag))
        h = hermitian_pairs(np.zeros((a.size, 2, 2)), a, c, z)
        with np.errstate(over="ignore", invalid="ignore"):
            w_ref, v_ref = np.linalg.eigh(h)
        finite = np.isfinite(w_ref).all(-1) & np.isfinite(v_ref).all((-2, -1))
        assert finite.sum() > a.size // 2
        w, v = herm_eigh(h[finite])
        assert np.isfinite(w).all() and np.isfinite(v).all()
        nonzero = np.abs(h[finite]).max((-2, -1)) > 0
        residual, orthogonality = eigen_errors(h[finite][nonzero], w[nonzero], v[nonzero])
        assert residual.max() <= 1e-15 and orthogonality.max() <= 1e-15

    def test_reads_only_the_lower_triangle_and_the_real_diagonal(self):
        h = qubit_hermitian_set(1000)
        garbage = h.copy()
        rng = np.random.default_rng(1)
        garbage[:, 0, 1] = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        garbage[:, [0, 1], [0, 1]] += 1j * rng.normal(size=(1000, 2))
        for got, expected in zip(herm_eigh(garbage), herm_eigh(h)):
            assert got.tobytes() == expected.tobytes()

    def test_stacks_equal_their_per_member_calls_bit_for_bit(self):
        h = qubit_hermitian_set(240).reshape(12, 20, 2, 2)
        # members with r = 0 and with a subnormal r, which take the scaled branch
        h[0, :4] = hermitian_pairs(h[0, :4], [2.0, 2.0, 0.0, 1.0], [2.0, 1.0, 0.0, 1.0],
                                   [0.0, 0.0, 0.0, 1e-320])
        w, v = herm_eigh(h)
        assert w.shape == (12, 20, 2) and v.shape == (12, 20, 2, 2)
        for parts in ([herm_eigh(row) for row in h], [herm_eigh(x) for x in h.reshape(-1, 2, 2)]):
            assert w.tobytes() == np.array([part[0] for part in parts]).tobytes()
            assert v.tobytes() == np.array([part[1] for part in parts]).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (4, 1, 2)])
    def test_rejects_what_is_not_a_square_stack(self, shape):
        with pytest.raises(ValueError):
            herm_eigh(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_other_dimensions_are_lapack_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        h = np.array([random_hermitian(d, rng) for _ in range(6)])
        for got, expected in zip(herm_eigh(h), np.linalg.eigh(h)):
            assert got.tobytes() == expected.tobytes()


def complex_stack(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestStackMatmul:
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 2), (2, 2)), ((80, 2, 2), (80, 2, 2)), ((5, 7, 2, 2), (7, 2, 2)),
        ((2, 2), (4, 3, 2, 2)), ((3, 1, 2, 2), (1, 4, 2, 2)),
    ])
    @pytest.mark.parametrize("view", ["plain", "mT", "conj", "conj-mT"])
    def test_within_a_few_ulp_of_matmul(self, a_shape, b_shape, view):
        rng = np.random.default_rng(31)
        a, b = complex_stack(a_shape, rng), complex_stack(b_shape, rng)
        a, b = {"plain": (a, b), "mT": (a, b.mT), "conj": (a.conj(), b),
                "conj-mT": (a.conj(), b.conj().mT)}[view]
        got, expected = stack_matmul(a, b), np.matmul(a, b)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        bound = (4 * np.finfo(float).eps * np.linalg.norm(a, axis=(-2, -1))[..., None, None]
                 * np.linalg.norm(b, axis=(-2, -1))[..., None, None])
        assert (np.abs(got - expected) <= bound).all()

    def test_equals_matmul_where_both_are_exact(self):
        # dyadic fractions times small integers: every product and sum is exact either way
        rng = np.random.default_rng(32)
        a = (8 * complex_stack((200, 2, 2), rng)).round() / 64
        b = (8 * complex_stack((200, 2, 2), rng)).round()
        assert np.array_equal(stack_matmul(a, b), np.matmul(a, b))
        assert np.array_equal(stack_matmul(a, b.conj().mT), np.matmul(a, b.conj().mT))

    @pytest.mark.parametrize("d", [1, 3, 4, 8])
    def test_other_dimensions_are_matmul_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        a, b = complex_stack((6, 5, d, d), rng), complex_stack((5, d, d), rng)
        for x, y in ((a, b), (a.conj(), b.mT), (a[0, 0], b)):
            assert stack_matmul(x, y).tobytes() == (x @ y).tobytes()

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (2, 3)), ((3, 2), (2, 2)),
                                                  ((4, 2, 2), (2,))])
    def test_other_shapes_are_matmul_bit_for_bit(self, a_shape, b_shape):
        rng = np.random.default_rng(33)
        a, b = complex_stack(a_shape, rng), complex_stack(b_shape, rng)
        assert stack_matmul(a, b).tobytes() == (a @ b).tobytes()


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
