import warnings

import numpy as np
import pytest
import scipy.linalg

from qest.cli import _HALF_MAX
from qest.errors import BranchAmbiguityWarning, ContractViolationError
from qest.linalg import (
    EigenExpm,
    QubitExpm,
    gell_mann_basis,
    herm_expm,
    is_hermitian,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    nearest_unitary,
    pauli_coordinates,
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


PAULIS = np.stack([np.eye(2, dtype=complex), SX, SY, SZ])


def pauli_matrix(c):
    """The matrices c0 I + c.sigma of Pauli coordinates c, (..., 4) -> (..., 2, 2)."""
    return np.einsum("...a,aij->...ij", np.asarray(c, dtype=complex), PAULIS)


def random_coordinates(n, rng, scale=1.0):
    """n Pauli coordinate vectors with |h| spread over two decades below ``scale`` and
    identity parts of either sign."""
    c = rng.normal(size=(n, 4))
    c[:, 1:] *= 10.0 ** rng.uniform(-2, 0, size=(n, 1)) / np.linalg.norm(c[:, 1:], axis=1)[:, None]
    return c * scale


def random_kets(shape, rng):
    return rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))


def eigen_brackets(c, s, bra, ket):
    """<bra| dU / dh_a |ket> for a = x, y, z, by the eigenpairs of ``np.linalg.eigh`` and the
    divided differences of the spectrum: the eigen path, independent of the closed form."""
    w, v = np.linalg.eigh(pauli_matrix(c))
    x = s * (w[..., :, None] - w[..., None, :])
    gamma = (s * np.exp(-1j * s * w)[..., None, :]
             * (-np.sin(x / 2) * np.sinc(x / (2 * np.pi)) - 1j * np.sinc(x / np.pi)))
    a = (v.conj().mT @ bra[..., None])[..., 0]
    b = (v.conj().mT @ ket[..., None])[..., 0]
    return np.stack([np.einsum("...a,...ab,...b->...", a.conj(), gamma * (v.conj().mT @ p @ v), b)
                     for p in PAULIS[1:]], -1)


def worst_relative(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


class TestPauliCoordinates:
    def test_inverse_of_the_pauli_expansion(self):
        rng = np.random.default_rng(40)
        c = rng.normal(size=(50, 4))
        assert np.abs(pauli_coordinates(pauli_matrix(c)) - c).max() <= 1e-15
        assert pauli_coordinates(SY).tolist() == [0.0, 0.0, 1.0, 0.0]
        assert pauli_coordinates(np.diag([3.0, 1.0])).tolist() == [2.0, 0.0, 0.0, 1.0]

    def test_reads_only_the_lower_triangle_and_the_real_diagonal(self):
        h = qubit_hermitian_set(1000)
        garbage = h.copy()
        rng = np.random.default_rng(2)
        garbage[:, 0, 1] = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        garbage[:, [0, 1], [0, 1]] += 1j * rng.normal(size=(1000, 2))
        assert pauli_coordinates(garbage).tobytes() == pauli_coordinates(h).tobytes()

    def test_diagonal_at_the_slc_generator_bound_does_not_overflow(self):
        c = pauli_coordinates(np.diag([_HALF_MAX, _HALF_MAX]) * (1 + 0j))
        assert c.tolist() == [_HALF_MAX, 0.0, 0.0, 0.0]


class TestQubitExpm:
    def test_propagators_match_scipy_expm(self):
        # an exponential independent of the closed form: scipy's Pade expm of each matrix,
        # for phases s |h| from 1e-3 to 6 and identity parts of either sign
        rng = np.random.default_rng(41)
        c, s = random_coordinates(300, rng, 6.0), 1.0
        expected = np.array([scipy.linalg.expm(-1j * s * h) for h in pauli_matrix(c)])
        assert np.abs(QubitExpm(c, s).unitaries - expected).max() <= 1e-14

    def test_bracket_derivative_matches_the_eigen_path(self):
        rng = np.random.default_rng(42)
        c, s = random_coordinates(300, rng, 6.0), 0.5
        bra, ket = random_kets((300,), rng), random_kets((300,), rng)
        got = QubitExpm(c, s).bracket_derivative(bra, ket)
        assert worst_relative(got, eigen_brackets(c, s, bra, ket)) <= 1e-13

    def test_bracket_derivative_matches_central_differences(self):
        rng = np.random.default_rng(43)
        c, s, step = random_coordinates(50, rng, 3.0), 0.3, 1e-6
        bra, ket = random_kets((50,), rng), random_kets((50,), rng)
        expected = []
        for a in range(1, 4):
            delta = np.zeros(4)
            delta[a] = step
            du = (QubitExpm(c + delta, s).unitaries - QubitExpm(c - delta, s).unitaries) / (2 * step)
            expected.append(np.einsum("ni,nij,nj->n", bra.conj(), du, ket))
        got = QubitExpm(c, s).bracket_derivative(bra, ket)
        assert worst_relative(got, np.stack(expected, -1)) <= 1e-8

    @pytest.mark.parametrize("r", [0.0, 1e-11, 1e-320])
    def test_vanishing_vector_parts(self, r):
        # r = 0 exactly, a phase s r of 1e-12 and a subnormal r: U = e^{-i s h0} I up to
        # s r, and so is the derivative -i s e^{-i s h0} <bra|sigma|ket> of r = 0
        rng = np.random.default_rng(44)
        c = np.array([[0.7, 0.0, 0.0, 0.0], [-1.3, 0.0, 0.0, 0.0]])
        c[:, 1:] = r * np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        s = 0.1
        bra, ket = random_kets((2,), rng), random_kets((2,), rng)
        with np.errstate(all="raise", under="ignore"):
            expm = QubitExpm(c, s)
            got = expm.bracket_derivative(bra, ket)
        expected = np.array([scipy.linalg.expm(-1j * s * h) for h in pauli_matrix(c)])
        assert np.abs(expm.unitaries - expected).max() <= 1e-16
        sigma_m = np.einsum("ni,aij,nj->na", bra.conj(), PAULIS[1:], ket)
        at_zero = -1j * s * np.exp(-1j * s * c[:, :1]) * sigma_m
        assert worst_relative(got, at_zero) <= max(2 * s * r, 2 * np.finfo(float).eps)
        assert worst_relative(got, eigen_brackets(c, s, bra, ket)) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_scale_invariant_at_phases_up_to_1e3(self, scale):
        # generators at 1e150 (or 1e-150) with s scaled down so that s |h| stays below 1e3:
        # the same propagators and derivatives, times 1 / scale, as the unit-scale members
        rng = np.random.default_rng(45)
        c, s = random_coordinates(200, rng, 1e3), 1.0
        bra, ket = random_kets((200,), rng), random_kets((200,), rng)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            scaled = QubitExpm(c * scale, s / scale)
            got = scaled.bracket_derivative(bra, ket)
        unit = QubitExpm(c, s)
        assert np.isfinite(scaled.unitaries).all() and np.isfinite(got).all()
        assert np.abs(scaled.unitaries - unit.unitaries).max() <= 1e-12
        assert worst_relative(got * scale, unit.bracket_derivative(bra, ket)) <= 1e-12
        assert worst_relative(got * scale, eigen_brackets(c, s, bra, ket)) <= 1e-12

    def test_coordinates_at_the_slc_generator_bound_do_not_overflow(self):
        # every combination of coordinates up to half the largest double, the bound qest slc
        # puts on its generators, with s |h| up to about 1e8
        values = [_HALF_MAX / 2, -_HALF_MAX / 2, 1e-300, 0.0]
        c = np.array(np.meshgrid(values, values, values, values)).reshape(4, -1).T
        rng = np.random.default_rng(46)
        bra, ket = random_kets((len(c),), rng), random_kets((len(c),), rng)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            expm = QubitExpm(c, 1e-300)
            got = expm.bracket_derivative(bra, ket)
        assert np.isfinite(expm.unitaries).all() and np.isfinite(got).all()
        u = expm.unitaries
        assert np.abs(u.conj().mT @ u - np.eye(2)).max() <= 1e-15

    def test_stacks_equal_their_per_member_calls_bit_for_bit(self):
        rng = np.random.default_rng(47)
        c = random_coordinates(240, rng, 4.0).reshape(12, 20, 4)
        c[0, :3, 1:] = [[0.0, 0.0, 0.0], [1e-320, 0.0, 0.0], [0.0, 1e-11, 0.0]]
        bra, ket = random_kets((12, 20), rng), random_kets((12, 20), rng)
        expm = QubitExpm(c, 0.1)
        members = [QubitExpm(x[None], 0.1) for x in c.reshape(-1, 4)]
        assert expm.unitaries.tobytes() == np.concatenate([m.unitaries for m in members]).tobytes()
        brackets = [m.bracket_derivative(b[None], k[None]) for m, b, k in
                    zip(members, bra.reshape(-1, 2), ket.reshape(-1, 2))]
        assert (expm.bracket_derivative(bra, ket).tobytes()
                == np.concatenate(brackets).tobytes())

    def test_propagators_are_read_only(self):
        expm = QubitExpm(np.ones((3, 4)), 0.1)
        with pytest.raises(ValueError):
            expm.unitaries[0, 0, 0] = 1.0

    def test_one_generator_equals_member_0_of_a_stack_of_one_bit_for_bit(self):
        rng = np.random.default_rng(48)
        c, bra, ket = random_coordinates(1, rng, 4.0), random_kets((1,), rng), random_kets((1,), rng)
        one, stack = QubitExpm(c[0], 0.3), QubitExpm(c, 0.3)
        assert one.unitaries.shape == (2, 2)
        assert one.unitaries.tobytes() == stack.unitaries[0].tobytes()
        assert (one.bracket_derivative(bra[0], ket[0]).tobytes()
                == stack.bracket_derivative(bra, ket)[0].tobytes())

    @pytest.mark.parametrize("view", ["strided", "reversed", "fortran"])
    def test_views_equal_contiguous_copies_bit_for_bit(self, view):
        rng = np.random.default_rng(51)
        c = random_coordinates(30, rng, 4.0)
        bra, ket = random_kets((30,), rng), random_kets((30,), rng)
        take ={"strided": lambda a: a[::3], "reversed": lambda a: a[::-1],
                "fortran": np.asfortranarray}[view]
        c, bra, ket = take(c), take(bra), take(ket)
        expm = QubitExpm(c, 0.3)
        copy = QubitExpm(np.ascontiguousarray(c), 0.3)
        assert expm.unitaries.tobytes() == copy.unitaries.tobytes()
        assert (expm.bracket_derivative(bra, ket).tobytes()
                == copy.bracket_derivative(np.ascontiguousarray(bra),
                                           np.ascontiguousarray(ket)).tobytes())

    @pytest.mark.parametrize("s", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_non_positive_or_non_finite_s(self, s):
        with pytest.raises(ValueError):
            QubitExpm(np.array([0.0, 1.0, 0.0, 0.0]), s)


def random_states(shape, d, rng):
    return rng.normal(size=shape + (d,)) + 1j * rng.normal(size=shape + (d,))


def central_brackets(h, s, bra, ket, step=1e-6):
    """<bra| dU / dH_cd |ket> of U = exp(-i s H), row-major over the entries (c, d), by central
    differences of scipy's Pade expm: an oracle independent of the eigenpairs."""
    d = h.shape[-1]
    expected = []
    for c, e in np.ndindex(d, d):
        delta = np.zeros((d, d))
        delta[c, e] = step
        du = (scipy.linalg.expm(-1j * s * (h + delta))
              - scipy.linalg.expm(-1j * s * (h - delta))) / (2 * step)
        expected.append(bra.conj() @ du @ ket)
    return np.array(expected)


class TestEigenExpm:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_propagators_match_scipy_expm(self, d, scale):
        # generators of spectral norm ``scale`` at s = 1: phases from 1e-3 to 100
        rng = np.random.default_rng(60 + d)
        h = np.array([random_hermitian(d, rng, norm=scale) for _ in range(20)])
        expected = np.array([scipy.linalg.expm(-1j * x) for x in h])
        assert np.abs(EigenExpm(h, 1.0).unitaries - expected).max() <= 1e-14 * max(1.0, scale)

    @pytest.mark.parametrize("d", [3, 4])
    def test_bracket_derivative_matches_central_differences(self, d):
        rng = np.random.default_rng(61 + d)
        for norm, s in [(0.5, 0.3), (2.0, 0.7), (4.0, 1.5)]:
            h = random_hermitian(d, rng, norm=norm)
            bra, ket = random_states((), d, rng), random_states((), d, rng)
            got = EigenExpm(h, s).bracket_derivative(bra, ket)
            assert got.shape == (d * d,)
            assert worst_relative(got, central_brackets(h, s, bra, ket)) <= 1e-8

    def test_zero_generator_gives_minus_i_s_times_the_entries(self):
        # H = 0: every divided difference is its limit -i s, so dU = -i s Delta exactly
        rng = np.random.default_rng(62)
        bra, ket = random_states((), 3, rng), random_states((), 3, rng)
        got = EigenExpm(np.zeros((3, 3), dtype=complex), 0.4).bracket_derivative(bra, ket)
        expected = (-0.4j * np.outer(bra.conj(), ket)).ravel()
        assert worst_relative(got, expected) <= 2 * np.finfo(float).eps
        assert EigenExpm(np.zeros((3, 3)), 0.4).unitaries.tolist() == np.eye(3).tolist()

    def test_degenerate_spectrum_takes_the_limit(self):
        # diag(1, 1, -2): the divided differences of a diagonal H in closed form, with the
        # limit -i s e^{-i s l} in the degenerate block, and central differences
        rng = np.random.default_rng(63)
        h, s = np.diag([1.0, 1.0, -2.0]).astype(complex), 0.6
        bra, ket = random_states((), 3, rng), random_states((), 3, rng)
        got = EigenExpm(h, s).bracket_derivative(bra, ket)
        lam = np.diag(h).real
        diff = lam[:, None] - lam[None, :]
        phases = np.exp(-1j * s * lam)
        same = diff == 0
        gamma = np.where(same, -1j * s * phases[:, None],
                         (phases[:, None] - phases[None, :]) / np.where(same, 1.0, diff))
        expected = (bra.conj()[:, None] * gamma * ket[None, :]).ravel()
        assert worst_relative(got, expected) <= 1e-15
        assert worst_relative(got, central_brackets(h, s, bra, ket)) <= 1e-8

    def test_qubits_agree_with_qubit_expm_through_the_pauli_map(self):
        # dU / dh_a = sum_cd dU / dH_cd (sigma_a)_cd, and -i s <bra|U|ket> along the identity
        rng = np.random.default_rng(64)
        c, s = random_coordinates(300, rng, 6.0), 0.5
        bra, ket = random_kets((300,), rng), random_kets((300,), rng)
        eigen = EigenExpm(pauli_matrix(c), s)
        along = eigen.bracket_derivative(bra, ket) @ PAULIS.reshape(4, 4).T
        qubit = QubitExpm(c, s)
        assert worst_relative(along[:, 1:], qubit.bracket_derivative(bra, ket)) <= 1e-13
        overlap = np.einsum("ni,nij,nj->n", bra.conj(), qubit.unitaries, ket)
        assert worst_relative(along[:, 0], -1j * s * overlap) <= 1e-13

    def test_arrays_are_read_only(self):
        expm = EigenExpm(random_hermitian(3, np.random.default_rng(65)), 0.1)
        arrays = [a for a in vars(expm).values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            expm.unitaries[0, 0] = 1.0

    @pytest.mark.parametrize("d", [3, 4])
    def test_stacks_equal_their_per_member_calls_bit_for_bit(self, d):
        rng = np.random.default_rng(66 + d)
        h = np.array([[random_hermitian(d, rng) for _ in range(5)] for _ in range(4)])
        h[0, 0] = 0.0
        h[0, 1] = np.diag([1.0, 1.0] + [-2.0] * (d - 2))
        bra, ket = random_states((4, 5), d, rng), random_states((4, 5), d, rng)
        expm = EigenExpm(h, 0.3)
        members = [EigenExpm(x[None], 0.3) for x in h.reshape(-1, d, d)]
        assert (expm.unitaries.tobytes()
                == np.concatenate([m.unitaries for m in members]).tobytes())
        brackets = [m.bracket_derivative(b[None], k[None]) for m, b, k in
                    zip(members, bra.reshape(-1, d), ket.reshape(-1, d))]
        assert (expm.bracket_derivative(bra, ket).tobytes()
                == np.concatenate(brackets).tobytes())


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

    @pytest.mark.parametrize("s", [0.1, 0.0, -0.3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_equals_per_matrix_bit_for_bit(self, d, s):
        rng = np.random.default_rng(d)
        stack = np.array([[random_hermitian(d, rng) for _ in range(5)] for _ in range(4)])
        u = herm_expm(stack, s)
        assert u.shape == (4, 5, d, d)
        expected = np.array([[herm_expm(h, s) for h in row] for row in stack])
        assert u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", np.logspace(-150, 150, 7))
    def test_qubits_match_scipy_expm_from_1e_minus_150_to_1e150(self, scale):
        # the seeded families of qubit_hermitian_set, each member's largest entry at scale and
        # s = 1 / scale, so that every s H, which scipy's Pade expm takes, is of order 1
        h = qubit_hermitian_set(1000, seed=5)
        h = h / np.abs(h).max((-2, -1), keepdims=True) * scale
        s = 1.0 / scale
        assert np.abs(herm_expm(h, s) - scipy.linalg.expm(-1j * (s * h))).max() <= 2e-15

    @pytest.mark.parametrize("x, s", [(0.0, 1.0), (1.5, 1.0), (-1e200, 1e-200), (1e-300, 1e300)])
    def test_qubit_multiple_of_the_identity_is_a_phase(self, x, s):
        u = herm_expm(x * np.eye(2, dtype=complex), s)
        assert u[0, 1] == u[1, 0] == 0
        assert np.abs(u - scipy.linalg.expm(-1j * (s * x) * np.eye(2))).max() <= 1e-15

    @pytest.mark.parametrize("a, c, z", [
        (1.0, 0.5, 3e-320 - 2e-320j),
        (0.5, 1.0, 5e-324j),
        (1.0, 1.0, 3e-320 - 2e-320j),  # only z splits the spectrum
    ])
    def test_qubit_subnormal_off_diagonal(self, a, c, z):
        h = hermitian_pairs(np.zeros((2, 2)), a, c, z)
        u = herm_expm(h, 0.7)
        assert np.abs(u - scipy.linalg.expm(-0.7j * h)).max() <= 1e-15
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("s", [0.0, -0.7, -1e-300])
    def test_qubits_at_zero_and_negative_s(self, s):
        rng = np.random.default_rng(8)
        h = np.array([random_hermitian(2, rng) for _ in range(20)])
        assert np.abs(herm_expm(h, s) - scipy.linalg.expm(-1j * s * h)).max() <= 1e-14

    def test_qubits_with_positive_s_take_no_eigh(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert herm_expm(SX, 0.3).shape == (2, 2)
        assert herm_expm(np.stack([SX, SY, SZ]), 0.3).shape == (3, 2, 2)
        with pytest.raises(AssertionError):
            herm_expm(SX, -0.3)
        with pytest.raises(AssertionError):
            herm_expm(np.eye(3), 0.3)

    @pytest.mark.parametrize("s", [0.7, 1e300])
    @pytest.mark.parametrize("a, c, z", [
        (0.0, 0.0, 3e-320 - 2e-320j),
        (1e-310, 0.0, 3e-320 - 2e-320j),
        (1e-310, 1e-310, 0.0),
        (3e-310, 1e-310, 1e-310j),
    ])
    def test_qubit_subnormal_matrix(self, a, c, z, s):
        # every entry subnormal: at s = 0.7 the propagator is I to the subnormals, at
        # s = 1e300 the phases are of order 1e-10 and must still come out unitary
        h = hermitian_pairs(np.zeros((2, 2)), a, c, z)
        u = herm_expm(h, s)
        assert np.abs(u - scipy.linalg.expm(-1j * s * h)).max() <= 1e-15
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-15

    def test_qubit_entries_at_the_slc_generator_bound_do_not_overflow(self):
        # every combination of diagonal and off-diagonal entries up to the bound qest slc puts
        # on its generators, through the Hermitian check and the Pauli coordinates
        values = [_HALF_MAX, -_HALF_MAX, _HALF_MAX / 2, 0.0]
        offdiag = [_HALF_MAX, _HALF_MAX * np.exp(0.7j), -_HALF_MAX / 2, 1e-300, 0.0]
        a, c, z = (np.array(x).ravel() for x in np.meshgrid(values, values, offdiag))
        h = hermitian_pairs(np.zeros((a.size, 2, 2)), a, c, z)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            u = herm_expm(h, 1e-300)
        assert np.isfinite(u).all()
        assert np.abs(u.conj().mT @ u - np.eye(2)).max() <= 1e-15

    def test_qubits_as_unitary_as_the_eigh_route_on_a_seeded_set(self):
        # the seeded families of qubit_hermitian_set, each member scaled to a largest entry
        # of 1, against exp(-i H) built from LAPACK's eigenpairs
        h = qubit_hermitian_set(20_000)
        h = h / np.abs(h).max((-2, -1), keepdims=True)
        u = herm_expm(h, 1.0)
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().mT
        defect = np.abs(u.conj().mT @ u - np.eye(2)).max()
        assert defect <= np.abs(expected.conj().mT @ expected - np.eye(2)).max()
        assert defect <= 1e-15
        assert np.abs(u - expected).max() <= 1e-14

    def test_qubit_diagonal_members_stay_diagonal(self):
        # z = 0 with a > c and with a < c: no off-diagonal part, and the phases of the diagonal
        h = np.array([np.diag([3.0, -1.0]), np.diag([-1.0, 3.0])], dtype=complex)
        u = herm_expm(h, 0.7)
        assert (u[:, 0, 1] == 0).all() and (u[:, 1, 0] == 0).all()
        diagonal = np.diagonal(h, 0, -2, -1).real
        assert np.abs(np.diagonal(u, 0, -2, -1) - np.exp(-0.7j * diagonal)).max() <= 1e-15

    @pytest.mark.parametrize("shape", [(), (80,), (5, 7), (4, 3), (3, 1, 2)])
    def test_qubits_are_the_closed_form_on_pauli_coordinates_bit_for_bit(self, shape):
        rng = np.random.default_rng(49)
        h = pauli_matrix(random_coordinates(int(np.prod(shape)), rng, 4.0)).reshape(shape + (2, 2))
        u = herm_expm(h, 0.3)
        assert u.shape == shape + (2, 2)
        assert u.tobytes() == QubitExpm(pauli_coordinates(h), 0.3).unitaries.tobytes()

    @pytest.mark.parametrize("d", [1, 3, 4, 8])
    def test_other_dimensions_are_the_eigh_formula_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        h = np.array([[random_hermitian(d, rng) for _ in range(5)] for _ in range(6)])
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(-0.4j * w)[..., None, :]) @ v.conj().mT
        assert herm_expm(h, 0.4).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("view", ["mT", "strided", "reversed", "fortran"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_views_equal_contiguous_copies_bit_for_bit(self, d, view):
        rng = np.random.default_rng(50 + d)
        h = np.array([random_hermitian(d, rng) for _ in range(12)])
        h = {"mT": h.mT, "strided": h[::3], "reversed": h[::-1],
             "fortran": np.asfortranarray(h)}[view]
        assert herm_expm(h, 0.3).tobytes() == herm_expm(np.ascontiguousarray(h), 0.3).tobytes()

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)])
    def test_stack_rejects_any_non_hermitian_member(self, bad):
        stack = np.array([[SX, SZ], [SY, SX]])
        stack[1, 0] = bad
        with pytest.raises(ContractViolationError):
            herm_expm(stack, 1.0)

    @pytest.mark.parametrize("h", [np.ones(2), np.ones((2, 3)), np.ones((2, 2, 3)),
                                   np.array([[SX, SZ], [SY, np.triu(SX)]]), np.ones((3, 2)),
                                   np.ones((4, 1, 2))],
                             ids=["1-D", "non-square", "stacked-non-square",
                                  "stacked-non-hermitian", "tall", "stacked-row"])
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
