import itertools
import warnings

import numpy as np
import pytest

from qest import identification, states
from qest.errors import ContractViolationError, SingularDesignError
from qest.identification import (
    apply_channel,
    estimate_lambda,
    identify_hamiltonian,
    natural_probes,
    random_traceless_hermitian,
    raw_process_matrix,
)
from qest.linalg import herm_expm, vec, vec_inv
from qest.states import cube_records, pure_to_density
from qest.tomography import tomography_pipeline
from tests.complexity import alternating_probes, complexity_probe
from tests.oracles import (
    build_b_matrix,
    check_density_matrix,
    identify_by_eigh,
    identify_by_rotations,
    is_trace_preserving,
    lambda_by_solve,
    natural_units,
    regression_lambda,
    same_bits,
    schur_eigenphases,
    units_by_solve,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
KET0 = np.array([1.0, 0.0], dtype=complex)


def per_probe_lambda(kraus, d, shots, seed):
    """Reference: one full tomography pipeline per probe output, solved one at a time."""
    rng = np.random.default_rng(seed)
    return units_by_solve(np.stack([
        tomography_pipeline(cube_records(apply_channel(kraus, probe), shots, rng))[0]
        for probe in natural_probes(d)
    ]))


def random_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def minimal_norm_generators(u, t):
    """All traceless Hermitian logs of u (up to global phase) with their norms.

    Enumerates the determinant-compatible phase rotations and the +-2*pi
    eigenphase wraps; serves as the identifiability oracle.
    """
    d = u.shape[0]
    phases, z = schur_eigenphases(u * np.exp(-1j * np.angle(np.linalg.det(u)) / d))
    out = []
    for r in range(d):
        shifted = phases + 2 * np.pi * r / d
        shifted = np.angle(np.exp(1j * shifted))  # rewrap to principal
        for wraps in itertools.product((-1, 0, 1), repeat=d):
            cand = shifted + 2 * np.pi * np.array(wraps)
            if abs(cand.sum()) > 1e-6:
                continue
            h = (z * (-cand / t)) @ z.conj().T
            out.append((float(np.linalg.norm(h, 2)), h))
    return sorted(out, key=lambda item: item[0])


def is_identifiable(h_true, t, margin=1e-6):
    """True when h_true is the strictly minimal-norm generator of its propagator."""
    candidates = minimal_norm_generators(herm_expm(h_true, t), t)
    best_norm, best_h = candidates[0]
    if np.linalg.norm(best_h - h_true) > 1e-8:
        return False
    others = [n for n, h in candidates if np.linalg.norm(h - h_true) > 1e-8]
    return not others or min(others) > best_norm + margin


class TestNaturalStateBasis:
    def test_unit_count_and_independence(self):
        # estimate_lambda's matrix units are the rows of np.eye(d^2)
        for d in (2, 3, 4):
            units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
            assert np.array_equal(units, natural_units(d))
            assert np.linalg.matrix_rank(units.reshape(d * d, d * d)) == d * d

    def test_probe_map_well_conditioned(self):
        assert np.linalg.cond(natural_probes(2).reshape(4, 4)) < 10

    @pytest.mark.parametrize("d", [2, 3])
    def test_probes_are_physical_and_span(self, d):
        probes = natural_probes(d)
        for probe in probes:
            check_density_matrix(probe)
        assert np.linalg.matrix_rank(probes.reshape(d * d, d * d)) == d * d

    def test_probe_coefficients_reconstruct_probes(self):
        probes = natural_probes(3)
        rebuilt = np.tensordot(probes.reshape(9, 9), natural_units(3), axes=1)
        assert np.allclose(rebuilt, probes, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_probes_equal_the_per_probe_loop_bit_for_bit(self, d):
        from tests.oracles import natural_probes_loop

        assert natural_probes(d).tobytes() == natural_probes_loop(d).tobytes()

    def test_cached_and_read_only(self):
        for d in (2, 3, 4, 8):
            probes = natural_probes(d)
            assert natural_probes(d) is probes
            assert probes.shape == (d * d, d, d) and not probes.flags.writeable
            assert np.linalg.matrix_rank(probes.reshape(d * d, d * d)) == d * d
        with pytest.raises(ValueError):
            natural_probes(1)


class TestBuildB:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitarity_under_natural_bases(self, d):
        b = build_b_matrix(d)
        assert np.linalg.norm(b.conj().T @ b - np.eye(d**4)) <= 1e-9

    def test_qubit_entries_match_delta_pattern(self):
        # closed-form oracle: F_j rho_m F_k^dag lands on exactly one unit
        d = 2
        b = build_b_matrix(d)
        expected = np.zeros((16, 16))
        for m, n, j, k in itertools.product(range(4), repeat=4):
            am, bm = divmod(m, d)
            an, bn = divmod(n, d)
            aj, bj = divmod(j, d)
            ak, bk = divmod(k, d)
            value = float(bj == am and bk == bm and an == aj and bn == ak)
            expected[n * 4 + m, k * 4 + j] = value
        assert np.abs(b - expected).max() <= 1e-12
        assert set(np.round(np.abs(b).ravel(), 12)) <= {0.0, 1.0}

    def test_channel_application_oracle(self):
        # B vec(X) must reproduce the directly-computed transfer matrix
        rng = np.random.default_rng(0)
        d = 3
        b = build_b_matrix(d)
        u = random_unitary(d, rng)
        g = u.T
        x = np.outer(vec(g), vec(g).conj())
        lam_direct = np.stack([apply_channel([u], unit).ravel() for unit in natural_units(d)])
        assert np.linalg.norm(b @ vec(x) - vec(lam_direct)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reshuffle_matches_dense_b(self, d):
        # oracles: the adjoint and the linear solve of the dense B
        rng = np.random.default_rng(77 + d)
        b = build_b_matrix(d)
        d2 = d * d
        lams = [rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2)),
                estimate_lambda([random_unitary(d, rng)], d),
                np.eye(d2, dtype=complex)]
        for lam in lams:
            x = raw_process_matrix(lam)
            assert np.array_equal(x, vec_inv(b.conj().T @ vec(lam), d2, d2))
            assert np.array_equal(x, vec_inv(np.linalg.solve(b, vec(lam)), d2, d2))


class TestApplyChannel:
    def test_identity_channel(self):
        rho = pure_to_density(KET0)
        assert np.allclose(apply_channel([np.eye(2, dtype=complex)], rho), rho)

    def test_unitary_preserves_purity(self):
        u = herm_expm(SZ, 0.8)
        out = apply_channel([u], pure_to_density(KET0))
        assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)

    def test_bit_flip_mixture(self):
        kraus = [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * SX]
        assert is_trace_preserving(kraus)
        out = apply_channel(kraus, pure_to_density(KET0))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_stack_equals_per_member_calls(self):
        rng = np.random.default_rng(12)
        kraus = [np.sqrt(0.7) * random_unitary(3, rng), np.sqrt(0.3) * random_unitary(3, rng)]
        probes = natural_probes(3)
        assert np.array_equal(apply_channel(kraus, probes),
                              np.stack([apply_channel(kraus, rho) for rho in probes]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel([np.eye(3, dtype=complex)], np.eye(2) / 2)


class TestEstimateLambda:
    def test_identity_channel_gives_identity(self):
        lam = estimate_lambda([np.eye(2, dtype=complex)], 2)
        assert np.allclose(lam, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_kronecker_oracle(self, d):
        rng = np.random.default_rng(d)
        u = random_unitary(d, rng)
        lam = estimate_lambda([u], d)
        assert np.linalg.norm(lam - np.kron(u, u.conj()).T) <= 1e-10

    def test_sampled_converges_to_noiseless(self):
        h = random_traceless_hermitian(2, np.random.default_rng(5), 0.8)
        kraus = [herm_expm(h, 0.5)]
        exact = estimate_lambda(kraus, 2)
        sampled = estimate_lambda(kraus, 2, shots_per_output=10**6, seed=8)
        assert np.abs(sampled - exact).max() <= 0.01

    @pytest.mark.parametrize("d, shots", [(2, 3), (2, 5000), (4, 9), (4, 20), (4, 20000),
                                          (8, 20000)])
    def test_sampled_equals_per_probe_tomographies(self, d, shots):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        lam = estimate_lambda(kraus, d, shots_per_output=shots, seed=4)
        assert np.abs(lam - per_probe_lambda(kraus, d, shots, 4)).max() <= 1e-12

    def test_noiseless_equals_per_unit_loop_bit_for_bit(self):
        kraus = [herm_expm(random_traceless_hermitian(4, np.random.default_rng(6), 1.0), 0.5)]
        assert same_bits(estimate_lambda(kraus, 4),
                         np.stack([apply_channel(kraus, u).ravel() for u in natural_units(4)]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_noiseless_equals_the_units_stack_bit_for_bit(self, d):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        assert same_bits(estimate_lambda(kraus, d),
                         apply_channel(kraus, natural_units(d)).reshape(d * d, d * d))

    @pytest.mark.parametrize("d, shots", [(2, 3), (2, 5000), (4, 9), (4, 10), (4, 20000),
                                          (8, 28), (8, 20000), (16, 20000)])
    def test_sampled_equals_regression_oracle(self, d, shots):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        lam = estimate_lambda(kraus, d, shots_per_output=shots, seed=7)
        assert np.abs(lam - regression_lambda(kraus, d, shots, 7)).max() <= 1e-12

    @pytest.mark.parametrize("d, shots", [(2, 1), (2, 2), (4, 5), (4, 8), (8, 26)])
    def test_singular_null_dimension_equals_the_regression_oracle(self, d, shots):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        with pytest.raises(SingularDesignError) as ours:
            estimate_lambda(kraus, d, shots_per_output=shots, seed=1)
        with pytest.raises(SingularDesignError) as oracle:
            regression_lambda(kraus, d, shots, 1)
        assert ours.value.null_dim == oracle.value.null_dim > 0
        assert str(ours.value) == str(oracle.value)

    def test_sampled_draws_and_decomposes_all_probes_at_once(self, monkeypatch):
        calls = {"multinomial": 0, "eigh": 0, "svd": 0}

        class CountingGenerator(np.random.Generator):
            def multinomial(self, *args, **kwargs):
                calls["multinomial"] += 1
                return super().multinomial(*args, **kwargs)

        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(a, *args, **kwargs)

        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls["svd"] += 1
            return svd(a, *args, **kwargs)

        # an empty table cache, to see whether any Gell-Mann regression rows get computed
        states.cube_rows.cache_clear()
        kraus = [herm_expm(random_traceless_hermitian(4, np.random.default_rng(4), 1.0), 0.5)]
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        lam = estimate_lambda(kraus, 4, shots_per_output=500,
                              seed=CountingGenerator(np.random.PCG64(4)))
        assert calls == {"multinomial": 1, "eigh": 1, "svd": 0}
        assert states.cube_rows.cache_info().currsize == 0
        assert np.array_equal(lam, estimate_lambda(kraus, 4, shots_per_output=500,
                                                   seed=np.random.default_rng(4)))

    def test_sampled_with_too_few_copies_is_singular(self):
        with pytest.raises(SingularDesignError):
            estimate_lambda([np.eye(2, dtype=complex)], 2, shots_per_output=2, seed=1)

    def test_zero_shots_rejected_and_none_is_noiseless(self):
        kraus = [herm_expm(random_traceless_hermitian(4, np.random.default_rng(4), 1.0), 0.5)]
        with pytest.raises(ValueError, match="at least 1"):
            estimate_lambda(kraus, 4, shots_per_output=0, seed=1)
        # noiseless Lambda: the matrix units as one (16, 4, 4) stack through the channel
        units = np.eye(16, dtype=complex).reshape(16, 4, 4)
        assert same_bits(estimate_lambda(kraus, 4, None),
                         apply_channel(kraus, units).reshape(16, 16))


class TestProbeMapByIndex:
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_equals_the_solve_on_any_outputs(self, d):
        # the map is linear: it must agree with the LU solve on arbitrary complex outputs
        rng = np.random.default_rng(d)
        outputs = rng.normal(size=(d * d, d, d)) + 1j * rng.normal(size=(d * d, d, d))
        ref = units_by_solve(outputs)
        assert np.abs(identification._units_from_probe_outputs(outputs) - ref).max() \
            <= 1e-12 * np.abs(ref).max()

    def test_probe_outputs_of_the_identity_channel_give_the_units(self):
        for d in (2, 3, 4):
            units = identification._units_from_probe_outputs(natural_probes(d))
            assert np.abs(units - np.eye(d * d)).max() <= 1e-15

    @pytest.mark.parametrize("d, shots", [(2, 5000), (4, 2000), (8, 20000), (16, 20000)])
    def test_sampled_lambda_equals_the_solve_oracle(self, d, shots, monkeypatch):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        ref = lambda_by_solve(kraus, d, shots, 9)
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        lam = estimate_lambda(kraus, d, shots_per_output=shots, seed=9)
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()
        assert calls == []


@pytest.fixture
def dense_eigh_calls(monkeypatch):
    """Record the shape of every np.linalg.eigh input; the d^2 x d^2 ones are the fallback."""
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return lambda d: sum(shape[-1] == d * d for shape in shapes)


@pytest.fixture
def power_products(monkeypatch):
    """Run fn(*args) and return (its result, its power-iteration products), counted by the
    iteration's vdot calls: one at the start, two per product."""
    calls = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))

    def run(fn, *args):
        calls.clear()
        return fn(*args), max(len(calls) - 1, 0) / 2

    return run


def lambda_of_process_matrix(x):
    """The Lambda whose raw_process_matrix is x (the inverse index reshuffle)."""
    d2 = x.shape[0]
    d = int(round(np.sqrt(d2)))
    lam = x.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d2, d2)
    assert np.array_equal(raw_process_matrix(lam), x)
    return lam


def spectrum_ratio(lam):
    x = raw_process_matrix(lam)
    w = np.linalg.eigvalsh((x + x.conj().T) / 2)
    return max(abs(w[-2]), abs(w[0])) / w[-1]


class TestTopEigenpair:
    @pytest.mark.parametrize("d, shots", [(2, None), (2, 5000), (4, None), (4, 2000),
                                          (8, None), (8, 20000), (16, None), (16, 20000)])
    def test_equals_the_eigh_oracle_without_a_dense_eigh(self, d, shots, dense_eigh_calls,
                                                         power_products):
        h = random_traceless_hermitian(d, np.random.default_rng([70, d]), 0.4 * np.pi / 0.5)
        lam = estimate_lambda([herm_expm(h, 0.5)], d, shots, 3)
        h_ref, diag_ref = identify_by_eigh(lam, 0.5)
        before = dense_eigh_calls(d)
        (h_hat, diag), products = power_products(identify_hamiltonian, lam, 0.5)
        assert dense_eigh_calls(d) == before
        assert 1 <= products <= 16
        assert np.linalg.norm(h_hat - h_ref) <= 1e-12 * np.linalg.norm(h_ref)
        assert diag.keys() == diag_ref.keys()
        for key, value in diag.items():
            assert value == pytest.approx(diag_ref[key], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_scale_free(self, factor, dense_eigh_calls, power_products):
        # factor * D scales the spectrum by factor; the iteration runs on D / w_1, so it
        # takes the same products to the same eigenvector, with no overflow or underflow
        h = random_traceless_hermitian(4, np.random.default_rng(71), 1.0)
        x = raw_process_matrix(estimate_lambda([herm_expm(h, 0.5)], 4, 2000, 3))
        x = (x + x.conj().T) / 2
        (w_ref, v_ref), products_ref = power_products(identification._top_eigenpair, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (w, v), products = power_products(identification._top_eigenpair, factor * x)
        assert dense_eigh_calls(4) == 0
        assert 1 <= products == products_ref
        assert np.abs(w - factor * w_ref).max() <= 1e-12 * factor * w_ref[-1]
        assert np.abs(v - v_ref).max() <= 1e-12

    def test_huge_lambda_gives_the_same_generator(self):
        # a Lambda scaled by 1e200 is no channel's, but D's top eigenvector and so H are
        # those of the unscaled one (at 1e-200 nearest_unitary's absolute rank test rejects
        # the fit instead)
        h = random_traceless_hermitian(4, np.random.default_rng(71), 1.0)
        lam = estimate_lambda([herm_expm(h, 0.5)], 4, 2000, 3)
        h_ref, diag_ref = identify_hamiltonian(lam, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h_hat, diag = identify_hamiltonian(1e200 * lam, 0.5)
        assert np.linalg.norm(h_hat - h_ref) <= 1e-12 * np.linalg.norm(h_ref)
        assert diag["top_eigenvalue"] == pytest.approx(1e200 * diag_ref["top_eigenvalue"],
                                                       rel=1e-12)
        assert diag["rank1_dominance"] == pytest.approx(diag_ref["rank1_dominance"], rel=1e-12)

    @pytest.fixture
    def assert_falls_back_to_eigh(self, dense_eigh_calls, power_products):
        def check(lam, t, products):
            d = int(round(np.sqrt(lam.shape[0])))
            h_ref, diag_ref = identify_by_eigh(lam, t)
            before = dense_eigh_calls(d)
            (h_hat, diag), taken = power_products(identify_hamiltonian, lam, t)
            assert dense_eigh_calls(d) == before + 1
            assert taken == products
            assert same_bits(h_hat, h_ref)
            assert diag == diag_ref
        return check

    def test_near_degenerate_top_pair_falls_back(self, assert_falls_back_to_eigh):
        # two Hilbert-Schmidt orthogonal unitaries with weights 0.5005 and 0.4995: the
        # process matrix's top pair is 2.002 and 1.998, so the spectrum rules out iterating
        zx = np.kron(SZ, SX)
        lam = estimate_lambda([np.sqrt(0.5005) * np.eye(4), np.sqrt(0.4995) * zx], 4)
        assert spectrum_ratio(lam) > 0.99
        assert_falls_back_to_eigh(lam, 0.5, products=0)

    def test_dominant_negative_eigenvalue_falls_back(self, assert_falls_back_to_eigh):
        # X = 2 g g^dag - 3 u u^dag: a unitary channel's factor g and an orthogonal
        # direction u whose eigenvalue outweighs the top one, so the spectrum rules out
        # iterating
        g = vec(herm_expm(SZ, 0.3).T) / np.sqrt(2)
        u = vec(SX) / np.sqrt(2)
        lam = lambda_of_process_matrix(2 * np.outer(g, g.conj()) - 3 * np.outer(u, u.conj()))
        assert spectrum_ratio(lam) == pytest.approx(1.5)
        assert_falls_back_to_eigh(lam, 0.3, products=0)
        assert np.linalg.norm(identify_hamiltonian(lam, 0.3)[0] - SZ) <= 1e-12

    def test_start_without_overlap_falls_back_at_the_cap(self, assert_falls_back_to_eigh):
        # X = v v^dag + 0.45 e_0 e_0^dag with v_0 = 0 and |v_j| = 1/sqrt(15): column 0 is
        # the largest, the spectrum ratio 0.45 passes, but iterating from e_0 never
        # reaches v
        rng = np.random.default_rng(5)
        v = np.exp(2j * np.pi * rng.uniform(size=16)) / np.sqrt(15)
        v[0] = 0
        x = np.outer(v, v.conj())
        x[0, 0] = 0.45
        lam = lambda_of_process_matrix(x)
        assert spectrum_ratio(lam) == pytest.approx(0.45)
        assert_falls_back_to_eigh(lam, 0.5, products=identification._MAX_PRODUCTS)


class TestRandomTracelessHermitian:
    def test_seed_equals_its_generator(self):
        h = random_traceless_hermitian(4, 3, 0.7)
        assert same_bits(h, random_traceless_hermitian(4, np.random.default_rng(3), 0.7))
        assert np.allclose(h, h.conj().T) and abs(np.trace(h)) <= 1e-12
        assert np.linalg.norm(h, 2) == pytest.approx(0.7, rel=1e-12)


class TestProcessMatrix:
    def test_identity_channel_rank_one(self):
        d = 2
        x = raw_process_matrix(estimate_lambda([np.eye(d, dtype=complex)], d))
        w, v = np.linalg.eigh(x)
        assert np.sum(w > 1e-9) == 1
        top = v[:, -1] * np.sqrt(w[-1])
        overlap = abs(np.vdot(vec(np.eye(d)), top)) / np.linalg.norm(vec(np.eye(d))) / np.linalg.norm(top)
        assert overlap == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_channel_matches_transpose_convention(self, d):
        rng = np.random.default_rng(20 + d)
        u = random_unitary(d, rng)
        x = raw_process_matrix(estimate_lambda([u], d))
        g = u.T
        expected = np.outer(vec(g), vec(g).conj())
        assert np.linalg.norm(x - expected) <= 1e-9
        w, v = np.linalg.eigh(x)
        g_hat = vec_inv(np.sqrt(w[-1]) * v[:, -1], d, d)
        fidelity = abs(np.trace(g_hat.conj().T @ g)) / d
        assert fidelity == pytest.approx(1.0, abs=1e-8)

    def test_bit_flip_mixture_eigenvalues(self):
        kraus = [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * SX]
        x = raw_process_matrix(estimate_lambda(kraus, 2))
        # direct construction oracle: X = sum_i c_i c_i^dag with c_i the
        # coefficients of A_i over the natural units (A_i.ravel() row-major)
        expected = sum(np.outer(a.ravel(), a.ravel().conj()) for a in kraus)
        assert np.linalg.norm(x - expected) <= 1e-9
        w = np.linalg.eigvalsh(x)
        # mixture weights appear scaled by d under unit-normalized units
        assert np.allclose(sorted(w)[-2:], [1.0, 1.0], atol=1e-9)
        assert np.sum(np.abs(w) > 1e-9) == 2


class TestIdentifyHamiltonian:
    def test_pauli_z_round_trip(self):
        kraus = [herm_expm(SZ, 0.3)]
        lam = estimate_lambda(kraus, 2)
        h_hat, diag = identify_hamiltonian(lam, 0.3)
        assert np.linalg.norm(h_hat - SZ) <= 1e-8
        assert diag["rank1_dominance"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_hamiltonian(self):
        lam = estimate_lambda([np.eye(2, dtype=complex)], 2)
        h_hat, _ = identify_hamiltonian(lam, 1.7)
        assert np.linalg.norm(h_hat) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_round_trips(self, d):
        rng = np.random.default_rng(30 + d)
        done = 0
        attempts = 0
        while done < 30 and attempts < 500:
            attempts += 1
            h = random_traceless_hermitian(d, rng, rng.uniform(0.05, 0.9) * np.pi)
            if not is_identifiable(h, 1.0):
                continue
            lam = estimate_lambda([herm_expm(h, 1.0)], d)
            h_hat, _ = identify_hamiltonian(lam, 1.0)
            assert np.linalg.norm(h_hat - h) <= 1e-6
            done += 1
        assert done == 30

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(ValueError):
            identify_hamiltonian(estimate_lambda([np.eye(2, dtype=complex)], 2), t)

    def test_degenerate_data_rejected(self):
        lam = -estimate_lambda([np.eye(2, dtype=complex)], 2)
        with pytest.raises(ContractViolationError):
            identify_hamiltonian(lam, 1.0)

    def test_error_decreases_with_shots(self):
        # median recovery error over seeds must fall across a shot decade grid
        rng = np.random.default_rng(40)
        h = random_traceless_hermitian(2, rng, 0.6)
        kraus = [herm_expm(h, 0.5)]
        medians = []
        for shots in (10**3, 10**4, 10**5):
            errs = []
            for seed in range(20):
                lam = estimate_lambda(kraus, 2, shots_per_output=shots, seed=seed)
                h_hat, _ = identify_hamiltonian(lam, 0.5)
                errs.append(np.linalg.norm(h_hat - h))
            medians.append(np.median(errs))
        assert medians[2] < medians[1] < medians[0]


@pytest.fixture
def log_calls(monkeypatch):
    """Record every input of the unitary_log that identify_hamiltonian calls."""
    calls = []
    real = identification.unitary_log

    def counted(u, t):
        calls.append(u)
        return real(u, t)

    monkeypatch.setattr(identification, "unitary_log", counted)
    return calls


def identify_with_warnings(lam, t):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h_hat, _ = identify_hamiltonian(lam, t)
    return h_hat, [(w.category, str(w.message)) for w in caught]


class TestIdentifyMatchesPerRotationLoop:
    @pytest.mark.parametrize("d, mode", [
        (2, "noiseless"), (2, "sampled"), (3, "noiseless"), (4, "noiseless"), (4, "sampled"),
        (5, "noiseless"), (6, "noiseless"), (7, "noiseless"), (8, "noiseless"), (8, "sampled"),
    ])
    def test_random_channels_bit_for_bit(self, d, mode, log_calls):
        # norms up to 3 pi / t make most channels alias, so every rotation gets chosen
        rng = np.random.default_rng([60, d])
        for i in range(8):
            t = rng.uniform(0.2, 2.0)
            h = random_traceless_hermitian(d, rng, rng.uniform(0.05, 3.0) * np.pi / t)
            lam = estimate_lambda([herm_expm(h, t)], d, 300 if mode == "sampled" else None, i)
            h_ref, caught_ref, _ = identify_by_rotations(lam, t)
            log_calls.clear()
            h_hat, caught = identify_with_warnings(lam, t)
            assert np.array_equal(h_hat, h_ref)
            assert caught == [(w.category, str(w.message)) for w in caught_ref]
            assert len(log_calls) == 1

    @pytest.mark.parametrize("t", [1e-30, 1e-50])
    def test_tiny_time_ties_in_radians(self, t, log_calls):
        # H t is below rounding, so the channel is the identity and base is +-I: the two
        # candidates' eigenphase spreads tie at the rounding level, and the tie goes to
        # the one clear of the cut.  Spreads divided by t would differ by far more than
        # the 1e-9 tie width and could pick the candidate on the cut, with a warning
        lam = estimate_lambda([herm_expm(random_traceless_hermitian(2, 0), t)], 2)
        h_ref, caught_ref, _ = identify_by_rotations(lam, t)
        h_hat, caught = identify_with_warnings(lam, t)
        assert caught == caught_ref == []
        assert np.array_equal(h_hat, h_ref)
        assert len(log_calls) == 1
        # H itself is unrecoverable; the result is a rounding-level phase, not pi / t
        assert np.linalg.norm(h_hat, 2) * t <= 1e-14

    @pytest.mark.parametrize("d, shots", [(2, None), (4, None), (4, 2000)])
    def test_large_time(self, d, shots, log_calls):
        # t = 1e6 with ||H||_2 t = 1 rad < pi/2, so H is recoverable: the choice and its
        # tie width are in radians
        t = 1e6
        h = random_traceless_hermitian(d, np.random.default_rng([61, d]), 1.0 / t)
        lam = estimate_lambda([herm_expm(h, t)], d, shots, 4)
        h_ref, caught_ref, _ = identify_by_rotations(lam, t)
        h_hat, caught = identify_with_warnings(lam, t)
        assert caught == caught_ref == []
        assert np.array_equal(h_hat, h_ref)
        assert len(log_calls) == 1
        tol = 1e-12 if shots is None else 0.1
        assert np.linalg.norm(h_hat - h, 2) <= tol * np.linalg.norm(h, 2)

    def test_tie_with_a_candidate_on_the_cut(self, log_calls):
        # U has eigenphases pi - delta (twice) and delta (twice): its four phase
        # rotations have log norms pi/2 -+ delta, tied within 1e-9, and the first
        # candidate has eigenphases within 1e-6 of the cut; the tie rule passes
        # over it to a candidate clear of the cut, so no warning is raised
        delta = 1e-10
        u = np.diag(np.exp(1j * np.array([np.pi - delta, np.pi - delta, delta, delta])))
        lam = estimate_lambda([u], 4)
        h_ref, caught_ref, candidates = identify_by_rotations(lam, 1.0)
        norms = [norm for norm, _ in candidates]
        assert max(norms) - min(norms) <= 1e-9
        assert candidates[0][1] and not all(warned for _, warned in candidates)
        h_hat, caught = identify_with_warnings(lam, 1.0)
        assert np.array_equal(h_hat, h_ref)
        assert caught == caught_ref == []
        assert len(log_calls) == 1
        phases = np.angle(np.linalg.eigvals(log_calls[0]))
        assert np.pi - np.abs(phases).max() > 1e-6


class TestComplexityProbe:
    def test_probe_reports_timings_and_slope(self):
        probe = complexity_probe("identify", [2, 3], repetitions=2)
        assert probe["d"] == [2, 3]
        assert all(t > 0 for t in probe["seconds"])
        assert np.isfinite(probe["slope"])

    def test_timing_stability(self):
        # coarse sanity only: repeated probes agree on the scaling picture.  They take their
        # repetitions in turn, so a drift of the machine's speed reaches both alike
        a, b = alternating_probes("identify", [2, 6], repetitions=5)
        assert a["slope"] > 0 and b["slope"] > 0
        assert abs(a["slope"] - b["slope"]) < 1.5

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            complexity_probe("fft", [2])
