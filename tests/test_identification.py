import itertools
import warnings

import numpy as np
import pytest

from qest import identification
from qest.errors import ContractViolationError, SingularDesignError
from qest.identification import (
    apply_channel,
    build_b_matrix,
    estimate_lambda,
    identify_hamiltonian,
    natural_state_basis,
    random_traceless_hermitian,
    raw_process_matrix,
)
from qest.linalg import herm_expm, vec, vec_inv
from qest.states import cube_records, pure_to_density
from qest.tomography import tomography_pipeline
from tests.complexity import complexity_probe
from tests.oracles import (
    check_density_matrix,
    identify_by_rotations,
    is_trace_preserving,
    schur_eigenphases,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
KET0 = np.array([1.0, 0.0], dtype=complex)


def per_probe_lambda(kraus, d, shots, seed):
    """Reference: one full tomography pipeline per probe output, solved one at a time."""
    bases = natural_state_basis(d)
    rng = np.random.default_rng(seed)
    lam_probe = np.stack([
        tomography_pipeline(cube_records(apply_channel(kraus, probe), shots, rng), d)[0].ravel()
        for probe in bases.probes
    ])
    return np.linalg.solve(bases.probe_coeffs, lam_probe)


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
        bases = natural_state_basis(2)
        assert bases.units.shape == (4, 2, 2)
        gram = bases.units.reshape(4, 4) @ bases.units.reshape(4, 4).conj().T
        assert np.linalg.matrix_rank(gram) == 4

    def test_probe_map_well_conditioned(self):
        bases = natural_state_basis(2)
        assert np.linalg.cond(bases.probe_coeffs) < 10

    @pytest.mark.parametrize("d", [2, 3])
    def test_probes_are_physical_and_span(self, d):
        bases = natural_state_basis(d)
        for probe in bases.probes:
            check_density_matrix(probe)
        assert np.linalg.matrix_rank(bases.probe_coeffs) == d * d

    def test_probe_coefficients_reconstruct_probes(self):
        bases = natural_state_basis(3)
        rebuilt = np.tensordot(bases.probe_coeffs, bases.units, axes=1)
        assert np.allclose(rebuilt, bases.probes, atol=1e-12)


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
        bases = natural_state_basis(d)
        b = build_b_matrix(d)
        u = random_unitary(d, rng)
        g = u.T
        x = np.outer(vec(g), vec(g).conj())
        lam_direct = np.stack([apply_channel([u], unit).ravel() for unit in bases.units])
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
        sampled = estimate_lambda(kraus, 2, mode="sampled", shots_per_output=10**6, seed=8)
        assert np.abs(sampled - exact).max() <= 0.01

    @pytest.mark.parametrize("d, shots", [(2, 3), (2, 5000), (4, 9), (4, 20), (4, 20000)])
    def test_sampled_equals_per_probe_tomographies(self, d, shots):
        kraus = [herm_expm(random_traceless_hermitian(d, np.random.default_rng(d), 1.0), 0.5)]
        lam = estimate_lambda(kraus, d, mode="sampled", shots_per_output=shots, seed=4)
        assert np.abs(lam - per_probe_lambda(kraus, d, shots, 4)).max() <= 1e-12

    def test_sampled_with_too_few_copies_is_singular(self):
        with pytest.raises(SingularDesignError):
            estimate_lambda([np.eye(2, dtype=complex)], 2, mode="sampled", shots_per_output=2, seed=1)

    def test_sampled_needs_shots(self):
        with pytest.raises(ValueError):
            estimate_lambda([np.eye(2, dtype=complex)], 2, mode="sampled")


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
                lam = estimate_lambda(kraus, 2, mode="sampled",
                                      shots_per_output=shots, seed=seed)
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
            lam = estimate_lambda([herm_expm(h, t)], d, mode=mode,
                                  shots_per_output=300 if mode == "sampled" else None, seed=i)
            h_ref, caught_ref, _ = identify_by_rotations(lam, t)
            log_calls.clear()
            h_hat, caught = identify_with_warnings(lam, t)
            assert np.array_equal(h_hat, h_ref)
            assert caught == [(w.category, str(w.message)) for w in caught_ref]
            assert len(log_calls) == 1

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
        # coarse sanity only: repeated probes agree on the scaling picture
        a = complexity_probe("identify", [2, 6], repetitions=5)
        b = complexity_probe("identify", [2, 6], repetitions=5)
        assert a["slope"] > 0 and b["slope"] > 0
        assert abs(a["slope"] - b["slope"]) < 1.5

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            complexity_probe("fft", [2])
