import itertools

import numpy as np
import pytest

from qest.errors import ContractViolationError, SingularDesignError
from qest.linalg import gell_mann_basis
from qest.states import (
    Records,
    cube_povms,
    expected_records,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    simulate_measurements,
    theta_from_rho,
)
from qest.tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    record_weight,
    solve_weighted_ls,
    tomography_pipeline,
)


def haar_basis_povm(d, rng, label="haar"):
    from qest.states import Povm

    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Povm(label, np.stack([np.outer(q[:, k], q[:, k].conj()) for k in range(d)]))


def exact_records(rho, povms, shots):
    return Records.concat(expected_records(rho, povm, shots) for povm in povms)


def simplex_projection_oracle(eigvals):
    """Exhaustive search over zeroed-coordinate subsets for the closest
    probability vector; independent of the accumulator algorithm."""
    eigvals = np.asarray(eigvals, dtype=float)
    n = eigvals.size
    best = None
    for zero_set in itertools.product([False, True], repeat=n):
        keep = ~np.array(zero_set)
        k = keep.sum()
        if k == 0:
            continue
        cand = np.zeros(n)
        cand[keep] = eigvals[keep] + (1.0 - eigvals[keep].sum()) / k
        if cand.min() < -1e-12:
            continue
        dist = np.sum((cand - eigvals) ** 2)
        if best is None or dist < best[0] - 1e-15:
            best = (dist, cand)
    return best[1]


class TestRecordWeight:
    def test_shot_weighting(self):
        assert record_weight(500, 0.3, "shots") == 500.0

    def test_inverse_variance(self):
        assert record_weight(100, 0.5, "invvar") == pytest.approx(400.0)

    def test_clipping_at_boundary(self):
        w = record_weight(100, 1.0, "invvar")
        p = 1.0 - 1.0 / 200
        assert w == pytest.approx(100 / (p * (1 - p)))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            record_weight(10, 0.5, "uniform")


class TestBuildRegression:
    def test_noiseless_residual_is_zero(self):
        rng = np.random.default_rng(0)
        basis = gell_mann_basis(2)
        rho = random_density_matrix(2, rng)
        theta = theta_from_rho(rho, basis)
        problem = build_regression(exact_records(rho, cube_povms(2), 1000), 2)
        assert np.abs(problem.y - problem.x @ theta).max() <= 1e-12

    def test_noiseless_residual_random_basis_qutrit(self):
        rng = np.random.default_rng(1)
        basis = gell_mann_basis(3)
        rho = random_density_matrix(3, rng)
        theta = theta_from_rho(rho, basis)
        povms = [haar_basis_povm(3, rng, f"haar{k}") for k in range(4)]
        problem = build_regression(exact_records(rho, povms, 100), 3)
        assert np.abs(problem.y - problem.x @ theta).max() <= 1e-12

    def test_maximally_mixed_rows_vanish(self):
        problem = build_regression(exact_records(np.eye(2) / 2, cube_povms(2), 100), 2)
        assert np.abs(problem.y).max() <= 1e-12

    def test_row_count(self):
        problem = build_regression(exact_records(np.eye(2) / 2, cube_povms(2), 10), 2)
        assert problem.x.shape == (6, 3)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_regression(exact_records(np.eye(2) / 2, cube_povms(2), 10)[:0], 2)


class TestSolveWeightedLs:
    def test_noiseless_cube_is_exact(self):
        rng = np.random.default_rng(2)
        basis = gell_mann_basis(2)
        rho = random_density_matrix(2, rng)
        problem = build_regression(exact_records(rho, cube_povms(2), 1000), 2)
        theta, _, _ = solve_weighted_ls(problem)
        assert np.abs(theta - theta_from_rho(rho, basis)).max() <= 1e-10

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        records = Records.concat(simulate_measurements(rho, povm, 300, rng) for povm in cube_povms(2))
        problem = build_regression(records, 2)
        doubled = build_regression(Records.concat([records, records]), 2)
        assert np.allclose(solve_weighted_ls(problem)[0], solve_weighted_ls(doubled)[0], atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m, n = 40, 8
            x = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            w = rng.uniform(0.5, 3.0, size=m)
            problem = RegressionProblem(y=y, x=x, w=w)
            oracle = np.linalg.inv(x.T @ np.diag(w) @ x) @ x.T @ np.diag(w) @ y
            theta, cond, q = solve_weighted_ls(problem)
            assert np.abs(theta - oracle).max() <= 1e-9
            assert np.abs(q - np.linalg.inv(x.T @ np.diag(w) @ x)).max() <= 1e-9
            assert cond == pytest.approx(np.linalg.cond(x * np.sqrt(w)[:, None]), rel=1e-12)

    def test_singular_design_reports_null_dimension(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(2, rng)
        records = simulate_measurements(rho, cube_povms(2)[2], 100, rng)[:1]
        problem = build_regression(records, 2)
        with pytest.raises(SingularDesignError) as err:
            solve_weighted_ls(problem)
        assert err.value.null_dim == 2

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_stacked_columns_equal_one_at_a_time(self, weighting):
        rng = np.random.default_rng(12)
        problems = [build_regression(exact_records(random_density_matrix(4, rng), cube_povms(4), 300), 4)
                    for _ in range(5)]
        x = problems[0].x
        w = record_weight(np.full(len(x), 300), rng.uniform(0.01, 0.99, len(x)), weighting)
        y = np.stack([p.y for p in problems], axis=1) + rng.normal(scale=1e-2, size=(len(x), 5))
        theta, cond, q = solve_weighted_ls(RegressionProblem(y, x, w))
        assert theta.shape == (15, 5)
        for k in range(5):
            theta_k, cond_k, q_k = solve_weighted_ls(RegressionProblem(y[:, k], x, w))
            assert np.abs(theta[:, k] - theta_k).max() <= 1e-12
            assert cond == cond_k
            assert np.array_equal(q, q_k)

    def test_stacked_singular_design_raises_the_same_error(self):
        rng = np.random.default_rng(5)
        problem = build_regression(
            simulate_measurements(random_density_matrix(2, rng), cube_povms(2)[2], 100, rng), 2)
        stacked = RegressionProblem(np.stack([problem.y] * 3, axis=1), problem.x, problem.w)
        with pytest.raises(SingularDesignError) as single:
            solve_weighted_ls(problem)
        with pytest.raises(SingularDesignError) as batch:
            solve_weighted_ls(stacked)
        assert batch.value.null_dim == single.value.null_dim == 2
        assert str(batch.value) == str(single.value)

    def test_condition_limit(self):
        x = np.array([[1.0, 0.0], [1.0, 1e-14]])
        problem = RegressionProblem(y=np.ones(2), x=x, w=np.ones(2))
        with pytest.raises(SingularDesignError):
            solve_weighted_ls(problem)


class TestProjectPhysical:
    def test_fixed_point(self):
        rho = random_density_matrix(3, np.random.default_rng(6))
        assert np.linalg.norm(project_physical(rho) - rho) <= 1e-12

    def test_two_level_example(self):
        v = np.linalg.qr(np.random.default_rng(7).normal(size=(2, 2)))[0]
        rho = (v * [1.2, -0.2]) @ v.T
        projected = project_physical(rho)
        assert np.allclose(np.linalg.eigvalsh(projected), [0.0, 1.0], atol=1e-12)

    def test_three_level_example(self):
        v = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))[0]
        rho = (v * [0.7, 0.5, -0.2]) @ v.T
        projected = project_physical(rho)
        assert np.allclose(sorted(np.linalg.eigvalsh(projected)), [0.0, 0.4, 0.6], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_exhaustive_simplex_oracle(self, d):
        rng = np.random.default_rng(d + 10)
        for _ in range(50):
            v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            lam = rng.normal(scale=0.6, size=d)
            lam += (1.0 - lam.sum()) / d
            rho = (v * lam) @ v.conj().T
            expected = (v * simplex_projection_oracle(lam)) @ v.conj().T
            assert np.linalg.norm(project_physical(rho) - expected) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            project_physical(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ContractViolationError):
            project_physical(np.eye(2))


class TestPipeline:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(20)
        rho = random_density_matrix(2, rng)
        records = exact_records(rho, cube_povms(2), 500)
        rho_hat, theta, diag = tomography_pipeline(records, 2)
        assert mse(rho_hat, rho) <= 1e-9
        assert diag["residual_norm"] <= 1e-9
        assert not diag["projection_changed"]

    def test_projection_engages_for_pure_states(self):
        rng = np.random.default_rng(21)
        engaged = 0
        trials = 100
        for _ in range(trials):
            rho = pure_to_density(random_pure_state(2, rng))
            records = Records.concat(simulate_measurements(rho, povm, 1000, rng)
                                     for povm in cube_povms(2))
            _, _, diag = tomography_pipeline(records, 2)
            engaged += diag["projection_changed"]
        assert engaged > trials * 0.5

    def test_mse_improves_with_shots(self):
        rng = np.random.default_rng(22)
        means = []
        for shots in (100, 10000):
            errs = []
            for t in range(20):
                rho = random_density_matrix(2, np.random.default_rng([22, t]))
                records = Records.concat(simulate_measurements(rho, povm, shots // 3 + 1, rng)
                                         for povm in cube_povms(2))
                rho_hat, _, _ = tomography_pipeline(records, 2)
                errs.append(mse(rho_hat, rho))
            means.append(np.mean(errs))
        assert means[1] < means[0]
