import itertools
from dataclasses import replace

import numpy as np
import pytest

from qest.errors import ContractViolationError, SingularDesignError
from qest.states import (
    cube_draws,
    cube_records,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    rho_from_theta,
)
from qest.tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    record_weight,
    solve_cube_paulis,
    solve_weighted_ls,
    tomography_pipeline,
)
from tests.oracles import (
    Povm,
    concat_records,
    cube_povms,
    expected_records,
    pauli_strings,
    project_physical_loop,
    record_rows,
    same_bits,
    simulate_measurements,
    theta_from_rho,
)


def haar_basis_povm(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Povm(np.stack([np.outer(q[:, k], q[:, k].conj()) for k in range(d)]))


def exact_records(rho, povms, shots):
    return concat_records(expected_records(rho, povm, shots) for povm in povms)


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
        rho = random_density_matrix(2, rng)
        theta = theta_from_rho(rho)
        problem = build_regression(exact_records(rho, cube_povms(2), 1000))
        assert np.abs(problem.y - problem.x @ theta).max() <= 1e-12

    def test_noiseless_residual_random_basis_qutrit(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(3, rng)
        theta = theta_from_rho(rho)
        povms = [haar_basis_povm(3, rng) for _ in range(4)]
        problem = build_regression(exact_records(rho, povms, 100))
        assert np.abs(problem.y - problem.x @ theta).max() <= 1e-12

    def test_maximally_mixed_rows_vanish(self):
        problem = build_regression(exact_records(np.eye(2) / 2, cube_povms(2), 100))
        assert np.abs(problem.y).max() <= 1e-12

    def test_row_count(self):
        problem = build_regression(exact_records(np.eye(2) / 2, cube_povms(2), 10))
        assert problem.x.shape == (6, 3)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_regression(record_rows(exact_records(np.eye(2) / 2, cube_povms(2), 10), slice(0)))

    def test_stacked_successes_give_stacked_responses(self):
        rng = np.random.default_rng(12)
        parts = [exact_records(random_density_matrix(2, rng), cube_povms(2), 10) for _ in range(3)]
        stacked = replace(parts[0], successes=np.stack([p.successes for p in parts]))
        problem = build_regression(stacked)
        assert problem.y.shape == (3, 6) and problem.w.shape == (6,)
        for k, part in enumerate(parts):
            own = build_regression(part)
            assert np.array_equal(problem.y[k], own.y)
            assert np.array_equal(problem.w, own.w)

    @pytest.mark.parametrize("d", [2, 4])
    def test_invvar_members_equal_their_own_builds_bit_for_bit(self, d):
        # each member weights its rows by its own frequencies
        rng = np.random.default_rng(d)
        stack = np.stack([random_density_matrix(d, rng) for _ in range(4)])
        stacked = build_regression(cube_records(stack, 40 * d, np.random.default_rng(3)),
                                   "invvar")
        assert stacked.y.shape == stacked.w.shape == (4, len(stacked.x))
        ref_rng = np.random.default_rng(3)
        for k, rho in enumerate(stack):
            own = build_regression(cube_records(rho, 40 * d, ref_rng), "invvar")
            assert same_bits(stacked.y[k], own.y)
            assert same_bits(stacked.w[k], own.w)
            assert same_bits(stacked.x, own.x)


class TestSolveWeightedLs:
    def test_noiseless_cube_is_exact(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(2, rng)
        problem = build_regression(exact_records(rho, cube_povms(2), 1000))
        theta, _, _ = solve_weighted_ls(problem)
        assert np.abs(theta - theta_from_rho(rho)).max() <= 1e-10

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        records = concat_records(simulate_measurements(rho, povm, 300, rng) for povm in cube_povms(2))
        problem = build_regression(records)
        doubled = build_regression(concat_records([records, records]))
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
        records = record_rows(simulate_measurements(rho, cube_povms(2)[2], 100, rng), slice(1))
        problem = build_regression(records)
        with pytest.raises(SingularDesignError) as err:
            solve_weighted_ls(problem)
        assert err.value.null_dim == 2

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_shared_design_members_equal_one_at_a_time(self, weighting):
        # members share the rows and the weights: one SVD solves them all
        rng = np.random.default_rng(12)
        problems = [build_regression(exact_records(random_density_matrix(4, rng), cube_povms(4), 300))
                    for _ in range(5)]
        x = problems[0].x
        w = record_weight(np.full(len(x), 300), rng.uniform(0.01, 0.99, len(x)), weighting)
        y = np.stack([p.y for p in problems]) + rng.normal(scale=1e-2, size=(5, len(x)))
        theta, cond, q = solve_weighted_ls(RegressionProblem(y, x, w))
        assert theta.shape == (5, 15) and q.shape == (15, 15)
        for k in range(5):
            theta_k, cond_k, q_k = solve_weighted_ls(RegressionProblem(y[k], x, w))
            assert np.abs(theta[k] - theta_k).max() <= 1e-12
            assert cond == cond_k
            assert np.array_equal(q, q_k)

    def test_stacked_singular_design_raises_the_same_error(self):
        rng = np.random.default_rng(5)
        problem = build_regression(
            simulate_measurements(random_density_matrix(2, rng), cube_povms(2)[2], 100, rng))
        stacked = RegressionProblem(np.stack([problem.y] * 3), problem.x, problem.w)
        with pytest.raises(SingularDesignError) as single:
            solve_weighted_ls(problem)
        with pytest.raises(SingularDesignError) as batch:
            solve_weighted_ls(stacked)
        assert batch.value.null_dim == single.value.null_dim == 2
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("shared_design", [True, False])
    def test_stacked_members_equal_one_at_a_time_bit_for_bit(self, weighting, shared_design):
        # each member has its own weights (and rows), as the stacked adaptive protocol's do
        rng = np.random.default_rng(13)
        problems = [build_regression(concat_records(
            simulate_measurements(random_density_matrix(2, rng), povm, int(rng.integers(50, 500)),
                                  rng) for povm in cube_povms(2)), weighting)
            for _ in range(6)]
        x = problems[0].x if shared_design else np.stack([p.x for p in problems])
        # responses in a non-contiguous layout solve as contiguous ones do
        y = np.stack([p.y for p in problems], axis=1).T
        theta, cond, q = solve_weighted_ls(
            RegressionProblem(y, x, np.stack([p.w for p in problems])))
        assert theta.shape == (6, 3) and cond.shape == (6,) and q.shape == (6, 3, 3)
        for k, p in enumerate(problems):
            theta_k, cond_k, q_k = solve_weighted_ls(
                RegressionProblem(p.y, problems[0].x if shared_design else p.x, p.w))
            assert np.array_equal(theta[k], theta_k)
            assert cond[k] == cond_k
            assert np.array_equal(q[k], q_k)

    def test_stacked_members_name_the_worst_null_space(self):
        x = np.stack([np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])])
        with pytest.raises(SingularDesignError) as err:
            solve_weighted_ls(RegressionProblem(np.ones((2, 3)), x, np.ones((2, 3))))
        assert err.value.null_dim == 1

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

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_stack_equals_per_member_loop_bit_for_bit(self, d):
        stack = unit_trace_hermitians(d, 60, np.random.default_rng(d + 30))
        engaged = np.linalg.eigvalsh(stack)[:, 0] < 0
        assert 0 < engaged.sum() < len(stack)
        got = project_physical(stack)
        assert got.shape == stack.shape
        assert np.array_equal(got, np.stack([project_physical(rho) for rho in stack]))
        assert np.array_equal(got, np.stack([project_physical_loop(rho) for rho in stack]))
        assert np.array_equal(got[~engaged], stack[~engaged])

    def test_one_by_one_states_keep_their_values(self):
        ones = np.ones((3, 1, 1), complex)
        assert project_physical(ones).tobytes() == ones.tobytes()

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_physical_stack_keeps_its_values_bit_for_bit(self, d):
        stack = np.stack([random_density_matrix(d, np.random.default_rng([d, m]))
                          for m in range(10)]).astype(complex)
        assert np.linalg.eigvalsh(stack).min() >= 0
        assert project_physical(stack).tobytes() == stack.tobytes()
        assert project_physical(stack[0]).tobytes() == stack[0].tobytes()

    @pytest.mark.parametrize("bad", ["non-hermitian", "trace"])
    def test_stack_with_one_bad_member_is_rejected(self, bad):
        stack = unit_trace_hermitians(3, 5, np.random.default_rng(31))
        if bad == "non-hermitian":
            stack[2, 0, 1] += 1e-3
        else:
            stack[2] *= 1.001
        with pytest.raises(ContractViolationError):
            project_physical(stack)


def unit_trace_hermitians(d, n, rng):
    """n random unit-trace Hermitian matrices, about half of them with a negative eigenvalue."""
    v = np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]
    lam = rng.normal(scale=1.2 / d, size=(n, d)) + 1.0 / d
    lam += (1.0 - lam.sum(axis=1, keepdims=True)) / d
    rho = (v * lam[:, None, :]) @ v.conj().mT
    return (rho + rho.conj().mT) / 2


class TestPipeline:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(20)
        rho = random_density_matrix(2, rng)
        records = exact_records(rho, cube_povms(2), 500)
        rho_hat, theta, diag = tomography_pipeline(records)
        assert mse(rho_hat, rho) <= 1e-9
        assert diag["residual_norm"] <= 1e-9
        assert not diag["projection_changed"]

    def test_projection_engages_for_pure_states(self):
        rng = np.random.default_rng(21)
        engaged = 0
        trials = 100
        for _ in range(trials):
            rho = pure_to_density(random_pure_state(2, rng))
            records = concat_records(simulate_measurements(rho, povm, 1000, rng)
                                     for povm in cube_povms(2))
            _, _, diag = tomography_pipeline(records)
            engaged += diag["projection_changed"]
        assert engaged > trials * 0.5

    def test_mse_improves_with_shots(self):
        rng = np.random.default_rng(22)
        means = []
        for shots in (100, 10000):
            errs = []
            for t in range(20):
                rho = random_density_matrix(2, np.random.default_rng([22, t]))
                records = concat_records(simulate_measurements(rho, povm, shots // 3 + 1, rng)
                                         for povm in cube_povms(2))
                rho_hat, _, _ = tomography_pipeline(records)
                errs.append(mse(rho_hat, rho))
            means.append(np.mean(errs))
        assert means[1] < means[0]


class TestSolveCubePaulis:
    @pytest.mark.parametrize("d, total", [(2, 3), (2, 7), (4, 9), (4, 10), (4, 9000), (8, 28),
                                          (8, 1000)])
    def test_equals_the_svd_solve_in_pauli_coordinates(self, d, total):
        q = d.bit_length() - 1
        rng = np.random.default_rng(d + total)
        stack = np.stack([random_density_matrix(d, rng) for _ in range(3)])
        e = solve_cube_paulis(*cube_draws(stack, total, np.random.default_rng(1)))
        problem = build_regression(cube_records(stack, total, np.random.default_rng(1)))
        theta, cond, _ = solve_weighted_ls(problem)
        rho = rho_from_theta(theta)
        assert e.shape == (3, 4**q)
        assert np.abs(e - np.einsum("kij,pji->kp", rho, pauli_strings(q)).real).max() <= 1e-12
        # the bound that lets the closed form skip the condition-number check
        assert cond <= np.sqrt(2 * 3 ** (q - 1)) * (1 + 1e-12)

    def test_one_state_gives_one_row(self):
        copies, draws = cube_draws(random_density_matrix(4, np.random.default_rng(2)), 90, 3)
        e = solve_cube_paulis(copies, draws)
        assert e.shape == (16,) and e[0] == 1.0
        assert np.array_equal(e, solve_cube_paulis(copies, draws[None])[0])

    @pytest.mark.parametrize("d, total, null_dim", [(2, 1, 2), (2, 2, 1), (4, 5, 5), (4, 8, 1),
                                                    (8, 26, 1)])
    def test_unmeasured_paulis_are_the_null_space(self, d, total, null_dim):
        copies, draws = cube_draws(np.eye(d) / d, total, 0)
        with pytest.raises(SingularDesignError, match=f"null-space dimension {null_dim};"):
            solve_cube_paulis(copies, draws)
