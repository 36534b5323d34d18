import numpy as np
import pytest

import qest.adaptive
from qest.adaptive import (
    _SPHERE_GRID,
    AdaptiveSchedule,
    RecursiveState,
    _basis_gains,
    _continuum_gains,
    continuum_qubit_basis,
    rls_update,
    run_adaptive_protocol,
    select_next_basis,
    trace_gain,
)
from qest.errors import ContractViolationError, SingularDesignError
from qest.states import (
    PAULI_X,
    PAULI_Y,
    cube_records,
    cube_rows,
    multinomial,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    rho_from_theta,
    split_evenly,
)
from qest.tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    record_weight,
    solve_weighted_ls,
    tomography_pipeline,
)
from tests.oracles import (
    Povm,
    _basis_gains_loop,
    adaptive_protocol_loop,
    bloch_basis_povm,
    born_probabilities,
    concat_records,
    continuum_qubit_basis_loop,
    cube_povm,
    cube_povms,
    expected_records,
    record_rows,
    same_bits,
    select_next_basis_loop,
    simulate_measurements,
    simulate_rows,
    trine_povm,
)


def qubit_dataset(rng, n_extra=12, weighting="shots"):
    """Regression rows of cube plus random-basis records with varied shot counts."""
    from tests.test_tomography import haar_basis_povm

    rho = random_density_matrix(2, rng)
    records = [simulate_measurements(rho, povm, int(rng.integers(10, 10001)), rng)
               for povm in cube_povms(2)]
    for _ in range(n_extra):
        povm = haar_basis_povm(2, rng)
        records.append(simulate_measurements(rho, povm, int(rng.integers(10, 10001)), rng))
    return build_regression(concat_records(records), weighting)


def same_basis(rows, want):
    """The chosen rows are the POVM ``want``'s own, row for row and value for value."""
    return rows.shape == want.gamma.shape and np.array_equal(rows, want.gamma)


X_BASIS = cube_povms(2)[0]


def rows(problem, index):
    return RegressionProblem(y=problem.y[index], x=problem.x[index], w=problem.w[index])


def batch_state(problem):
    """Recursion seed from the batch solve: its theta and Q0 = (X^T W X)^-1."""
    theta, _, q = solve_weighted_ls(problem)
    return RecursiveState(q=q, theta=theta)


def recursive_solve(problem, init_count):
    state = batch_state(rows(problem, slice(None, init_count)))
    return rls_update(state, rows(problem, slice(init_count, None)))


class TestSchedule:
    def test_valid(self):
        s = AdaptiveSchedule(total=10000, stage1=2000, per_step=1000, steps=8)
        assert s.total == s.stage1 + s.steps * s.per_step

    def test_degenerate_no_adaptive_steps(self):
        AdaptiveSchedule(total=500, stage1=500, per_step=1, steps=0)

    def test_budget_mismatch(self):
        with pytest.raises(ValueError):
            AdaptiveSchedule(total=10000, stage1=2000, per_step=1000, steps=7)

    def test_positivity(self):
        with pytest.raises(ValueError):
            AdaptiveSchedule(total=0, stage1=0, per_step=1, steps=0)


class TestRlsInit:
    def test_cube_information_matrix_is_diagonal(self):
        rho = np.eye(2) / 2
        records = concat_records(expected_records(rho, povm, 100) for povm in cube_povms(2))
        problem = build_regression(records)
        state = batch_state(problem)
        # direct 3x3 inversion oracle
        info = sum(w * np.outer(g, g) for w, g in zip(problem.w, problem.x))
        assert np.allclose(state.q, np.linalg.inv(info), atol=1e-12)
        off_diag = state.q - np.diag(np.diag(state.q))
        assert np.abs(off_diag).max() <= 1e-12

    def test_ridge_limit_oracle(self):
        # recursion started from c*I converges to the batch Q0 as c grows
        rng = np.random.default_rng(1)
        problem = qubit_dataset(rng, n_extra=6)
        state_batch = batch_state(problem)
        c = 1e8
        ridge = rls_update(RecursiveState(q=c * np.eye(3), theta=np.zeros(3)), problem)
        assert np.abs(ridge.q - state_batch.q).max() <= 1e-6

    def test_single_row_is_singular(self):
        rng = np.random.default_rng(2)
        records = record_rows(simulate_measurements(np.eye(2) / 2, cube_povms(2)[0], 50, rng),
                              slice(1))
        problem = build_regression(records)
        with pytest.raises(SingularDesignError):
            solve_weighted_ls(problem)

    def test_cond_1e8_design_gives_the_analytic_q0(self):
        # cube rows weighted 1, 1e8 and 1e16 per Bloch axis: cond(sqrt(W) X) = 1e8,
        # while X^T W X has condition number 1e16, past what inverting it can resolve
        rho = np.eye(2) / 2
        records = concat_records(expected_records(rho, povm, 100) for povm in cube_povms(2))
        x = build_regression(records).x
        w = np.array([1.0, 1e8, 1e16])[np.argmax(np.abs(x), axis=1)]
        theta, cond, q = solve_weighted_ls(RegressionProblem(y=np.zeros(len(x)), x=x, w=w))
        assert cond == pytest.approx(1e8, rel=1e-12)
        expected = 1.0 / (w @ x**2)
        assert np.abs(np.diag(q) / expected - 1.0).max() <= 1e-12
        off_diag = q - np.diag(np.diag(q))
        assert np.abs(off_diag).max() <= 1e-12 * expected.min()


class TestRlsUpdate:
    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_recursion_equals_batch(self, weighting):
        rng = np.random.default_rng(3)
        full = qubit_dataset(rng, weighting=weighting)
        state = recursive_solve(full, init_count=6)
        theta_batch, _, _ = solve_weighted_ls(full)
        rel = np.linalg.norm(state.theta - theta_batch) / np.linalg.norm(theta_batch)
        assert rel <= 1e-10

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        problem = qubit_dataset(rng, n_extra=8)
        state_a = recursive_solve(problem, 6)
        order = np.concatenate([np.arange(6), 6 + rng.permutation(problem.y.size - 6)])
        state_b = recursive_solve(rows(problem, order), 6)
        assert np.abs(state_a.theta - state_b.theta).max() <= 1e-9

    def test_null_space_row_is_noop(self):
        q = np.diag([0.5, 0.2, 0.0])
        state = RecursiveState(q=q, theta=np.array([0.1, 0.0, 0.3]))
        row = RegressionProblem(y=np.array([0.3]), x=np.array([[0.0, 0.0, 1.0]]), w=np.array([100.0]))
        updated = rls_update(state, row)
        assert np.allclose(updated.q, q)
        assert np.allclose(updated.theta, state.theta)

    def test_trace_monotone(self):
        rng = np.random.default_rng(5)
        problem = qubit_dataset(rng)
        state = recursive_solve(rows(problem, slice(None, 6)), 6)
        trace = np.trace(state.q)
        for i in range(6, problem.y.size):
            state = rls_update(state, rows(problem, [i]))
            new_trace = np.trace(state.q)
            assert new_trace <= trace + 1e-12
            trace = new_trace


class TestRlsUpdateAtDimension:
    """The fold keeps Q exactly symmetric, so it equals the oracle that symmetrizes every row."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("members", [None, 3])
    def test_equals_the_symmetrizing_loop_bit_for_bit(self, d, members):
        from tests.oracles import rls_update_loop

        starts, problems = [], []
        for m in range(members or 1):
            rng = np.random.default_rng([d, m])
            truth = random_density_matrix(d, rng)
            starts.append(batch_state(build_regression(cube_records(truth, 200 * d * d, rng),
                                                       "invvar")))
            later = rows(build_regression(cube_records(truth, 50 * d * d, rng), "invvar"),
                         slice(None, 12))
            # contiguous rows, as a stack holds them: the cube rows are strided .real views,
            # and BLAS sums gamma @ theta over those in another order
            problems.append(RegressionProblem(later.y, np.ascontiguousarray(later.x), later.w))
        if members:
            state = RecursiveState(q=np.stack([s.q for s in starts]),
                                   theta=np.stack([s.theta for s in starts]))
            problem = RegressionProblem(*(np.stack([getattr(p, key) for p in problems])
                                          for key in ("y", "x", "w")))
        else:
            state, problem = starts[0], problems[0]
        assert np.array_equal(state.q, state.q.mT)
        folded = rls_update(state, problem)
        one_row_at_a_time = state
        for j in range(12):
            one_row_at_a_time = rls_update(one_row_at_a_time, RegressionProblem(
                problem.y[..., j:j + 1], problem.x[..., j:j + 1, :], problem.w[..., j:j + 1]))
            assert np.array_equal(one_row_at_a_time.q, one_row_at_a_time.q.mT)
        assert same_bits(one_row_at_a_time.q, folded.q)
        assert same_bits(one_row_at_a_time.theta, folded.theta)
        for m, (start, rows_m) in enumerate(zip(starts, problems)):
            ref = rls_update_loop(start, rows_m)
            assert same_bits(folded.q[m] if members else folded.q, ref.q)
            assert same_bits(folded.theta[m] if members else folded.theta, ref.theta)


class TestTraceGain:
    def state(self):
        return RecursiveState(q=np.diag([1.0, 0.1, 0.01]), theta=np.zeros(3))

    def test_null_direction_gain_is_zero(self):
        state = RecursiveState(q=np.diag([0.5, 0.2, 0.0]), theta=np.zeros(3))
        assert trace_gain(state, np.array([0.0, 0.0, 1.0]), 10.0) == 0.0

    def test_top_eigendirection_gains_most(self):
        state = self.state()
        top = trace_gain(state, np.array([1.0, 0.0, 0.0]), 5.0)
        bottom = trace_gain(state, np.array([0.0, 0.0, 1.0]), 5.0)
        assert top > bottom

    def test_closed_form_equals_actual_decrease(self):
        rng = np.random.default_rng(6)
        problem = qubit_dataset(rng, n_extra=4)
        state = recursive_solve(rows(problem, slice(None, 6)), 6)
        for i in range(6, problem.y.size):
            predicted = trace_gain(state, problem.x[i], problem.w[i])
            updated = rls_update(state, rows(problem, [i]))
            actual = np.trace(state.q) - np.trace(updated.q)
            assert abs(predicted - actual) <= 1e-12
            state = updated

    def test_stacked_rows_score_like_single_rows(self):
        problem = qubit_dataset(np.random.default_rng(6), n_extra=4)
        state = recursive_solve(rows(problem, slice(None, 6)), 6)
        single = [trace_gain(state, g, w) for g, w in zip(problem.x, problem.w)]
        assert np.allclose(trace_gain(state, problem.x, problem.w), single, rtol=1e-14, atol=0)


class TestSelectNextBasis:
    def test_single_candidate(self):
        state = RecursiveState(q=np.eye(3), theta=np.zeros(3))
        povm = cube_povms(2)[1]
        assert same_basis(select_next_basis(state, povm.gamma[None], 100, "shots"), povm)

    def test_starved_axis_is_selected(self):
        # after many sigma_z measurements the x basis carries more gain
        rng = np.random.default_rng(7)
        rho = random_density_matrix(2, rng)
        x_basis, y_basis, z_basis = cube_povms(2)
        records = concat_records([
            simulate_measurements(rho, z_basis, 1000, rng),
            simulate_measurements(rho, x_basis, 10, rng),
            simulate_measurements(rho, y_basis, 10, rng),
        ])
        problem = build_regression(records)
        state = batch_state(problem)
        candidates = np.stack([x_basis.gamma, z_basis.gamma])
        assert same_basis(select_next_basis(state, candidates, 100, "shots"), x_basis)

    def test_unique_argmax_is_permutation_invariant(self):
        state = RecursiveState(q=np.diag([1.0, 0.5, 0.2]), theta=np.zeros(3))
        candidates = cube_rows(2)
        chosen = select_next_basis(state, candidates, 100, "shots")
        reversed_choice = select_next_basis(state, candidates[::-1], 100, "shots")
        assert same_basis(chosen, X_BASIS) and same_basis(reversed_choice, X_BASIS)

    def test_candidates_without_unit_trace_raise(self):
        # a trine's elements have trace 2/3: its rows would be misread, so none are made
        state = RecursiveState(q=np.eye(3), theta=np.zeros(3))
        with pytest.raises(ContractViolationError, match="unit trace"):
            select_next_basis(state, Povm(trine_povm().elements[None]).gamma, 100, "shots")

    def test_empty_candidates(self):
        state = RecursiveState(q=np.eye(3), theta=np.zeros(3))
        with pytest.raises(ValueError):
            select_next_basis(state, np.empty((0, 2, 3)), 100, "shots")


class TestOptimalQubitBasis:
    """The continuum search under shot weights: one planned copy gives weight 1."""

    def test_isotropic_ties_to_x(self):
        state = RecursiveState(q=0.3 * np.eye(3), theta=np.zeros(3))
        assert same_basis(continuum_qubit_basis(state, 1, "shots"), X_BASIS)

    def test_matches_dense_grid_oracle(self):
        state = RecursiveState(q=np.diag([1.0, 0.1, 0.01]), theta=np.zeros(3))
        rows = continuum_qubit_basis(state, 1, "shots")
        # dense grid oracle over 10^4 Bloch directions
        rng = np.random.default_rng(9)
        dirs = rng.normal(size=(10000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]

        def gain(u):
            qu = state.q @ u
            return (qu @ qu) / (1.0 + u @ qu / 2.0)

        best_grid = max(gain(u) for u in dirs)
        chosen_dir = np.array([1.0, 0.0, 0.0])
        assert same_basis(rows, X_BASIS)
        assert gain(chosen_dir) >= best_grid - 1e-9
        angular = np.arccos(min(1.0, abs(chosen_dir @ np.array([1.0, 0.0, 0.0]))))
        assert angular <= 1e-6

    def test_beats_or_ties_every_cube_basis(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            state = RecursiveState(q=a @ a.T, theta=np.zeros(3))
            chosen = continuum_qubit_basis(state, 1, "shots")

            def summed_gain(rows):
                return trace_gain(state, rows, 1.0).sum()

            best_cube = max(summed_gain(p.gamma) for p in cube_povms(2))
            assert summed_gain(chosen) >= best_cube - 1e-12

    def test_rejects_non_qubit(self):
        state = RecursiveState(q=np.eye(8), theta=np.zeros(8))
        with pytest.raises(ValueError):
            continuum_qubit_basis(state, 1, "shots")


class TestContinuumBasis:
    def test_shot_weighting_matches_constant_weight_optimum(self):
        # under constant weights the optimum is the top eigendirection of Q
        state = RecursiveState(q=np.diag([0.8, 0.3, 0.1]), theta=np.zeros(3))
        assert same_basis(continuum_qubit_basis(state, 100, "shots"), X_BASIS)
        rot, _ = np.linalg.qr(np.random.default_rng(14).normal(size=(3, 3)))
        state = RecursiveState(q=rot @ np.diag([0.8, 0.3, 0.1]) @ rot.T, theta=np.zeros(3))
        plus = continuum_qubit_basis(state, 100, "shots")[0]
        # the plus row is n / sqrt(2), for the unit direction n
        assert abs(plus * np.sqrt(2.0) @ rot[:, 0]) >= 1 - 1e-9

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_matches_row_by_row_reference(self, weighting):
        # the per-direction loop the vectorized scorer replaced, kept as the reference
        def reference_basis(state, planned_shots):
            _, v = np.linalg.eigh(state.q)
            candidates = [np.eye(3)[i] for i in range(3)] + [v[:, i] for i in range(3)]
            bloch = state.theta * np.sqrt(2.0)
            if np.linalg.norm(bloch) > 1e-9:
                candidates.append(bloch / np.linalg.norm(bloch))
            candidates.extend(_SPHERE_GRID)
            gains = []
            for u in candidates:
                total = 0.0
                for gamma in (u / np.sqrt(2.0), -u / np.sqrt(2.0)):
                    p_pred = min(max(0.5 + gamma @ state.theta, 0.0), 1.0)
                    w = record_weight(planned_shots, p_pred, weighting)
                    qg = state.q @ gamma
                    total += (qg @ qg) / (1.0 / w + gamma @ qg)
                gains.append(total)
            return bloch_basis_povm(candidates[int(np.argmax(gains))])

        for t in range(20):
            rng = np.random.default_rng([15, t])
            truth = pure_to_density(random_pure_state(2, rng))
            problem = build_regression(cube_records(truth, 2000, rng), weighting)
            state = batch_state(problem)
            for _ in range(4):
                rows = continuum_qubit_basis(state, 1000, weighting)
                # the reference's rows come from the basis's matrices, equal to rounding
                assert np.abs(rows - reference_basis(state, 1000).gamma).max() <= 4.5e-16
                recs = simulate_rows(truth, rows, 1000, rng)
                state = rls_update(state, build_regression(recs, weighting))

    def test_invvar_leaves_cube_frame_for_oblique_states(self):
        rng = np.random.default_rng(11)
        truth = pure_to_density(
            (np.array([1.0, 0.0]) + np.array([0.6, 0.8])) / np.linalg.norm([1.6, 0.8])
        )
        records = concat_records(simulate_measurements(truth, povm, 2000, rng)
                                 for povm in cube_povms(2))
        problem = build_regression(records, "invvar")
        state = batch_state(problem)
        chosen = []
        for _ in range(4):
            rows = continuum_qubit_basis(state, 1000, "invvar")
            chosen.append(rows)
            recs = simulate_rows(truth, rows, 1000, rng)
            state = rls_update(state, build_regression(recs, "invvar"))
        assert any(not any(same_basis(r, c) for c in cube_povms(2)) for r in chosen)


class TestSplitEvenly:
    def test_exact_total_and_balance(self):
        parts = split_evenly(2000, 3)
        assert sum(parts) == 2000 and max(parts) - min(parts) <= 1
        assert split_evenly(7, 3) == [3, 2, 2]


class TestProtocol:
    def test_degenerate_schedule_equals_batch_pipeline(self):
        truth = pure_to_density(random_pure_state(2, np.random.default_rng(12)))
        schedule = AdaptiveSchedule(total=3000, stage1=3000, per_step=1, steps=0)
        thetas, trace_q = run_adaptive_protocol(truth, schedule, "cube", 99)
        rng = np.random.default_rng(99)
        records = concat_records(simulate_measurements(truth, povm, n, rng)
                                 for povm, n in zip(cube_povms(2), split_evenly(3000, 3)))
        rho_ref, _, _ = tomography_pipeline(records, "invvar")
        assert thetas.shape == (1, 3) and trace_q.shape == (1,)
        assert np.linalg.norm(project_physical(rho_from_theta(thetas[-1])) - rho_ref) <= 1e-12

    @pytest.mark.parametrize("candidates", ["cube", "continuum"])
    def test_trace_q_non_increasing_and_steps_counted(self, candidates):
        truth = random_density_matrix(2, np.random.default_rng(13))
        schedule = AdaptiveSchedule(total=4000, stage1=2000, per_step=500, steps=4)
        thetas, trace_q = run_adaptive_protocol(truth, schedule, candidates, 5)
        assert thetas.shape == (5, 3) and trace_q.shape == (5,)
        traces = trace_q.tolist()
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))

    @pytest.mark.parametrize("truth, message", [
        (np.eye(2)[:, :1], "shape"), (np.ones(2) / 2, "shape"),
        (np.ones((1, 1, 2, 2)) / 2, "shape"),
        (np.diag([0.5, np.inf]), "finite, Hermitian and of unit trace"),
        (np.diag([np.nan, 0.5]), "finite, Hermitian and of unit trace"),
        (np.array([[0.5, 1e-7], [0.0, 0.5]]), "finite, Hermitian and of unit trace"),
        (np.eye(2), "finite, Hermitian and of unit trace"),
        (np.diag([0.5, 0.5 + 2e-8]), "finite, Hermitian and of unit trace"),
    ], ids=["not-square", "vector", "4-d", "inf", "nan", "not-hermitian", "trace-2",
            "trace-off-by-2e-8"])
    def test_truth_contract(self, truth, message):
        # a (d, d) state or an (R, d, d) stack, finite, Hermitian and of unit trace within 1e-8
        schedule = AdaptiveSchedule(total=1000, stage1=1000, per_step=1, steps=0)
        with pytest.raises(ContractViolationError, match=message):
            run_adaptive_protocol(truth, schedule, "cube", 1)

    def test_truth_within_the_tolerances_runs(self):
        # anti-Hermitian part 3e-9 sqrt(8) and trace 1 + 5e-9: within 1e-8 of a state
        schedule = AdaptiveSchedule(total=1500, stage1=1000, per_step=250, steps=2)
        near = np.diag([0.5, 0.5 + 5e-9]) + 3e-9j * PAULI_Y
        thetas, _ = run_adaptive_protocol(near, schedule, "continuum", 1)
        stacked, _ = run_adaptive_protocol(np.stack([np.eye(2) / 2, near]), schedule, "cube",
                                           [1, 2])
        assert np.isfinite(thetas).all() and np.isfinite(stacked).all()

    @pytest.mark.parametrize("candidates", ["cube", "continuum"])
    @pytest.mark.parametrize("bad", ["3rho", "rho+0.4i.sigma_x"])
    def test_rejects_a_truth_that_is_no_state(self, candidates, bad):
        # both ran to completion and reported an MSE against the bad matrix; they are caught
        # where the truth enters, for one state and for a member of a stack
        rho = random_density_matrix(2, np.random.default_rng(14))
        wrong = 3 * rho if bad == "3rho" else rho + 0.4j * PAULI_X
        schedule = AdaptiveSchedule(total=2000, stage1=1000, per_step=250, steps=4)
        with pytest.raises(ContractViolationError, match="Hermitian and of unit trace"):
            run_adaptive_protocol(wrong, schedule, candidates, 5)
        with pytest.raises(ContractViolationError, match="Hermitian and of unit trace"):
            run_adaptive_protocol(np.stack([rho, wrong, rho]), schedule, candidates, [5, 6, 7])


def member_truths(d, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([pure_to_density(random_pure_state(d, rng)) for _ in range(count)])


def assert_equal_to_rounding(got, want):
    """Bit for bit, or at most 1e-15 apart."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-15


class TestStackedProtocol:
    """One stacked run of R members against R runs of the per-run loop oracle."""

    SCHEDULES = {2: AdaptiveSchedule(total=2600, stage1=1000, per_step=400, steps=4),
                 4: AdaptiveSchedule(total=2700, stage1=900, per_step=600, steps=3)}

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("candidates, d", [("continuum", 2), ("cube", 2), ("cube", 4)])
    @pytest.mark.parametrize("members", [1, 20])
    @pytest.mark.parametrize("shared_truth", [True, False], ids=["shared", "per-member"])
    def test_equals_the_per_run_loop(self, weighting, candidates, d, members, shared_truth):
        schedule = self.SCHEDULES[d]
        truths = member_truths(d, members, seed=[d, members])
        truth = truths[0] if shared_truth else truths
        seeds = [[31, d, m] for m in range(members)]
        rngs = [np.random.default_rng(s) for s in seeds]
        thetas, trace_q = run_adaptive_protocol(truth, schedule, candidates, rngs, weighting)
        assert thetas.shape == (schedule.steps + 1, members, d * d - 1)
        assert trace_q.shape == (schedule.steps + 1, members)
        assert (np.diff(trace_q, axis=0) <= 1e-12).all()
        oracle_candidates = "continuum" if candidates == "continuum" else cube_povm(d)
        for m in range(members):
            ref_rng = np.random.default_rng(seeds[m])
            _, ref_steps = adaptive_protocol_loop(
                truths[0] if shared_truth else truths[m], schedule, oracle_candidates,
                ref_rng, weighting)
            assert len(ref_steps) == schedule.steps + 1
            for k, ref in enumerate(ref_steps):
                assert same_bits(thetas[k, m], ref["theta"])
                assert_equal_to_rounding(trace_q[k, m], ref["trace_q"])
            # every member's stream advanced exactly as its own run's did
            assert rngs[m].random() == ref_rng.random()

    @pytest.mark.parametrize("candidates", ["continuum", "cube"])
    def test_one_seed_is_one_unstacked_run(self, candidates):
        truth = member_truths(2, 1, seed=3)[0]
        schedule = self.SCHEDULES[2]
        thetas, trace_q = run_adaptive_protocol(truth, schedule, candidates, 17, "invvar")
        stacked, stacked_trace_q = run_adaptive_protocol(truth, schedule, candidates, [17],
                                                         "invvar")
        assert thetas.shape == (schedule.steps + 1, 3) and same_bits(thetas, stacked[:, 0])
        assert trace_q.shape == (schedule.steps + 1,)
        assert same_bits(trace_q, stacked_trace_q[:, 0])

    @pytest.mark.parametrize("candidates", ["grid", "continuum"])
    def test_rejects_unknown_or_non_qubit_modes(self, candidates):
        schedule = AdaptiveSchedule(total=1000, stage1=1000, per_step=1, steps=0)
        with pytest.raises(ValueError, match="candidate mode|qubit-only"):
            run_adaptive_protocol(np.eye(4) / 4, schedule, candidates, 1)


class TestStackedSelection:
    """Each member of a stacked state chooses what the one-state reference chooses."""

    def stacked_state(self, members, seed, weighting, d=2):
        rng = np.random.default_rng(seed)
        qs, thetas = [], []
        for _ in range(members):
            problem = build_regression(cube_records(member_truths(d, 1, rng)[0], 300 * d, rng),
                                       weighting)
            theta, _, q = solve_weighted_ls(problem)
            qs.append(q)
            thetas.append(theta)
        return np.stack(qs), np.stack(thetas)

    @staticmethod
    def state(q, theta, members):
        # members=None: member 0 as one unstacked state
        return (RecursiveState(q=q[0], theta=theta[0]) if members is None
                else RecursiveState(q=q, theta=theta))

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("members", [None, 7], ids=["one-state", "R7"])
    def test_continuum_with_a_member_at_the_centre(self, weighting, members):
        # member 0 sits at theta = 0, so its Bloch candidate is masked out of the
        # stacked scores; the reference drops that candidate from its list
        q, theta = self.stacked_state(members or 1, 21, weighting)
        theta[0] = 0.0
        chosen = continuum_qubit_basis(self.state(q, theta, members), 500, weighting)
        assert chosen.shape == (members,) * bool(members) + (2, 3)
        for m in range(members or 1):
            ref = continuum_qubit_basis_loop(RecursiveState(q=q[m], theta=theta[m]), 500,
                                             weighting)
            assert same_bits(chosen.reshape(-1, 2, 3)[m], ref)

    def test_centre_member_never_measures_along_a_bloch_direction_of_zero(self):
        q, theta = self.stacked_state(3, 22, "invvar")
        theta[:] = 0.0
        stacked = continuum_qubit_basis(RecursiveState(q=q, theta=theta), 500, "invvar")
        assert np.isfinite(stacked).all()

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("members", [None, 7], ids=["one-state", "R7"])
    def test_cube_candidates_equal_the_per_candidate_loop(self, weighting, d, members):
        # one scoring pass over the stacked bases' table against one score per one-basis POVM:
        # the gains and the chosen rows, table rows against the basis's own, bit for bit
        q, theta = self.stacked_state(members or 1, [23, d], weighting, d)
        state = self.state(q, theta, members)
        table = cube_rows(d)
        gains = _basis_gains(state, table.reshape((1,) * bool(members) + table.shape), 500,
                             weighting)
        chosen = select_next_basis(state, table, 500, weighting)
        assert chosen.shape == (members,) * bool(members) + (d, d * d - 1)
        for m in range(members or 1):
            ref, ref_gains = select_next_basis_loop(RecursiveState(q=q[m], theta=theta[m]),
                                                    cube_povm(d), 500, weighting)
            assert same_bits(gains.reshape(-1, 3 ** (d.bit_length() - 1))[m], ref_gains)
            assert same_bits(chosen.reshape(-1, d, d * d - 1)[m], ref)


class TestRowsRoute:
    """An adaptive step measures in regression rows; independent checks of those rows."""

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_continuum_rows_equal_the_basis_matrices_rows_to_rounding(self, weighting):
        # 300 members per weighting: each member's rows against the rows of the matrices
        # (I +- n.sigma) / 2 that bloch_basis_povm builds for the same direction
        q, theta = TestStackedSelection().stacked_state(300, [26, weighting == "shots"],
                                                        weighting)
        theta[:5] = 0.0  # members at the centre have no Bloch candidate
        state = RecursiveState(q=q, theta=theta)
        rows = continuum_qubit_basis(state, 500, weighting)
        u, gains = _continuum_gains(state, 500, weighting)
        best = np.argmax(gains >= gains.max(-1, keepdims=True) * (1.0 - 1e-12), axis=-1)
        ref = np.stack([bloch_basis_povm(u[m, b]).gamma for m, b in enumerate(best)])
        assert rows.shape == ref.shape == (300, 2, 3)
        assert np.array_equal(rows[:, 1], -rows[:, 0])
        assert np.abs(rows - ref).max() <= 4.5e-16

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_step_probabilities_equal_the_born_rule(self, d, monkeypatch):
        # every step draws from 1/d + rows . theta of the truth; the Born rule Tr(rho E) of
        # the chosen basis's elements gives the same probabilities to rounding
        drawn, chosen = [], []

        def draw(rng, n, p):
            drawn.append(p)
            return multinomial(rng, n, p)

        def select(*args):
            chosen.append(select_next_basis(*args))
            return chosen[-1]

        monkeypatch.setattr(qest.adaptive, "multinomial", draw)
        monkeypatch.setattr(qest.adaptive, "select_next_basis", select)
        rng = np.random.default_rng([27, d])
        truths = np.stack([random_density_matrix(d, rng) for _ in range(3)]
                          + [pure_to_density(random_pure_state(d, rng)) for _ in range(3)])
        schedule = AdaptiveSchedule(total=300 * d + 3 * 400, stage1=300 * d, per_step=400,
                                    steps=3)
        run_adaptive_protocol(truths, schedule, "cube", [[27, d, m] for m in range(6)],
                              "invvar")
        table, elements = cube_rows(d), cube_povm(d).elements
        assert len(chosen) == len(drawn) == schedule.steps
        for rows, p in zip(chosen, drawn):
            for m in range(len(truths)):
                b = int(np.flatnonzero((table == rows[m]).all(axis=(-2, -1)))[0])
                want = born_probabilities(truths[m], Povm(elements[b]))
                assert np.abs(p[m] - want / want.sum()).max() <= 4.5e-16

    @pytest.mark.parametrize("candidates, d", [("cube", 4), ("continuum", 2)])
    def test_a_run_computes_no_rows_beyond_the_warm_cube_table(self, candidates, d):
        # once the cube table is warm, no step builds rows of its own: every cube step reads
        # the cached table, and a continuum step's rows come from its directions
        cube_rows(d)
        before = cube_rows.cache_info()
        schedule = AdaptiveSchedule(total=900 * d // 2 + 3 * 300, stage1=900 * d // 2,
                                    per_step=300, steps=3)
        run_adaptive_protocol(member_truths(d, 4, seed=28), schedule, candidates,
                              [[28, m] for m in range(4)], "invvar")
        after = cube_rows.cache_info()
        assert after.misses == before.misses and after.hits > before.hits


class TestDirectionScoring:
    """The continuum scores one row per direction; _basis_gains scores both outcome rows."""

    @staticmethod
    def directions(state):
        # the candidate list as continuum_qubit_basis_loop builds it, one C-contiguous stack
        members = state.theta.shape[:-1]
        _, v = np.linalg.eigh(state.q)
        bloch = state.theta * np.sqrt(2.0)
        norm = np.sqrt(np.vecdot(bloch, bloch))[..., None]
        u = np.ascontiguousarray(np.concatenate([
            np.broadcast_to(np.eye(3), members + (3, 3)), v.mT,
            (bloch / np.where(norm > 1e-9, norm, 1.0))[..., None, :],
            np.broadcast_to(_SPHERE_GRID, members + _SPHERE_GRID.shape),
        ], axis=-2))
        return u, norm[..., 0] > 1e-9

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("members", [None, 1, 20], ids=["one-state", "R1", "R20"])
    @pytest.mark.parametrize("diagonal, centre", [(False, False), (False, True), (True, False),
                                                  (True, True)],
                             ids=["off-centre", "member-at-centre", "diagonal-on-axis",
                                  "diagonal-at-centre"])
    def test_gains_equal_the_two_row_scores_bit_for_bit(self, weighting, members, diagonal,
                                                        centre):
        q, theta = TestStackedSelection().stacked_state(members or 1, [24, members or 0],
                                                        weighting)
        if diagonal:
            # the cube axes and the eigendirections of Q then have exact (signed) zero
            # coordinates, so some terms of g Qg are +-0
            q[:] = np.diag([0.04, 0.02, 0.01])
            theta[:] = [0.3, 0.0, 0.0]
        if centre:
            theta[0] = 0.0
        state = (RecursiveState(q=q[0], theta=theta[0]) if members is None
                 else RecursiveState(q=q, theta=theta))
        u, has_bloch = self.directions(state)
        want = _basis_gains(state, np.stack([u, -u], axis=-2) / np.sqrt(2.0), 500, weighting)
        want[..., 6] = np.where(has_bloch, want[..., 6], -np.inf)
        got_u, got = _continuum_gains(state, 500, weighting)
        assert got_u.shape == u.shape and got_u.tobytes() == u.tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.isneginf(got[..., 6]).sum() == centre

    def test_predictions_at_and_past_the_clip_bounds(self):
        # the continuum passes the predicted probabilities 1/2 +- x to record_weight's clip to
        # [lo, 1 - lo] alone; _basis_gains clips them to [0, 1] first.  Along the x axis, the
        # members put x at exactly +-1/2 (probabilities 0 and 1), within lo / 2 of 1/2 and
        # past 1/2, and the other directions cross every bound
        lo = 1.0 / (2 * 500)
        g = 1.0 / np.sqrt(2.0)  # the x axis's row
        edge = 0.5 / g
        assert g * edge == 0.5
        q, theta = TestStackedSelection().stacked_state(5, [25, 5], "invvar")
        theta[:] = 0.0
        theta[:, 0] = [edge, -edge, (0.5 - lo / 2) / g, 1.2, -2.0]
        theta[4, 1:] = [0.3, -0.9]
        state = RecursiveState(q=q, theta=theta)
        u, has_bloch = self.directions(state)
        x = np.abs((u / np.sqrt(2.0)) @ theta[..., None])[..., 0]
        assert (x[:2, 0] == 0.5).all() and 0.5 - lo < x[2, 0] < 0.5 and (x > 0.5).sum() > 100
        assert ((0.5 - lo < x) & (x < 0.5)).sum() > 1
        want = _basis_gains(state, np.stack([u, -u], axis=-2) / np.sqrt(2.0), 500, "invvar")
        want[..., 6] = np.where(has_bloch, want[..., 6], -np.inf)
        got_u, got = _continuum_gains(state, 500, "invvar")
        assert got_u.tobytes() == u.tobytes() and got.tobytes() == want.tobytes()


class TestEveryStep:
    """The protocol returns every step's unprojected theta and Tr(Q)."""

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("candidates", ["continuum", "cube"])
    @pytest.mark.parametrize("members", [None, 6], ids=["one-run", "stacked"])
    @pytest.mark.parametrize("steps", [0, 1, 8])
    def test_every_step_equals_the_loop_bit_for_bit(self, weighting, candidates, members, steps):
        schedule = AdaptiveSchedule(total=800 + steps * 250, stage1=800, per_step=250,
                                    steps=steps)
        truths = member_truths(2, members or 1, seed=[9, steps])
        seeds = [[43, steps, m] for m in range(members or 1)]
        # a list of seeds is a stack; one generator is one unstacked run
        thetas, trace_q = run_adaptive_protocol(
            truths if members else truths[0], schedule, candidates,
            seeds if members else np.random.default_rng(seeds[0]), weighting)
        assert len(thetas) == len(trace_q) == steps + 1
        assert (np.diff(trace_q, axis=0) <= 1e-12).all()
        for m in range(members or 1):
            _, ref_steps = adaptive_protocol_loop(
                truths[m], schedule, "continuum" if candidates == "continuum" else cube_povm(2),
                np.random.default_rng(seeds[m]), weighting)
            assert len(ref_steps) == steps + 1
            for k, ref in enumerate(ref_steps):
                assert same_bits(thetas[k].reshape(-1, 3)[m], ref["theta"])
                got = np.atleast_1d(trace_q[k])[m]
                assert got.tobytes() == np.float64(ref["trace_q"]).tobytes()

    def test_steps_keep_their_types(self):
        schedule = AdaptiveSchedule(total=1300, stage1=800, per_step=250, steps=2)
        truth = member_truths(2, 1, seed=10)[0]
        thetas, trace_q = run_adaptive_protocol(truth, schedule, "continuum", 3)
        assert (thetas.dtype, thetas.shape, trace_q.dtype, trace_q.shape) == (
            np.float64, (3, 3), np.float64, (3,))
        thetas, trace_q = run_adaptive_protocol([truth] * 4, schedule, "continuum", [3, 4, 5, 6])
        assert (thetas.dtype, thetas.shape, trace_q.dtype, trace_q.shape) == (
            np.float64, (3, 4, 3), np.float64, (3, 4))


class TestStackedRlsUpdate:
    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_members_fold_as_single_states(self, weighting):
        from tests.oracles import rls_update_loop

        problems = [qubit_dataset(np.random.default_rng([7, m]), n_extra=4, weighting=weighting)
                    for m in range(5)]
        n = min(len(p.y) for p in problems)
        starts = [batch_state(rows(p, slice(None, 6))) for p in problems]
        stacked = rls_update(
            RecursiveState(q=np.stack([s.q for s in starts]),
                           theta=np.stack([s.theta for s in starts])),
            RegressionProblem(y=np.stack([p.y[6:n] for p in problems]),
                              x=np.stack([p.x[6:n] for p in problems]),
                              w=np.stack([p.w[6:n] for p in problems])))
        for m, (p, s) in enumerate(zip(problems, starts)):
            ref = rls_update_loop(s, rows(p, slice(6, n)))
            assert np.array_equal(stacked.q[m], ref.q)
            assert np.array_equal(stacked.theta[m], ref.theta)
