import numpy as np
import pytest

from qest.adaptive import (
    _SPHERE_GRID,
    AdaptiveSchedule,
    RecursiveState,
    _basis_gains,
    _continuum_gains,
    continuum_qubit_basis,
    rls_update,
    run_adaptive_protocol,
    select_next_povm,
    trace_gain,
)
from qest.errors import SingularDesignError
from qest.states import (
    Records,
    bloch_basis_povm,
    cube_povms,
    cube_records,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    split_evenly,
)
from qest.tomography import (
    RegressionProblem,
    build_regression,
    record_weight,
    solve_weighted_ls,
    tomography_pipeline,
)
from tests.oracles import (
    adaptive_protocol_loop,
    continuum_qubit_basis_loop,
    expected_records,
    select_next_povm_loop,
    simulate_measurements,
)


def qubit_dataset(rng, n_extra=12, weighting="shots"):
    """Regression rows of cube plus random-basis records with varied shot counts."""
    from tests.test_tomography import haar_basis_povm

    rho = random_density_matrix(2, rng)
    records = [simulate_measurements(rho, povm, int(rng.integers(10, 10001)), rng)
               for povm in cube_povms(2)]
    for k in range(n_extra):
        povm = haar_basis_povm(2, rng, f"haar{k}")
        records.append(simulate_measurements(rho, povm, int(rng.integers(10, 10001)), rng))
    return build_regression(Records.concat(records), 2, weighting)


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
        records = Records.concat(expected_records(rho, povm, 100) for povm in cube_povms(2))
        problem = build_regression(records, 2)
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
        records = simulate_measurements(np.eye(2) / 2, cube_povms(2)[0], 50, rng)[:1]
        problem = build_regression(records, 2)
        with pytest.raises(SingularDesignError):
            solve_weighted_ls(problem)

    def test_cond_1e8_design_gives_the_analytic_q0(self):
        # cube rows weighted 1, 1e8 and 1e16 per Bloch axis: cond(sqrt(W) X) = 1e8,
        # while X^T W X has condition number 1e16, past what inverting it can resolve
        rho = np.eye(2) / 2
        records = Records.concat(expected_records(rho, povm, 100) for povm in cube_povms(2))
        x = build_regression(records, 2).x
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


class TestSelectNextPovm:
    def test_single_candidate(self):
        state = RecursiveState(q=np.eye(3), theta=np.zeros(3))
        povm = cube_povms(2)[1]
        assert select_next_povm(state, [povm], 100) is povm

    def test_starved_axis_is_selected(self):
        # after many sigma_z measurements the x basis carries more gain
        rng = np.random.default_rng(7)
        rho = random_density_matrix(2, rng)
        x_basis, y_basis, z_basis = cube_povms(2)
        records = Records.concat([
            simulate_measurements(rho, z_basis, 1000, rng),
            simulate_measurements(rho, x_basis, 10, rng),
            simulate_measurements(rho, y_basis, 10, rng),
        ])
        problem = build_regression(records, 2)
        state = batch_state(problem)
        assert select_next_povm(state, [x_basis, z_basis], 100).label == "cube:x"

    def test_unique_argmax_is_permutation_invariant(self):
        state = RecursiveState(q=np.diag([1.0, 0.5, 0.2]), theta=np.zeros(3))
        candidates = cube_povms(2)
        chosen = select_next_povm(state, candidates, 100)
        reversed_choice = select_next_povm(state, candidates[::-1], 100)
        assert chosen.label == reversed_choice.label == "cube:x"

    def test_empty_candidates(self):
        state = RecursiveState(q=np.eye(3), theta=np.zeros(3))
        with pytest.raises(ValueError):
            select_next_povm(state, [], 100)


class TestOptimalQubitBasis:
    """The continuum search under shot weights: one planned copy gives weight 1."""

    def test_isotropic_ties_to_x(self):
        state = RecursiveState(q=0.3 * np.eye(3), theta=np.zeros(3))
        assert continuum_qubit_basis(state, 1, "shots").label == "cube:x"

    def test_matches_dense_grid_oracle(self):
        state = RecursiveState(q=np.diag([1.0, 0.1, 0.01]), theta=np.zeros(3))
        povm = continuum_qubit_basis(state, 1, "shots")
        # dense grid oracle over 10^4 Bloch directions
        rng = np.random.default_rng(9)
        dirs = rng.normal(size=(10000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]

        def gain(u):
            qu = state.q @ u
            return (qu @ qu) / (1.0 + u @ qu / 2.0)

        best_grid = max(gain(u) for u in dirs)
        chosen_dir = np.array([1.0, 0.0, 0.0])
        assert povm.label == "cube:x"
        assert gain(chosen_dir) >= best_grid - 1e-9
        angular = np.arccos(min(1.0, abs(chosen_dir @ np.array([1.0, 0.0, 0.0]))))
        assert angular <= 1e-6

    def test_beats_or_ties_every_cube_basis(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            state = RecursiveState(q=a @ a.T, theta=np.zeros(3))
            chosen = continuum_qubit_basis(state, 1, "shots")

            def summed_gain(povm):
                return trace_gain(state, povm.gamma, 1.0).sum()

            best_cube = max(summed_gain(p) for p in cube_povms(2))
            assert summed_gain(chosen) >= best_cube - 1e-12

    def test_rejects_non_qubit(self):
        state = RecursiveState(q=np.eye(8), theta=np.zeros(8))
        with pytest.raises(ValueError):
            continuum_qubit_basis(state, 1, "shots")


class TestContinuumBasis:
    def test_shot_weighting_matches_constant_weight_optimum(self):
        # under constant weights the optimum is the top eigendirection of Q
        state = RecursiveState(q=np.diag([0.8, 0.3, 0.1]), theta=np.zeros(3))
        assert continuum_qubit_basis(state, 100, "shots").label == "cube:x"
        rot, _ = np.linalg.qr(np.random.default_rng(14).normal(size=(3, 3)))
        state = RecursiveState(q=rot @ np.diag([0.8, 0.3, 0.1]) @ rot.T, theta=np.zeros(3))
        label = continuum_qubit_basis(state, 100, "shots").label
        direction = np.array([float(c) for c in label.split(":")[1].split(",")])
        assert abs(direction @ rot[:, 0]) >= 1 - 1e-9

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_matches_row_by_row_reference(self, weighting):
        # the per-direction loop the vectorized scorer replaced, kept as the reference
        def reference_label(state, planned_shots):
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
            best = int(np.argmax(gains))
            return cube_povms(2)[best].label if best < 3 else bloch_basis_povm(candidates[best]).label

        for t in range(20):
            rng = np.random.default_rng([15, t])
            truth = pure_to_density(random_pure_state(2, rng))
            problem = build_regression(cube_records(truth, 2000, rng), 2, weighting)
            state = batch_state(problem)
            for _ in range(4):
                povm = continuum_qubit_basis(state, 1000, weighting)
                assert povm.label == reference_label(state, 1000)
                recs = simulate_measurements(truth, povm, 1000, rng)
                state = rls_update(state, build_regression(recs, 2, weighting))

    def test_invvar_leaves_cube_frame_for_oblique_states(self):
        rng = np.random.default_rng(11)
        truth = pure_to_density(
            (np.array([1.0, 0.0]) + np.array([0.6, 0.8])) / np.linalg.norm([1.6, 0.8])
        )
        records = Records.concat(simulate_measurements(truth, povm, 2000, rng)
                                 for povm in cube_povms(2))
        problem = build_regression(records, 2, "invvar")
        state = batch_state(problem)
        labels = set()
        for _ in range(4):
            povm = continuum_qubit_basis(state, 1000, "invvar")
            labels.add(povm.label.split(":")[0])
            recs = simulate_measurements(truth, povm, 1000, rng)
            state = rls_update(state, build_regression(recs, 2, "invvar"))
        assert "bloch" in labels


class TestSplitEvenly:
    def test_exact_total_and_balance(self):
        parts = split_evenly(2000, 3)
        assert sum(parts) == 2000 and max(parts) - min(parts) <= 1
        assert split_evenly(7, 3) == [3, 2, 2]


class TestProtocol:
    def test_degenerate_schedule_equals_batch_pipeline(self):
        truth = pure_to_density(random_pure_state(2, np.random.default_rng(12)))
        schedule = AdaptiveSchedule(total=3000, stage1=3000, per_step=1, steps=0)
        rho_hat, diag = run_adaptive_protocol(truth, schedule, cube_povms(2), 99)
        rng = np.random.default_rng(99)
        records = Records.concat(simulate_measurements(truth, povm, n, rng)
                                 for povm, n in zip(cube_povms(2), split_evenly(3000, 3)))
        rho_ref, _, _ = tomography_pipeline(records, 2, "invvar")
        assert np.linalg.norm(rho_hat - rho_ref) <= 1e-12
        assert len(diag) == 1

    @pytest.mark.parametrize("candidates", ["cube-list", "continuum"])
    def test_trace_q_non_increasing_and_copies_counted(self, candidates):
        truth = random_density_matrix(2, np.random.default_rng(13))
        schedule = AdaptiveSchedule(total=4000, stage1=2000, per_step=500, steps=4)
        cands = cube_povms(2) if candidates == "cube-list" else "continuum"
        _, diag = run_adaptive_protocol(truth, schedule, cands, 5)
        traces = [entry["trace_q"] for entry in diag]
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))
        assert diag[-1]["copies_used"] == 4000
        assert [entry["step"] for entry in diag] == list(range(5))

    def test_rejects_empty_candidates(self):
        truth = np.eye(2) / 2
        schedule = AdaptiveSchedule(total=2000, stage1=1000, per_step=500, steps=2)
        with pytest.raises(ValueError):
            run_adaptive_protocol(truth, schedule, [], 1)


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
        rho, diag = run_adaptive_protocol(truth, schedule, candidates, rngs, weighting)
        assert rho.shape == (members, d, d)
        oracle_candidates = "continuum" if candidates == "continuum" else cube_povms(d)
        for m in range(members):
            ref_rng = np.random.default_rng(seeds[m])
            ref_rho, ref_diag = adaptive_protocol_loop(
                truths[0] if shared_truth else truths[m], schedule, oracle_candidates,
                ref_rng, weighting)
            assert_equal_to_rounding(rho[m], ref_rho)
            for entry, ref in zip(diag, ref_diag, strict=True):
                assert (entry["step"], entry["copies_used"]) == (ref["step"], ref["copies_used"])
                assert_equal_to_rounding(entry["trace_q"][m], ref["trace_q"])
                assert_equal_to_rounding(entry["mse"][m], ref["mse"])
            # every member's stream advanced exactly as its own run's did
            assert rngs[m].random() == ref_rng.random()

    @pytest.mark.parametrize("candidates", ["continuum", "cube"])
    def test_one_seed_is_one_unstacked_run(self, candidates):
        truth = member_truths(2, 1, seed=3)[0]
        schedule = self.SCHEDULES[2]
        rho, diag = run_adaptive_protocol(truth, schedule, candidates, 17, "invvar")
        stacked, stacked_diag = run_adaptive_protocol(truth, schedule, candidates, [17], "invvar")
        assert rho.shape == (2, 2) and np.array_equal(rho, stacked[0])
        for entry, ref in zip(diag, stacked_diag, strict=True):
            assert np.ndim(entry["mse"]) == 0 and entry["mse"] == ref["mse"][0]
            assert np.ndim(entry["trace_q"]) == 0 and entry["trace_q"] == ref["trace_q"][0]

    def test_cube_mode_equals_the_cube_list(self):
        truth = member_truths(2, 1, seed=4)[0]
        schedule = self.SCHEDULES[2]
        a, _ = run_adaptive_protocol(truth, schedule, "cube", 5)
        b, _ = run_adaptive_protocol(truth, schedule, cube_povms(2), 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("candidates", ["grid", "continuum"])
    def test_rejects_unknown_or_non_qubit_modes(self, candidates):
        schedule = AdaptiveSchedule(total=1000, stage1=1000, per_step=1, steps=0)
        with pytest.raises(ValueError, match="candidate mode|qubit-only"):
            run_adaptive_protocol(np.eye(4) / 4, schedule, candidates, 1)


class TestStackedSelection:
    """Each member of a stacked state chooses what the one-state reference chooses."""

    def stacked_state(self, members, seed, weighting):
        rng = np.random.default_rng(seed)
        qs, thetas = [], []
        for _ in range(members):
            problem = build_regression(cube_records(member_truths(2, 1, rng)[0], 600, rng),
                                       2, weighting)
            theta, _, q = solve_weighted_ls(problem)
            qs.append(q)
            thetas.append(theta)
        return np.stack(qs), np.stack(thetas)

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_continuum_with_a_member_at_the_centre(self, weighting):
        # member 0 sits at theta = 0, so its Bloch candidate is masked out of the
        # stacked scores; the reference drops that candidate from its list
        q, theta = self.stacked_state(6, 21, weighting)
        theta[0] = 0.0
        stacked = continuum_qubit_basis(RecursiveState(q=q, theta=theta), 500, weighting)
        assert len(stacked.label) == 6 and stacked.elements.shape == (6, 2, 2, 2)
        for m in range(6):
            ref = continuum_qubit_basis_loop(RecursiveState(q=q[m], theta=theta[m]), 500,
                                             weighting)
            assert stacked.label[m] == ref.label
            assert np.array_equal(stacked.elements[m], ref.elements)
            assert np.array_equal(stacked.gamma[m], ref.gamma)
            assert np.array_equal(stacked.gamma0[m], ref.gamma0)

    def test_centre_member_never_measures_along_a_bloch_direction_of_zero(self):
        q, theta = self.stacked_state(3, 22, "invvar")
        theta[:] = 0.0
        stacked = continuum_qubit_basis(RecursiveState(q=q, theta=theta), 500, "invvar")
        assert np.isfinite(stacked.gamma).all()

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_finite_candidates(self, weighting):
        q, theta = self.stacked_state(8, 23, weighting)
        candidates = cube_povms(2)
        stacked = select_next_povm(RecursiveState(q=q, theta=theta), candidates, 500, weighting)
        for m in range(8):
            ref = select_next_povm_loop(RecursiveState(q=q[m], theta=theta[m]), candidates, 500,
                                        weighting)
            assert stacked.label[m] == ref.label
            assert np.array_equal(stacked.gamma[m], ref.gamma)


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
    @pytest.mark.parametrize("centre", [False, True], ids=["off-centre", "member-at-centre"])
    def test_gains_equal_the_two_row_scores_bit_for_bit(self, weighting, members, centre):
        q, theta = TestStackedSelection().stacked_state(members or 1, [24, members or 0],
                                                        weighting)
        if centre:
            theta[0] = 0.0
        state = (RecursiveState(q=q[0], theta=theta[0]) if members is None
                 else RecursiveState(q=q, theta=theta))
        u, has_bloch = self.directions(state)
        want = _basis_gains(state, 1.0, np.stack([u, -u], axis=-2) / np.sqrt(2.0), 500,
                            weighting)
        want[..., 6] = np.where(has_bloch, want[..., 6], -np.inf)
        got_u, got = _continuum_gains(state, 500, weighting)
        assert got_u.shape == u.shape and got_u.tobytes() == u.tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.isneginf(got[..., 6]).sum() == centre


class TestBatchedDiagnostics:
    """Every step's estimate is projected after the last step, in one batch."""

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
        rho, diag = run_adaptive_protocol(truths if members else truths[0], schedule, candidates,
                                          seeds if members else np.random.default_rng(seeds[0]),
                                          weighting)
        assert len(diag) == steps + 1
        for m in range(members or 1):
            ref_rho, ref_diag = adaptive_protocol_loop(
                truths[m], schedule, "continuum" if candidates == "continuum" else cube_povms(2),
                np.random.default_rng(seeds[m]), weighting)
            assert rho.reshape(-1, 2, 2)[m].tobytes() == ref_rho.tobytes()
            for entry, ref in zip(diag, ref_diag, strict=True):
                assert (entry["step"], entry["copies_used"]) == (ref["step"], ref["copies_used"])
                for key in ("trace_q", "mse"):
                    got = np.atleast_1d(entry[key])[m]
                    assert got.tobytes() == np.float64(ref[key]).tobytes()

    def test_diagnostics_keep_their_types(self):
        schedule = AdaptiveSchedule(total=1300, stage1=800, per_step=250, steps=2)
        truth = member_truths(2, 1, seed=10)[0]
        _, diag = run_adaptive_protocol(truth, schedule, "continuum", 3)
        for entry in diag:
            assert type(entry["step"]) is int and type(entry["copies_used"]) is int
            assert type(entry["trace_q"]) is np.float64 and type(entry["mse"]) is np.float64
        _, diag = run_adaptive_protocol([truth] * 3, schedule, "continuum", [3, 4, 5])
        for entry in diag:
            assert entry["trace_q"].shape == entry["mse"].shape == (3,)


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
