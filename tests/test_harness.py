import json
import tracemalloc

import numpy as np
import pytest

from qest.adaptive import AdaptiveSchedule
from qest.errors import ConfigError
from qest.harness import (
    SweepResult,
    config_hash,
    emit,
    fit_loglog_slope,
    run_mse_sweep,
    run_paired_slc,
    run_paired_tomography,
    trial_rng,
    write_csv,
)


def rows_of(result):
    """The result table's rows as tuples of Python numbers."""
    return list(zip(*(column.tolist() for column in result.columns.values()), strict=True))


def assert_same_columns(a, b):
    """Equal names, dtypes and bits, column by column."""
    assert list(a.columns) == list(b.columns)
    for key in a.columns:
        assert a.columns[key].dtype == b.columns[key].dtype
        assert a.columns[key].tobytes() == b.columns[key].tobytes()


class TestTrialRng:
    def test_deterministic_and_independent(self):
        a = trial_rng(5, 0, 1).normal(size=4)
        b = trial_rng(5, 0, 1).normal(size=4)
        c = trial_rng(5, 0, 2).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFitSlope:
    def test_recovers_power_law(self):
        x = np.array([10.0, 100.0, 1000.0])
        y = 3.0 * x**-1.25
        assert fit_loglog_slope(x, y) == pytest.approx(-1.25, abs=1e-12)


class TestMseSweep:
    def test_single_point_single_trial(self):
        result = run_mse_sweep(2, [500], trials=1, seed=0, ensemble="pure", weighting="shots")
        assert {key: (c.dtype, c.shape) for key, c in result.columns.items()} == {
            "N": (np.int64, (1,)), "trial": (np.int64, (1,)), "mse": (np.float64, (1,))}

    def test_row_count_and_determinism(self):
        a, b = (run_mse_sweep(2, [100, 1000], trials=3, seed=4, ensemble="pure",
                              weighting="shots") for _ in range(2))
        assert len(rows_of(a)) == 6
        assert_same_columns(a, b)

    def test_mixed_ensemble(self):
        result = run_mse_sweep(2, [500], trials=2, seed=1, ensemble="mixed", weighting="shots")
        assert np.all(result.columns["mse"] > 0)

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("ensemble", ["pure", "mixed"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_equals_the_per_trial_loop_bit_for_bit(self, dim, ensemble, weighting):
        from tests.oracles import mse_sweep_loop

        grid = [90 * dim, 900 * dim]
        result = run_mse_sweep(dim, grid, trials=6, seed=7, ensemble=ensemble, weighting=weighting)
        rows, means = mse_sweep_loop(dim, grid, 6, 7, ensemble, weighting)
        assert rows_of(result) == rows
        assert result.aggregates["mean_mse"] == means

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            run_mse_sweep(2, [], trials=1, seed=0, ensemble="pure", weighting="shots")
        with pytest.raises(ConfigError):
            run_mse_sweep(2, [100], trials=1, seed=0, ensemble="ghz", weighting="shots")


class TestPairedTomography:
    def test_aggregates_and_determinism(self):
        schedule = AdaptiveSchedule(total=3000, stage1=1500, per_step=500, steps=3)
        a, b = (run_paired_tomography(2, schedule, trials=4, seed=2, candidates="continuum",
                                      weighting="invvar", repetitions=2) for _ in range(2))
        assert_same_columns(a, b)
        assert set(a.aggregates) == {"mean_adaptive", "mean_static", "mse_ratio", "win_rate"}

    def test_identical_strategy_ties(self):
        # same stream + same strategy must reproduce the identical metric
        from qest.harness import sample_truth, _static_cube_mse

        truth = sample_truth(2, trial_rng(3, 0, 0), "pure")
        a = _static_cube_mse(truth, 2000, trial_rng(3, 0, 2), "shots")
        b = _static_cube_mse(truth, 2000, trial_rng(3, 0, 2), "shots")
        assert a == b

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_one_stack_equals_one_stack_per_truth(self, weighting):
        # all trials' repetitions run as one stack; each truth's own stack gives the same bits
        from qest.adaptive import run_adaptive_protocol
        from qest.harness import sample_truth, _static_cube_mse
        from qest.states import mse, rho_from_theta
        from qest.tomography import project_physical

        schedule = AdaptiveSchedule(total=2500, stage1=1000, per_step=500, steps=3)
        result = run_paired_tomography(2, schedule, trials=5, seed=12, candidates="continuum",
                                       weighting=weighting, repetitions=4)
        assert list(result.columns) == ["trial", "mse_adaptive", "mse_static"]
        for t, row in enumerate(rows_of(result)):
            truth = sample_truth(2, trial_rng(12, t, 0), "pure")
            thetas, _ = run_adaptive_protocol(truth, schedule, "continuum",
                                              [trial_rng(12, t, 1, rep) for rep in range(4)],
                                              weighting)
            rho = project_physical(rho_from_theta(thetas[-1]))
            static = _static_cube_mse(truth, 2500, [trial_rng(12, t, 2, rep) for rep in range(4)],
                                      weighting)
            assert row == (t, float(np.mean(mse(rho, truth))), float(np.mean(static)))

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("dim, candidates", [(2, "continuum"), (4, "cube")])
    def test_adaptive_arm_is_the_protocols_final_state(self, monkeypatch, weighting, dim,
                                                       candidates):
        # the arm projects only the last step's estimate, which `qest adapt` projects with
        # every other step's: the states scored must have the same bits
        import qest.harness
        from qest.adaptive import run_adaptive_protocol
        from qest.harness import sample_truth
        from qest.states import mse, rho_from_theta
        from qest.tomography import project_physical

        scored = []
        monkeypatch.setattr(qest.harness, "mse",
                            lambda rho, truth: scored.append(rho) or mse(rho, truth))
        schedule = AdaptiveSchedule(total=900 * dim + 3 * 500, stage1=900 * dim, per_step=500,
                                    steps=3)
        run_paired_tomography(dim, schedule, trials=1, seed=21, candidates=candidates,
                              weighting=weighting, repetitions=20)
        truths = np.repeat([sample_truth(dim, trial_rng(21, 0, 0), "pure")], 20, axis=0)
        thetas, _ = run_adaptive_protocol(truths, schedule, candidates,
                                          [trial_rng(21, 0, 1, rep) for rep in range(20)],
                                          weighting)
        assert thetas.shape == (schedule.steps + 1, 20, dim * dim - 1)
        want = project_physical(rho_from_theta(thetas))[-1]
        assert len(scored) == 2  # the adaptive arm's, then the static arm's
        assert scored[0].shape == want.shape and scored[0].tobytes() == want.tobytes()


class TestStackedStaticArm:
    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("members", [1, 20])
    def test_equals_the_per_repetition_loop(self, weighting, members):
        from qest.harness import sample_truth, _static_cube_mse
        from tests.oracles import static_cube_mse_loop

        truth = sample_truth(2, trial_rng(4, 0, 0), "pure")
        rngs = [trial_rng(4, 0, 2, rep) for rep in range(members)]
        stacked = _static_cube_mse(truth, 3000, rngs, weighting)
        for rep in range(members):
            ref_rng = trial_rng(4, 0, 2, rep)
            assert stacked[rep] == static_cube_mse_loop(truth, 3000, ref_rng, weighting)
            assert rngs[rep].random() == ref_rng.random()

    @pytest.mark.parametrize("candidates", ["continuum", "cube"])
    def test_paired_rows_equal_the_per_repetition_loop(self, candidates):
        from qest.harness import sample_truth
        from tests.oracles import adaptive_protocol_loop, cube_povm, static_cube_mse_loop

        schedule = AdaptiveSchedule(total=2000, stage1=1000, per_step=500, steps=2)
        result = run_paired_tomography(2, schedule, trials=2, seed=9, candidates=candidates,
                                       weighting="invvar", repetitions=3)
        oracle_candidates = "continuum" if candidates == "continuum" else cube_povm(2)
        for t, row in enumerate(rows_of(result)):
            truth = sample_truth(2, trial_rng(9, t, 0), "pure")
            adaptive = [adaptive_protocol_loop(truth, schedule, oracle_candidates,
                                               trial_rng(9, t, 1, rep), "invvar")[1][-1]["mse"]
                        for rep in range(3)]
            static = [static_cube_mse_loop(truth, 2000, trial_rng(9, t, 2, rep), "invvar")
                      for rep in range(3)]
            assert row == (t, float(np.mean(adaptive)), float(np.mean(static)))


class TestPairedSlc:
    def test_small_run_shapes(self):
        result = run_paired_slc(trials=2, seed=1, omega_halfwidth=0.2, theta_halfwidth=0.2)
        assert list(result.columns) == ["trial", "J_train", "mean_robust", "worst_robust",
                                        "mean_nominal", "worst_nominal"]
        assert len(rows_of(result)) == 2
        worst_r, worst_n = result.columns["worst_robust"], result.columns["worst_nominal"]
        assert result.aggregates["mean_worst_robust"] == worst_r.mean()
        assert result.aggregates["worst_case_win_rate"] == np.mean(worst_r > worst_n)
        assert 0 <= result.aggregates["worst_case_win_rate"] <= 1
        assert result.aggregates["mean_test_over_train"] > 0.8


class TestEmit:
    def test_csv_and_manifest(self, tmp_path):
        result = SweepResult(columns={"a": np.array([1, 2]), "b": np.array([2.5, 3.0 / 7.0])},
                             aggregates={"mean": 0.5})
        paths = emit(result, tmp_path, name="t", config={"x": 1}, seed=9)
        text = paths["data"].read_text()
        assert text.splitlines() == ["a,b", "1,2.5", "2,0.42857142857142855"]
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["seed"] == 9
        assert manifest["rows"] == 2
        assert manifest["config_hash"] == config_hash({"x": 1})

    def test_empty_result_gives_header_only(self, tmp_path):
        result = SweepResult(columns={"a": np.array([], int), "b": np.array([])}, aggregates={})
        paths = emit(result, tmp_path, name="empty")
        assert paths["data"].read_text() == "a,b\n"
        assert paths["manifest"].exists()

    def test_json_round_trip(self, tmp_path):
        result = SweepResult(columns={"n": np.array([1, 2]), "v": np.array([0.1, 0.2])},
                             aggregates={"m": 0.15})
        paths = emit(result, tmp_path, name="j", fmt="json")
        payload = json.loads(paths["data"].read_text())
        assert payload["columns"] == ["n", "v"]
        assert payload["rows"] == [[1, 0.1], [2, 0.2]]
        # each column keeps its own type: ints are written as ints
        assert '"rows": [\n    [\n      1,\n' in paths["data"].read_text()
        assert [type(v) for v in payload["rows"][1]] == [int, float]
        assert payload["aggregates"]["m"] == 0.15

    def test_hash_changes_iff_config_changes(self):
        base = config_hash({"a": 1, "b": [1, 2]})
        assert base == config_hash({"b": [1, 2], "a": 1})
        assert base != config_hash({"a": 2, "b": [1, 2]})

    def test_unknown_format(self, tmp_path):
        result = SweepResult(columns={"a": np.array([])}, aggregates={})
        with pytest.raises(ConfigError):
            emit(result, tmp_path, fmt="parquet")

    def test_write_csv_deterministic_bytes(self, tmp_path):
        columns = {"x": np.array([1, 2]), "y": np.array([0.1234567890123456789, 2e-300])}
        write_csv(tmp_path / "a.csv", columns)
        write_csv(tmp_path / "b.csv", columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_csv_floats_give_the_reference_text_and_round_trip(self, tmp_path):
        from tests.oracles import format_number

        rng = np.random.default_rng(21)
        spread = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-300, 300, 100_000)
        values = np.concatenate([spread, [-0.0, np.inf, -np.inf, np.nan, 5e-324]])
        write_csv(tmp_path / "f.csv", {"x": values})
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "x"
        assert lines[1:] == [format_number(v) for v in values]
        assert np.array([float(v) for v in lines[1:]]).tobytes() == values.tobytes()

    def test_write_csv_ints_and_bools_give_integers(self, tmp_path):
        from tests.oracles import format_number

        ints = np.array([7, 1, 0, -3, 9223372036854775807])
        write_csv(tmp_path / "i.csv", {"i": ints, "b": ints > 0})
        lines = (tmp_path / "i.csv").read_text().splitlines()
        assert lines == ["i,b", "7,1", "1,1", "0,0", "-3,0", "9223372036854775807,1"]
        assert lines[1:] == [f"{format_number(i)},{format_number(b)}"
                             for i, b in zip(ints, ints > 0)]

    @pytest.mark.parametrize("columns", [
        {"a": np.arange(3), "b": np.arange(2)},
        {"a": np.arange(300), "b": np.arange(301)},
        {"a": np.zeros((2, 2))},
        {},
    ], ids=["unequal", "unequal-past-a-chunk", "2-d", "none"])
    def test_write_csv_rejects_unequal_or_non_1d_columns(self, tmp_path, columns):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "u.csv", columns)
        assert not (tmp_path / "u.csv").exists()

    def test_write_csv_broadcast_columns_write_their_materialized_bytes(self, tmp_path):
        n = 1000  # three full chunks and a part of one
        columns = {"i": np.arange(n), "f": np.broadcast_to(0.99000000000000021, n),
                   "third": np.broadcast_to(1.0 / 3.0, n), "b": np.broadcast_to(True, n),
                   "k": np.broadcast_to(np.int64(-3), n), "zero": np.broadcast_to(-0.0, n)}
        assert all(c.strides == (0,) for key, c in columns.items() if key != "i")
        write_csv(tmp_path / "broadcast.csv", columns)
        write_csv(tmp_path / "materialized.csv", {k: np.array(c) for k, c in columns.items()})
        text = (tmp_path / "broadcast.csv").read_text()
        assert text == (tmp_path / "materialized.csv").read_text()
        assert text.splitlines()[-1] == "999,0.99000000000000021,0.33333333333333331,1,-3,-0"

    def test_write_csv_streams_its_rows(self, tmp_path):
        # 10^5 rows, as smc-demo writes them; a writer that joins every line before
        # writing peaks near 14.6e6 bytes here, one that writes a chunk of rows at a time
        # near 1.5e5
        periods = np.arange(100_000)
        columns = {
            "period": periods,
            "prob0": np.broadcast_to(0.99000000000000021, periods.shape),
            "outcome": periods % 2,
            "in_domain": np.broadcast_to(True, periods.shape),
        }
        tracemalloc.start()
        try:
            write_csv(tmp_path / "s.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 100_001
        assert lines[0] == "period,prob0,outcome,in_domain"
        assert lines[-1] == "99999,0.99000000000000021,1,1"
