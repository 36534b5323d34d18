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
    format_number,
    run_mse_sweep,
    run_paired_slc,
    run_paired_tomography,
    trial_rng,
    write_csv,
)


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
        result = run_mse_sweep(2, [500], trials=1, seed=0)
        assert len(result.rows) == 1
        assert result.columns == ("N", "trial", "mse")

    def test_row_count_and_determinism(self):
        a = run_mse_sweep(2, [100, 1000], trials=3, seed=4)
        b = run_mse_sweep(2, [100, 1000], trials=3, seed=4)
        assert len(a.rows) == 6
        assert a.rows == b.rows

    def test_mixed_ensemble(self):
        result = run_mse_sweep(2, [500], trials=2, seed=1, ensemble="mixed")
        assert all(r[2] > 0 for r in result.rows)

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("ensemble", ["pure", "mixed"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_equals_the_per_trial_loop_bit_for_bit(self, dim, ensemble, weighting):
        from tests.oracles import mse_sweep_loop

        grid = [90 * dim, 900 * dim]
        result = run_mse_sweep(dim, grid, trials=6, seed=7, ensemble=ensemble, weighting=weighting)
        rows, means = mse_sweep_loop(dim, grid, 6, 7, ensemble, weighting)
        assert result.rows == rows
        assert result.aggregates["mean_mse"] == means

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            run_mse_sweep(2, [], trials=1, seed=0)
        with pytest.raises(ConfigError):
            run_mse_sweep(2, [100], trials=1, seed=0, ensemble="ghz")


class TestPairedTomography:
    def test_aggregates_and_determinism(self):
        schedule = AdaptiveSchedule(total=3000, stage1=1500, per_step=500, steps=3)
        a = run_paired_tomography(2, schedule, trials=4, seed=2, repetitions=2)
        b = run_paired_tomography(2, schedule, trials=4, seed=2, repetitions=2)
        assert a.rows == b.rows
        assert set(a.aggregates) == {"mean_adaptive", "mean_static", "mse_ratio", "win_rate"}

    def test_identical_strategy_ties(self):
        # same stream + same strategy must reproduce the identical metric
        from qest.harness import _sample_truth, _static_cube_mse

        truth = _sample_truth(2, trial_rng(3, 0, 0), "pure")
        a = _static_cube_mse(truth, 2000, trial_rng(3, 0, 2), "shots")
        b = _static_cube_mse(truth, 2000, trial_rng(3, 0, 2), "shots")
        assert a == b

    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    def test_one_stack_equals_one_stack_per_truth(self, weighting):
        # all trials' repetitions run as one stack; each truth's own stack gives the same bits
        from qest.adaptive import run_adaptive_protocol
        from qest.harness import _sample_truth, _static_cube_mse
        from qest.states import mse

        schedule = AdaptiveSchedule(total=2500, stage1=1000, per_step=500, steps=3)
        result = run_paired_tomography(2, schedule, trials=5, seed=12, weighting=weighting,
                                       repetitions=4)
        for t, row in enumerate(result.rows):
            truth = _sample_truth(2, trial_rng(12, t, 0), "pure")
            rho, _ = run_adaptive_protocol(truth, schedule, "continuum",
                                           [trial_rng(12, t, 1, rep) for rep in range(4)],
                                           weighting)
            static = _static_cube_mse(truth, 2500, [trial_rng(12, t, 2, rep) for rep in range(4)],
                                      weighting)
            assert row == (t, float(np.mean(mse(rho, truth))), float(np.mean(static)))


class TestStackedStaticArm:
    @pytest.mark.parametrize("weighting", ["shots", "invvar"])
    @pytest.mark.parametrize("members", [1, 20])
    def test_equals_the_per_repetition_loop(self, weighting, members):
        from qest.harness import _sample_truth, _static_cube_mse
        from tests.oracles import static_cube_mse_loop

        truth = _sample_truth(2, trial_rng(4, 0, 0), "pure")
        rngs = [trial_rng(4, 0, 2, rep) for rep in range(members)]
        stacked = _static_cube_mse(truth, 3000, rngs, weighting)
        for rep in range(members):
            ref_rng = trial_rng(4, 0, 2, rep)
            assert stacked[rep] == static_cube_mse_loop(truth, 3000, ref_rng, weighting)
            assert rngs[rep].random() == ref_rng.random()

    @pytest.mark.parametrize("candidates", ["continuum", "cube"])
    def test_paired_rows_equal_the_per_repetition_loop(self, candidates):
        from qest.harness import _sample_truth
        from qest.states import cube_povm
        from tests.oracles import adaptive_protocol_loop, static_cube_mse_loop

        schedule = AdaptiveSchedule(total=2000, stage1=1000, per_step=500, steps=2)
        result = run_paired_tomography(2, schedule, trials=2, seed=9, candidates=candidates,
                                       repetitions=3)
        oracle_candidates = "continuum" if candidates == "continuum" else cube_povm(2)
        for t, row in enumerate(result.rows):
            truth = _sample_truth(2, trial_rng(9, t, 0), "pure")
            adaptive = [adaptive_protocol_loop(truth, schedule, oracle_candidates,
                                               trial_rng(9, t, 1, rep), "invvar")[1][-1]["mse"]
                        for rep in range(3)]
            static = [static_cube_mse_loop(truth, 2000, trial_rng(9, t, 2, rep), "invvar")
                      for rep in range(3)]
            assert row == (t, float(np.mean(adaptive)), float(np.mean(static)))


class TestPairedSlc:
    def test_small_run_shapes(self):
        result = run_paired_slc(trials=2, seed=1, iterations=40, test_n=30)
        assert len(result.rows) == 2
        assert 0 <= result.aggregates["worst_case_win_rate"] <= 1
        assert result.aggregates["mean_test_over_train"] > 0.8


class TestEmit:
    def test_csv_and_manifest(self, tmp_path):
        result = SweepResult(columns=("a", "b"), rows=[(1, 2.5), (2, 3.0 / 7.0)],
                             aggregates={"mean": 0.5})
        paths = emit(result, tmp_path, name="t", config={"x": 1}, seed=9)
        text = paths["data"].read_text()
        assert text.splitlines()[0] == "a,b"
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["seed"] == 9
        assert manifest["config_hash"] == config_hash({"x": 1})

    def test_empty_result_gives_header_only(self, tmp_path):
        result = SweepResult(columns=("a", "b"), rows=[], aggregates={})
        paths = emit(result, tmp_path, name="empty")
        assert paths["data"].read_text() == "a,b\n"
        assert paths["manifest"].exists()

    def test_json_round_trip(self, tmp_path):
        rows = [(1, 0.1), (2, 0.2)]
        result = SweepResult(columns=("n", "v"), rows=rows, aggregates={"m": 0.15})
        paths = emit(result, tmp_path, name="j", fmt="json")
        payload = json.loads(paths["data"].read_text())
        assert payload["rows"] == [[1, 0.1], [2, 0.2]]
        assert payload["aggregates"]["m"] == 0.15

    def test_hash_changes_iff_config_changes(self):
        base = config_hash({"a": 1, "b": [1, 2]})
        assert base == config_hash({"b": [1, 2], "a": 1})
        assert base != config_hash({"a": 2, "b": [1, 2]})

    def test_number_formatting_round_trips(self):
        vals = [1 / 3, 1e-17, 123456.789, float(np.float64(0.1))]
        for v in vals:
            assert float(format_number(v)) == v
        assert format_number(7) == "7"
        assert [format_number(v) for v in (True, np.False_, np.int64(-3))] == ["1", "0", "-3"]

    def test_unknown_format(self, tmp_path):
        result = SweepResult(columns=("a",), rows=[], aggregates={})
        with pytest.raises(ConfigError):
            emit(result, tmp_path, fmt="parquet")

    def test_write_csv_deterministic_bytes(self, tmp_path):
        rows = [(1, 0.1234567890123456789), (2, 2e-300)]
        write_csv(tmp_path / "a.csv", ("x", "y"), rows)
        write_csv(tmp_path / "b.csv", ("x", "y"), rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_write_csv_streams_its_rows(self, tmp_path):
        # 10^5 rows from a generator, as smc-demo writes them; a writer that joins every
        # line before writing peaks near 14.6e6 bytes here, a streaming one near 4e4
        rows = ((k, "0.99000000000000021", k % 2, "1") for k in range(100_000))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "s.csv", ("period", "prob0", "outcome", "in_domain"), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 100_001
        assert lines[0] == "period,prob0,outcome,in_domain"
        assert lines[-1] == "99999,0.99000000000000021,1,1"
