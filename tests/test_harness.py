import json

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
        a = _static_cube_mse(truth, 2, 2000, trial_rng(3, 0, 2), "shots")
        b = _static_cube_mse(truth, 2, 2000, trial_rng(3, 0, 2), "shots")
        assert a == b


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

    def test_unknown_format(self, tmp_path):
        result = SweepResult(columns=("a",), rows=[], aggregates={})
        with pytest.raises(ConfigError):
            emit(result, tmp_path, fmt="parquet")

    def test_write_csv_deterministic_bytes(self, tmp_path):
        rows = [(1, 0.1234567890123456789), (2, 2e-300)]
        write_csv(tmp_path / "a.csv", ("x", "y"), rows)
        write_csv(tmp_path / "b.csv", ("x", "y"), rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
