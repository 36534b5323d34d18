import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import qest
from qest.cli import build_parser, main
from qest.linalg import matrix_from_json, matrix_to_json
from qest.states import (
    Records,
    cube_povms,
    mse,
    pure_to_density,
    random_pure_state,
)
from qest.tomography import tomography_pipeline
from tests.oracles import records_to_csv, simulate_measurements


def make_records_csv(path, seed=0, shots=4000):
    rng = np.random.default_rng(seed)
    truth = pure_to_density(random_pure_state(2, rng))
    records = Records.concat(simulate_measurements(truth, povm, shots, rng) for povm in cube_povms(2))
    records_to_csv(records, path)
    return truth, records


class TestTomoCommand:
    def test_matches_library_pipeline(self, tmp_path):
        csv_path = tmp_path / "records.csv"
        out_path = tmp_path / "out.json"
        truth, records = make_records_csv(csv_path)
        assert main(["tomo", "--records", str(csv_path), "--dim", "2",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        rho_cli = matrix_from_json(payload["state"])
        rho_lib, _, _ = tomography_pipeline(records, 2)
        assert np.linalg.norm(rho_cli - rho_lib) <= 1e-12
        assert mse(rho_cli, truth) < 0.05

    @pytest.mark.parametrize("row, message", [
        ("cube:x,0,100,nan", "successes"), ("cube:x,0,100,inf", "successes"),
        ("cube:x,0,100,-5", "successes"), ("cube:x,0,100,500", "successes"),
        ("cube:x,0", "line 2"), ("cube:x,0,100,50,7", "line 2"),
    ], ids=["nan", "inf", "-5", "500", "missing-fields", "extra-field"])
    def test_bad_counts_are_one_config_error(self, row, message, tmp_path, capsys):
        rows = [f"cube:{axis},{j},100,50" for axis in "xyz" for j in (0, 1)]
        rows[0] = row
        csv_path = tmp_path / "records.csv"
        csv_path.write_text("\n".join(["povm,element,shots,successes"] + rows) + "\n")
        code = main(["tomo", "--records", str(csv_path), "--dim", "2",
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("qest: error: config:") and err.count("\n") == 1
        assert message in err

    def test_missing_file_is_config_error(self, tmp_path):
        code = main(["tomo", "--records", str(tmp_path / "nope.csv"), "--dim", "2",
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_informationally_incomplete_is_contract_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        truth = pure_to_density(random_pure_state(2, rng))
        records = simulate_measurements(truth, cube_povms(2)[2], 100, rng)
        csv_path = tmp_path / "records.csv"
        records_to_csv(records, csv_path)
        code = main(["tomo", "--records", str(csv_path), "--dim", "2",
                     "--out", str(tmp_path / "o.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qest: error: contract:") and err.count("\n") == 1


class TestAdaptCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ["adapt", "--dim", "2", "--N", "2000", "--N1", "1000", "--K", "2",
                "--candidates", "continuum", "--trials", "2", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "trial,step,copies_used,trace_Q,mse"

    def test_indivisible_budget_rejected(self, tmp_path):
        code = main(["adapt", "--dim", "2", "--N", "2001", "--N1", "1000", "--K", "2",
                     "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestHamidCommand:
    def test_noiseless_round_trip(self, tmp_path):
        h_path = tmp_path / "h.json"
        sz = np.diag([1.0, -1.0]).astype(complex)
        h_path.write_text(json.dumps(matrix_to_json(sz)))
        out = tmp_path / "out.json"
        assert main(["hamid", "--dim", "2", "--time", "0.3", "--true-h", str(h_path),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["recovery_error"] <= 1e-8
        assert np.linalg.norm(matrix_from_json(payload["hamiltonian"]) - sz) <= 1e-8

    def test_sampled_mode_runs(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["hamid", "--dim", "2", "--time", "0.4", "--shots", "20000",
                     "--seed", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["recovery_error"] < 0.2

    def test_four_qubit_noiseless_round_trip(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["hamid", "--dim", "16", "--time", "0.5", "--shots", "noiseless",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["recovery_error"] <= 1e-8

    def test_too_few_copies_is_one_contract_error(self, tmp_path, capsys):
        # 5 copies reach 5 of the 9 two-qubit cube bases; 5 Paulis stay unmeasured
        code = main(["hamid", "--dim", "4", "--time", "0.5", "--shots", "5", "--seed", "1",
                     "--out", str(tmp_path / "o.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qest: error: contract:") and err.count("\n") == 1
        assert "null-space dimension 5;" in err

    def test_dimension_mismatch_rejected(self, tmp_path):
        h_path = tmp_path / "h.json"
        h_path.write_text(json.dumps(matrix_to_json(np.eye(3))))
        code = main(["hamid", "--dim", "2", "--time", "0.3", "--true-h", str(h_path),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2

    @pytest.mark.parametrize("matrix", [
        {"rows": 2, "cols": 2, "data": [[True, 0], [0, 0], [0, 0], [-1, 0]]},
        {"rows": 2, "cols": 2, "data": [[1, 0], [0, False], [0, 0], [-1, 0]]},
        {"rows": 2.5, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
        {"rows": 2, "cols": True, "data": [[1, 0], [0, 0]]},
        {"rows": False, "cols": 2, "data": []},
    ], ids=["entry-true", "entry-false", "rows-fraction", "cols-bool", "rows-bool"])
    def test_malformed_true_h_is_one_config_error(self, matrix, tmp_path, capsys):
        h_path = tmp_path / "h.json"
        h_path.write_text(json.dumps(matrix))
        assert_one_config_error(["hamid", "--dim", "2", "--time", "0.3", "--true-h", str(h_path),
                                 "--out", str(tmp_path / "o.json")], capsys)


class TestSlcCommand:
    def config(self, **overrides):
        cfg = {
            "dim": 2,
            "H0": matrix_to_json(np.diag([1.0, -1.0])),
            "Hm": [matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))],
            "T": 2.0,
            "L": 10,
            "omega_halfwidth": 0.2,
            "theta_halfwidth": 0.2,
            "samples": {"grid": [2, 2]},
            "iterations": 40,
            "step": 10.0,
            "tolerance": 1e-9,
            "test": {"random": [20, 7]},
        }
        cfg.update(overrides)
        return cfg

    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.config()))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["slc", "--config", str(cfg_path), "--seed", "2", "--out", str(out_a)]) == 0
        assert main(["slc", "--config", str(cfg_path), "--seed", "2", "--out", str(out_b)]) == 0
        for name in ("training_log.csv", "test.csv", "pulse.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        log = (out_a / "training_log.csv").read_text().splitlines()
        assert log[0] == "iter,JN"
        jn = [float(line.split(",")[1]) for line in log[1:]]
        assert all(b >= a for a, b in zip(jn, jn[1:]))
        pulse = json.loads((out_a / "pulse.json").read_text())
        assert len(pulse["amplitudes"]) == 10

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.config(optimizer="adam")))
        assert main(["slc", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_key_rejected(self, tmp_path):
        cfg = self.config()
        del cfg["H0"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["slc", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


class TestSmcDemoCommand:
    def test_summary_and_log(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        assert main(["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0",
                     "--periods", "500", "--seed", "4", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["predicted_leak"] == pytest.approx(np.sin(0.3) ** 2)
        lines = out.read_text().splitlines()
        assert lines[0] == "period,prob0,outcome,in_domain"
        assert len(lines) == 501

    def test_stdout_determinism(self, capsys):
        main(["smc-demo", "--p0", "0.2", "--eps", "0.05", "--tau", "2.0",
              "--periods", "300", "--seed", "8"])
        first = capsys.readouterr().out
        main(["smc-demo", "--p0", "0.2", "--eps", "0.05", "--tau", "2.0",
              "--periods", "300", "--seed", "8"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["hamid", "--dim", "2", "--time", "0"],
    ["hamid", "--dim", "0", "--time", "0.5"],
    ["hamid", "--dim", "1", "--time", "0.5"],
    ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0", "--periods", "0"],
    ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0", "--periods", "-1"],
    ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "inf", "--periods", "3"],
    ["smc-demo", "--p0", "0.1", "--eps", "nan", "--tau", "3.0", "--periods", "3"],
    ["smc-demo", "--p0", "0.1", "--eps", "1e200", "--tau", "1e200", "--periods", "3"],
    ["adapt", "--N", "2000", "--N1", "1000", "--K", "2", "--trials", "0"],
    ["hamid", "--dim", "2", "--time", "0.5", "--shots", str(10**22)],
    ["sweep", "--dim", "2", "--shots", str(10**23), "--trials", "1"],
    ["adapt", "--dim", "2", "--N", str(10**23), "--N1", str(10**23), "--K", "0"],
    ["sweep", "--dim", "2", "--shots", "100,100", "--trials", "1"],
    ["sweep", "--dim", "4", "--shots", "100,1000,100", "--trials", "1"],
    *([command, "--dim", dim, *rest] for dim in ("0", "-3") for command, *rest in (
        ["sweep", "--shots", "100,1000"], ["adapt", "--N", "2000", "--N1", "1000", "--K", "2"],
        ["compare", "--kind", "tomography", "--candidates", "cube"])),
], ids=["hamid-time-0", "hamid-dim-0", "hamid-dim-1", "smc-periods-0", "smc-periods-neg",
        "smc-tau-inf", "smc-eps-nan", "smc-eps-tau-overflow", "adapt-trials-0",
        "hamid-shots-beyond-int64", "sweep-shots-beyond-int64", "adapt-N1-beyond-int64",
        "sweep-shots-repeated", "sweep-shots-repeated-apart",
        *(f"{command}-dim-{dim}" for dim in ("0", "neg")
          for command in ("sweep", "adapt", "compare"))])
def test_out_of_range_argument_is_one_config_error(argv, tmp_path, capsys):
    if argv[0] in ("hamid", "adapt", "sweep", "compare"):
        argv = argv + ["--out", str(tmp_path / "o.out")]
    assert_one_config_error(argv, capsys)


@pytest.mark.parametrize("dim", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--shots", "100"],
    ["adapt", "--N", "10", "--N1", "10", "--K", "0"],
    ["compare", "--kind", "tomography"],
], ids=["sweep", "adapt", "compare"])
def test_dim_below_two_is_named(argv, dim, tmp_path, capsys):
    assert main(argv + ["--dim", dim, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "qest: error: config: --dim must be at least 2\n"


_ZERO_STATE = [[0.0, 0.0], [0.0, 0.0]]
_NUMBER_KEYS = ("T", "L", "dim", "step", "iterations", "tolerance", "omega_halfwidth",
                "theta_halfwidth")


@pytest.mark.parametrize("overrides", [
    {"T": float("inf")}, {"T": float("nan")}, {"psi0": _ZERO_STATE}, {"psi_target": _ZERO_STATE},
    {"psi0": [[float("nan"), 0.0], [1.0, 0.0]]}, {"psi_target": [[float("inf"), 0.0], [1.0, 0.0]]},
    {"step": 0.0}, {"step": float("nan")}, {"step": float("inf")}, {"iterations": -5},
    {"tolerance": float("nan")}, {"iterations": float("inf")}, {"L": float("inf")},
    {"samples": {"grid": [float("inf"), 2]}}, {"psi0": [["a", 0.0], [1.0, 0.0]]},
    {"H0": {"rows": 2, "cols": 2, "data": [["a", 0.0], [0, 0], [0, 0], [-1, 0]]}},
    {"psi0": [[True, 0], [0, False]]}, {"psi_target": [[0, 0], [1, True]]},
    {"H0": {"rows": 2, "cols": 2, "data": [[True, 0], [0, 0], [0, 0], [-1, 0]]}},
    {"Hm": [{"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [1, False], [0, 0]]}]},
    {"H0": {"rows": 2.5, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]}},
    {"H0": {"rows": True, "cols": 4, "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]}},
    {"Hm": [{"rows": 2, "cols": 2.0001, "data": [[0, 0], [1, 0], [1, 0], [0, 0]]}]},
    {"T": 1e308, "L": 1},
    *({key: value} for key in _NUMBER_KEYS for value in (None, [1], True, "2")),
    {"samples": {"grid": [None, 2]}}, {"samples": {"grid": [[2], 2]}}, {"samples": {"grid": None}},
    {"test": {"random": [20, None]}}, {"test": {"random": [[20], 7]}},
    {"dim": 0}, {"Hm": None}, 5, None,
    {"Hm": [matrix_to_json(np.eye(1))]}, {"Hm": [matrix_to_json(np.eye(3))]},
    {"dim": 2.5}, {"L": 20.7}, {"iterations": 1.7}, {"samples": {"grid": [2.5, 2]}},
    {"test": {"random": [20, 7.5]}},
], ids=["T-inf", "T-nan", "psi0-zero", "target-zero", "psi0-nan", "target-inf", "step-0",
        "step-nan", "step-inf", "iterations-neg", "tolerance-nan", "iterations-inf", "L-inf",
        "grid-inf", "psi0-string", "H0-string", "psi0-bool", "target-bool", "H0-bool",
        "Hm-bool", "H0-rows-fraction", "H0-rows-bool", "Hm-cols-fraction", "T-huge",
        *(f"{key}-{kind}" for key in _NUMBER_KEYS for kind in ("null", "list", "bool", "str")),
        "grid-entry-null", "grid-entry-list", "grid-null", "random-entry-null",
        "random-entry-list", "dim-0", "Hm-null", "config-number", "config-null",
        "Hm-1x1", "Hm-3x3", "dim-fraction", "L-fraction", "iterations-fraction",
        "grid-entry-fraction", "random-entry-fraction"])
def test_out_of_range_slc_config_is_one_config_error(overrides, tmp_path, capsys):
    # a dict overrides keys of the valid config; anything else replaces the whole file
    cfg = TestSlcCommand().config(**overrides) if isinstance(overrides, dict) else overrides
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert_one_config_error(["slc", "--config", str(cfg_path), "--out", str(tmp_path / "o")], capsys)


def assert_one_config_error(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qest: error: config:") and captured.err.count("\n") == 1


class TestSweepAndCompare:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--dim", "2", "--shots", "100,1000", "--trials", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        data = (out / "mse_sweep.csv").read_text().splitlines()
        assert data[0] == "N,trial,mse"
        assert len(data) == 5
        manifest = json.loads((out / "mse_sweep.manifest.json").read_text())
        assert manifest["config"]["shots"] == [100, 1000]

    def test_compare_tomography(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--kind", "tomography", "--N", "2000", "--N1", "1000",
                     "--N2", "500", "--K", "2", "--trials", "2", "--repetitions", "2",
                     "--seed", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "compare_tomography.manifest.json").read_text())
        assert "win_rate" in manifest["aggregates"]

    @pytest.mark.parametrize("dim", [2, 4])
    def test_compare_tomography_cube_candidates(self, dim, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--kind", "tomography", "--candidates", "cube", f"--dim={dim}",
                     "--N", "2700", "--N1", "900", "--N2", "600", "--K", "3", "--trials", "2",
                     "--repetitions", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "compare_tomography.manifest.json").read_text())
        assert manifest["rows"] == 2 and manifest["config"]["candidates"] == "cube"

    def test_compare_tomography_cube_candidates_need_qubits(self, tmp_path, capsys):
        code = main(["compare", "--kind", "tomography", "--candidates", "cube", "--dim", "3",
                     "--out", str(tmp_path / "cmp")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("qest: error: config:")

    def test_compare_slc(self, tmp_path):
        out = tmp_path / "cmps"
        assert main(["compare", "--kind", "slc", "--trials", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "compare_slc.manifest.json").read_text())
        assert "worst_case_win_rate" in manifest["aggregates"]


def _run_main(argv, out, capsys):
    """(exit code, stdout, stderr, output bytes) of one in-process CLI call writing to out."""
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
    return (code, captured.out, captured.err,
            [(str(p.relative_to(out)), p.read_bytes()) for p in files])


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    runs = [
        ["hamid", "--dim", "2", "--time", "0.4", "--shots", "500", "--seed", "2"],
        ["adapt", "--dim", "2", "--N", "2000", "--N1", "1000", "--K", "2", "--trials", "1"],
        ["hamid", "--dim", "two", "--time", "0.4"],
        ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0", "--periods", "50"],
        ["adapt", "--dim", "2", "--N", "2001", "--N1", "1000", "--K", "2", "--trials", "1"],
        ["sweep", "--dim", "2", "--shots", "100,1000", "--trials", "1", "--seed", "3"],
        ["adapt", "--dim", "2", "--N", "2000", "--N1", "1000", "--K", "2", "--N2", "500",
         "--weights", "shots", "--trials", "1"],
        ["hamid", "--dim", "4", "--time", "0.5", "--shots", "5", "--seed", "1"],
    ]
    fresh = []
    for i, argv in enumerate(runs):
        build_parser.cache_clear()
        fresh.append(_run_main(argv, tmp_path / f"fresh{i}", capsys))
    assert [r[0] for r in fresh] == [0, 0, 2, 0, 2, 0, 0, 3]
    build_parser.cache_clear()
    # every subcommand twice, alternating, through the one parser built by the first call
    cached = [_run_main(argv, tmp_path / f"cached{n}_{i}", capsys)
              for n in range(2) for i, argv in enumerate(runs)]
    assert cached == fresh + fresh
    assert build_parser.cache_info().misses == 1


# Numeric CLI arguments: edge values (0, negatives, nan, inf, overflow) or a typical range.
_EDGES = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf"), 1e300])


# Runs in a fresh interpreter in which every scipy import fails.
_SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
import qest
from qest.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(n for n, m in sys.modules.items() if n.partition(".")[0] == "scipy" and m)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_runtime_needs_numpy_only(tmp_path):
    make_records_csv(tmp_path / "records.csv")
    cfg_path = tmp_path / "slc.json"
    cfg_path.write_text(json.dumps(TestSlcCommand().config(iterations=5)))
    runs = [
        ["hamid", "--dim", "4", "--time", "0.5", "--out", str(tmp_path / "h.json")],
        ["hamid", "--dim", "4", "--time", "0.5", "--shots", "2000", "--out", str(tmp_path / "hs.json")],
        ["tomo", "--records", str(tmp_path / "records.csv"), "--dim", "2",
         "--out", str(tmp_path / "t.json")],
        ["slc", "--config", str(cfg_path), "--out", str(tmp_path / "slc")],
    ]
    src = str(Path(qest.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(runs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}


def _floats(lo, hi):
    return st.one_of(_EDGES, st.floats(min_value=lo, max_value=hi))


def _contract_holds(argv):
    """Run one CLI call in process and check the exit-code and stderr contract.

    A warning counts as a stderr line, since the installed CLI prints it there.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "out")])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(lines) <= 1
    assert all(line.startswith("qest: error:") for line in lines)


_PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)
# Hypothesis also caches source constants on disk, database or not; keep that
# cache in the system temp directory rather than a .hypothesis/ in the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qest-hypothesis")


@_PROPERTY
@given(p0=_floats(0.0, 1.0), eps=_floats(-10.0, 10.0), tau=_floats(-10.0, 10.0),
       periods=st.integers(-2, 20))
@example(p0=0.1, eps=0.1, tau=float("inf"), periods=3)
def test_smc_demo_contract_property(p0, eps, tau, periods):
    _contract_holds(["smc-demo", f"--p0={p0!r}", f"--eps={eps!r}", f"--tau={tau!r}",
                     f"--periods={periods}"])


@_PROPERTY
@given(dim=st.integers(2, 3), time=_floats(-10.0, 10.0), seed=st.integers(0, 3))
@example(dim=2, time=2.225073858507203e-309, seed=0)
def test_hamid_contract_property(dim, time, seed):
    _contract_holds(["hamid", f"--dim={dim}", f"--time={time!r}", f"--seed={seed}"])


@_PROPERTY
@given(dim=st.sampled_from([2, 4]),
       shots=st.sampled_from([0, 1, 2, 3, 27, 10**9, 2**63, 10**22, "1e3", "nan", "abc"]),
       seed=st.integers(0, 3))
def test_sampled_hamid_contract_property(dim, shots, seed):
    _contract_holds(["hamid", f"--dim={dim}", "--time=0.5", f"--shots={shots}", f"--seed={seed}"])


@_PROPERTY
@given(n1=st.one_of(st.integers(-10, 2000), st.sampled_from([2**63, 10**22])),
       k=st.integers(-2, 4), n2=st.integers(-5, 500),
       budget_gap=st.one_of(st.just(0), st.integers(-5, 5)), pass_n2=st.booleans(),
       trials=st.integers(-1, 2), candidates=st.sampled_from(["cube", "continuum"]),
       weights=st.sampled_from(["shots", "invvar"]))
@example(n1=1000, k=2, n2=500, budget_gap=0, pass_n2=False, trials=0, candidates="cube",
         weights="invvar")
def test_adapt_contract_property(n1, k, n2, budget_gap, pass_n2, trials, candidates, weights):
    # N = N1 + K * N2 (+ a gap that breaks the budget) so that valid schedules occur often
    argv = ["adapt", f"--N={n1 + k * n2 + budget_gap}", f"--N1={n1}", f"--K={k}",
            f"--trials={trials}", f"--candidates={candidates}", f"--weights={weights}"]
    _contract_holds(argv + ([f"--N2={n2}"] if pass_n2 else []))


@_PROPERTY
@given(dim=st.sampled_from([-1, 0, 2, 3, 4]), n1=st.integers(-1, 60), k=st.integers(-1, 3),
       n2=st.integers(-1, 40), budget_gap=st.one_of(st.just(0), st.integers(-3, 3)),
       trials=st.integers(0, 2), repetitions=st.integers(0, 3),
       candidates=st.sampled_from(["cube", "continuum"]),
       weights=st.sampled_from(["shots", "invvar"]))
@example(dim=2, n1=30, k=2, n2=10, budget_gap=0, trials=1, repetitions=2, candidates="cube",
         weights="invvar")
@example(dim=0, n1=30, k=2, n2=10, budget_gap=0, trials=1, repetitions=2, candidates="cube",
         weights="shots")
@example(dim=4, n1=60, k=1, n2=40, budget_gap=0, trials=1, repetitions=2, candidates="cube",
         weights="shots")
def test_compare_tomography_contract_property(dim, n1, k, n2, budget_gap, trials, repetitions,
                                              candidates, weights):
    # N = N1 + K * N2 (+ a gap that breaks the budget) so that valid schedules occur often
    _contract_holds(["compare", "--kind=tomography", f"--dim={dim}", f"--N={n1 + k * n2 + budget_gap}",
                     f"--N1={n1}", f"--N2={n2}", f"--K={k}", f"--trials={trials}",
                     f"--repetitions={repetitions}", f"--candidates={candidates}",
                     f"--weights={weights}"])


_GRID_VALUE = st.sampled_from(["0", "-5", "1", "9", "100", "1000", str(10**23), "abc", "1e3",
                               "2.5", ""])


@_PROPERTY
@given(dim=st.sampled_from([2, 4]), grid=st.lists(_GRID_VALUE, min_size=1, max_size=4),
       trials=st.integers(-1, 2), weights=st.sampled_from(["shots", "invvar"]))
@example(dim=2, grid=["100", "100"], trials=1, weights="shots")
def test_sweep_contract_property(dim, grid, trials, weights):
    _contract_holds(["sweep", f"--dim={dim}", f"--shots={','.join(grid)}",
                     f"--trials={trials}", f"--weights={weights}"])


_AMPLITUDE = _floats(-2.0, 2.0)


@_PROPERTY
@given(horizon=_floats(0.0, 5.0), intervals=st.integers(-1, 4), iterations=st.integers(-2, 3),
       step=_floats(-1.0, 20.0), tolerance=_floats(-1.0, 1.0), halfwidth=_floats(0.0, 1.0),
       grid=st.integers(-1, 3), test_n=st.integers(-1, 5), psi0=_AMPLITUDE, target=_AMPLITUDE)
@example(horizon=float("inf"), intervals=2, iterations=1, step=10.0, tolerance=1e-9,
         halfwidth=0.2, grid=2, test_n=3, psi0=1.0, target=1.0)
@example(horizon=2.0, intervals=2, iterations=1, step=10.0, tolerance=1e-9,
         halfwidth=0.2, grid=2, test_n=3, psi0=0.0, target=1.0)
def test_slc_contract_property(horizon, intervals, iterations, step, tolerance, halfwidth,
                               grid, test_n, psi0, target):
    cfg = TestSlcCommand().config(
        T=horizon, L=intervals, iterations=iterations, step=step, tolerance=tolerance,
        omega_halfwidth=halfwidth, theta_halfwidth=halfwidth, samples={"grid": [grid, grid]},
        test={"random": [test_n, 0]}, psi0=[[psi0, 0.0], [0.0, 0.0]],
        psi_target=[[0.0, 0.0], [target, 0.0]],
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        _contract_holds(["slc", "--config", str(cfg_path)])


# Full valid argument lists per subcommand; the parser never runs a command below.
_OUT = "--out=unused.out"
_VALID_ARGV = {
    "tomo": ["--records=r.csv", "--dim=2", _OUT],
    "adapt": ["--N=2000", "--N1=1000", "--K=2", _OUT],
    "hamid": ["--dim=2", "--time=0.5", _OUT],
    "slc": ["--config=c.json", _OUT],
    "smc-demo": ["--p0=0.1", "--eps=0.1", "--tau=3.0"],
    "sweep": ["--shots=100", _OUT],
    "compare": ["--kind=slc", _OUT],
}
# (subcommand, typed option, its type) for the wrong-typed-value property
_TYPED_OPTIONS = [("hamid", "--dim", int), ("hamid", "--time", float), ("adapt", "--N", int),
                  ("sweep", "--trials", int), ("smc-demo", "--periods", int)]


def _option_strings(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {s for a in subparsers.choices[command]._actions for s in a.option_strings}


def _rejected_by(kind, text):
    try:
        kind(text)
    except ValueError:
        return True
    return False


def _one_argparse_config_error(argv):
    """The parser rejects argv: exit 2 and one `qest: error: config:` line, no usage text."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("qest: error: config:")
    assert "usage:" not in err.getvalue()


@_PROPERTY
@given(option=st.sampled_from(_TYPED_OPTIONS), data=st.data())
def test_wrong_typed_value_is_one_config_error(option, data):
    command, flag, kind = option
    value = data.draw(
        st.one_of(st.sampled_from(["two", "1.5", "1e3", "0x10", "", " ", "nan?"]), st.text(max_size=8))
        .filter(lambda text: _rejected_by(kind, text)))
    _one_argparse_config_error([command, *_VALID_ARGV[command], f"{flag}={value}"])


@_PROPERTY
@given(command=st.text(max_size=10).filter(
    lambda text: text not in _VALID_ARGV and not text.startswith("-")))
@example(command="frob")
def test_unknown_subcommand_is_one_config_error(command):
    _one_argparse_config_error([command, "--dim=2"])


def test_no_subcommand_is_one_config_error():
    _one_argparse_config_error([])


@pytest.mark.parametrize("argv", [["--help"], ["hamid", "--help"], ["sweep", "-h"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qest") and captured.err == ""


@_PROPERTY
@given(command=st.sampled_from(sorted(_VALID_ARGV)), data=st.data())
def test_missing_required_option_is_one_config_error(command, data):
    argv = _VALID_ARGV[command]
    dropped = data.draw(st.integers(0, len(argv) - 1))
    rest = data.draw(st.permutations(argv[:dropped] + argv[dropped + 1:]))
    _one_argparse_config_error([command, *rest])


@_PROPERTY
@given(command=st.sampled_from(sorted(_VALID_ARGV)),
       extra=st.text("abcdefghijklmnopqrstuvwxyzKN0123456789-_", min_size=1, max_size=8),
       dashes=st.sampled_from(["--", ""]))
@example(command="hamid", extra="bogus", dashes="--")
@example(command="adapt", extra="format", dashes="--")
def test_unknown_option_is_one_config_error(command, extra, dashes):
    token = dashes + extra
    # argparse accepts any unambiguous prefix of a known option, --help included
    assume(not any(option.startswith(token) for option in _option_strings(command)))
    _one_argparse_config_error([command, *_VALID_ARGV[command], f"{token}=1"])
