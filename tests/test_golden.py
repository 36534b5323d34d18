"""Golden SHA-256 digests of the CLI outputs of acceptance criterion 11.

Every output file of the seven commands below, at their fixed seeds, must keep
its bytes through refactors.  A deliberate output change updates the digest it
moves and names the change in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from qest.cli import main
from qest.linalg import matrix_to_json
from qest.states import (
    Records,
    cube_povms,
    random_density_matrix,
    records_to_csv,
    simulate_measurements,
)


def write_inputs(tmp_path) -> dict:
    """Write the commands' input files under tmp_path; return name -> argv without --out."""
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(matrix_to_json(np.diag([1.0, -1.0]))))
    slc_cfg = tmp_path / "slc.json"
    slc_cfg.write_text(json.dumps({
        "dim": 2,
        "H0": matrix_to_json(np.diag([1.0, -1.0])),
        "Hm": [matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))],
        "T": 2.0, "L": 10,
        "omega_halfwidth": 0.2, "theta_halfwidth": 0.2,
        "samples": {"grid": [2, 2]}, "iterations": 30,
        "test": {"random": [20, 5]},
    }))
    records_csv = tmp_path / "records.csv"
    rng = np.random.default_rng(11)
    truth = random_density_matrix(2, rng)
    records_to_csv(
        Records.concat(simulate_measurements(truth, povm, 2000, rng) for povm in cube_povms(2)),
        records_csv,
    )
    return {
        "tomo": ["tomo", "--records", str(records_csv), "--dim", "2"],
        "sweep": ["sweep", "--dim", "2", "--shots", "100,1000", "--trials", "3",
                  "--seed", "11"],
        "adapt": ["adapt", "--dim", "2", "--N", "2000", "--N1", "1000", "--K", "2",
                  "--candidates", "continuum", "--trials", "2", "--seed", "11"],
        "hamid": ["hamid", "--dim", "2", "--time", "0.3", "--true-h", str(h_path),
                  "--shots", "5000", "--seed", "11"],
        "smc": ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0",
                "--periods", "500", "--seed", "11"],
        "slc": ["slc", "--config", str(slc_cfg), "--seed", "11"],
        "compare": ["compare", "--kind", "tomography", "--N", "2000", "--N1", "1000",
                    "--N2", "500", "--K", "2", "--trials", "2", "--repetitions", "2",
                    "--seed", "11"],
    }


def run_command(name, args, target) -> list:
    """Run one command with its output at target; return its output files, sorted."""
    if name in ("sweep", "compare", "slc"):
        assert main(args + ["--out", str(target)]) == 0
        return sorted(target.iterdir())
    out = target.with_suffix(".csv" if name in ("adapt", "smc") else ".json")
    assert main(args + ["--out", str(out)]) == 0
    return [out]


GOLDEN = {
    "records.csv": "9bb7aa22d73745c66824c46e7a21dc58acf9ec23d4521bbcd134dffb16a165b1",
    "tomo/tomo.json": "53c6dfeebdbf4ebc0cc1e2613677568db98fc0b21146ae1496d11033c3c24b5d",
    "sweep/mse_sweep.csv": "3825a6b0767101c30b70bb19c6993a928ce5b526800d55fcd8ec53aa3236f3ba",
    "sweep/mse_sweep.manifest.json": "009147c01eab58c65f59957a3c57182b48aea25156d912c1473e3a8819ea7905",
    "adapt/adapt.csv": "6cfa9d70351122a7d6741014a6dae985f74c7f904d5ba810e116f03040201f7a",
    "hamid/hamid.json": "916f56b4b278e6e517703e18f45c6a1184b2dc64248fba51eccfb85ec751d793",
    "smc/smc.csv": "585f9bf55181e7b5ab262c4c4f2b7aaeecdd9b5c25d1ac58d3c029186ec2f033",
    "slc/manifest.json": "91cab94a82a4f2e1518ab3486330087b55266bbc5c2f1e51008c9b5711d0d894",
    "slc/pulse.json": "10b6dc25e9b232726adbf482ebf3109cdcad28ea4dc9e9c628cfcaa5ce4698e8",
    "slc/test.csv": "88f634c8fe14eeada5096e6757ab6f13687221d440317f1d1a8ebdc2c0099ec1",
    "slc/training_log.csv": "00a1a323e237f1361a5534c5bf53d141d758ef13ac6186628b1a894c34a3dd4d",
    "compare/compare_tomography.csv": "8332007d4b97c69c2769f20598f93ee59a66049887051c7959a7075ceb94de80",
    "compare/compare_tomography.manifest.json": "e9f9ea336d0cd2a23f3c2bbbb64855b84314bf14a3a45e53e3e7117d823ed5f6",
}


def test_records_csv_digest(tmp_path):
    write_inputs(tmp_path)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN["records.csv"]


@pytest.mark.parametrize("name", ["tomo", "sweep", "adapt", "hamid", "smc", "slc", "compare"])
def test_cli_output_digests(name, tmp_path):
    args = write_inputs(tmp_path)[name]
    digests = {
        f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_command(name, args, tmp_path / name)
    }
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}/")}
