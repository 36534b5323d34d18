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
    "tomo/tomo.json": "a1e99ab13dfdc2078643533d4d3d2ae26326237eba5825e39a5434c99d2ae61b",
    "sweep/mse_sweep.csv": "4ea8bbf95ddfa9c81fcc7c40d0957e5d12a8f64a3bb5d4f74eed0f9c2dc4906a",
    "sweep/mse_sweep.manifest.json": "a6142d3f2d422e851f435a22435c3bdfe1c1b8ffebb77b8fe2b5ff0f0ef5d9ae",
    "adapt/adapt.csv": "488b8ffd2c377865767dcb31c2f9f0d1626b7395b83876e171b0082e180039de",
    "hamid/hamid.json": "d5ad340c48809a914fd24323947d699193c17b0da0579e6c06975b35097fbef5",
    "smc/smc.csv": "585f9bf55181e7b5ab262c4c4f2b7aaeecdd9b5c25d1ac58d3c029186ec2f033",
    "slc/manifest.json": "91cab94a82a4f2e1518ab3486330087b55266bbc5c2f1e51008c9b5711d0d894",
    "slc/pulse.json": "c1baed1c2db0dc31258bf76941b1f9957328dc0263dd5146261a99e1d32698ca",
    "slc/test.csv": "e1a75cc40350cd04b8c281104e16973a4532ebe04b1c13f07fdd01cc347375eb",
    "slc/training_log.csv": "604b3ef96f5318bbf1c63324fc16ef23d08e360426efab24f623e947c43f9723",
    "compare/compare_tomography.csv": "e969640d8cb6ab8c197e1f90a82d24c245d3070222e20d7aff18bfab278df35a",
    "compare/compare_tomography.manifest.json": "e194ac36f32c705de46bfdbc58b9463310dc7fdda3135d594e8e56d7c7e43ed4",
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
