"""Golden SHA-256 digests of the CLI outputs of acceptance criterion 11.

Every output file of the twenty-two commands below, at their fixed seeds, must keep
its bytes through refactors.  A deliberate output change updates the digest it
moves and names the change in CHANGES.md.

The five d >= 8 commands guard the sizes at which OpenBLAS changes its summation
order.  Their digests pin the BLAS they were recorded with, scipy-openblas 0.3.31
(as ``compare-cube``'s do).  ``sweep16``'s bytes also depend on the BLAS thread
count, so its digests are checked in a subprocess with one BLAS thread; ``slc20``'s (d = 2)
and ``slc8``'s (d = 8) are checked in subprocesses at one and at two.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qest
from qest.cli import main
from qest.linalg import matrix_to_json
from qest.states import random_density_matrix
from tests.oracles import (
    bloch_basis_povm,
    cube_labels,
    cube_povms,
    records_to_csv,
    simulate_measurements,
)


def bloch_label_povm(label):
    """The matrices (I +- n.sigma) / 2 of a ``bloch:`` label, its direction rescaled as
    ``qest.states.resolve_povm_label`` rescales it."""
    n = np.array([float(c) for c in label[len("bloch:"):].split(",")])
    scale = np.abs(n).max()
    return bloch_basis_povm(n if 2.0**-500 < scale < 2.0**500 else n / scale)


def write_inputs(tmp_path) -> dict:
    """Write the commands' input files under tmp_path; return name -> argv without --out."""
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps(matrix_to_json(np.diag([1.0, -1.0]))))
    slc = {
        "dim": 2,
        "H0": matrix_to_json(np.diag([1.0, -1.0])),
        "Hm": [matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))],
        "T": 2.0, "L": 10,
        "omega_halfwidth": 0.2, "theta_halfwidth": 0.2,
        "samples": {"grid": [2, 2]}, "iterations": 30,
        "test": {"random": [20, 5]},
    }
    slc_cfg = tmp_path / "slc.json"
    slc_cfg.write_text(json.dumps(slc))
    # the same task driven by sigma_x and sigma_y, two channels of one control stack
    slc_controls_cfg = tmp_path / "slc-controls.json"
    slc_controls_cfg.write_text(json.dumps(
        slc | {"Hm": slc["Hm"] + [matrix_to_json(np.array([[0.0, -1.0j], [1.0j, 0.0]]))]}))
    # d = 8: a linear drift, one nearest-neighbour hopping control, |0> -> |1>; the default
    # target |7> has a zero gradient at the start, and training would stop at once
    slc8_cfg = tmp_path / "slc8.json"
    slc8_cfg.write_text(json.dumps(slc | {
        "dim": 8, "H0": matrix_to_json(np.diag(np.linspace(-1.0, 1.0, 8))),
        "Hm": [matrix_to_json(np.eye(8, k=1) + np.eye(8, k=-1))],
        "psi_target": [[float(i == 1), 0.0] for i in range(8)],
    }))
    # the README qubit transfer task at the settings the slc_qubit benchmark times
    slc20_cfg = tmp_path / "slc20.json"
    slc20_cfg.write_text(json.dumps(slc | {
        "L": 20, "iterations": 200, "step": 10.0, "tolerance": 1e-9,
        "test": {"random": [200, 0]},
    }))
    records_csv = tmp_path / "records.csv"
    rng = np.random.default_rng(11)
    truth = random_density_matrix(2, rng)
    records_to_csv([(label, simulate_measurements(truth, povm, 2000, rng))
                    for label, povm in zip(cube_labels(2), cube_povms(2))], records_csv)
    # bloch: labels only, random, rescaled and near-axis directions
    bloch_csv = tmp_path / "records-bloch.csv"
    rng = np.random.default_rng(12)
    truth = random_density_matrix(2, rng)
    labels = ["bloch:" + ",".join(f"{c:.17g}" for c in n) for n in rng.normal(size=(6, 3))]
    labels += ["bloch:0,0,3", "bloch:1,1e-9,0", "bloch:1e-300,0,-1e-300"]
    records_to_csv([(label, simulate_measurements(truth, bloch_label_povm(label), 2000, rng))
                    for label in labels], bloch_csv)
    return {
        "tomo": ["tomo", "--records", str(records_csv), "--dim", "2"],
        "tomo-bloch": ["tomo", "--records", str(bloch_csv), "--dim", "2"],
        "sweep": ["sweep", "--dim", "2", "--shots", "100,1000", "--trials", "3",
                  "--seed", "11"],
        "sweep-json": ["sweep", "--dim", "2", "--shots", "100,1000", "--trials", "3",
                       "--seed", "11", "--format", "json"],
        "adapt": ["adapt", "--dim", "2", "--N", "2000", "--N1", "1000", "--K", "2",
                  "--candidates", "continuum", "--trials", "2", "--seed", "11"],
        "hamid": ["hamid", "--dim", "2", "--time", "0.3", "--true-h", str(h_path),
                  "--shots", "5000", "--seed", "11"],
        "hamid4": ["hamid", "--dim", "4", "--time", "0.5", "--shots", "2000", "--seed", "11"],
        "hamid-noiseless": ["hamid", "--dim", "4", "--time", "0.5", "--seed", "11"],
        "smc": ["smc-demo", "--p0", "0.1", "--eps", "0.1", "--tau", "3.0",
                "--periods", "500", "--seed", "11"],
        "slc": ["slc", "--config", str(slc_cfg), "--seed", "11"],
        "slc-controls": ["slc", "--config", str(slc_controls_cfg), "--seed", "11"],
        "slc20": ["slc", "--config", str(slc20_cfg), "--seed", "11"],
        "compare": ["compare", "--kind", "tomography", "--N", "2000", "--N1", "1000",
                    "--N2", "500", "--K", "2", "--trials", "2", "--repetitions", "2",
                    "--seed", "11"],
        # the adaptive_qubit benchmark's shape, and the continuum search under shot weights
        "compare20": ["compare", "--kind", "tomography", "--trials", "1", "--repetitions", "20",
                      "--seed", "11"],
        "compare-shots": ["compare", "--kind", "tomography", "--weights", "shots", "--N", "2000",
                          "--N1", "1000", "--N2", "500", "--K", "2", "--trials", "2",
                          "--repetitions", "2", "--seed", "11"],
        "compare-cube": ["compare", "--kind", "tomography", "--dim", "4", "--candidates", "cube",
                         "--N", "2100", "--N1", "900", "--N2", "600", "--K", "2", "--trials", "2",
                         "--repetitions", "2", "--seed", "11"],
        "compare-slc": ["compare", "--kind", "slc", "--trials", "2", "--seed", "11"],
        "sweep16": ["sweep", "--dim", "16", "--shots", "1000,10000", "--trials", "3",
                    "--seed", "11"],
        "adapt8": ["adapt", "--dim", "8", "--N", "5400", "--N1", "2700", "--K", "3",
                   "--candidates", "cube", "--trials", "2", "--seed", "11"],
        "compare8": ["compare", "--kind", "tomography", "--dim", "8", "--candidates", "cube",
                     "--N", "5400", "--N1", "2700", "--N2", "900", "--K", "3", "--trials", "2",
                     "--repetitions", "2", "--seed", "11"],
        "hamid8": ["hamid", "--dim", "8", "--time", "0.5", "--shots", "20000", "--seed", "11"],
        "slc8": ["slc", "--config", str(slc8_cfg), "--seed", "11"],
    }


def run_command(name, args, target) -> list:
    """Run one command with its output at target; return its output files, sorted."""
    if name in ("sweep", "sweep-json", "sweep16", "compare", "compare20", "compare-shots",
                "compare-cube", "compare-slc", "compare8", "slc", "slc-controls", "slc20", "slc8"):
        assert main(args + ["--out", str(target)]) == 0
        return sorted(target.iterdir())
    out = target.with_suffix(".csv" if name in ("adapt", "adapt8", "smc") else ".json")
    assert main(args + ["--out", str(out)]) == 0
    return [out]


GOLDEN = {
    "records.csv": "9bb7aa22d73745c66824c46e7a21dc58acf9ec23d4521bbcd134dffb16a165b1",
    # tomo, sweep, adapt, compare and the d >= 8 tomography digests were recorded once
    # the cube elements were the exact products of (I +- sigma_a) / 2
    "tomo/tomo.json": "1ea6361916a9a38af943549df0d365921d19da76a7b2f6d6a7d1ba62edcff202",
    # recorded once bloch: labels gave the rows +-n / (|n| sqrt(2)) directly, not the rows
    # of the matrices (I +- n.sigma) / 2; the records file is still drawn from the matrices
    "tomo-bloch/tomo-bloch.json": "afc16b78255451d987be8eeefed18e6c88a39c36857d1317e37600e1cbe30117",
    "sweep/mse_sweep.csv": "b92182214f8b9fca0e91c43ed2433fd4fb46f44bbd1c118a6d7bb702699b0350",
    "sweep/mse_sweep.manifest.json": "ab32d19f267544c6c8bfbb1e5321c9e64461741761a7c291abdaffecde93daf6",
    # recorded once JSON rows kept each column's type, so N and trial are JSON ints
    "sweep-json/mse_sweep.json": "40d7ef3f24bb0d1ad18e379fb0a15786a633c180485f459be3e23f2c4ed683aa",
    "sweep-json/mse_sweep.manifest.json":
        "ab32d19f267544c6c8bfbb1e5321c9e64461741761a7c291abdaffecde93daf6",
    "adapt/adapt.csv": "f110a6c8b7fe8a12850f288ffb67e8bb3efcf5faa4b3d9b9794c6e24d9502160",
    # the four hamid digests were recorded once identify_hamiltonian took its top
    # eigenvector by power iteration and estimate_lambda mapped probe outputs to the
    # units by index; hamid8's bytes are the same at one and two BLAS threads
    "hamid/hamid.json": "d899b502566d3fe0b28dbe98f467e1f14bdae450895bac823535ec57716b407f",
    "hamid4/hamid4.json": "8b0c83878101eccf2469cf5e1793512b80ce3cfafccbb044ceeeaa4a5bd00aab",
    "hamid-noiseless/hamid-noiseless.json":
        "4f7f93903cfbab4e1207a71dc01d2fc26f8d7fbb9c58205c776aacd3aff26b2b",
    # smc was recorded once 2 x 2 Hermitian eigenpairs came from a closed form, not from
    # LAPACK; its bytes held when herm_expm at d = 2 became the closed form of
    # qest.linalg.QubitExpm, which produces them now.  The d = 2 slc digests, compare-slc's
    # among them, were recorded once the SLC propagators and gradient at d = 2 came from the
    # Pauli coordinates of the generators, by the closed form of qest.linalg.QubitExpm, not
    # from eigenpairs; slc20's bytes are the same at one and two BLAS threads
    "smc/smc.csv": "dc2ff81786f6f013a7de858198e3b0663bcdd524a692e8408bdd69623c3591bc",
    "slc/manifest.json": "91cab94a82a4f2e1518ab3486330087b55266bbc5c2f1e51008c9b5711d0d894",
    "slc/pulse.json": "7de82de4eb252b91b39020f1707bdea5a02aa84e33860a897f8e1765f1a66473",
    "slc/test.csv": "308022b1de4bb60d7ad3a2cf7ec7c2de0044cfb33134ab8d400f247c521f7ebd",
    "slc/training_log.csv": "6bf376c3627299d4032acd15e4fa542b8f08eece5617090278f158b0c600a049",
    "slc-controls/manifest.json": "03e7db4dee9b245abc3a4a396678465e503144a2a7e6ad0111e084aeacdde71e",
    "slc-controls/pulse.json": "f989f2993abe2a2059365b9fc64c71441a55bb42c4373b64c2a334dc65672d6f",
    "slc-controls/test.csv": "59730d532db091a5fc8bc08dc0e9622e9dcaf2e19038dccf69ab9cd1442ad45d",
    "slc-controls/training_log.csv": "5d3da954110b96ed3e040f07a1af4a02d8af6d9c4469fa73f14a4a7ec6edf542",
    "slc20/manifest.json": "60c438fff26351e24dbdf823242095e31d9b26e284b2d47498c759e85b7469e1",
    "slc20/pulse.json": "15b21cd0aceed791b1c3df407ffb7ae1dc09799ba943ffca3a104ea9aaf3592b",
    "slc20/test.csv": "ef3f4a58f8bbe3a2865145335ec67b721afdd931aceb93544ab306f6a8f28450",
    "slc20/training_log.csv": "5a27998dde2a7de3528e699cb13e464c649db881a91b0e4debaa909ee6ea3022",
    "compare/compare_tomography.csv": "b5f982dae4c96140b3081ef943e811568796da4d722ae104c99eaa268cd04e1a",
    "compare/compare_tomography.manifest.json": "164621b6126a718ea5a2615f7a37f6805055d701193475c5311c937f54091308",
    # compare20, compare-cube, adapt8 and compare8 were recorded once the adaptive steps
    # measured in regression rows: continuum rows +-n / (|n| sqrt(2)), contiguous cube rows
    "compare20/compare_tomography.csv": "c33fd6368233dce32f6523d943d27c236d92cfe02bd31fcba67982862cf938d4",
    "compare20/compare_tomography.manifest.json":
        "f61c4a8da1a7a413a4c3f97f2425985aedac20c821a6e614693033ca560a1323",
    "compare-shots/compare_tomography.csv":
        "0d00af1400e59ec98519191295fdb82498ebc3bbf909f53a282084df905c68e6",
    "compare-shots/compare_tomography.manifest.json":
        "1f3689e33876c4de95e1b360a24c8dade6011a56376f428d088989b88a1cb185",
    "compare-cube/compare_tomography.csv": "d312373329dfdea045a34187616a8fc5064fc8c5d178ea048418ec614b06cf17",
    "compare-cube/compare_tomography.manifest.json": "215eda1851d78a4a76464de53f6bed3a780644cfcd33a32fc979b754117d674b",
    "compare-slc/compare_slc.csv": "8f54b6c47c74057f4a90e0a5a6436e66120c84eb5fb40d1fbb81973a7e57b6ee",
    "compare-slc/compare_slc.manifest.json":
        "3ad9f5105ff93d482f21ea02147b88074d1bae1789b54b58cfadbdb8942588b0",
    # at two BLAS threads sweep16 gives 2b1f85ec35fe09d4... and 290dc4173a641e67...
    "sweep16/mse_sweep.csv": "f97b29cf48f0dad0870a424f04b02332d5a270e25684d71f71371941451300fe",
    "sweep16/mse_sweep.manifest.json":
        "3dc3ff0e8e863718fc090aa426a62b907ce8b235d3c7d15e12f94888a89d6623",
    "adapt8/adapt8.csv": "96dcdebec32e7b22aca317d9fc702cac738cacd21e9817e6ea4f34ea2552162b",
    "compare8/compare_tomography.csv":
        "291645376eff660962bd1244b916b5c820188eceefe39c41bb49f786f06f49ca",
    "compare8/compare_tomography.manifest.json":
        "0857e39bd3dfc904a2f869a48fcf1ed0c965c959654982c95fd1168d554506d8",
    "hamid8/hamid8.json": "13bee13770f17da030371ad2bf20c4685c7814f817b3513f0389f957e120fd48",
    # slc8's bytes are the same at one and two BLAS threads
    "slc8/manifest.json": "c6898b3ec54eae067874d18be2d596b752cb869adc2b9fc626ae0efdb6c1b00c",
    "slc8/pulse.json": "6feb5a785816290055e1b6f1988aada9296c561b7732519cd2d40aa789584bce",
    "slc8/test.csv": "458024c052d8473ce76d2ff127de2134b7a453a2d5b3748bd167d67ceaa2d754",
    "slc8/training_log.csv": "c622ff2bea28027e7bfa3bac66f8257d8775382a5352e088b0598ffb2014adec",
}


def digests_of(name, paths) -> dict:
    return {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def golden_of(name) -> dict:
    return {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}/")}


def test_records_csv_digest(tmp_path):
    write_inputs(tmp_path)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN["records.csv"]


@pytest.mark.parametrize("name", ["tomo", "tomo-bloch", "sweep", "sweep-json", "adapt", "hamid",
                                  "hamid4", "hamid-noiseless", "smc", "slc", "slc-controls", "slc20",
                                  "compare", "compare20", "compare-shots", "compare-cube",
                                  "compare-slc", "adapt8", "compare8", "hamid8", "slc8"])
def test_cli_output_digests(name, tmp_path):
    args = write_inputs(tmp_path)[name]
    assert digests_of(name, run_command(name, args, tmp_path / name)) == golden_of(name)


def digests_in_subprocess(name, tmp_path, blas_threads) -> dict:
    """The digests of one command's outputs, run by the CLI in a new process with the
    given OpenBLAS thread count."""
    out = tmp_path / f"{name}-{blas_threads}"
    args = write_inputs(tmp_path)[name] + ["--out", str(out)]
    src = str(Path(qest.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = os.environ | {"OPENBLAS_NUM_THREADS": str(blas_threads), "PYTHONPATH": pythonpath}
    subprocess.run([sys.executable, "-m", "qest.cli", *args], env=env, check=True)
    return digests_of(name, sorted(out.iterdir()))


def test_sweep16_digests_at_one_blas_thread(tmp_path):
    assert digests_in_subprocess("sweep16", tmp_path, 1) == golden_of("sweep16")


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("name", ["slc20", "slc8"])
def test_slc_digests_at_one_and_two_blas_threads(tmp_path, name, blas_threads):
    assert digests_in_subprocess(name, tmp_path, blas_threads) == golden_of(name)
