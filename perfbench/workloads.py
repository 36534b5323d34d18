"""The benchmark's workloads: per-unit inputs, `qest` CLI arguments and output oracles.

A unit is one `qest` CLI call.  Its inputs derive from the workload seed and
the unit index only, so the same seed always replays the same units.  Each
`check` validates the unit's output files with code that does not import
`qest`, raises `CheckFailed` on a miss, and returns the unit's quality loss.

Every run completes at least a workload's `fixed_units` units, whatever the
machine's speed: its quality loss and its prefix digest cover exactly those,
so both depend on the seed alone.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class CheckFailed(Exception):
    """A unit's output failed its oracle."""


def unit_seed(seed: int, index: int, stream: int) -> int:
    return int(np.random.default_rng([seed, index, stream]).integers(2**31))


def matrix_json(a: np.ndarray) -> dict:
    """The CLI's matrix schema: column-stacked [re, im] pairs."""
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in a.ravel(order="F")]}


def matrix_from(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape((obj["rows"], obj["cols"]), order="F")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class SlcQubit:
    """`qest slc` on the README qubit-transfer task |0> -> |1>."""

    name = "slc_qubit"
    fixed_units = 18
    fidelity_tol = 1e-9

    def prepare(self, seed, index, in_dir, out_dir):
        config = {
            "dim": 2, "H0": matrix_json(SIGMA_Z), "Hm": [matrix_json(SIGMA_X)],
            "T": 2.0, "L": 20, "omega_halfwidth": 0.2, "theta_halfwidth": 0.2,
            "samples": {"grid": [2, 2]}, "iterations": 200, "step": 10.0, "tolerance": 1e-9,
            "test": {"random": [200, unit_seed(seed, index, 1)]},
        }
        path = in_dir / "slc.json"
        path.write_text(json.dumps(config))
        argv = ["slc", "--config", str(path), "--seed", str(unit_seed(seed, index, 0)),
                "--out", str(out_dir)]
        return argv, config

    def check(self, out_dir: Path, config) -> float:
        log = [row["JN"] for row in read_csv(out_dir / "training_log.csv")]
        require(len(log) >= 1, "empty training log")
        require(all(b >= a for a, b in zip(log, log[1:])), "training log decreases")
        pulse = json.loads((out_dir / "pulse.json").read_text())
        amps = np.asarray(pulse["amplitudes"], dtype=float)[:, 0]
        rows = read_csv(out_dir / "test.csv")
        require(len(rows) == config["test"]["random"][0], "wrong number of test samples")
        omega = np.array([r["omega"] for r in rows])
        theta = np.array([r["theta"] for r in rows])
        reported = np.array([r["fidelity"] for r in rows])
        # independent oracle: scipy's Pade expm of the full Hamiltonian per interval
        dt = pulse["horizon"] / amps.size
        h = (omega[:, None, None, None] * SIGMA_Z
             + (theta[:, None] * amps[None, :])[:, :, None, None] * SIGMA_X)
        props = scipy.linalg.expm(-1j * dt * h)
        psi = np.zeros((omega.size, 2), dtype=complex)
        psi[:, 0] = 1.0
        for k in range(amps.size):
            psi = np.einsum("nij,nj->ni", props[:, k], psi)
        fidelity = np.abs(psi[:, 1]) ** 2
        require(bool(np.all(np.abs(fidelity - reported) <= self.fidelity_tol)),
                "test fidelities differ from the scipy recomputation")
        return float(1.0 - reported.mean())


class AdaptiveQubit:
    """`qest compare --kind tomography` at the CLI defaults, one truth, 20 repetitions."""

    name = "adaptive_qubit"
    fixed_units = 40

    def prepare(self, seed, index, in_dir, out_dir):
        argv = ["compare", "--kind", "tomography", "--trials", "1", "--repetitions", "20",
                "--seed", str(unit_seed(seed, index, 0)), "--out", str(out_dir)]
        return argv, None

    def check(self, out_dir: Path, _) -> float:
        rows = read_csv(out_dir / "compare_tomography.csv")
        manifest = json.loads((out_dir / "compare_tomography.manifest.json").read_text())
        require(len(rows) == 1 and manifest["rows"] == 1, "expected one trial row")
        adaptive = [r["mse_adaptive"] for r in rows]
        static = [r["mse_static"] for r in rows]
        require(all(math.isfinite(v) and 0.0 <= v <= 2.0 for v in adaptive + static),
                "MSE outside [0, 2]")
        mean_a = sum(adaptive) / len(adaptive)
        mean_s = sum(static) / len(static)
        expected = {
            "mean_adaptive": mean_a,
            "mean_static": mean_s,
            "mse_ratio": mean_a / mean_s,
            "win_rate": sum(a < s for a, s in zip(adaptive, static)) / len(rows),
        }
        got = manifest["aggregates"]
        require(set(got) == set(expected), "manifest aggregates have other keys")
        require(all(math.isclose(got[k], v, rel_tol=1e-12, abs_tol=0.0) for k, v in expected.items()),
                "manifest aggregates differ from the rows")
        return mean_a


class Hamid3q:
    """`qest hamid` at d = 8 (three qubits) with sampled process tomography."""

    name = "hamid_3q"
    fixed_units = 4
    dim = 8
    time = 0.5
    error_tol = 0.05  # relative Frobenius error; observed values sit near 0.01

    def prepare(self, seed, index, in_dir, out_dir):
        rng = np.random.default_rng([seed, index, 2])
        g = rng.normal(size=(self.dim, self.dim)) + 1j * rng.normal(size=(self.dim, self.dim))
        h = (g + g.conj().T) / 2
        h -= np.trace(h) / self.dim * np.eye(self.dim)
        h *= 0.4 * np.pi / self.time / np.linalg.norm(h, 2)
        path = in_dir / "h.json"
        path.write_text(json.dumps(matrix_json(h)))
        argv = ["hamid", "--dim", str(self.dim), "--time", str(self.time), "--shots", "20000",
                "--true-h", str(path), "--seed", str(unit_seed(seed, index, 0)),
                "--out", str(out_dir / "hamid.json")]
        return argv, h

    def check(self, out_dir: Path, h) -> float:
        result = json.loads((out_dir / "hamid.json").read_text())
        h_hat = matrix_from(result["hamiltonian"])
        scale = np.linalg.norm(h)
        require(h_hat.shape == h.shape, "wrong dimension")
        require(np.linalg.norm(h_hat - h_hat.conj().T) <= 1e-9 * scale, "estimate not Hermitian")
        require(abs(np.trace(h_hat)) <= 1e-9 * scale, "estimate not traceless")
        error = float(np.linalg.norm(h_hat - h) / scale)
        require(error <= self.error_tol, f"relative error {error:.3g} above {self.error_tol}")
        return error


WORKLOADS = {w.name: w for w in (SlcQubit(), AdaptiveQubit(), Hamid3q())}
