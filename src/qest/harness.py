"""Seeded Monte-Carlo experiment drivers and deterministic data emission."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveSchedule, run_adaptive_protocol
from .control import (
    ControlField,
    UncertainSystem,
    augmented_j,
    corner_center_samples,
    random_samples,
    slc_test,
    slc_train,
)
from .errors import ConfigError
from .states import (
    PAULI_X,
    PAULI_Z,
    cube_records,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
)
from .tomography import tomography_pipeline


def trial_rng(seed: int, *indices) -> np.random.Generator:
    """Independent stream derived from (seed, index...)."""
    return np.random.default_rng([int(seed), *[int(i) for i in indices]])


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Tabular experiment output plus aggregate statistics."""

    columns: tuple
    rows: list
    aggregates: dict


def _sample_truth(dim, rng, ensemble):
    if ensemble == "pure":
        return pure_to_density(random_pure_state(dim, rng))
    if ensemble == "mixed":
        return random_density_matrix(dim, rng)
    raise ConfigError(f"unknown state ensemble {ensemble!r}")


def _static_cube_mse(truth, dim, total_shots, rng, weighting):
    rho, _, _ = tomography_pipeline(cube_records(truth, total_shots, rng), dim, weighting)
    return mse(rho, truth)


def run_mse_sweep(dim: int, shot_grid, trials: int, seed: int,
                  ensemble: str = "pure", weighting: str = "shots") -> SweepResult:
    """Reconstruction error versus total copy number, over seeded random truths.

    Emits one (N, trial, mse) row per reconstruction; aggregates carry the
    per-N mean MSE and the fitted log-log slope.
    """
    shot_grid = [int(n) for n in shot_grid]
    if not shot_grid or trials < 1:
        raise ConfigError("need a non-empty shot grid and trials >= 1")
    rows = []
    means = []
    for ni, n in enumerate(shot_grid):
        errs = []
        for t in range(trials):
            rng = trial_rng(seed, ni, t)
            truth = _sample_truth(dim, rng, ensemble)
            errs.append(_static_cube_mse(truth, dim, n, rng, weighting))
            rows.append((n, t, errs[-1]))
        means.append(float(np.mean(errs)))
    aggregates = {
        "shot_grid": shot_grid,
        "mean_mse": means,
        "slope": fit_loglog_slope(shot_grid, means) if len(shot_grid) > 1 else float("nan"),
    }
    return SweepResult(columns=("N", "trial", "mse"), rows=rows, aggregates=aggregates)


def run_paired_tomography(dim: int, schedule: AdaptiveSchedule, trials: int, seed: int,
                          candidates="continuum", ensemble: str = "pure",
                          weighting: str = "invvar", repetitions: int = 1) -> SweepResult:
    """Adaptive versus static cube tomography on shared per-trial truths.

    The reported MSE is an expectation over measurement outcomes, so each
    truth is measured ``repetitions`` times per strategy and the per-truth
    means are compared.
    """
    if trials < 1 or repetitions < 1:
        raise ConfigError("trials and repetitions must be >= 1")
    rows = []
    for t in range(trials):
        truth = _sample_truth(dim, trial_rng(seed, t, 0), ensemble)
        errs_a = []
        errs_s = []
        for rep in range(repetitions):
            rho_adaptive, _ = run_adaptive_protocol(
                truth, schedule, candidates, trial_rng(seed, t, 1, rep), weighting
            )
            errs_a.append(mse(rho_adaptive, truth))
            errs_s.append(_static_cube_mse(
                truth, dim, schedule.total, trial_rng(seed, t, 2, rep), weighting
            ))
        rows.append((t, float(np.mean(errs_a)), float(np.mean(errs_s))))
    adaptive = np.array([r[1] for r in rows])
    static = np.array([r[2] for r in rows])
    aggregates = {
        "mean_adaptive": float(adaptive.mean()),
        "mean_static": float(static.mean()),
        "mse_ratio": float(adaptive.mean() / static.mean()),
        "win_rate": float(np.mean(adaptive < static)),
    }
    return SweepResult(columns=("trial", "mse_adaptive", "mse_static"),
                       rows=rows, aggregates=aggregates)


def default_qubit_transfer(omega_halfwidth: float, theta_halfwidth: float) -> dict:
    """Canonical |0> -> |1> transfer task: sigma_z drift, sigma_x control."""
    return {
        "system": UncertainSystem(PAULI_Z, (PAULI_X,), omega_halfwidth, theta_halfwidth),
        "psi0": np.array([1.0, 0.0], dtype=complex),
        "psi_target": np.array([0.0, 1.0], dtype=complex),
    }


def run_paired_slc(trials: int, seed: int, omega_halfwidth: float = 0.2,
                   theta_halfwidth: float = 0.2, horizon: float = 2.0,
                   intervals: int = 20, test_n: int = 200,
                   step_size: float = 10.0, iterations: int = 200,
                   tolerance: float = 1e-9) -> SweepResult:
    """Uncertainty-trained versus nominal-trained pulses on shared test samples.

    Both arms start from the same random initial pulse; the robust arm trains
    on the five-point corner-plus-center sample set, the nominal arm on the
    center alone.  Each trial evaluates both pulses on the same fresh random
    test set and records means and worst cases.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    task = default_qubit_transfer(omega_halfwidth, theta_halfwidth)
    system, psi0, psi_target = task["system"], task["psi0"], task["psi_target"]
    train_robust = corner_center_samples(omega_halfwidth, theta_halfwidth)
    train_nominal = corner_center_samples(0.0, 0.0)
    rows = []
    ratios = []
    for t in range(trials):
        rng = trial_rng(seed, t, 0)
        field0 = ControlField(horizon, rng.uniform(-0.5, 0.5, size=(intervals, 1)))
        robust, _ = slc_train(system, train_robust, field0, psi0, psi_target,
                              step_size=step_size, iterations=iterations, tolerance=tolerance)
        nominal, _ = slc_train(system, train_nominal, field0, psi0, psi_target,
                               step_size=step_size, iterations=iterations, tolerance=tolerance)
        j_train = augmented_j(system, train_robust, robust, psi0, psi_target)
        test_set = random_samples(omega_halfwidth, theta_halfwidth, test_n, trial_rng(seed, t, 1))
        stats_r = slc_test(system, robust, test_set, psi0, psi_target)
        stats_n = slc_test(system, nominal, test_set, psi0, psi_target)
        rows.append((t, j_train, stats_r["mean"], stats_r["min"],
                     stats_n["mean"], stats_n["min"]))
        ratios.append(stats_r["mean"] / j_train)
    worst_r = np.array([r[3] for r in rows])
    worst_n = np.array([r[5] for r in rows])
    aggregates = {
        "mean_test_over_train": float(np.mean(ratios)),
        "min_test_over_train": float(np.min(ratios)),
        "worst_case_win_rate": float(np.mean(worst_r > worst_n)),
        "mean_worst_robust": float(worst_r.mean()),
        "mean_worst_nominal": float(worst_n.mean()),
    }
    return SweepResult(
        columns=("trial", "J_train", "mean_robust", "worst_robust",
                 "mean_nominal", "worst_nominal"),
        rows=rows, aggregates=aggregates)


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def format_number(value) -> str:
    """17-significant-digit decimal text; round-trips float64 exactly."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format_number(v) for v in row
        ))
    Path(path).write_text("\n".join(lines) + "\n")


def emit(result: SweepResult, out_dir, name: str = "result", fmt: str = "csv",
         config: dict | None = None, seed=None) -> dict:
    """Write a result table plus a manifest naming the config hash and seed.

    Output bytes are a pure function of the result and config, so a fixed
    seed reproduces files exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if fmt == "csv":
        paths["data"] = out_dir / f"{name}.csv"
        write_csv(paths["data"], result.columns, result.rows)
    elif fmt == "json":
        paths["data"] = out_dir / f"{name}.json"
        payload = {
            "columns": list(result.columns),
            "rows": [[v if isinstance(v, str) else float(v) for v in row] for row in result.rows],
            "aggregates": result.aggregates,
        }
        paths["data"].write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    manifest = {
        "config": config or {},
        "config_hash": config_hash(config or {}),
        "seed": seed,
        "rows": len(result.rows),
        "aggregates": result.aggregates,
    }
    paths["manifest"] = out_dir / f"{name}.manifest.json"
    paths["manifest"].write_text(json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n")
    return paths
