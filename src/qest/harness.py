"""Seeded Monte-Carlo experiment drivers and deterministic data emission."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveSchedule, cube_estimate, run_adaptive_protocol
from .control import (
    ControlField,
    UncertainSystem,
    corner_center_samples,
    random_samples,
    slc_test,
    slc_train,
)
from .errors import ConfigError
from .states import (
    PAULI_X,
    PAULI_Z,
    mse,
    pure_to_density,
    random_density_matrix,
    random_pure_state,
    rho_from_theta,
)
from .tomography import project_physical


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


def _static_cube_mse(truth, total_shots, rng, weighting):
    # the cube tomography's error, for one generator or per member of a list of them
    theta, _, _ = cube_estimate(truth, total_shots, rng, weighting)
    return mse(project_physical(rho_from_theta(theta)), truth)


def run_mse_sweep(dim: int, shot_grid, trials: int, seed: int,
                  ensemble: str = "pure", weighting: str = "shots") -> SweepResult:
    """Reconstruction error versus total copy number, over seeded random truths.

    Emits one (N, trial, mse) row per reconstruction; aggregates carry the
    per-N mean MSE and the fitted log-log slope.  The grid's values must be
    distinct.  Each N runs its trials as one stack, every trial on its own
    generator.
    """
    shot_grid = [int(n) for n in shot_grid]
    if not shot_grid or trials < 1:
        raise ConfigError("need a non-empty shot grid and trials >= 1")
    if len(set(shot_grid)) < len(shot_grid):
        # a repeated N adds no point to the log-log fit, and a grid of one value leaves none
        raise ConfigError(f"the shot grid {shot_grid} repeats a value")
    rows = []
    means = []
    for ni, n in enumerate(shot_grid):
        # each trial draws its truth and then its records on its own generator
        rngs = [trial_rng(seed, ni, t) for t in range(trials)]
        truths = np.stack([_sample_truth(dim, rng, ensemble) for rng in rngs])
        errs = _static_cube_mse(truths, n, rngs, weighting)
        rows.extend((n, t, err) for t, err in enumerate(errs))
        means.append(float(np.mean(errs)))
    aggregates = {
        "shot_grid": shot_grid,
        "mean_mse": means,
        "slope": fit_loglog_slope(shot_grid, means) if len(shot_grid) > 1 else float("nan"),
    }
    return SweepResult(columns=("N", "trial", "mse"), rows=rows, aggregates=aggregates)


def run_paired_tomography(dim: int, schedule: AdaptiveSchedule, trials: int, seed: int,
                          candidates="continuum", weighting: str = "invvar",
                          repetitions: int = 1) -> SweepResult:
    """Adaptive versus static cube tomography on shared per-trial pure truths.

    The reported MSE is an expectation over measurement outcomes, so each
    truth is measured ``repetitions`` times per strategy and the per-truth
    means are compared.  Each strategy runs all trials' repetitions as one
    stack, every repetition on its own generator.
    """
    if trials < 1 or repetitions < 1:
        raise ConfigError("trials and repetitions must be >= 1")
    truths = np.repeat([_sample_truth(dim, trial_rng(seed, t, 0), "pure") for t in range(trials)],
                       repetitions, axis=0)

    def rngs(arm):
        return [trial_rng(seed, t, arm, rep) for t in range(trials) for rep in range(repetitions)]

    rho_adaptive, _ = run_adaptive_protocol(truths, schedule, candidates, rngs(1), weighting)
    errs = np.stack([mse(rho_adaptive, truths),
                     _static_cube_mse(truths, schedule.total, rngs(2), weighting)])
    # each trial's mean over its own repetitions
    adaptive, static = errs.reshape(2, trials, repetitions).mean(-1)
    rows = [(t, float(a), float(s)) for t, (a, s) in enumerate(zip(adaptive, static))]
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
                   theta_halfwidth: float = 0.2, test_n: int = 200, step_size: float = 10.0,
                   iterations: int = 200, tolerance: float = 1e-9) -> SweepResult:
    """Uncertainty-trained versus nominal-trained pulses on shared test samples.

    Both arms start from the same random initial pulse, 20 intervals over a
    horizon of 2; the robust arm trains on the five-point corner-plus-center
    sample set, the nominal arm on the center alone.  Each trial evaluates
    both pulses on the same fresh random test set and records means and worst
    cases.
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
        field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        robust, log = slc_train(system, train_robust, field0, psi0, psi_target,
                                step_size=step_size, iterations=iterations, tolerance=tolerance)
        nominal, _ = slc_train(system, train_nominal, field0, psi0, psi_target,
                               step_size=step_size, iterations=iterations, tolerance=tolerance)
        j_train = log[-1]
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
