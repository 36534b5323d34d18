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
    evaluate_pulse,
    random_samples,
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
    """Named equal-length 1-D columns, in output order, plus aggregate statistics."""

    columns: dict
    aggregates: dict


def sample_truth(dim, rng, ensemble):
    """A random state of the ``"pure"`` or the ``"mixed"`` ensemble, drawn on rng."""
    if ensemble == "pure":
        return pure_to_density(random_pure_state(dim, rng))
    if ensemble == "mixed":
        return random_density_matrix(dim, rng)
    raise ConfigError(f"unknown state ensemble {ensemble!r}")


def _static_cube_mse(truth, total_shots, rng, weighting):
    # the cube tomography's error, for one generator or per member of a list of them
    theta, _, _ = cube_estimate(truth, total_shots, rng, weighting)
    return mse(project_physical(rho_from_theta(theta)), truth)


def run_mse_sweep(dim: int, shot_grid, trials: int, seed: int, ensemble: str,
                  weighting: str) -> SweepResult:
    """Reconstruction error versus total copy number, over seeded random truths.

    Columns N, trial and mse hold one row per reconstruction, N-major;
    aggregates carry the per-N mean MSE and the fitted log-log slope.  The
    grid's values must be distinct.  Each N runs its trials as one stack,
    every trial on its own generator.
    """
    shot_grid = [int(n) for n in shot_grid]
    if not shot_grid or trials < 1:
        raise ConfigError("need a non-empty shot grid and trials >= 1")
    if len(set(shot_grid)) < len(shot_grid):
        # a repeated N adds no point to the log-log fit, and a grid of one value leaves none
        raise ConfigError(f"the shot grid {shot_grid} repeats a value")
    errs = []
    means = []
    for ni, n in enumerate(shot_grid):
        # each trial draws its truth and then its records on its own generator
        rngs = [trial_rng(seed, ni, t) for t in range(trials)]
        truths = np.stack([sample_truth(dim, rng, ensemble) for rng in rngs])
        errs.append(_static_cube_mse(truths, n, rngs, weighting))
        means.append(float(np.mean(errs[-1])))
    aggregates = {
        "shot_grid": shot_grid,
        "mean_mse": means,
        "slope": fit_loglog_slope(shot_grid, means) if len(shot_grid) > 1 else float("nan"),
    }
    columns = {"N": np.repeat(shot_grid, trials),
               "trial": np.tile(np.arange(trials), len(shot_grid)),
               "mse": np.concatenate(errs)}
    return SweepResult(columns=columns, aggregates=aggregates)


def run_paired_tomography(dim: int, schedule: AdaptiveSchedule, trials: int, seed: int,
                          candidates: str, weighting: str, repetitions: int) -> SweepResult:
    """Adaptive versus static cube tomography on shared per-trial pure truths.

    The reported MSE is an expectation over measurement outcomes, so each
    truth is measured ``repetitions`` times per strategy and the per-truth
    means are compared.  Each strategy runs all trials' repetitions as one
    stack, every repetition on its own generator.
    """
    if trials < 1 or repetitions < 1:
        raise ConfigError("trials and repetitions must be >= 1")
    truths = np.repeat([sample_truth(dim, trial_rng(seed, t, 0), "pure") for t in range(trials)],
                       repetitions, axis=0)

    def rngs(arm):
        return [trial_rng(seed, t, arm, rep) for t in range(trials) for rep in range(repetitions)]

    # only the final estimate is read, so only it is projected
    thetas, _ = run_adaptive_protocol(truths, schedule, candidates, rngs(1), weighting)
    rho_adaptive = project_physical(rho_from_theta(thetas[-1]))
    errs = np.stack([mse(rho_adaptive, truths),
                     _static_cube_mse(truths, schedule.total, rngs(2), weighting)])
    # each trial's mean over its own repetitions
    adaptive, static = errs.reshape(2, trials, repetitions).mean(-1)
    aggregates = {
        "mean_adaptive": float(adaptive.mean()),
        "mean_static": float(static.mean()),
        "mse_ratio": float(adaptive.mean() / static.mean()),
        "win_rate": float(np.mean(adaptive < static)),
    }
    columns = {"trial": np.arange(trials), "mse_adaptive": adaptive, "mse_static": static}
    return SweepResult(columns=columns, aggregates=aggregates)


def run_paired_slc(trials: int, seed: int, omega_halfwidth: float,
                   theta_halfwidth: float) -> SweepResult:
    """Uncertainty-trained versus nominal-trained pulses on shared test samples.

    Both arms start from the same random initial pulse, 20 intervals over a
    horizon of 2, and train with :func:`qest.control.slc_train`'s defaults;
    the robust arm trains on the five-point corner-plus-center sample set,
    the nominal arm on the center alone.  Each trial evaluates both pulses on
    the same 200 fresh random test samples and records means and worst cases.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    # the |0> -> |1> transfer task: sigma_z drift, sigma_x control
    system = UncertainSystem(PAULI_Z, (PAULI_X,), omega_halfwidth, theta_halfwidth)
    psi0, psi_target = np.eye(2, dtype=complex)
    train_robust = corner_center_samples(omega_halfwidth, theta_halfwidth)
    train_nominal = corner_center_samples(0.0, 0.0)
    table = np.empty((5, trials))
    for t in range(trials):
        rng = trial_rng(seed, t, 0)
        field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        robust, log = slc_train(system, train_robust, field0, psi0, psi_target)
        nominal, _ = slc_train(system, train_nominal, field0, psi0, psi_target)
        test_set = random_samples(omega_halfwidth, theta_halfwidth, 200, trial_rng(seed, t, 1))
        f_r, f_n = (evaluate_pulse(system, test_set, field, psi0, psi_target).fidelities
                    for field in (robust, nominal))
        table[:, t] = log[-1], f_r.mean(), f_r.min(), f_n.mean(), f_n.min()
    j_train, mean_r, worst_r, mean_n, worst_n = table
    ratios = mean_r / j_train
    aggregates = {
        "mean_test_over_train": float(np.mean(ratios)),
        "min_test_over_train": float(np.min(ratios)),
        "worst_case_win_rate": float(np.mean(worst_r > worst_n)),
        "mean_worst_robust": float(worst_r.mean()),
        "mean_worst_nominal": float(worst_n.mean()),
    }
    columns = {"trial": np.arange(trials), "J_train": j_train, "mean_robust": mean_r,
               "worst_robust": worst_r, "mean_nominal": mean_n, "worst_nominal": worst_n}
    return SweepResult(columns=columns, aggregates=aggregates)


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# rows per formatting pass; 1024 would raise the peak RSS of smc-demo's 10^6 rows by 0.5 MB
_CSV_CHUNK_ROWS = 256


def write_csv(path, columns: dict) -> None:
    """Write named 1-D columns of one length as CSV, streamed in chunks of rows.

    Int and bool columns are written as integers, float columns with 17
    significant digits, which round-trip float64 exactly.  A broadcast column
    (``np.broadcast_to`` of one value) is formatted once per chunk.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1 or arrays[0].ndim != 1:
        raise ValueError(f"CSV columns must be 1-D and of one length, not of shapes {shapes}")
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _CSV_CHUNK_ROWS):
            texts = [_csv_text(a[start:start + _CSV_CHUNK_ROWS]) for a in arrays]
            f.write("\n".join(map(",".join, zip(*texts, strict=True))) + "\n")


def _csv_text(chunk) -> list:
    # a broadcast (stride 0) column holds one value: format it once and repeat the text
    repeat = len(chunk) if chunk.strides == (0,) else 1
    values = chunk[:len(chunk) // repeat]
    text = (list(map(str, values.astype(np.int64).tolist())) if values.dtype.kind in "biu"
            else [f"{v:.17g}" for v in values.tolist()])
    return text * repeat


def write_json(path, payload) -> None:
    """Key-sorted JSON with two-space indents and a final newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def emit(result: SweepResult, out_dir, name: str = "result", fmt: str = "csv",
         config: dict | None = None, seed=None) -> dict:
    """Write a result table plus a manifest naming the config hash and seed.

    JSON holds the column names, the rows as lists, each value of its
    column's own type (int columns as JSON ints), and the aggregates.
    Output bytes are a pure function of the result and config, so a fixed
    seed reproduces files exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    if fmt == "csv":
        paths["data"] = out_dir / f"{name}.csv"
        write_csv(paths["data"], result.columns)
    elif fmt == "json":
        paths["data"] = out_dir / f"{name}.json"
        payload = {
            "columns": list(result.columns),
            "rows": list(zip(*(column.tolist() for column in result.columns.values()))),
            "aggregates": result.aggregates,
        }
        write_json(paths["data"], payload)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    manifest = {
        "config": config or {},
        "config_hash": config_hash(config or {}),
        "seed": seed,
        "rows": len(next(iter(result.columns.values()))),
        "aggregates": result.aggregates,
    }
    paths["manifest"] = out_dir / f"{name}.manifest.json"
    write_json(paths["manifest"], manifest)
    return paths
