"""Wall-time scaling probe used by the complexity tests and acceptance criterion 07."""

import time

import numpy as np

from qest.identification import (
    estimate_lambda,
    identify_hamiltonian,
    random_traceless_hermitian,
)
from qest.linalg import herm_expm
from qest.states import random_density_matrix
from qest.tomography import build_regression, solve_weighted_ls
from tests.oracles import concat_records, cube_povms, expected_records


def complexity_probe(task: str, d_values, repetitions: int = 3, seed: int = 0):
    """Wall-time scaling probe; returns dims, per-dim best times and the log-log slope.

    ``lre_solve`` times the weighted least-squares solve on complete cube
    data; ``identify`` times the Hamiltonian identification step with Lambda
    prebuilt.
    """
    rng = np.random.default_rng(seed)
    times = []
    for d in d_values:
        if task == "lre_solve":
            truth = random_density_matrix(d, rng)
            records = concat_records(expected_records(truth, povm, 1000) for povm in cube_povms(d))
            problem = build_regression(records)
            best = min(_timed(solve_weighted_ls, problem) for _ in range(repetitions))
        elif task == "identify":
            t_evolve = 0.5
            h = random_traceless_hermitian(d, rng, spectral_norm=0.3 * np.pi / t_evolve)
            kraus = [herm_expm(h, t_evolve)]
            lam = estimate_lambda(kraus, d)
            best = min(_timed(identify_hamiltonian, lam, t_evolve) for _ in range(repetitions))
        else:
            raise ValueError(f"unknown task {task!r}")
        times.append(best)
    ds = np.asarray(list(d_values), dtype=float)
    if ds.size >= 2:
        slope = float(np.polyfit(np.log(ds), np.log(times), 1)[0])
    else:
        slope = float("nan")
    return {"d": list(d_values), "seconds": times, "slope": slope}


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
