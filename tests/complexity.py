"""Wall-time scaling probes used by the complexity tests and acceptance criterion 07."""

import time
from functools import partial

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
    return alternating_probes(task, d_values, repetitions, seed, probes=1)[0]


def alternating_probes(task: str, d_values, repetitions: int = 3, seed: int = 0,
                       probes: int = 2) -> list:
    """``probes`` probes of one task on the same inputs, as :func:`complexity_probe` times them,
    with their repetitions in turn: repetition i of every probe, at every d, runs before
    repetition i + 1 of any, so that all of them read the same drift of the machine's speed."""
    calls = _timed_calls(task, d_values, seed)
    best = np.full((probes, len(calls)), np.inf)
    for _ in range(repetitions):
        for p in range(probes):
            for i, call in enumerate(calls):
                best[p, i] = min(best[p, i], _timed(call))
    return [_scaling(d_values, list(times)) for times in best]


def _timed_calls(task: str, d_values, seed: int) -> list:
    """One argument-free call per d: the step the probe times, on inputs drawn from seed."""
    rng = np.random.default_rng(seed)
    calls = []
    for d in d_values:
        if task == "lre_solve":
            truth = random_density_matrix(d, rng)
            records = concat_records(expected_records(truth, povm, 1000) for povm in cube_povms(d))
            calls.append(partial(solve_weighted_ls, build_regression(records)))
        elif task == "identify":
            t_evolve = 0.5
            h = random_traceless_hermitian(d, rng, spectral_norm=0.3 * np.pi / t_evolve)
            lam = estimate_lambda([herm_expm(h, t_evolve)], d)
            calls.append(partial(identify_hamiltonian, lam, t_evolve))
        else:
            raise ValueError(f"unknown task {task!r}")
    return calls


def _scaling(d_values, times: list) -> dict:
    ds = np.asarray(list(d_values), dtype=float)
    if ds.size >= 2:
        slope = float(np.polyfit(np.log(ds), np.log(times), 1)[0])
    else:
        slope = float("nan")
    return {"d": list(d_values), "seconds": times, "slope": slope}


def _timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start
