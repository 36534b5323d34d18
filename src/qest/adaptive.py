"""Recursive least-squares tomography and trace-gain-driven measurement selection.

The running pair (Q_n, theta_n) is updated per record as

    a_n = (1/W_n + Gamma_n^T Q_{n-1} Gamma_n)^-1
    Q_n = Q_{n-1} - a_n Q_{n-1} Gamma_n Gamma_n^T Q_{n-1}
    theta_n = theta_{n-1} + a_n Q_{n-1} Gamma_n (p_hat_n - gamma0_n/d - Gamma_n^T theta_{n-1})

and candidate measurements are scored by the closed-form decrease of Tr(Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gell_mann_basis
from .states import (
    Povm,
    as_rng,
    bloch_basis_povm,
    cube_povms,
    cube_records,
    mse,
    rho_from_theta,
    simulate_measurements,
)
from .tomography import (
    RegressionProblem,
    build_regression,
    project_physical,
    record_weight,
    solve_weighted_ls,
)


@dataclass(frozen=True, eq=False)
class RecursiveState:
    """Covariance-like matrix Q and running estimate theta over gell_mann_basis(dim)."""

    q: np.ndarray
    theta: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.theta.size + 1)


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Copy budget N = N1 + K * N2 for the two-stage protocol."""

    total: int
    stage1: int
    per_step: int
    steps: int

    def __post_init__(self):
        if self.total < 1 or self.stage1 < 1 or self.per_step < 1 or self.steps < 0:
            raise ValueError("schedule entries must be positive (steps may be 0)")
        if self.total != self.stage1 + self.steps * self.per_step:
            raise ValueError(
                f"schedule must satisfy N = N1 + K*N2 exactly; got "
                f"{self.total} != {self.stage1} + {self.steps}*{self.per_step}"
            )


def rls_update(state: RecursiveState, problem: RegressionProblem) -> RecursiveState:
    """Fold every row of ``problem`` into the running estimate, in row order."""
    if np.any(problem.w <= 0):
        raise ValueError("weights must be positive")
    q, theta = state.q, state.theta
    for gamma, y, w in zip(problem.x, problem.y, problem.w):
        qg = q @ gamma
        a = 1.0 / (1.0 / w + gamma @ qg)
        q = q - a * np.outer(qg, qg)
        q = (q + q.T) / 2
        theta = theta + a * qg * (y - gamma @ theta)
    return RecursiveState(q=q, theta=theta)


def trace_gain(state: RecursiveState, gamma: np.ndarray, weight) -> np.ndarray:
    """Closed form of Tr(Q_n-1) - Tr(Q_n) for each candidate row, without updating.

    ``gamma`` stacks rows along its last axis; ``weight`` broadcasts against
    the row shape ``gamma.shape[:-1]``.
    """
    gamma = np.asarray(gamma, float)
    qg = gamma @ state.q  # Q is symmetric
    return (qg * qg).sum(-1) / (1.0 / weight + (gamma * qg).sum(-1))


def _basis_gains(state, gamma0, gamma, planned_shots, weighting):
    # Summed trace gain of measuring planned_shots copies with each basis
    # (element rows along axis -2); planned weights use outcome probabilities
    # predicted by the current estimate.
    p_pred = np.clip(gamma0 / state.dim + gamma @ state.theta, 0.0, 1.0)
    return trace_gain(state, gamma, record_weight(planned_shots, p_pred, weighting)).sum(-1)


def select_next_povm(state: RecursiveState, candidates, planned_shots: int,
                     weighting: str = "shots") -> Povm:
    """Candidate with the largest summed trace gain; ties break to the lowest index."""
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    gains = [_basis_gains(state, c.gamma0, c.gamma, planned_shots, weighting) for c in candidates]
    return candidates[int(np.argmax(gains))]


def _fibonacci_sphere(count: int = 128) -> np.ndarray:
    i = np.arange(count) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / count)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([
        np.sin(polar) * np.cos(azimuth),
        np.sin(polar) * np.sin(azimuth),
        np.cos(polar),
    ])


_SPHERE_GRID = _fibonacci_sphere()


def continuum_qubit_basis(state: RecursiveState, planned_shots: int,
                          weighting: str = "shots") -> Povm:
    """Approximate trace-gain optimum over all Bloch directions.

    Scores the cube axes, the eigendirections of Q, the current Bloch
    direction and a fixed Fibonacci sphere grid under the active weighting
    policy's planned weights, and returns the best basis; cube axes win
    ties.  Under constant (shot) weights the basis along u gains
    ||Q u||^2 / (1/w + u^T Q u / 2), maximized by the top eigendirection of
    Q; under inverse-variance weights aligned measurements become cheap and
    the search leaves the cube frame.
    """
    if state.dim != 2:
        raise ValueError("continuum basis search is qubit-only")
    _, v = np.linalg.eigh(state.q)
    candidates = [np.eye(3), v.T]
    bloch = state.theta * np.sqrt(2.0)
    norm = np.linalg.norm(bloch)
    if norm > 1e-9:
        candidates.append([bloch / norm])
    candidates.append(_SPHERE_GRID)
    u = np.concatenate(candidates)
    gamma = np.stack([u, -u], axis=1) / np.sqrt(2.0)
    gains = _basis_gains(state, np.ones(gamma.shape[:2]), gamma, planned_shots, weighting)
    # grid and eigen directions are unit vectors only to rounding, so gains
    # within 1e-12 (relative) of the best tie, and the lowest index wins
    best = int(np.argmax(gains >= gains.max() * (1.0 - 1e-12)))
    if best < 3:
        return cube_povms(2)[best]
    return bloch_basis_povm(u[best])


def run_adaptive_protocol(truth, schedule: AdaptiveSchedule, candidates, seed,
                          weighting: str = "invvar"):
    """Two-stage adaptive tomography of ``truth``.

    Stage 1 spends ``schedule.stage1`` copies on the cube bases and solves the
    batch problem, whose theta and Q0 = (X^T W X)^-1 seed the recursion;
    stage 2 runs ``schedule.steps`` rounds in which the next basis is chosen
    by trace gain (``candidates`` is a POVM list, or the string
    ``"continuum"`` for the analytic qubit optimum), ``per_step`` copies are
    measured and folded in recursively.  Inverse-variance weights
    are the default because the covariance reading of Q assumes them.

    Returns the projected final state and a per-step diagnostics list with
    keys step, copies_used, trace_q and mse.
    """
    truth = np.asarray(truth, dtype=complex)
    d = truth.shape[0]
    basis = gell_mann_basis(d)
    rng = as_rng(seed)
    if isinstance(candidates, str):
        if candidates != "continuum":
            raise ValueError(f"unknown candidate mode {candidates!r}")
        if d != 2:
            raise ValueError("continuum candidates are qubit-only")
    elif not candidates:
        raise ValueError("candidate set must be non-empty")

    problem = build_regression(cube_records(truth, schedule.stage1, rng), d, weighting)
    theta, _, q = solve_weighted_ls(problem)
    state = RecursiveState(q=q, theta=theta)

    def snapshot(step):
        rho_step = project_physical(rho_from_theta(state.theta, basis))
        return {
            "step": step,
            "copies_used": schedule.stage1 + step * schedule.per_step,
            "trace_q": float(np.trace(state.q)),
            "mse": mse(rho_step, truth),
        }

    diagnostics = [snapshot(0)]
    for k in range(1, schedule.steps + 1):
        if candidates == "continuum":
            povm = continuum_qubit_basis(state, schedule.per_step, weighting)
        else:
            povm = select_next_povm(state, candidates, schedule.per_step, weighting)
        step_records = simulate_measurements(truth, povm, schedule.per_step, rng)
        state = rls_update(state, build_regression(step_records, d, weighting))
        diagnostics.append(snapshot(k))

    rho_hat = project_physical(rho_from_theta(state.theta, basis))
    return rho_hat, diagnostics
