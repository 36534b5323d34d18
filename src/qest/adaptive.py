"""Recursive least-squares tomography and trace-gain-driven measurement selection.

The running pair (Q_n, theta_n) is updated per record as

    a_n = (1/W_n + Gamma_n^T Q_{n-1} Gamma_n)^-1
    Q_n = Q_{n-1} - a_n Q_{n-1} Gamma_n Gamma_n^T Q_{n-1}
    theta_n = theta_{n-1} + a_n Q_{n-1} Gamma_n (p_hat_n - gamma0_n/d - Gamma_n^T theta_{n-1})

and candidate measurements are scored by the closed-form decrease of Tr(Q).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularDesignError
from .linalg import HermitianBasis, gell_mann_basis
from .states import (
    Povm,
    as_rng,
    bloch_basis_povm,
    cube_povms,
    element_gammas,
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
    """Covariance-like matrix Q, running estimate theta, and copy counters."""

    q: np.ndarray
    theta: np.ndarray
    basis: HermitianBasis
    step: int = 0
    copies_used: int = 0

    @property
    def dim(self) -> int:
        return self.basis.dim


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


def rls_init_from_batch(problem: RegressionProblem, theta: np.ndarray, copies_used: int = 0) -> RecursiveState:
    """Seed the recursion with Q0 = (sum_k W_k Gamma_k Gamma_k^T)^-1 and the batch theta."""
    info = (problem.x * problem.w[:, None]).T @ problem.x
    s = np.linalg.svd(info, compute_uv=False)
    n_par = info.shape[0]
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if rank < n_par:
        raise SingularDesignError(n_par - rank)
    q = np.linalg.inv(info)
    q = (q + q.T) / 2
    return RecursiveState(q=q, theta=np.asarray(theta, float), basis=problem.basis,
                          step=0, copies_used=int(copies_used))


def rls_update(state: RecursiveState, record, weight: float, new_copies=None) -> RecursiveState:
    """Fold one measurement record into the running estimate.

    ``new_copies`` counts the fresh copies this record consumed; it defaults
    to ``record.shots``.  Pass 0 for all but one element when several records
    share the same measurement run.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    gamma = record.gamma
    qg = state.q @ gamma
    a = 1.0 / (1.0 / weight + gamma @ qg)
    q = state.q - a * np.outer(qg, qg)
    q = (q + q.T) / 2
    residual = record.p_hat - record.gamma0 / state.dim - gamma @ state.theta
    theta = state.theta + a * qg * residual
    used = record.shots if new_copies is None else new_copies
    return replace(state, q=q, theta=theta, step=state.step + 1,
                   copies_used=state.copies_used + int(used))


def trace_gain(state: RecursiveState, gamma: np.ndarray, weight: float) -> float:
    """Closed form of Tr(Q_n-1) - Tr(Q_n) for a candidate row, without updating."""
    qg = state.q @ np.asarray(gamma, float)
    a = 1.0 / (1.0 / weight + gamma @ qg)
    return float(a * (qg @ qg))


def povm_trace_gain(state: RecursiveState, povm: Povm, planned_shots: int,
                    weighting: str = "shots") -> float:
    """Summed element-wise trace gain of measuring ``planned_shots`` copies with a POVM.

    Under inverse-variance weighting the planned weights use outcome
    probabilities predicted from the current estimate.
    """
    g0, gam = element_gammas(povm, state.basis)
    p_pred = np.clip(g0 / state.dim + gam @ state.theta, 0.0, 1.0)
    total = 0.0
    for j in range(len(povm)):
        w = record_weight(planned_shots, p_pred[j], weighting)
        total += trace_gain(state, gam[j], w)
    return total


def select_next_povm(state: RecursiveState, candidates, planned_shots: int,
                     weighting: str = "shots") -> Povm:
    """Candidate with the largest summed trace gain; ties break to the lowest index."""
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    gains = np.array([povm_trace_gain(state, c, planned_shots, weighting) for c in candidates])
    return candidates[int(np.argmax(gains))]


def optimal_qubit_basis(state: RecursiveState) -> Povm:
    """Best projective qubit basis over the whole Bloch sphere, constant weights.

    For a basis along the unit direction u the summed gain is
    ||Q u||^2 / (1/w + u^T Q u / 2), whose maximizer over the sphere is the
    top eigendirection of Q for any constant weight w.  Cube axes that tie
    the continuum optimum are preferred (lowest axis index first), so the
    returned basis always beats or ties every cube basis.
    """
    if state.dim != 2:
        raise ValueError("the analytic optimal basis is only available for qubits")
    _, v = np.linalg.eigh(state.q)
    top = v[:, -1]
    top = top * np.sign(top[np.argmax(np.abs(top))])  # deterministic sign

    def direction_gain(u):
        qu = state.q @ u
        return (qu @ qu) / (1.0 + u @ qu / 2.0)

    axes = [np.eye(3)[i] for i in range(3)]
    candidates = axes + [top]
    gains = np.array([direction_gain(u) for u in candidates])
    best = int(np.argmax(gains))
    if best < 3:
        return cube_povms(2)[best]
    return bloch_basis_povm(top)


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


def _direction_gain(state, u, planned_shots, weighting):
    # Summed gain of the projective basis along u, with planned weights taken
    # from outcome probabilities predicted by the current estimate.
    total = 0.0
    for sign in (+1.0, -1.0):
        gamma = sign * u / np.sqrt(2.0)
        p_pred = min(max(0.5 + gamma @ state.theta, 0.0), 1.0)
        w = record_weight(planned_shots, p_pred, weighting)
        qg = state.q @ gamma
        total += (qg @ qg) / (1.0 / w + gamma @ qg)
    return total


def continuum_qubit_basis(state: RecursiveState, planned_shots: int,
                          weighting: str = "shots") -> Povm:
    """Approximate trace-gain optimum over all Bloch directions.

    Scores the cube axes, the eigendirections of Q, the current Bloch
    direction and a fixed Fibonacci sphere grid under the active weighting
    policy's planned weights, and returns the best basis.  Under constant
    (shot) weights this agrees with :func:`optimal_qubit_basis`; under
    inverse-variance weights aligned measurements become cheap and the search
    leaves the cube frame.
    """
    if state.dim != 2:
        raise ValueError("continuum basis search is qubit-only")
    _, v = np.linalg.eigh(state.q)
    candidates = [np.eye(3)[i] for i in range(3)]
    candidates += [v[:, i] for i in range(3)]
    bloch = state.theta * np.sqrt(2.0)
    norm = np.linalg.norm(bloch)
    if norm > 1e-9:
        candidates.append(bloch / norm)
    candidates.extend(_SPHERE_GRID)
    gains = [_direction_gain(state, u, planned_shots, weighting) for u in candidates]
    best = int(np.argmax(gains))
    if best < 3:
        return cube_povms(2)[best]
    return bloch_basis_povm(candidates[best])


def split_evenly(total: int, parts: int):
    """Deterministic near-even integer split; early parts take the remainder."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def run_adaptive_protocol(truth, schedule: AdaptiveSchedule, candidates, seed,
                          basis=None, weighting: str = "invvar"):
    """Two-stage adaptive tomography of ``truth``.

    Stage 1 spends ``schedule.stage1`` copies on the cube bases and solves the
    batch problem; stage 2 runs ``schedule.steps`` rounds in which the next
    basis is chosen by trace gain (``candidates`` is a POVM list, or the
    string ``"continuum"`` for the analytic qubit optimum), ``per_step``
    copies are measured and folded in recursively.  Inverse-variance weights
    are the default because the covariance reading of Q assumes them.

    Returns the projected final state and a per-step diagnostics list with
    keys step, copies_used, trace_q and mse.
    """
    truth = np.asarray(truth, dtype=complex)
    d = truth.shape[0]
    basis = basis or gell_mann_basis(d)
    rng = as_rng(seed)
    if isinstance(candidates, str):
        if candidates != "continuum":
            raise ValueError(f"unknown candidate mode {candidates!r}")
        if d != 2:
            raise ValueError("continuum candidates are qubit-only")
    elif not candidates:
        raise ValueError("candidate set must be non-empty")

    cubes = cube_povms(d)
    records = []
    for povm, n in zip(cubes, split_evenly(schedule.stage1, len(cubes))):
        if n > 0:
            records.extend(simulate_measurements(truth, povm, n, rng, basis))
    problem = build_regression(records, d, basis, weighting)
    theta = solve_weighted_ls(problem)
    state = rls_init_from_batch(problem, theta, copies_used=schedule.stage1)

    def snapshot(step):
        rho_step = project_physical(rho_from_theta(state.theta, basis))
        return {
            "step": step,
            "copies_used": state.copies_used,
            "trace_q": float(np.trace(state.q)),
            "mse": mse(rho_step, truth),
        }

    diagnostics = [snapshot(0)]
    for k in range(1, schedule.steps + 1):
        if candidates == "continuum":
            povm = continuum_qubit_basis(state, schedule.per_step, weighting)
        else:
            povm = select_next_povm(state, candidates, schedule.per_step, weighting)
        step_records = simulate_measurements(truth, povm, schedule.per_step, rng, basis)
        for j, record in enumerate(step_records):
            w = record_weight(record.shots, record.p_hat, weighting)
            state = rls_update(state, record, w, new_copies=record.shots if j == 0 else 0)
        diagnostics.append(snapshot(k))

    rho_hat = project_physical(rho_from_theta(state.theta, basis))
    return rho_hat, diagnostics
