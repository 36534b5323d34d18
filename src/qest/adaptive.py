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

from .states import (
    Povm,
    Records,
    _cube_elements,
    as_rng,
    bloch_basis_povm,
    born_probabilities,
    cube_povms,
    cube_records,
    mse,
    multinomial,
    rho_from_theta,
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
    """Covariance-like matrix Q and running estimate theta over gell_mann_basis(dim).

    One state has q (p, p) and theta (p,); a stack of members has q (R, p, p)
    and theta (R, p), and every function of this module treats each member
    exactly as it treats one state.
    """

    q: np.ndarray
    theta: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.theta.shape[-1] + 1)


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
    """Fold every row of ``problem`` into the running estimate, in row order.

    For a stack of members (see :class:`RegressionProblem`) member m folds
    its own responses, with its own or the shared rows and weights.
    """
    if np.any(problem.w <= 0):
        raise ValueError("weights must be positive")
    q, theta = state.q, state.theta
    for j in range(problem.y.shape[-1]):
        gamma, y, w = problem.x[..., j, :], problem.y[..., j], problem.w[..., j]
        # matvec and vecdot give the bits of q @ gamma and gamma @ theta, member by member
        qg = np.matvec(q, gamma)
        a = 1.0 / (1.0 / w + np.vecdot(gamma, qg))
        q = q - a[..., None, None] * (qg[..., :, None] * qg[..., None, :])
        q = (q + q.mT) / 2
        theta = theta + a[..., None] * qg * (y - np.vecdot(gamma, theta))[..., None]
    return RecursiveState(q=q, theta=theta)


def _rows_at(gamma: np.ndarray, m: np.ndarray) -> np.ndarray:
    # every row of gamma times m, by one matrix product per member: m is (p, k) or a stack
    # (R, p, k), and gamma's leading axes are the members' (or broadcast against them)
    members = m.ndim - 2
    rows = gamma.reshape(gamma.shape[:members] + (-1, gamma.shape[-1])) @ m
    return rows.reshape(rows.shape[:members] + gamma.shape[members:-1] + m.shape[-1:])


def trace_gain(state: RecursiveState, gamma: np.ndarray, weight) -> np.ndarray:
    """Closed form of Tr(Q_n-1) - Tr(Q_n) for each candidate row, without updating.

    ``gamma`` stacks rows along its last axis; for a stack of members its
    leading axes are the members' (or broadcast against them).  ``weight``
    broadcasts against the row shape.
    """
    gamma = np.asarray(gamma, float)
    qg = _rows_at(gamma, state.q)  # Q is symmetric
    drop = (gamma * qg).sum(-1)
    qg *= qg  # in place: a stack of many candidate rows is large
    return qg.sum(-1) / (1.0 / weight + drop)


def _basis_gains(state, gamma0, gamma, planned_shots, weighting):
    # Summed trace gain of measuring planned_shots copies with each basis
    # (element rows along axis -2); planned weights use outcome probabilities
    # predicted by the current estimate.
    p_pred = _rows_at(gamma, state.theta[..., None])[..., 0]
    p_pred += gamma0 / state.dim
    np.clip(p_pred, 0.0, 1.0, out=p_pred)
    return trace_gain(state, gamma, record_weight(planned_shots, p_pred, weighting)).sum(-1)


def select_next_povm(state: RecursiveState, candidates, planned_shots: int,
                     weighting: str = "shots") -> Povm:
    """Candidate with the largest summed trace gain; ties break to the lowest index.

    For a stack of members, the stack of each member's choice.  The
    candidates must then share their number of outcomes.
    """
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    members = state.theta.shape[:-1]
    gains = np.stack([
        _basis_gains(state, c.gamma0, c.gamma.reshape((1,) * len(members) + c.gamma.shape),
                     planned_shots, weighting)
        for c in candidates
    ], axis=-1)
    best = np.argmax(gains, axis=-1)
    if not members:
        return candidates[best]
    labels = tuple(candidates[i].label for i in best.ravel())
    return Povm(labels, np.stack([c.elements for c in candidates])[best])


def _fibonacci_sphere() -> np.ndarray:
    i = np.arange(128) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / 128)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([
        np.sin(polar) * np.cos(azimuth),
        np.sin(polar) * np.sin(azimuth),
        np.cos(polar),
    ])


_SPHERE_GRID = _fibonacci_sphere()

# candidate directions: the cube axes, the eigendirections of Q, the Bloch direction, the grid
_BLOCH = 6


def _continuum_gains(state, planned_shots, weighting):
    # candidate directions u (..., 135, 3) and _basis_gains of their bases' rows +-u/sqrt(2),
    # from one row each: negation is exact, (-g).theta = -(g.theta) and (-g)(-Qg) = g Qg
    members = state.theta.shape[:-1]
    _, v = np.linalg.eigh(state.q)
    bloch = state.theta * np.sqrt(2.0)
    norm = np.sqrt(np.vecdot(bloch, bloch))[..., None]  # np.linalg.norm's bits
    has_bloch = norm > 1e-9
    # one C-contiguous array: strided rows send the products below off BLAS, moving bits
    u = np.empty(members + (_BLOCH + 1 + len(_SPHERE_GRID), 3))
    u[..., :3, :] = np.eye(3)
    u[..., 3:_BLOCH, :] = v.mT
    u[..., _BLOCH, :] = bloch / np.where(has_bloch, norm, 1.0)
    u[..., _BLOCH + 1:, :] = _SPHERE_GRID
    g = u / np.sqrt(2.0)
    x = _rows_at(g, state.theta[..., None])[..., 0]
    p_pred = np.clip(np.stack([x, -x], axis=-1) + 0.5, 0.0, 1.0)
    # shot weights are one scalar; both outcomes must count it
    weight = np.broadcast_to(record_weight(planned_shots, p_pred, weighting), p_pred.shape)
    qg = _rows_at(g, state.q)  # Q is symmetric
    drop = (g * qg).sum(-1)[..., None]
    qg *= qg
    gains = (qg.sum(-1)[..., None] / (1.0 / weight + drop)).sum(-1)
    gains[..., _BLOCH] = np.where(has_bloch[..., 0], gains[..., _BLOCH], -np.inf)
    return u, gains


def continuum_qubit_basis(state: RecursiveState, planned_shots: int,
                          weighting: str = "shots") -> Povm:
    """Approximate trace-gain optimum over all Bloch directions.

    Scores the cube axes, the eigendirections of Q, the current Bloch
    direction (absent while the estimate is within 1e-9 of the maximally
    mixed state) and a fixed Fibonacci sphere grid under the active
    weighting policy's planned weights, and returns the best basis; cube
    axes win ties.  Under constant (shot) weights the basis along u gains
    ||Q u||^2 / (1/w + u^T Q u / 2), maximized by the top eigendirection of
    Q; under inverse-variance weights aligned measurements become cheap and
    the search leaves the cube frame.  Each direction is scored as one row,
    shared by the basis's two outcomes.  For a stack of members, one batched
    ``eigh`` and one scoring pass give the stack of each member's choice.
    """
    if state.dim != 2:
        raise ValueError("continuum basis search is qubit-only")
    u, gains = _continuum_gains(state, planned_shots, weighting)
    # grid and eigen directions are unit vectors only to rounding, so gains
    # within 1e-12 (relative) of the best tie, and the lowest index wins
    best = np.argmax(gains >= gains.max(-1, keepdims=True) * (1.0 - 1e-12), axis=-1)
    cube = cube_povms(2)
    if u.ndim == 2:  # one state
        return cube[best] if best < 3 else bloch_basis_povm(u[best])
    chosen = bloch_basis_povm(np.take_along_axis(u, best[..., None, None], axis=-2)[..., 0, :])
    labels = tuple(cube[b].label if b < 3 else label
                   for b, label in zip(best.ravel(), chosen.label))
    elements = np.where((best < 3)[..., None, None, None],
                        _cube_elements(2)[np.minimum(best, 2)], chosen.elements)
    return Povm(labels, elements)


def cube_estimate(truth, total: int, rng, weighting: str):
    """Batch tomography from ``total`` copies on the cube bases: (theta, cond, q).

    ``rng`` is one generator, or a list of them, one per member (see
    :func:`qest.states.cube_draws`); each member's estimate equals
    :func:`qest.tomography.tomography_pipeline`'s over its own records.  Under
    shot weights the members share one design, so cond and q are shared too.
    """
    records = cube_records(truth, total, rng)
    return solve_weighted_ls(build_regression(records, np.shape(truth)[-1], weighting))


def run_adaptive_protocol(truth, schedule: AdaptiveSchedule, candidates, seed,
                          weighting: str = "invvar"):
    """Two-stage adaptive tomography of ``truth``.

    Stage 1 spends ``schedule.stage1`` copies on the cube bases and solves the
    batch problem, whose theta and Q0 = (X^T W X)^-1 seed the recursion;
    stage 2 runs ``schedule.steps`` rounds in which the next basis is chosen
    by trace gain (``candidates`` is a POVM list, the string ``"cube"`` for
    the cube bases, or ``"continuum"`` for the analytic qubit optimum),
    ``per_step`` copies are measured and folded in recursively.  Inverse-variance weights
    are the default because the covariance reading of Q assumes them.

    ``seed`` is one seed or generator for one run, or a list or tuple of
    them, one per member, for a stack of R runs made at once; ``truth`` is
    then shared, or an (R, d, d) stack.  Every member draws on its own
    generator, as its own run would, and its results equal that run's.

    Returns the projected final state, (d, d) or (R, d, d), and a per-step
    diagnostics list with keys step, copies_used, trace_q and mse; the last
    two are (R,) arrays for a stack.  The steps' estimates are projected
    together after the last step, by one batched ``project_physical``.
    """
    truth = np.asarray(truth, dtype=complex)
    d = truth.shape[-1]
    rng = [as_rng(s) for s in seed] if isinstance(seed, (list, tuple)) else as_rng(seed)
    if isinstance(candidates, str):
        if candidates == "cube":
            candidates = cube_povms(d)
        elif candidates != "continuum":
            raise ValueError(f"unknown candidate mode {candidates!r}")
        elif d != 2:
            raise ValueError("continuum candidates are qubit-only")
    elif not candidates:
        raise ValueError("candidate set must be non-empty")

    theta, _, q = cube_estimate(truth, schedule.stage1, rng, weighting)
    # shot weights give the members one shared Q0
    state = RecursiveState(q=np.broadcast_to(q, theta.shape + theta.shape[-1:]), theta=theta)

    thetas, trace_q = [state.theta], [np.trace(state.q, axis1=-2, axis2=-1)]
    for _ in range(schedule.steps):
        if candidates == "continuum":
            povm = continuum_qubit_basis(state, schedule.per_step, weighting)
        else:
            povm = select_next_povm(state, candidates, schedule.per_step, weighting)
        p = born_probabilities(truth, povm)
        counts = multinomial(rng, schedule.per_step, p / p.sum(-1, keepdims=True))
        records = Records.of_povm(povm, schedule.per_step, counts)
        state = rls_update(state, build_regression(records, d, weighting))
        thetas.append(state.theta)
        trace_q.append(np.trace(state.q, axis1=-2, axis2=-1))
    rho_steps = project_physical(rho_from_theta(np.stack(thetas)))
    diagnostics = [{"step": k, "copies_used": schedule.stage1 + k * schedule.per_step,
                    "trace_q": tq, "mse": err}
                   for k, (tq, err) in enumerate(zip(trace_q, mse(rho_steps, truth)))]
    return rho_steps[-1], diagnostics
