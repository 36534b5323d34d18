"""Recursive least-squares tomography and trace-gain-driven measurement selection.

The running pair (Q_n, theta_n) is updated per record as

    a_n = (1/W_n + Gamma_n^T Q_{n-1} Gamma_n)^-1
    Q_n = Q_{n-1} - a_n Q_{n-1} Gamma_n Gamma_n^T Q_{n-1}
    theta_n = theta_{n-1} + a_n Q_{n-1} Gamma_n (p_hat_n - 1/d - Gamma_n^T theta_{n-1})

and candidate measurements are scored by the closed-form decrease of Tr(Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import gell_mann_basis, is_hermitian
from .states import Records, bloch_rows, cube_records, cube_rows, multinomial
from .tomography import RegressionProblem, build_regression, record_weight, solve_weighted_ls


@dataclass(frozen=True, eq=False)
class RecursiveState:
    """Covariance-like matrix Q and running estimate theta over gell_mann_basis(dim).

    One state has q (p, p) and theta (p,); a stack of members has q (R, p, p)
    and theta (R, p), and every function of this module treats each member
    exactly as it treats one state.

    q must be exactly symmetric, as :func:`qest.tomography.solve_weighted_ls`
    returns it; nothing here symmetrizes it.  :func:`rls_update` then keeps it
    so, since each fold subtracts a (Q gamma)_i (Q gamma)_j, whose products
    commute, and :func:`trace_gain` reads Q gamma as gamma^T Q.
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


def _probabilities(gamma, theta):
    # outcome probabilities 1/d + gamma . theta of unit-trace elements, clipped to [0, 1]
    p = _rows_at(gamma, theta[..., None])[..., 0]
    p += 1.0 / math.isqrt(theta.shape[-1] + 1)
    return np.clip(p, 0.0, 1.0, out=p)


def _basis_gains(state, gamma, planned_shots, weighting):
    # Summed trace gain of measuring planned_shots copies with each basis
    # (element rows along axis -2); planned weights use the outcome
    # probabilities predicted by the current estimate.
    p_pred = _probabilities(gamma, state.theta)
    return trace_gain(state, gamma, record_weight(planned_shots, p_pred, weighting)).sum(-1)


def select_next_basis(state: RecursiveState, candidate_rows: np.ndarray, planned_shots: int,
                      weighting: str) -> np.ndarray:
    """Rows of the basis with the largest summed trace gain; ties break to the lowest index.

    ``candidate_rows`` stacks the bases' regression rows, (bases, outcomes,
    d^2 - 1), as :func:`qest.states.cube_rows` holds them.  All are scored in one
    pass, for one state or a stack of members, and the result holds each
    member's chosen rows: (outcomes, d^2 - 1), or (R, outcomes, d^2 - 1).
    """
    members = state.theta.shape[:-1]
    gains = _basis_gains(state, candidate_rows.reshape((1,) * len(members) + candidate_rows.shape),
                         planned_shots, weighting)
    return candidate_rows[np.argmax(gains, axis=-1)]


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

# candidate directions: the cube axes, the eigendirections of Q, the Bloch direction, the
# grid; the fixed ones are laid out once here, with zeros where each state's own go
_BLOCH = 6
_DIRECTIONS = np.concatenate([np.eye(3), np.zeros((_BLOCH + 1 - 3, 3)), _SPHERE_GRID])


def _continuum_gains(state, planned_shots, weighting):
    # candidate directions u (..., 135, 3) and _basis_gains of their bases' rows +-u/sqrt(2),
    # from one row each: negation is exact, (-g).theta = -(g.theta) and (-g)(-Qg) = g Qg
    members = state.theta.shape[:-1]
    _, v = np.linalg.eigh(state.q)
    bloch = state.theta * np.sqrt(2.0)
    norm = np.sqrt(np.vecdot(bloch, bloch))[..., None]  # np.linalg.norm's bits
    has_bloch = norm > 1e-9
    # one C-contiguous array: strided rows send the products below off BLAS, moving bits
    u = np.empty(members + _DIRECTIONS.shape)
    u[...] = _DIRECTIONS
    u[..., 3:_BLOCH, :] = v.mT
    u[..., _BLOCH, :] = bloch / np.where(has_bloch, norm, 1.0)
    g = u / np.sqrt(2.0)
    qg = _rows_at(g, state.q)  # Q is symmetric
    # explicit adds give .sum(-1)'s bits (it adds 3 or 2 terms left to right) without its row loop
    gqg = g * qg
    qg *= qg
    drop = gqg[..., 0] + gqg[..., 1] + gqg[..., 2]
    gain = qg[..., 0] + qg[..., 1] + qg[..., 2]
    if weighting == "shots":
        # one weight for both outcomes, so their gains are equal halves
        gain /= 1.0 / record_weight(planned_shots, None, weighting) + drop
        gain += gain
    else:
        # the outcome rows +-g predict 1/2 +- x, the outcome axis first ((-x) + 1/2 has the
        # bits of 1/2 - x); record_weight clips them to [lo, 1 - lo], inside [0, 1]
        x = _rows_at(g, state.theta[..., None])[..., 0]
        p = np.empty((2,) + x.shape)
        np.add(x, 0.5, out=p[0])
        np.subtract(0.5, x, out=p[1])
        inv = 1.0 / record_weight(planned_shots, p, weighting)
        inv += drop
        np.divide(gain, inv, out=inv)
        gain = np.add(inv[0], inv[1], out=gain)
    gain[..., _BLOCH][~has_bloch[..., 0]] = -np.inf
    return u, gain


def continuum_qubit_basis(state: RecursiveState, planned_shots: int,
                          weighting: str) -> np.ndarray:
    """Approximate trace-gain optimum over all Bloch directions, as the basis's rows.

    Scores the cube axes, the eigendirections of Q, the current Bloch
    direction (absent while the estimate is within 1e-9 of the maximally
    mixed state) and a fixed Fibonacci sphere grid under the active
    weighting policy's planned weights, and returns the best basis; cube
    axes win ties.  Under constant (shot) weights the basis along u gains
    ||Q u||^2 / (1/w + u^T Q u / 2), maximized by the top eigendirection of
    Q; under inverse-variance weights aligned measurements become cheap and
    the search leaves the cube frame.  Each direction is scored as one row,
    shared by the basis's two outcomes: under shot weights both outcomes
    gain the same, and under inverse-variance weights the predicted outcome
    probabilities are 1/2 +- u.theta/sqrt(2), which ``record_weight`` clips.

    Returns the chosen basis's :func:`qest.states.bloch_rows`: (2, 3), or
    (R, 2, 3) for a stack of members, whose one batched ``eigh`` and one
    scoring pass give each member the rows of its own call.
    """
    if state.dim != 2:
        raise ValueError("continuum basis search is qubit-only")
    u, gains = _continuum_gains(state, planned_shots, weighting)
    # grid and eigen directions are unit vectors only to rounding, so gains
    # within 1e-12 (relative) of the best tie, and the lowest index wins
    best = np.argmax(gains >= gains.max(-1, keepdims=True) * (1.0 - 1e-12), axis=-1)
    return bloch_rows(u[(*np.indices(best.shape, sparse=True), best)])


def cube_estimate(truth, total: int, rng, weighting: str):
    """Batch tomography from ``total`` copies on the cube bases: (theta, cond, q).

    ``rng`` is one generator, or a list of them, one per member (see
    :func:`qest.states.cube_draws`); each member's estimate equals
    :func:`qest.tomography.tomography_pipeline`'s over its own records.  Under
    shot weights the members share one design, so cond and q are shared too.
    """
    records = cube_records(truth, total, rng)
    return solve_weighted_ls(build_regression(records, weighting))


def run_adaptive_protocol(truth, schedule: AdaptiveSchedule, candidates: str, seed,
                          weighting: str = "invvar"):
    """Two-stage adaptive tomography of ``truth``: every step's estimate, unprojected.

    Stage 1 spends ``schedule.stage1`` copies on the cube bases and solves the
    batch problem, whose theta and Q0 = (X^T W X)^-1 seed the recursion;
    stage 2 runs ``schedule.steps`` rounds in which the next basis is chosen
    by trace gain (``candidates`` is ``"cube"`` for the cube bases or
    ``"continuum"`` for the analytic qubit optimum), ``per_step`` copies are
    measured and folded in recursively.  Q = (X^T W X)^-1.  Inverse-variance
    weights, the default, weigh each outcome by shots/(p(1-p)); under them
    Tr(Q) understates theta's mean squared error about 2x at d = 2.

    ``truth`` is one state (d, d) or a stack (R, d, d), every member finite,
    Hermitian and of unit trace within 1e-8, the tolerances of
    :func:`qest.tomography.project_physical`; anything else raises
    :class:`ContractViolationError`.  ``seed`` is one seed or generator for
    one run, or a list or tuple of them, one per member, for a stack of R runs
    made at once; ``truth`` is then shared, or an (R, d, d) stack.  Every
    member draws on its own generator, as its own run would, and its results
    equal that run's.

    Returns ``(thetas, trace_q)`` over the K + 1 steps (stage 1 is step 0):
    each step's estimate over ``gell_mann_basis(d)``, (K+1, d^2 - 1) or
    (K+1, R, d^2 - 1) for a stack, and Tr(Q), (K+1,) or (K+1, R).  The
    estimates are not projected: callers project the steps they read, and
    ``project_physical`` projects each member of a stack on its own.
    """
    truth = np.asarray(truth, dtype=complex)
    if truth.ndim not in (2, 3) or truth.shape[-1] != truth.shape[-2]:
        raise ContractViolationError(
            f"truth must be a (d, d) state or an (R, d, d) stack, not of shape {truth.shape}")
    if not (np.isfinite(truth).all() and is_hermitian(truth, 1e-8)
            and (abs(truth.trace(axis1=-2, axis2=-1).real - 1.0) <= 1e-8).all()):
        raise ContractViolationError("truth must be finite, Hermitian and of unit trace")
    d = truth.shape[-1]
    rng = ([np.random.default_rng(s) for s in seed] if isinstance(seed, (list, tuple))
           else np.random.default_rng(seed))
    if candidates not in ("cube", "continuum"):
        raise ValueError(f"unknown candidate mode {candidates!r}")
    if candidates == "continuum" and d != 2:
        raise ValueError("continuum candidates are qubit-only")

    theta, _, q = cube_estimate(truth, schedule.stage1, rng, weighting)
    # shot weights give the members one shared Q0
    state = RecursiveState(q=np.broadcast_to(q, theta.shape + theta.shape[-1:]), theta=theta)
    # the truth's coordinates, from which each step's outcome probabilities follow
    truth_theta = np.einsum("...ij,kji->...k", truth, gell_mann_basis(d)).real
    shots = np.full(d, schedule.per_step)

    thetas, trace_q = [state.theta], [np.trace(state.q, axis1=-2, axis2=-1)]
    for _ in range(schedule.steps):
        if candidates == "continuum":
            rows = continuum_qubit_basis(state, schedule.per_step, weighting)
        else:
            rows = select_next_basis(state, cube_rows(d), schedule.per_step, weighting)
        p = _probabilities(rows, truth_theta)
        counts = multinomial(rng, schedule.per_step, p / p.sum(-1, keepdims=True))
        records = Records(shots, counts.astype(float), rows)
        state = rls_update(state, build_regression(records, weighting))
        thetas.append(state.theta)
        trace_q.append(np.trace(state.q, axis1=-2, axis2=-1))
    return np.stack(thetas), np.stack(trace_q)
