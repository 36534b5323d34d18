"""Batch state tomography by weighted linear regression.

The estimator solves Theta_hat = argmin sum_j W_j (p_hat_j - 1/d -
Gamma_j . Theta)^2 and projects the reconstructed Hermitian matrix onto the
physical (PSD, unit-trace) set.  For shot-weighted cube draws the same
minimum has a closed form in Pauli coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, SingularDesignError
from .linalg import is_hermitian
from .states import Records, cube_pauli_tables, rho_from_theta

WEIGHTINGS = ("shots", "invvar")

_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Weighted linear model y = x @ theta + e with positive per-row weights.

    One problem has responses ``y`` and weights ``w`` (n,) and rows ``x``
    (n, p).  A stack of R members has responses (R, n); its weights and rows
    are the members' own, (R, n) and (R, n, p), or shared, (n,) and (n, p).
    """

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray


def record_weight(shots, p_hat, weighting: str):
    """Per-row regression weights, elementwise over arrays of rows.

    ``shots`` weights rows by copy count; ``invvar`` by the inverse binomial
    variance shots / (p(1-p)) with p clipped to [1/(2n), 1 - 1/(2n)] so that
    empirical frequencies of exactly 0 or 1 stay finite.
    """
    if weighting == "shots":
        return np.asarray(shots, dtype=float)
    if weighting == "invvar":
        lo = 1.0 / (2.0 * shots)
        p = np.clip(p_hat, lo, 1.0 - lo)
        return shots / (p * (1.0 - p))
    raise ValueError(f"unknown weighting {weighting!r}; choose from {WEIGHTINGS}")


def build_regression(records: Records, weighting: str = "shots") -> RegressionProblem:
    """Assemble the regression rows y_j = p_hat_j - 1/d from records.

    d comes from the records' d^2 - 1 Gell-Mann coordinates.  A stack of
    records gives a stack of problems, member by member: each member's
    responses, and under ``invvar`` its weights, are its own.
    """
    if len(records) == 0:
        raise ValueError("cannot build a regression from an empty record table")
    p_hat = records.p_hat
    d = math.isqrt(records.gamma.shape[-1] + 1)
    return RegressionProblem(y=p_hat - 1.0 / d, x=records.gamma,
                             w=record_weight(records.shots, p_hat, weighting))


def solve_weighted_ls(problem: RegressionProblem):
    """Weighted least squares from one thin SVD of sqrt(W) X: (theta, cond, q).

    The general solve, for any records and either weighting.  Shot-weighted
    cube draws have the closed form :func:`solve_cube_paulis`.

    theta is (p,); cond is the condition number of sqrt(W) X; q = (X^T W X)^-1
    is the Q0 that seeds recursive updates.  Raises :class:`SingularDesignError`
    when the design is rank deficient or conditioned worse than 1e12, naming
    the null-space dimension.

    A stack of problems (see :class:`RegressionProblem`) is solved by one
    SVD of the shared design, or one batched SVD of the members' own, each
    member exactly as it would be solved alone.  theta is (R, p); cond and q
    gain the member axis when the weights or rows have it.  The errors name
    the worst member.
    """
    sw = np.sqrt(problem.w)
    a = problem.x * sw[..., None]
    # responses as (..., n, 1) columns, contiguous so that BLAS reads each member's as it
    # reads one problem's
    b = np.ascontiguousarray((problem.y * sw)[..., None])
    n_par = problem.x.shape[-1]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = np.count_nonzero(s > s[..., :1] * 1e-12, axis=-1)
    if rank.min() < n_par:
        raise SingularDesignError(int(n_par - rank.min()))
    cond = s[..., 0] / s[..., -1]
    if cond.max() > _COND_LIMIT:
        raise SingularDesignError(
            0, f"design condition number {cond.max():.2e} exceeds {_COND_LIMIT:.0e}")
    theta = vt.mT @ ((u.mT @ b) / s[..., None])
    q = (vt.mT / s[..., None, :]**2) @ vt
    return theta[..., 0], cond, (q + q.mT) / 2


def solve_cube_paulis(copies: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Shot-weighted least squares over cube draws, in closed form: all 4^q Pauli expectations.

    ``copies`` and ``draws`` are :func:`qest.states.cube_draws`' output for
    one state or a stack; the result has shape ``draws.shape[:-2] + (4^q,)``,
    indexed as in :func:`qest.states.cube_pauli_tables`.  Basis b's draws
    give its estimate of every Pauli P it measures, e_bP, with
    ``w_b e_bP = (draws_b @ signs)[S]`` for the shot weight w_b = copies[b].
    Under shot weights the information matrix of the cube design is diagonal
    in the Pauli basis, with W_P = sum_{b measures P} w_b on the diagonal, so
    the solution :func:`solve_weighted_ls` finds over the same records is
    e_P = sum_b w_b e_bP / W_P for every non-identity P, and e_I = 1.

    Raises :class:`SingularDesignError` naming the number of non-identity
    Paulis with W_P = 0, which is the null-space dimension of the design.
    There is no condition-number check: the condition number is
    sqrt(max W_P / min W_P), and with every measured basis given c or c + 1
    copies (c >= 1), or one copy when some bases get none, it is at most
    sqrt(2 * 3^(q-1)), far below the 1e12 limit of :func:`solve_weighted_ls`.
    """
    d = draws.shape[-1]
    n = d * d
    signs, pauli_index = cube_pauli_tables(d)
    # integer counts times +-1 signs: the weighted sums are exact
    weighted = draws.reshape((-1,) + draws.shape[-2:]) @ signs
    k = len(weighted)
    # one bincount adds every (state, basis, subset) into its state's slot for its Pauli
    slots = (np.arange(k)[:, None] * n + pauli_index.ravel()).ravel()
    sums = np.bincount(slots, weights=weighted.ravel(), minlength=k * n).reshape(k, n)
    weight = np.bincount(pauli_index.ravel(), weights=np.repeat(copies, d), minlength=n)
    unmeasured = int(np.count_nonzero(weight[1:] == 0))
    if unmeasured:
        raise SingularDesignError(unmeasured)
    e = sums / weight
    e[:, 0] = 1.0
    return e.reshape(draws.shape[:-2] + (n,))


def project_physical(rho_tilde: np.ndarray) -> np.ndarray:
    """Closest density matrix sharing rho_tilde's eigenvectors, for one matrix or a stack.

    Every member must be Hermitian and of unit trace within 1e-8; all are
    eigendecomposed by one batched ``eigh``.  A member with no negative
    eigenvalue keeps its values.  The others have their eigenvalue vectors
    projected onto the probability simplex, all at once: negative eigenvalues
    are zeroed in ascending order while the running deficit, spread uniformly
    over the remaining ones, leaves the next one negative.  The result equals
    that one-matrix accumulator loop (kept in the tests) up to rounding-level
    ties between candidate shifts.
    """
    rho_tilde = np.asarray(rho_tilde, dtype=complex)
    if not is_hermitian(rho_tilde, 1e-8):
        raise ContractViolationError("project_physical requires a Hermitian input")
    if (abs(rho_tilde.trace(axis1=-2, axis2=-1).real - 1.0) > 1e-8).any():
        raise ContractViolationError("project_physical requires unit trace")
    w, v = np.linalg.eigh(rho_tilde)
    d = w.shape[-1]
    # Zeroing the m smallest eigenvalues spreads their sum as a shift over the other d - m.
    # The accumulator loop zeroes exactly while that shift keeps falling, so it stops at
    # the smallest shift and zeroes just the eigenvalues the shift leaves negative.  That
    # shift is negative for every member with a negative eigenvalue, so initial=0 changes
    # no projected member and gives d = 1, which has no candidate shift, one.
    shift = (w.cumsum(-1)[..., :-1] / np.arange(d - 1.0, 0.0, -1.0)).min(
        -1, keepdims=True, initial=0.0)
    lam = np.maximum(w + shift, 0.0)[..., None, ::-1]
    v = v[..., ::-1]  # descending, as the loop sums
    out = (v * lam) @ v.conj().mT
    out += out.conj().mT
    out /= 2
    return np.where(w[..., :1, None] < 0, out, rho_tilde)


def tomography_pipeline(records: Records, weighting: str = "shots"):
    """records -> (physical state, theta, diagnostics).

    Diagnostics report the weighted residual norm, the design condition
    number, and whether the physical projection changed the estimate.
    """
    problem = build_regression(records, weighting)
    theta, cond, _ = solve_weighted_ls(problem)
    rho_tilde = rho_from_theta(theta)
    rho = project_physical(rho_tilde)
    distance = float(np.linalg.norm(rho - rho_tilde))
    residual = float(np.linalg.norm(np.sqrt(problem.w) * (problem.y - problem.x @ theta)))
    diagnostics = {
        "residual_norm": residual,
        "condition_number": float(cond),
        "projection_changed": distance > 1e-12,
        "projection_distance": distance,
    }
    return rho, theta, diagnostics
