"""Batch state tomography by weighted linear regression.

The estimator solves Theta_hat = argmin sum_j W_j (p_hat_j - gamma0_j/d -
Gamma_j . Theta)^2 and projects the reconstructed Hermitian matrix onto the
physical (PSD, unit-trace) set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, SingularDesignError
from .linalg import gell_mann_basis, is_hermitian
from .states import Records, rho_from_theta

WEIGHTINGS = ("shots", "invvar")

_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Weighted linear model y = x @ theta + e with positive per-row weights.

    ``y`` is one response column (n,) or k columns (n, k) that share the
    design ``x`` (n, p) and the weights ``w`` (n,).
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


def build_regression(records: Records, d: int, weighting: str = "shots") -> RegressionProblem:
    """Assemble the regression rows y_j = p_hat_j - gamma0_j / d from records."""
    if len(records) == 0:
        raise ValueError("cannot build a regression from an empty record table")
    p_hat = records.p_hat
    return RegressionProblem(y=p_hat - records.gamma0 / d, x=records.gamma,
                             w=record_weight(records.shots, p_hat, weighting))


def solve_weighted_ls(problem: RegressionProblem):
    """Weighted least-squares solution and the condition number of sqrt(W) X.

    theta is (p,) for a single response column and (p, k) for k columns,
    all solved against the one shared design.  Raises
    :class:`SingularDesignError` when the design is rank deficient or
    conditioned worse than 1e12, naming the null-space dimension.
    """
    sw = np.sqrt(problem.w)
    a = problem.x * sw[:, None]
    b = (problem.y.T * sw).T
    n_par = problem.x.shape[1]
    s = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if rank < n_par:
        raise SingularDesignError(n_par - rank)
    cond = float(s[0] / s[-1])
    if cond > _COND_LIMIT:
        raise SingularDesignError(0, f"design condition number {cond:.2e} exceeds {_COND_LIMIT:.0e}")
    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    return theta, cond


def project_physical(rho_tilde: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Closest density matrix sharing rho_tilde's eigenvectors.

    Eigendecomposes the unit-trace Hermitian input and projects the eigenvalue
    vector onto the probability simplex: negative eigenvalues are zeroed in
    ascending order while the running deficit is spread uniformly over the
    remaining ones.
    """
    rho_tilde = np.asarray(rho_tilde, dtype=complex)
    if not is_hermitian(rho_tilde, tol):
        raise ContractViolationError("project_physical requires a Hermitian input")
    if abs(np.trace(rho_tilde).real - 1.0) > tol:
        raise ContractViolationError("project_physical requires unit trace")
    w, v = np.linalg.eigh(rho_tilde)
    if w[0] >= 0:
        return rho_tilde
    lam = w[::-1].copy()  # descending
    d = lam.size
    i = d
    acc = 0.0
    while lam[i - 1] + acc / i < 0:
        acc += lam[i - 1]
        lam[i - 1] = 0.0
        i -= 1
    lam[:i] += acc / i
    out = (v[:, ::-1] * lam) @ v[:, ::-1].conj().T
    return (out + out.conj().T) / 2


def tomography_pipeline(records: Records, d: int, weighting: str = "shots"):
    """records -> (physical state, theta, diagnostics).

    Diagnostics report the weighted residual norm, the design condition
    number, and whether the physical projection changed the estimate.
    """
    problem = build_regression(records, d, weighting)
    theta, cond = solve_weighted_ls(problem)
    rho_tilde = rho_from_theta(theta, gell_mann_basis(d))
    rho = project_physical(rho_tilde)
    distance = float(np.linalg.norm(rho - rho_tilde))
    residual = float(np.linalg.norm(np.sqrt(problem.w) * (problem.y - problem.x @ theta)))
    diagnostics = {
        "residual_norm": residual,
        "condition_number": cond,
        "projection_changed": distance > 1e-12,
        "projection_distance": distance,
    }
    return rho, theta, diagnostics
