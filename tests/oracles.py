"""Checkers and reference implementations that the tests use as oracles.

None of these is on a `qest` code path.  The Schur-based matrix logarithm is
the reference that `qest.linalg.unitary_log` is compared against; it needs
scipy, which only the tests and the benchmark use.
"""

import numpy as np
import scipy.linalg

from qest.errors import ContractViolationError
from qest.linalg import is_hermitian
from qest.states import Povm


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian, unit-trace and PSD within tol."""
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        raise ContractViolationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ContractViolationError("density matrix trace differs from 1")
    if float(np.linalg.eigvalsh(rho).min()) < -tol:
        raise ContractViolationError("density matrix has a negative eigenvalue")


def validate_povm(povm: Povm, tol: float = 1e-9) -> None:
    """Raise unless every element is Hermitian and PSD and the elements sum to I."""
    d = povm.dim
    for p in povm.elements:
        if not is_hermitian(p, 1e-10):
            raise ContractViolationError(f"POVM {povm.label}: non-Hermitian element")
        if float(np.linalg.eigvalsh(p).min()) < -1e-10:
            raise ContractViolationError(f"POVM {povm.label}: element not PSD")
    if np.linalg.norm(povm.elements.sum(axis=0) - np.eye(d)) > tol:
        raise ContractViolationError(f"POVM {povm.label}: elements do not sum to identity")


def is_trace_preserving(kraus, tol: float = 1e-9) -> bool:
    """sum_i A_i^dag A_i equals the identity within tol."""
    total = sum(a.conj().T @ a for a in kraus)
    return float(np.linalg.norm(total - np.eye(total.shape[0]))) <= tol


def schur_eigenphases(u: np.ndarray):
    """Principal eigenphases of a unitary and its unitary Schur vectors."""
    tmat, z = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    return np.angle(np.diag(tmat)), z


def unitary_log(u: np.ndarray, t: float) -> np.ndarray:
    """Reference traceless Hermitian H with exp(-i H t) = U up to a global phase.

    The eigenphases on (-pi, pi] come from the diagonal of the complex Schur
    form, whose Schur vectors are U's eigenvectors because U is normal.
    """
    d = u.shape[0]
    phases, z = schur_eigenphases(u)
    h = (z * (-phases / t)) @ z.conj().T
    h = h - (np.trace(h) / d) * np.eye(d)
    return (h + h.conj().T) / 2
