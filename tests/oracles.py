"""Checkers and reference implementations that the tests use as oracles.

None of these is on a `qest` code path.  The Schur-based matrix logarithm is
the reference that `qest.linalg.unitary_log` is compared against; it needs
scipy, which only the tests and the benchmark use.  The per-rotation
identification loop is the reference for `qest.identify_hamiltonian`'s
closed-form choice of phase rotation.
"""

import warnings

import numpy as np
import scipy.linalg

from qest import linalg
from qest.errors import ContractViolationError
from qest.identification import raw_process_matrix
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


def identify_by_rotations(lam: np.ndarray, t: float):
    """Reference identification: one matrix log per phase rotation.

    Follows ``qest.identify_hamiltonian`` up to the rotation choice, then takes
    ``qest.linalg.unitary_log`` of every candidate base * e^{2 pi i r/d},
    capturing each call's warnings, and keeps the smallest spectral norm;
    norms within 1e-9 tie, and a tied candidate clear of the cut beats one on
    it.  Returns (H, the chosen candidate's warnings, [(norm, warned)] per r).
    """
    lam = np.asarray(lam, dtype=complex)
    d = int(round(np.sqrt(lam.shape[0])))
    dmat = raw_process_matrix(lam)
    w, v = np.linalg.eigh((dmat + dmat.conj().T) / 2)
    g_hat = linalg.nearest_unitary(linalg.vec_inv(np.sqrt(float(w[-1])) * v[:, -1], d, d))
    base = g_hat.T * np.exp(-1j * np.angle(np.linalg.det(g_hat.T)) / d)
    best, candidates = None, []
    for r in range(d):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h_r = linalg.unitary_log(base * np.exp(2j * np.pi * r / d), t)
        norm = float(np.linalg.norm(h_r, 2))
        candidates.append((norm, bool(caught)))
        if (best is None or norm < best[0] - 1e-9
                or (abs(norm - best[0]) <= 1e-9 and best[2] and not caught)):
            best = (norm, h_r, list(caught))
    return best[1], best[2], candidates
