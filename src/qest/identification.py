"""Process tomography and Hamiltonian identification for unitary channels.

A channel eps(rho) = sum_i A_i rho A_i^dag is encoded by the process matrix X
over a fixed operator basis {F_j}; with the natural matrix units as both the
operator basis and the state-expansion basis, the linear map B in
B vec(X) = vec(Lambda) is a permutation (hence unitary), and a unitary channel
gives a rank-one X whose vectorized factor G satisfies exp(-i H t) = G^T.

Identification never forms B: X is an O(d^4) index reshuffle of Lambda
(``raw_process_matrix``), so noiseless identification runs at d = 16 in well
under a second.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractViolationError
from .linalg import nearest_unitary, unitary_log, vec_inv
from .states import cube_draws, rho_from_paulis
from .tomography import project_physical, solve_cube_paulis


@lru_cache(maxsize=None)
def natural_probes(d: int) -> np.ndarray:
    """The d^2 standard probe projectors as one cached, read-only (d^2, d, d) array.

    The d projectors |k><k| come first, then |+_jk><+_jk| and then
    |+i_jk><+i_jk| for j < k, with |+_jk> = (|j> + |k>)/sqrt(2) and
    |+i_jk> = (|j> + i|k>)/sqrt(2).  Row k of ``probes.reshape(d^2, d^2)``
    expands probe k over the matrix units |a><b|, (a, b) row-major, and is
    invertible since the probes span every d x d matrix.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    eye = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, 1)  # the pairs j < k, in row-major order
    plus, plus_i = (eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)
    kets = np.concatenate([eye, plus, plus_i])
    probes = kets[:, :, None] * kets[:, None, :].conj()
    probes.flags.writeable = False
    return probes


def raw_process_matrix(lam: np.ndarray) -> np.ndarray:
    """Exact solution X of B vec(X) = vec(Lambda), i.e. vec^-1(B^dag vec(Lambda)).

    With natural units F_j = |a><b|, j = (a, b), and rho_m = |b><e|, m = (b, e),
    F_j rho_m F_k^dag = |a><c| for k = (c, e), so B is the permutation
    X[(a, b), (c, e)] = Lambda[(b, e), (a, c)]: an O(d^4) reshuffle of Lambda
    (the chi <-> Lambda relation of Nielsen & Chuang, section 8.4.2).
    """
    lam = np.asarray(lam)
    d = int(round(np.sqrt(lam.shape[0])))
    return lam.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def apply_channel(kraus, rho: np.ndarray) -> np.ndarray:
    """eps(rho) = sum_i A_i rho A_i^dag for one matrix or a stack (k, d, d) of them.

    Also valid on non-Hermitian inputs.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for a in kraus:
        if a.shape != rho.shape[-2:]:
            raise ValueError("Kraus operator and state dimensions differ")
        out += a @ rho @ a.conj().T
    return out


def estimate_lambda(kraus, d: int, shots_per_output=None, seed=None) -> np.ndarray:
    """Transfer matrix Lambda with eps(unit_m) = sum_n Lambda[m, n] unit_n.

    The units are the matrix units |a><b|, m = (a, b) row-major, as rows of
    ``np.eye(d^2)``.  With ``shots_per_output`` None (noiseless) the channel
    acts on them directly.  Otherwise all d^2 physical probes run as one
    stack: one channel application, one :func:`cube_draws` call that scores
    every (probe, basis, outcome) by one Born-rule matrix product and draws
    all of them by one multinomial call (in probe order, each output measured
    on the cube bases with ``shots_per_output`` copies), the closed-form
    shot-weighted solve in Pauli coordinates (:func:`solve_cube_paulis`), one
    reconstruction by butterfly stages and one batched physical projection.
    The probe expansion goes back to the units through the exact linear map.
    """
    d2 = d * d
    if shots_per_output is None:
        return apply_channel(kraus, np.eye(d2, dtype=complex).reshape(d2, d, d)).reshape(d2, d2)
    if shots_per_output < 1:
        raise ValueError("shots_per_output must be None (noiseless) or at least 1")
    probes = natural_probes(d)
    copies, draws = cube_draws(apply_channel(kraus, probes), int(shots_per_output), seed)
    rho = project_physical(rho_from_paulis(solve_cube_paulis(copies, draws)))
    return np.linalg.solve(probes.reshape(d2, d2), rho.reshape(d2, d2))


def identify_hamiltonian(lam: np.ndarray, t: float):
    """Two-step unitary fit followed by a branch-aware matrix logarithm.

    Steps: Hermitize D = vec^-1(B^dag vec(Lambda)), an index reshuffle of
    Lambda (``raw_process_matrix``); take its top eigenpair as the rank-one
    factor S; project S to the nearest unitary G; return the traceless H with
    exp(-i H t) = G^T up to a global phase.

    The global phase of G is unobservable: of its d determinant-compatible
    phase rotations, the one whose log has the smallest spectral norm, read
    off one ``eigvals``, goes to one matrix log.  This recovers the generator
    exactly whenever the true H is the minimal-norm traceless generator of
    its own propagator (guaranteed for ||H||_2 t < pi/2; larger generators
    can alias onto a smaller-norm branch and are then unrecoverable from
    channel data alone).
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    lam = np.asarray(lam, dtype=complex)
    d = int(round(np.sqrt(lam.shape[0])))
    dmat = raw_process_matrix(lam)
    dmat = (dmat + dmat.conj().T) / 2
    w, v = np.linalg.eigh(dmat)
    lam1 = float(w[-1])
    if lam1 <= 0:
        raise ContractViolationError(
            "degenerate data: the rank-one fit has no positive eigenvalue"
        )
    s_hat = vec_inv(np.sqrt(lam1) * v[:, -1], d, d)
    g_hat = nearest_unitary(s_hat)
    base = g_hat.T * np.exp(-1j * np.angle(np.linalg.det(g_hat.T)) / d)
    # base * e^{2 pi i r/d} has base's eigenphases shifted by 2 pi r/d: one eigvals
    # gives every candidate's log norm and whether it is within 1e-6 of the cut
    phases = np.angle(np.exp(2j * np.pi * np.arange(d) / d)[:, None] * np.linalg.eigvals(base))
    norms = np.abs(phases - phases.mean(axis=1, keepdims=True)).max(axis=1) / t
    on_cut = np.pi - np.abs(phases).max(axis=1) <= 1e-6
    best = 0
    for r in range(1, d):
        # equal-norm branches are the same generator up to phase bookkeeping;
        # prefer the one that stayed clear of the cut
        if (norms[r] < norms[best] - 1e-9
                or (abs(norms[r] - norms[best]) <= 1e-9 and on_cut[best] and not on_cut[r])):
            best = r
    h_hat = unitary_log(base * np.exp(2j * np.pi * best / d), t)
    diagnostics = {
        "rank1_dominance": lam1 / float(np.sum(np.abs(w))),
        "unitary_fit_distance": float(np.linalg.norm(g_hat - s_hat)),
        "top_eigenvalue": lam1,
    }
    return h_hat, diagnostics


def random_traceless_hermitian(d: int, rng, spectral_norm: float = 1.0) -> np.ndarray:
    """Random traceless Hermitian matrix scaled to the requested spectral norm."""
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    h -= (np.trace(h) / d) * np.eye(d)
    return h * (spectral_norm / np.linalg.norm(h, 2))
