"""Process tomography and Hamiltonian identification for unitary channels.

A channel eps(rho) = sum_i A_i rho A_i^dag is encoded by the process matrix X
over a fixed operator basis {F_j}; with the natural matrix units as both the
operator basis and the state-expansion basis, the linear map B in
B vec(X) = vec(Lambda) is a permutation (hence unitary), and a unitary channel
gives a rank-one X whose vectorized factor G satisfies exp(-i H t) = G^T.

Identification never forms B: X is an O(d^4) index reshuffle of Lambda
(``raw_process_matrix``), so noiseless identification runs at d = 16 in well
under a second.  ``build_b_matrix`` builds the dense d^4 x d^4 B from the same
index map, for checks only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import (
    gell_mann_basis,
    nearest_unitary,
    unitary_log,
    vec,
    vec_inv,
)
from .states import as_rng, cube_records, rho_from_theta
from .tomography import RegressionProblem, build_regression, project_physical, solve_weighted_ls


@dataclass(frozen=True, eq=False)
class ProcessBases:
    """Natural matrix units plus a physical probe set spanning the same space.

    ``units[j] = |a><b|`` with j enumerating (a, b) row-major, so the
    expansion coefficients of a matrix T over the units are ``T.ravel()``.
    ``probe_coeffs[k]`` expands probe k in the units: probes = probe_coeffs @ units.
    """

    dim: int
    units: np.ndarray        # (d^2, d, d)
    probes: np.ndarray       # (d^2, d, d), physical density matrices
    probe_coeffs: np.ndarray  # (d^2, d^2)


def natural_state_basis(d: int) -> ProcessBases:
    """Matrix units |a><b| and the standard probe projectors that span them."""
    if d < 2:
        raise ValueError("need d >= 2")
    units = np.zeros((d * d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            units[a * d + b, a, b] = 1.0
    probes = []
    eye = np.eye(d, dtype=complex)
    for k in range(d):
        probes.append(np.outer(eye[k], eye[k]))
    for j in range(d):
        for k in range(j + 1, d):
            plus = (eye[j] + eye[k]) / np.sqrt(2)
            probes.append(np.outer(plus, plus.conj()))
    for j in range(d):
        for k in range(j + 1, d):
            plusi = (eye[j] + 1j * eye[k]) / np.sqrt(2)
            probes.append(np.outer(plusi, plusi.conj()))
    probes = np.stack(probes)
    coeffs = probes.reshape(d * d, d * d)
    return ProcessBases(dim=d, units=units, probes=probes, probe_coeffs=coeffs)


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


def build_b_matrix(d: int) -> np.ndarray:
    """Dense B with B[(m,n),(j,k)] the coefficient of rho_n in F_j rho_m F_k^dag.

    Row (m, n) maps to index n*d^2 + m and column (j, k) to k*d^2 + j,
    matching the column-stacked ``vec``.  B is the permutation applied by
    ``raw_process_matrix``; the dense form costs O(d^8) memory and serves
    only checks of that map.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    d4 = d**4
    rows = vec(raw_process_matrix(vec_inv(np.arange(d4), d * d, d * d)))
    b = np.zeros((d4, d4), dtype=complex)
    b[rows, np.arange(d4)] = 1.0
    return b


def apply_channel(kraus, rho: np.ndarray) -> np.ndarray:
    """eps(rho) = sum_i A_i rho A_i^dag (also valid on non-Hermitian inputs)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for a in kraus:
        if a.shape != rho.shape:
            raise ValueError("Kraus operator and state dimensions differ")
        out += a @ rho @ a.conj().T
    return out


def estimate_lambda(kraus, d: int, mode: str = "noiseless", shots_per_output=None,
                    seed=None) -> np.ndarray:
    """Transfer matrix Lambda with eps(unit_m) = sum_n Lambda[m, n] unit_n.

    ``noiseless`` applies the channel to the matrix units directly.  ``sampled``
    pushes the physical probes through the channel, measures every output on
    the cube bases with ``shots_per_output`` copies (probe by probe, in probe
    order), reconstructs all outputs by one shot-weighted least-squares solve
    over their shared design, projects each onto the physical states, and
    converts the probe expansion back to the units through the exact linear map.
    """
    bases = natural_state_basis(d)
    d2 = d * d
    if mode == "noiseless":
        lam = np.empty((d2, d2), dtype=complex)
        for m in range(d2):
            lam[m] = apply_channel(kraus, bases.units[m]).ravel()
        return lam
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if not shots_per_output or shots_per_output < 1:
        raise ValueError("sampled mode needs shots_per_output >= 1")
    rng, shots = as_rng(seed), int(shots_per_output)
    columns = []
    for probe in bases.probes:
        problem = build_regression(cube_records(apply_channel(kraus, probe), shots, rng), d)
        columns.append(problem.y)
    # the copy split, hence x and the shot weights, is the same for every probe
    theta, _, _ = solve_weighted_ls(RegressionProblem(np.stack(columns, axis=1), problem.x, problem.w))
    basis = gell_mann_basis(d)
    lam_probe = np.stack([project_physical(rho_from_theta(t, basis)).ravel()
                          for t in np.ascontiguousarray(theta.T)])
    return np.linalg.solve(bases.probe_coeffs, lam_probe)


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
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    h -= (np.trace(h) / d) * np.eye(d)
    return h * (spectral_norm / np.linalg.norm(h, 2))
