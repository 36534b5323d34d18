"""Process tomography and Hamiltonian identification for unitary channels.

A channel eps(rho) = sum_i A_i rho A_i^dag is encoded by the process matrix X
over a fixed operator basis {F_j}; with the natural matrix units as both the
operator basis and the state-expansion basis, the linear map B in
B vec(X) = vec(Lambda) is a permutation (hence unitary), and a unitary channel
gives a rank-one X whose vectorized factor G satisfies exp(-i H t) = G^T.

Identification forms no dense map: sampled Lambda's rows are sums of the
probe outputs picked by index, X is an O(d^4) index reshuffle of Lambda
(``raw_process_matrix``), and the rank-one factor is X's top eigenvector by
power iteration next to one ``eigvalsh``, with a full ``eigh`` only when the
spectrum predicts slow convergence or the iteration has not converged.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractViolationError
from .linalg import nearest_unitary, unitary_log, vec_inv
from .states import cube_draws, rho_from_paulis
from .tomography import project_physical, solve_cube_paulis


@lru_cache(maxsize=None)
def _pairs(d: int):
    """The pairs j < k in row-major order, and the rows j d + k and k d + j of their units."""
    j, k = np.triu_indices(d, 1)
    return j, k, j * d + k, k * d + j


@lru_cache(maxsize=None)
def natural_probes(d: int) -> np.ndarray:
    """The d^2 standard probe projectors as one cached, read-only (d^2, d, d) array.

    The d projectors |k><k| come first, then |+_jk><+_jk| and then
    |+i_jk><+i_jk| for j < k, with |+_jk> = (|j> + |k>)/sqrt(2) and
    |+i_jk> = (|j> + i|k>)/sqrt(2).  The probes span every d x d matrix:
    |a><a| is a probe, and for a < b
    |a><b| = P+_ab + i P+i_ab - (1 + i)/2 (P_a + P_b) and
    |b><a| = P+_ab - i P+i_ab - (1 - i)/2 (P_a + P_b),
    which is how :func:`estimate_lambda` maps probe outputs back to the units.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    eye = np.eye(d, dtype=complex)
    j, k, _, _ = _pairs(d)
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
    By linearity each unit's row is then a sum of at most four estimated
    probe outputs, picked by index (:func:`_units_from_probe_outputs`).
    """
    d2 = d * d
    if shots_per_output is None:
        return apply_channel(kraus, np.eye(d2, dtype=complex).reshape(d2, d, d)).reshape(d2, d2)
    if shots_per_output < 1:
        raise ValueError("shots_per_output must be None (noiseless) or at least 1")
    copies, draws = cube_draws(apply_channel(kraus, natural_probes(d)), int(shots_per_output),
                               seed)
    return _units_from_probe_outputs(
        project_physical(rho_from_paulis(solve_cube_paulis(copies, draws))))


def _units_from_probe_outputs(outputs: np.ndarray) -> np.ndarray:
    """Lambda from the (d^2, d, d) channel outputs of :func:`natural_probes`, in probe order.

    Row (a, a) is eps(P_a); for a < b, row (a, b) is
    eps(P+_ab) + i eps(P+i_ab) - (1 + i)/2 (eps(P_a) + eps(P_b)) and row (b, a)
    is eps(P+_ab) - i eps(P+i_ab) - (1 - i)/2 (eps(P_a) + eps(P_b)), taken as
    re +- i im with re = eps(P+_ab) - m, im = eps(P+i_ab) - m and
    m = (eps(P_a) + eps(P_b))/2: O(d^4) elementwise work, with no d^2 x d^2
    product or solve.
    """
    d = outputs.shape[-1]
    eps = outputs.reshape(d * d, d * d)
    j, k, jk, kj = _pairs(d)
    # buffers are reused where they fall free: at d = 32 each one is 8 MB
    mean = 0.5 * (eps[j] + eps[k])
    re = eps[d:d + j.size] - mean
    im = np.subtract(eps[d + j.size:], mean, out=mean)
    im *= 1j
    lam = np.empty_like(eps)
    lam[::d + 1] = eps[:d]
    lam[jk] = re + im
    lam[kj] = np.subtract(re, im, out=re)
    return lam


# at a contraction of 0.5 per product, 64 products leave a margin of 1e5 over the
# residual tolerance, which sits at least 20 times above the rounding floor of the
# relative residual (below 5e-16 in sampled runs at d = 2 to 32)
_MAX_RATIO = 0.5
_RESIDUAL_TOL = 1e-14
_MAX_PRODUCTS = 64
_TINY = float(np.finfo(float).tiny)


def _top_eigenpair(dmat: np.ndarray):
    """The ascending spectrum of the Hermitian dmat and a unit top eigenvector.

    The spectrum is one ``eigvalsh``.  The eigenvector comes from power
    iteration on dmat / w_1 started at its largest column, which converges at
    the rate r = max(|w_2|, |w_min|) / w_1, until the residual
    ||dmat v / w_1 - v|| <= _RESIDUAL_TOL.  When r > _MAX_RATIO (a
    near-degenerate top pair, or a negative eigenvalue that outweighs w_1) or
    the residual has not converged within _MAX_PRODUCTS products, both come
    from one full ``eigh``.
    """
    w = np.linalg.eigvalsh(dmat)
    lam1 = float(w[-1])
    # 1 / w_1 is finite for a normal w_1; a subnormal one goes to eigh
    if lam1 >= _TINY and max(-float(w[0]), float(w[-2])) <= _MAX_RATIO * lam1:
        # dmat / w_1 has top eigenvalue 1 and entries of modulus at most 1, so no squared
        # norm below overflows or vanishes, whatever dmat's scale; a product with the
        # reciprocal costs a fifth of a complex division
        unit = dmat * (1 / lam1)
        # squared norms by vdot: np.linalg.norm's overhead would double the iteration's cost
        v = unit[:, np.argmax(np.vecdot(unit, unit, axis=0).real)]
        v = v / np.sqrt(np.vdot(v, v).real)
        for _ in range(_MAX_PRODUCTS):
            y = unit @ v
            r = y - v
            converged = np.vdot(r, r).real <= _RESIDUAL_TOL ** 2
            v = y / np.sqrt(np.vdot(y, y).real)
            if converged:
                return w, v
    w, vecs = np.linalg.eigh(dmat)
    return w, vecs[:, -1]


def identify_hamiltonian(lam: np.ndarray, t: float):
    """Two-step unitary fit followed by a branch-aware matrix logarithm.

    Steps: Hermitize D = vec^-1(B^dag vec(Lambda)), an index reshuffle of
    Lambda (``raw_process_matrix``); take its top eigenpair as the rank-one
    factor S, the eigenvalues from one ``eigvalsh`` and the eigenvector by
    power iteration (a full ``eigh`` when the iteration would converge slowly
    or has not converged, see ``_top_eigenpair``); project S to the nearest
    unitary G; return the traceless H with exp(-i H t) = G^T up to a global
    phase.

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
    w, top = _top_eigenpair((dmat + dmat.conj().T) / 2)
    lam1 = float(w[-1])
    if lam1 <= 0:
        raise ContractViolationError(
            "degenerate data: the rank-one fit has no positive eigenvalue"
        )
    s_hat = vec_inv(np.sqrt(lam1) * top, d, d)
    g_hat = nearest_unitary(s_hat)
    base = g_hat.T * np.exp(-1j * np.angle(np.linalg.det(g_hat.T)) / d)
    # base * e^{2 pi i r/d} has base's eigenphases shifted by 2 pi r/d: one eigvals
    # gives every candidate's log norm and whether it is within 1e-6 of the cut; the
    # norms stay in radians (times t), so that the tie tolerance does not scale with 1/t
    phases = np.angle(np.exp(2j * np.pi * np.arange(d) / d)[:, None] * np.linalg.eigvals(base))
    norms = np.abs(phases - phases.mean(axis=1, keepdims=True)).max(axis=1)
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
