"""Dense complex matrix primitives shared by all modules.

Conventions used throughout the package:

* ``vec`` stacks columns: vec(A) = [A_11, A_21, ..., A_m1, A_12, ...]^T.
* Eigenpairs of Hermitian generators come from ``herm_eigh``: a closed
  form at d = 2, ``np.linalg.eigh`` at every other d.  Both read only the
  lower triangle and the real diagonal.  Density matrices, Q, process
  matrices and ``unitary_log``'s Cayley transform go to numpy's LAPACK
  solvers directly.
* Matrix exponentials of Hermitian generators are computed spectrally from
  those eigenpairs, ``herm_expm(H, s) = exp(-i s H)``.
* Products of 2 x 2 matrices and stacks come from ``stack_matmul``: two
  broadcast products and one sum at d = 2, ``@`` at every other d.  ``@``
  makes one BLAS call per member of a stack, which costs more than the
  product itself at d = 2.
* Matrix logarithms of unitaries use eigenphases on the principal branch
  (-pi, pi] and return the traceless Hermitian generator.

The JSON schema for matrices used repo-wide is
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with ``data`` in the
same column-stacked order as ``vec``.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import BranchAmbiguityWarning, ContractViolationError


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether a matrix, or every matrix of a stack (..., d, d), is within tol of its adjoint.

    The distance is the Frobenius norm of a - a^dag, member by member.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    diff = (a - a.conj().mT).reshape(*a.shape[:-2], a.shape[-1] ** 2)
    # vecdot conjugates its first argument, so this is each member's squared Frobenius norm
    return bool((np.sqrt(np.vecdot(diff, diff).real) <= tol).all())


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return float(np.linalg.norm(a.conj().T @ a - eye)) <= tol


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis: a read-only (d^2 - 1, d, d) array of
    traceless Hermitian elements with Tr(O_i O_j) = delta_ij.

    Ordering is fixed: the d(d-1)/2 symmetric elements first, then the
    d(d-1)/2 antisymmetric ones, then the d-1 diagonal ones; off-diagonal
    blocks are lexicographic in (row, col).  For d=2 this is
    (sigma_x, sigma_y, sigma_z)/sqrt(2).
    """
    if d < 2:
        raise ValueError(f"invalid dimension d={d}; need d >= 2")
    elems = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            elems.append(m / np.sqrt(2.0))
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            elems.append(m / np.sqrt(2.0))
    for l in range(1, d):
        diag = [1.0] * l + [-float(l)] + [0.0] * (d - l - 1)
        m = np.diag(diag).astype(complex)
        elems.append(m / np.sqrt(l * (l + 1.0)))
    stacked = np.stack(elems)
    stacked.setflags(write=False)
    return stacked


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("vec expects a matrix")
    return a.ravel(order="F")


def vec_inv(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of ``vec``: rebuild the rows x cols matrix from a column-stacked vector."""
    v = np.asarray(v).ravel()
    if v.size != rows * cols:
        raise ValueError(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


_NORMAL_MIN = float(np.finfo(float).tiny)


def herm_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (..., d) and eigenvectors (..., d, d) of a Hermitian matrix or stack.

    Like ``np.linalg.eigh`` it reads only the lower triangle and the real
    diagonal.  At d = 2 the pairs have a closed form, member by member, with
    no LAPACK call: for H = [[a, conj(z)], [z, c]] the eigenvalues are m -+ r
    with m = (a + c)/2 and r = hypot((a - c)/2, |z|).  The eigenvector of m + r
    is built from the larger of r +- (a - c)/2, so no cancellation occurs,
    branching on the sign of a - c as LAPACK's xLAEV2 rotation does.  The
    eigenvectors divide only by r and by numbers in [1, 2], so no entry is
    squared and no finite spectrum overflows; an r below the normal range is
    first scaled up exactly, so the eigenvectors stay orthonormal, while the
    eigenvalues of such a member keep an absolute accuracy of a few 2^-1074.
    A member with r = 0 gets the identity.  Other d go to ``np.linalg.eigh``.
    """
    h = np.asarray(h)
    if h.shape[-2:] != (2, 2):
        return np.linalg.eigh(h)
    halves = np.diagonal(h, 0, -2, -1).real * 0.5
    a, c = halves[..., 0], halves[..., 1]
    z = h[..., 1, 0]
    gap = a - c
    r = np.hypot(gap, np.abs(z))
    w = np.empty(r.shape + (2,), r.dtype)
    mid = a + c
    np.subtract(mid, r, out=w[..., 0])
    np.add(mid, r, out=w[..., 1])
    low = r < _NORMAL_MIN
    if low.any():
        # a subnormal r is rounded to few digits: scale (a - c)/2 and z by 2^600, exactly, and
        # take r again.  r = 0 becomes (a - c)/2 = -1 and r = 1, whose eigenvectors are I
        scale = np.where(low, 2.0**600, 1.0)
        gap, z = gap * scale, z * scale
        flat = r == 0
        gap = np.where(flat, -1.0, gap)
        r = np.where(flat, 1.0, np.hypot(gap, np.abs(z)))
    kappa = np.sqrt(0.5 + 0.5 * (np.abs(gap) / r))  # in [sqrt(1/2), 1]
    sigma = z / r / (2 * kappa)
    # (p, q) is the eigenvector of m - r and (-conj(q), conj(p)) that of m + r
    upper = gap > 0
    p = np.where(upper, -sigma.conj(), kappa)
    q = np.where(upper, kappa, -sigma)
    v = np.empty(h.shape, p.dtype)
    v[..., 0, 0], v[..., 1, 0] = p, q
    np.negative(q.conj(), out=v[..., 0, 1])
    np.conjugate(p, out=v[..., 1, 1])
    return w, v


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product a @ b of two matrices or broadcastable stacks (..., d, d).

    At d = 2 it is a closed form with no BLAS call: column j of a times row j
    of b, summed over j = 0, 1, with numpy's elementwise complex products, so
    its last bits may differ from those of ``@``.  Any other shape goes to
    ``a @ b``, bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        return a @ b
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def herm_expm(h: np.ndarray, s: float = 1.0) -> np.ndarray:
    """exp(-i s H) of a Hermitian H, or of each member of a stack (..., d, d), by one
    :func:`herm_eigh`."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, 1e-10):
        raise ContractViolationError("herm_expm requires a Hermitian generator")
    w, v = herm_eigh(h)
    return stack_matmul(v * np.exp(-1j * s * w)[..., None, :], v.conj().mT)


def nearest_unitary(s: np.ndarray) -> np.ndarray:
    """Polar factor of a full-rank square matrix.

    Returns U V^dag from the SVD S = U Sigma V^dag, the unitary closest to S
    in Frobenius norm.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("nearest_unitary expects a square matrix")
    u, sig, vh = np.linalg.svd(s)
    if sig[-1] <= 1e-12:
        raise ContractViolationError(
            "rank-deficient input: the polar factor is not unique"
        )
    return u @ vh


def unitary_log(u: np.ndarray, t: float) -> np.ndarray:
    """Traceless Hermitian H with exp(-i H t) equal to U up to a global phase.

    Eigenphases are taken on the principal branch (-pi, pi]; the result is
    shifted by a multiple of the identity to make it traceless.  Recovery of a
    generator H is faithful only when no eigenphase of U wraps, i.e. when the
    caller guarantees ||H||_2 * t < pi.  Eigenphases within 1e-6 of the cut
    raise a :class:`BranchAmbiguityWarning`.

    The eigenvectors come from one ``eigh`` of the Cayley transform
    i (I - W)(I + W)^-1, a Hermitian matrix with U's eigenvectors, where
    W = e^{ia} U puts -1 in the middle of U's widest eigenphase gap, so that
    I + W stays well conditioned.
    """
    u = np.asarray(u, dtype=complex)
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    if not is_unitary(u, 1e-8):
        raise ContractViolationError("unitary_log requires a unitary input")
    d = u.shape[0]
    rough = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(rough, append=rough[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    w = u * np.exp(1j * (np.pi - rough[k] - gaps[k] / 2))
    eye = np.eye(d)
    cayley = 1j * np.linalg.solve(eye + w, eye - w)
    _, z = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    phases = np.angle(np.einsum("ji,jk,ki->i", z.conj(), u, z))
    gap = np.minimum(np.abs(phases - np.pi), np.abs(phases + np.pi))
    if float(gap.min()) <= 1e-6:
        warnings.warn(
            "eigenphase within 1e-6 of the branch cut at pi; the recovered "
            "generator may sit on the wrong branch",
            BranchAmbiguityWarning,
            stacklevel=2,
        )
    h = (z * (-phases / t)) @ z.conj().T
    h = h - (np.trace(h) / d) * eye
    return (h + h.conj().T) / 2


def matrix_to_json(a: np.ndarray) -> dict:
    """Serialize a complex matrix to the repo-wide JSON schema."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("matrix_to_json expects a matrix")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in vec(a)],
    }


def complex_from_json(data) -> np.ndarray:
    """The complex vector of a JSON list of [re, im] pairs of numbers.

    Raises TypeError on any other entry, JSON ``true`` and ``false`` included.
    """
    if any(isinstance(x, bool) for pair in data for x in pair):
        raise TypeError("true and false are not numbers")
    return np.array([complex(re, im) for re, im in data])


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        rows, cols = (_json_integer(obj[key], key) for key in ("rows", "cols"))
        flat = complex_from_json(obj["data"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return vec_inv(flat, rows, cols)


def _json_integer(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)
