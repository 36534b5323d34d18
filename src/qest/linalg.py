"""Dense complex matrix primitives shared by all modules.

Conventions used throughout the package:

* ``vec`` stacks columns: vec(A) = [A_11, A_21, ..., A_m1, A_12, ...]^T.
* Hermitian eigenpairs, of generators, density matrices, Q and process
  matrices alike, come from numpy's LAPACK solvers.  Matrix exponentials
  exp(-i s H), of ``herm_expm`` and of the SLC propagators alike, and their
  exact derivatives come from two kernels with one interface, ``unitaries``
  and ``bracket_derivative(bra, ket)``.  At d = 2 ``QubitExpm`` takes the
  Pauli coordinates (h0, h) of ``pauli_coordinates`` and forms
  e^{-i s h0} (cos(s|h|) I - i sin(s|h|) h.sigma / |h|) and its derivative
  in h, with no eigenvectors; at every other d ``EigenExpm`` forms both
  from one ``np.linalg.eigh`` of the matrices.
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


def pauli_coordinates(h: np.ndarray) -> np.ndarray:
    """Real Pauli coordinates (h0, hx, hy, hz), shape (..., 4), of a 2 x 2 Hermitian matrix or
    stack: H = h0 I + hx sigma_x + hy sigma_y + hz sigma_z.

    Like ``np.linalg.eigh`` it reads only the lower triangle, H_10 = hx + i hy, and
    the real diagonal, h0 +- hz; the diagonal is halved before it is summed,
    so no finite entry overflows.
    """
    h = np.asarray(h)
    halves = np.diagonal(h, 0, -2, -1).real * 0.5
    c = np.empty(h.shape[:-2] + (4,))
    np.add(halves[..., 0], halves[..., 1], out=c[..., 0])
    c[..., 1] = h[..., 1, 0].real
    c[..., 2] = h[..., 1, 0].imag
    np.subtract(halves[..., 0], halves[..., 1], out=c[..., 3])
    return c


# the real and imaginary parts of the entries 00, 01, 10, 11 of cos(phi) I - i sin(phi) n.sigma,
# taken from (cos(phi), t, -t) with t = sin(phi) n
_SU2_PARTS = np.array([0, 6, 5, 4, 2, 4, 0, 3])
_PAULI_MATRICES = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_TINY = float(np.finfo(float).smallest_subnormal)


class QubitExpm:
    """exp(-i s H) of 2 x 2 Hermitian generators, member by member, in closed form, and its
    derivative in the generator's vector part.

    The generators come as Pauli coordinates c = (h0, h), shape (..., 4), see
    :func:`pauli_coordinates`, and a finite s > 0.  With r = |h|, n = h / r (0 at
    r = 0) and phi = s r, exp(-i s H) = e^{-i s h0} (cos(phi) I - i sin(phi) n.sigma).
    There are no eigenvectors and no LAPACK or BLAS call; r is a ``hypot``
    and n is h / r, so no entry is squared, and nothing overflows while |h|
    is finite.  ``unitaries`` holds the (..., 2, 2) propagators; every array
    is read-only.
    """

    def __init__(self, c: np.ndarray, s: float):
        if not 0 < s < np.inf:
            raise ValueError("s must be positive and finite")
        h0, h = c[..., 0], c[..., 1:]
        r = np.hypot(np.hypot(h[..., 0], h[..., 1]), h[..., 2])
        n = h / np.where(r, r, 1.0)[..., None]
        # a phi of 0 (r = 0, or s r below the subnormals) becomes the least subnormal: its
        # sin(phi) / phi is 1, as the limit, and its sin(phi) is below every other phi
        phi = np.maximum(s * r, _TINY)
        sin, cos = np.sin(phi), np.cos(phi)
        phase = np.exp(-1j * s * h0)
        t = sin[..., None] * n
        parts = np.take(np.concatenate((cos[..., None], t, -t), -1), _SU2_PARTS, -1)
        self.unitaries = phase[..., None, None] * parts.view(complex).reshape(h0.shape + (2, 2))
        self._s, self._n, self._phi, self._sin, self._cos, self._phase = s, n, phi, sin, cos, phase
        for a in (self.unitaries, n, phi, sin, cos, phase):
            if isinstance(a, np.ndarray):  # one generator, shape (4,), leaves immutable scalars
                a.flags.writeable = False

    def bracket_derivative(self, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        """<bra| dU / dh_a |ket> for a = x, y, z, shape (..., 3), with bra and ket (..., 2).

        With m0 = <bra|ket>, m = <bra|sigma|ket> and sin(phi) / r taken as
        s sin(phi) / phi, which is s at r = 0, the derivative of U along a
        direction delta of h is e^{-i s h0} [-s sin(phi) (n.delta) m0
        - i ((sin(phi) / r) (delta.m) + (s cos(phi) - sin(phi) / r) (n.delta) (n.m))],
        the exact derivative of the closed form (de Fouquieres, Schirmer,
        Glaser and Kuprov, JMR 212, 2011, at d = 2).  The derivative in h0 is
        -i s <bra|U|ket>; it is left to the caller.
        """
        o = bra.conj()[..., :, None] * ket[..., None, :]
        m = np.einsum("...ij,aij->...a", o, _PAULI_MATRICES)
        sin_r = self._s * (self._sin / self._phi)
        q = -1j * self._phase
        a = ((-self._s * self._sin) * self._phase * m[..., 0]
             + (self._s * self._cos - sin_r) * q * np.vecdot(self._n, m[..., 1:]))
        return self._n * a[..., None] + (sin_r * q)[..., None] * m[..., 1:]


class EigenExpm:
    """exp(-i s H) of a (..., d, d) Hermitian stack at any real s, and its derivative in the
    generator's entries, from one ``np.linalg.eigh``, H = V Lambda V^dag.

    ``unitaries`` holds the propagators V e^{-i s Lambda} V^dag; every array is read-only.
    """

    def __init__(self, h: np.ndarray, s: float):
        w, v = np.linalg.eigh(h)
        phases = np.exp(-1j * s * w)
        self.unitaries = (v * phases[..., None, :]) @ v.conj().mT
        self._s, self._w, self._v, self._phases = s, w, v, phases
        for a in (self.unitaries, w, v, phases):
            a.flags.writeable = False

    def bracket_derivative(self, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        """<bra| dU / dH_cd |ket> for every entry (c, d), row-major, shape (..., d^2), with bra
        and ket (..., d).

        Along a direction Delta of H, dU = V (Gamma o V^dag Delta V) V^dag with the divided
        differences Gamma_ab = (e^{-i s l_a} - e^{-i s l_b}) / (l_a - l_b), -i s e^{-i s l_a}
        as l_b -> l_a (de Fouquieres, Schirmer, Glaser and Kuprov, JMR 212, 2011); its bracket
        is sum_cd Delta_cd (conj(V) T V^T)_cd, T_ab = conj(a_a) Gamma_ab b_b, a = V^dag bra,
        b = V^dag ket.
        """
        s, w, v = self._s, self._w, self._v
        # Gamma_ab = e^{-i s l_b} (e^{-i x} - 1) / (l_a - l_b), x = s (l_a - l_b), in sinc form
        x = s * (w[..., :, None] - w[..., None, :])
        gamma = (s * self._phases[..., None, :]
                 * (-np.sin(x / 2) * np.sinc(x / (2 * np.pi)) - 1j * np.sinc(x / np.pi)))
        vc = v.conj()
        a = (vc.mT @ bra[..., None])[..., 0]
        b = (vc.mT @ ket[..., None])[..., 0]
        t = gamma * a.conj()[..., :, None] * b[..., None, :]
        derivative = (vc @ t) @ v.mT
        return derivative.reshape(derivative.shape[:-2] + (-1,))


def herm_expm(h: np.ndarray, s: float = 1.0) -> np.ndarray:
    """exp(-i s H) of a Hermitian H, or of each member of a stack (..., d, d), read-only.

    At d = 2 with a finite s > 0 it is the closed form of :class:`QubitExpm`
    on the Pauli coordinates; at every other d and s it is the propagator of
    :class:`EigenExpm`, from one ``np.linalg.eigh``.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, 1e-10):
        raise ContractViolationError("herm_expm requires a Hermitian generator")
    if h.shape[-2:] == (2, 2) and 0 < s < np.inf:
        return QubitExpm(pauli_coordinates(h), s).unitaries
    return EigenExpm(h, s).unitaries


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
