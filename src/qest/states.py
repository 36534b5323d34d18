"""Quantum states, POVMs, Born-rule probabilities and measurement simulation."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError
from .linalg import gell_mann_basis

_SQ2 = np.sqrt(2.0)

# Single-qubit eigenprojector pairs of sigma_x, sigma_y, sigma_z (plus outcome first).
_AXIS_KETS = {
    "x": (np.array([1.0, 1.0]) / _SQ2, np.array([1.0, -1.0]) / _SQ2),
    "y": (np.array([1.0, 1.0j]) / _SQ2, np.array([1.0, -1.0j]) / _SQ2),
    "z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def random_pure_state(d: int, rng) -> np.ndarray:
    """Haar-random pure state as a unit complex vector."""
    rng = as_rng(rng)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, rng) -> np.ndarray:
    """Hilbert-Schmidt-random mixed state from a normalized Wishart draw."""
    rng = as_rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rho_from_theta(theta: np.ndarray) -> np.ndarray:
    """rho = I/d + sum_i theta_i O_i over ``gell_mann_basis(d)``, for one theta or a stack.

    d comes from the coordinate count: theta has shape (d^2 - 1,) or
    (k, d^2 - 1) for some d >= 2.  Each member of a stack is expanded by its
    own vector-matrix product, so it equals its own call bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[-1] if theta.ndim else 0
    d = math.isqrt(p + 1)
    if d < 2 or d * d != p + 1:
        raise ValueError(f"theta has shape {theta.shape}; need d^2 - 1 coordinates for some d >= 2")
    return np.eye(d) / d + (theta[..., None, :] @ gell_mann_basis(d).reshape(p, d * d)).reshape(
        theta.shape[:-1] + (d, d))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measurement: elements sum to the identity.

    ``gamma0[j] = Tr(E_j)`` and ``gamma[j, i] = Tr(E_j O_i)`` over
    ``gell_mann_basis(d)`` are element j's regression coordinates, computed
    once per object on first use.  Both are strided ``.real`` views of the
    complex contraction: BLAS sums contiguous rows in another order, which
    moves the recursive updates' last bits at d >= 4.

    A stack of measurements, one per member of a stack of states, has
    elements (..., n_outcomes, d, d), a tuple of labels, and gammas with the
    same leading axes.
    """

    label: str | tuple
    elements: np.ndarray  # (n_outcomes, d, d), or (..., n_outcomes, d, d) for a stack

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return self.elements.shape[-3]

    @cached_property
    def gamma0(self) -> np.ndarray:
        return _read_only(np.einsum("...eii->...e", self.elements).real)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _read_only(
            np.einsum("...eij,kji->...ek", self.elements, gell_mann_basis(self.dim)).real)


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller and every record table built from them
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Records:
    """Columnar table of POVM-element counts, one row per element of a measurement run.

    ``successes[r]`` counts how often element ``element[r]`` of POVM
    ``label[r]`` fired among ``shots[r]`` draws of the full POVM; it is
    integer-valued for sampled data and may be fractional for exact
    expected counts.  ``gamma0`` and ``gamma`` are the rows' regression
    coordinates (see :class:`Povm`).  Slicing selects rows.

    A stack of R members has successes (R, n), the member axis first.
    Members measured by shared runs (see :func:`cube_records`) share the
    other columns; members measured by a stack of POVMs (see :meth:`of_povm`)
    have their own label and gamma0 (R, n) and gamma (R, n, d^2 - 1).  Every
    member must pass the row checks, and ``p_hat`` has the successes' shape.
    """

    label: np.ndarray      # (n,) or (R, n) str
    element: np.ndarray    # (n,) int
    shots: np.ndarray      # (n,) int
    successes: np.ndarray  # (n,) or (R, n) float
    gamma0: np.ndarray     # (n,) or (R, n)
    gamma: np.ndarray      # (n, d^2 - 1) or (R, n, d^2 - 1)

    def __post_init__(self):
        if (self.shots < 1).any():
            raise ValueError("every record needs shots >= 1")
        if not ((self.successes >= 0) & (self.successes <= self.shots)).all():
            raise ValueError("every record needs finite successes within [0, shots]")

    @classmethod
    def of_povm(cls, povm: Povm, shots: int, successes) -> Records:
        """One row per element of ``povm``, one POVM or a stack, measured ``shots`` times."""
        n = len(povm)
        return cls(np.asarray(povm.label)[..., None].repeat(n, -1), np.arange(n),
                   np.full(n, int(shots)), np.asarray(successes, dtype=float),
                   povm.gamma0, povm.gamma)

    @classmethod
    def concat(cls, parts) -> Records:
        parts = list(parts)
        # rows are the last axis of every column but gamma, whose coordinates follow them
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts],
                                    axis=-2 if f.name == "gamma" else -1) for f in fields(cls)))

    def __len__(self) -> int:
        return self.shots.size

    def __getitem__(self, rows) -> Records:
        return Records(self.label[..., rows], self.element[rows], self.shots[rows],
                       self.successes[..., rows], self.gamma0[..., rows], self.gamma[..., rows, :])

    @property
    def p_hat(self) -> np.ndarray:
        return self.successes / self.shots


def born_probabilities(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(rho P_i), clamped to [0, 1].

    rho may be one state or a stack, and povm one measurement or a stack;
    their leading axes broadcast.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (povm.dim, povm.dim):
        raise ValueError("state and POVM dimensions differ")
    p = np.einsum("...ij,...eji->...e", rho, povm.elements).real
    return np.clip(p, 0.0, 1.0)


def multinomial(rng, n, p):
    """Multinomial counts of n draws over the last axis of p.

    ``rng`` is one seed or generator, which draws all of p in one call, or a
    list or tuple of them, one per member.  Member m then draws ``p[m]`` (p
    is broadcast to the members) on its own generator, so each stream
    advances exactly as a call of its own would advance it.
    """
    if isinstance(rng, (list, tuple)):
        p = np.broadcast_to(p, (len(rng),) + p.shape[p.ndim - np.ndim(n) - 1:])
        return np.stack([as_rng(g).multinomial(n, pm) for g, pm in zip(rng, p)])
    return as_rng(rng).multinomial(n, p)


def split_evenly(total: int, parts: int):
    """Deterministic near-even integer split; early parts take the remainder."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


# numpy draws multinomial counts as int64
_MAX_COPIES = int(np.iinfo(np.int64).max)


def _check_copies(n, name):
    if not 1 <= n <= _MAX_COPIES:
        raise ValueError(f"{name} must be between 1 and 2**63 - 1, got {n}")


def cube_draws(rho, total: int, rng):
    """Draw ``total`` copies of rho split evenly over the cube bases: (copies, draws).

    rho is one state (d, d) or a stack (k, d, d).  ``copies[b]`` is the
    copies of basis b, from :func:`split_evenly`; ``draws`` has shape
    ``rho.shape[:-2] + (bases, outcomes)``.  Every (state, basis, outcome) is
    scored by one Born-rule matrix product against the cached cube elements,
    and all are drawn by one multinomial call in C order: state by state,
    basis by basis.  So the draws equal a per-state loop of calls, each equal
    to a per-basis loop of one-basis multinomial calls over the bases that
    get copies; a basis without copies draws zeros.

    With a list or tuple of R generators (see :func:`multinomial`) each
    member draws on its own generator, from the one state rho or from its
    own state of an (R, d, d) stack, and ``draws`` is (R, bases, outcomes).
    """
    _check_copies(total, "total copies")
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = rho.shape[-1]
    elements = _cube_elements(d)
    copies = np.array(split_evenly(total, len(elements)))
    # Tr(rho E) = sum_ij Re(rho_ij) Re(E_ij) + Im(rho_ij) Im(E_ij) for Hermitian E: one real
    # product of the float views scores every (state, basis, outcome)
    p = rho.reshape(-1, d * d).view(float) @ elements.reshape(-1, d * d).view(float).T
    p = np.clip(p, 0.0, 1.0, out=p).reshape(rho.shape[:-2] + elements.shape[:2])
    p /= p.sum(axis=-1, keepdims=True)
    return copies, multinomial(rng, copies, p)


def cube_records(rho, total: int, rng) -> Records:
    """The draws of :func:`cube_draws` as records, one run per basis that gets copies.

    A stack's ``successes`` are (R, n), one row per state, or per member when
    ``rng`` is a list of generators; the runs are shared.  The label, element
    and gamma columns are the cached cube table's own read-only arrays
    whenever every basis gets a copy.
    """
    copies, draws = cube_draws(rho, total, rng)
    d = draws.shape[-1]  # a cube basis has d outcomes
    shots = np.repeat(copies, d)
    measured = shots > 0
    rows = _cube_table(d) if measured.all() else _cube_table(d)[measured]
    successes = draws.reshape(draws.shape[:-2] + (-1,))[..., measured]
    return replace(rows, shots=shots[measured], successes=successes.astype(float))


def _qubits(d: int) -> int:
    if d < 2 or d & (d - 1):
        raise ValueError(f"cube bases need a power-of-two dimension, got d={d}")
    return int(d).bit_length() - 1


def _cube_labels(d: int) -> list:
    return ["cube:" + "".join(axes) for axes in itertools.product("xyz", repeat=_qubits(d))]


@lru_cache(maxsize=None)
def cube_povms(d: int) -> tuple:
    """The 3^q Pauli-eigenbasis product measurements for q qubits (d = 2^q).

    Cached, so every caller shares the same POVMs and their gamma rows.  Their
    elements are read-only views of the cached cube elements.
    """
    return tuple(Povm(label, e) for label, e in zip(_cube_labels(d), _cube_elements(d)))


@lru_cache(maxsize=None)
def _cube_elements(d: int) -> np.ndarray:
    """The cube bases' elements as one read-only (bases, outcomes, d, d) array.

    Bases run over the qubits' axes in ``itertools.product("xyz")`` order,
    outcomes over their signs, qubit 0 most significant and the plus
    eigenvector first.  Each qubit adds its factor by one broadcast outer
    product on the right, in the left-to-right order of nested ``np.kron``
    calls, so every entry is multiplied exactly as ``np.kron`` multiplies it.
    """
    single = np.array([[pure_to_density(k) for k in _AXIS_KETS[a]] for a in "xyz"])
    elements = single
    for _ in range(_qubits(d) - 1):
        b, o, n, _ = elements.shape
        # axes (basis, new axis, outcome, new sign, row, new row, column, new column)
        elements = (elements[:, None, :, None, :, None, :, None]
                    * single[None, :, None, :, None, :, None, :]).reshape(3 * b, 2 * o, 2 * n, 2 * n)
    return _read_only(elements)


@lru_cache(maxsize=None)
def _cube_table(d: int) -> Records:
    """The cube POVMs' regression rows, one shot and no successes per element.

    Their read-only label, element and gamma columns serve every
    :func:`cube_records` call.
    """
    rows = Records.concat(Records.of_povm(povm, 1, np.zeros(len(povm))) for povm in cube_povms(d))
    for column in (rows.label, rows.element, rows.gamma0, rows.gamma):
        _read_only(column)
    return rows


@lru_cache(maxsize=None)
def cube_pauli_tables(d: int):
    """Read-only Pauli coordinates of the cube bases: (signs, pauli_index).

    A cube element is the product over qubits of (I + s_i sigma_{a_i}) / 2,
    so basis b's outcome probabilities p give the expectation of the Pauli
    string with sigma_{a_i} on the qubits of a subset S and I elsewhere as
    ``(p @ signs)[S]``: ``signs[o, S] = (-1)^popcount(o & S)`` is the q-qubit
    Walsh-Hadamard sign matrix, with outcome o and subset S as bit masks,
    qubit 0 most significant.  ``pauli_index[b, S]`` is that string's index
    among the 4^q Paulis, with the codes I, X, Y, Z = 0, 1, 2, 3 read as base-4
    digits, qubit 0 most significant (see :func:`rho_from_paulis`).
    """
    q = _qubits(d)
    signs = np.ones((1, 1))
    for _ in range(q):
        signs = np.kron(signs, [[1.0, 1.0], [1.0, -1.0]])
    # subset S keeps qubit i's axis code when bit i (of q, most significant first) is set
    codes = np.array(list(itertools.product((1, 2, 3), repeat=q)))
    bits = np.array(list(itertools.product((0, 1), repeat=q)))
    pauli_index = (codes[:, None, :] * bits[None, :, :]) @ 4 ** np.arange(q - 1, -1, -1)
    return _read_only(signs), _read_only(pauli_index)


# one qubit's (I, X, Y, Z) coefficients -> its 2 x 2 block [[I + Z, X - iY], [X + iY, I - Z]]
_PAULI_BLOCK = np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def rho_from_paulis(e: np.ndarray) -> np.ndarray:
    """rho = sum_P e_P P / d from all 4^q Pauli expectations, for one (4^q,) or a stack.

    The index of P is as in :func:`cube_pauli_tables`.  One butterfly stage
    per qubit maps that qubit's (I, X, Y, Z) coefficients to its 2 x 2 block.
    """
    e = np.asarray(e, dtype=float)
    lead, n = e.shape[:-1], e.shape[-1]
    q = (n.bit_length() - 1) // 2
    if q < 1 or 4**q != n:
        raise ValueError(f"need 4^q Pauli expectations for some q >= 1, got {n}")
    x = e.reshape(-1, n)
    for _ in range(q):
        # the leading qubit's code becomes a trailing (row, column) pair
        x = x.reshape(len(x), 4, -1).transpose(0, 2, 1) @ _PAULI_BLOCK.T
    d = 2**q
    rows_first = [0, *range(1, 2 * q, 2), *range(2, 2 * q + 1, 2)]
    x = x.reshape((-1,) + (2,) * (2 * q)).transpose(rows_first)
    return x.reshape(lead + (d, d)) / d


def bloch_basis_povm(n: np.ndarray) -> Povm:
    """Projective qubit basis along the Bloch direction n (normalized).

    n is one direction (3,), or a stack (..., 3) that gives a stack of bases.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim == 0 or n.shape[-1] != 3:
        raise ValueError("need nonzero 3-vector Bloch directions")
    norm = np.sqrt(np.vecdot(n, n))[..., None]
    if (norm == 0).any():
        raise ValueError("need nonzero 3-vector Bloch directions")
    n = n / norm
    ns = (n[..., 0, None, None] * PAULI_X + n[..., 1, None, None] * PAULI_Y
          + n[..., 2, None, None] * PAULI_Z)
    eye = np.eye(2)
    label = _bloch_label(n) if n.ndim == 1 else tuple(map(_bloch_label, n.reshape(-1, 3)))
    return Povm(label, np.stack([(eye + ns) / 2, (eye - ns) / 2], axis=-3))


def _bloch_label(n) -> str:
    return "bloch:{:.12f},{:.12f},{:.12f}".format(*n.tolist())


def resolve_povm_label(label: str, d: int) -> Povm:
    """Rebuild a POVM from its label (``cube:...`` or ``bloch:...``)."""
    if label.startswith("cube:"):
        axes = label[len("cube:"):]
        if not axes or any(a not in "xyz" for a in axes) or 2 ** len(axes) != d:
            raise ConfigError(f"bad cube POVM label {label!r} for dimension {d}")
        return cube_povms(d)[_cube_labels(d).index(label)]
    if label.startswith("bloch:"):
        if d != 2:
            raise ConfigError("bloch POVM labels are qubit-only")
        try:
            n = np.array([float(c) for c in label[len("bloch:"):].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad bloch POVM label {label!r}") from exc
        return bloch_basis_povm(n)
    raise ConfigError(f"unknown POVM label {label!r}")


def mse(est: np.ndarray, truth: np.ndarray):
    """Squared Hilbert-Schmidt distance Tr((est - truth)^2), for one state or a stack.

    Stacks of estimates and truths broadcast; each member's distance is
    computed exactly as for one state.
    """
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape[-2:] != truth.shape[-2:]:
        raise ValueError("state dimensions differ")
    diff = est - truth
    flat = diff.reshape(diff.shape[:-2] + (-1,))
    # np.linalg.norm's real and imaginary dot products, member by member; float_power squares
    # by C pow, as a float64 scalar's ** 2 does (an array's ** 2 multiplies, and for some
    # values the two differ in the last bit)
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.float_power(norm, 2)


def records_from_csv(path, d: int) -> Records:
    """Read a records CSV, rebuilding each POVM (and its gammas) from its label."""
    povms = {}
    labels, elements, shots, successes = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"povm", "element", "shots", "successes"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"records file {path} must have columns {sorted(required)}")
        for row in reader:
            # DictReader files extra fields under the key None and fills missing ones with None
            if None in row or None in row.values():
                raise ConfigError(f"records file {path} line {reader.line_num}: "
                                  f"expected {len(reader.fieldnames)} fields")
            label = row["povm"]
            if label not in povms:
                povms[label] = resolve_povm_label(label, d)
            j = int(row["element"])
            if not 0 <= j < len(povms[label]):
                raise ConfigError(f"element index {j} out of range for POVM {label!r}")
            labels.append(label)
            elements.append(j)
            shots.append(int(row["shots"]))
            successes.append(float(row["successes"]))
    rows = [(povms[label], j) for label, j in zip(labels, elements)]
    return Records(np.array(labels, dtype=str), np.array(elements, dtype=int),
                   np.array(shots, dtype=int), np.array(successes, dtype=float),
                   np.array([povm.gamma0[j] for povm, j in rows]),
                   np.array([povm.gamma[j] for povm, j in rows]).reshape(len(rows), d * d - 1))
