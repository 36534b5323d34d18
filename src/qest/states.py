"""Quantum states, the cube bases' regression rows and Pauli tables, and measurement simulation."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .linalg import gell_mann_basis

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def random_pure_state(d: int, rng) -> np.ndarray:
    """Haar-random pure state as a unit complex vector."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, rng) -> np.ndarray:
    """Hilbert-Schmidt-random mixed state from a normalized Wishart draw."""
    rng = np.random.default_rng(rng)
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


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller and every record table built from them
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Records:
    """Columnar table of POVM-element counts, one row per element of a measurement run.

    ``successes[r]`` counts how often row r's element fired among
    ``shots[r]`` draws of its full POVM; it is integer-valued for sampled
    data and may be fractional for exact expected counts.  The element E, of
    unit trace, enters only through ``gamma``, its regression coordinates
    Tr(E O_i) over ``gell_mann_basis(d)`` (see :func:`cube_rows`).

    A stack of R members has successes (R, n), the member axis first.
    Members measured by shared runs (see :func:`cube_records`) share the
    other columns; members that each measured their own basis, as the steps
    of :func:`qest.run_adaptive_protocol` do, have their own gamma
    (R, n, d^2 - 1).  Every member must pass the row checks, and ``p_hat``
    has the successes' shape.
    """

    shots: np.ndarray      # (n,) int
    successes: np.ndarray  # (n,) or (R, n) float
    gamma: np.ndarray      # (n, d^2 - 1) or (R, n, d^2 - 1)

    def __post_init__(self):
        if (self.shots < 1).any():
            raise ValueError("every record needs shots >= 1")
        if not ((self.successes >= 0) & (self.successes <= self.shots)).all():
            raise ValueError("every record needs finite successes within [0, shots]")

    def __len__(self) -> int:
        return self.shots.size

    @property
    def p_hat(self) -> np.ndarray:
        return self.successes / self.shots


def multinomial(rng, n, p):
    """Multinomial counts of n draws over the last axis of p.

    ``rng`` is one seed or generator, which draws all of p in one call, or a
    list or tuple of them, one per member.  Member m then draws ``p[m]`` (p
    is broadcast to the members) on its own generator, so each stream
    advances exactly as a call of its own would advance it.
    """
    if isinstance(rng, (list, tuple)):
        p = np.broadcast_to(p, (len(rng),) + p.shape[p.ndim - np.ndim(n) - 1:])
        return np.stack([np.random.default_rng(g).multinomial(n, pm) for g, pm in zip(rng, p)])
    return np.random.default_rng(rng).multinomial(n, p)


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
    ``rho.shape[:-2] + (bases, outcomes)``.  Every state's Pauli
    expectations e come from :func:`paulis_from_rho`, each basis's outcome
    probabilities from the Paulis it measures, ``(e[pauli_index] @ signs) /
    d`` over :func:`cube_pauli_tables`, clipped to [0, 1] and normalized,
    and all are drawn by one multinomial call in C order: state by state,
    basis by basis.  So the draws equal a per-state loop of calls, each equal
    to a per-basis loop of one-basis multinomial calls over the bases that
    get copies; a basis without copies draws zeros.

    With a list or tuple of R generators (see :func:`multinomial`) each
    member draws on its own generator, from the one state rho or from its
    own state of an (R, d, d) stack, and ``draws`` is (R, bases, outcomes).
    """
    _check_copies(total, "total copies")
    d = np.shape(rho)[-1]
    signs, pauli_index = cube_pauli_tables(d)
    copies = np.array(split_evenly(total, len(pauli_index)))
    p = (paulis_from_rho(rho)[..., pauli_index] @ signs) / d
    p = np.clip(p, 0.0, 1.0, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return copies, multinomial(rng, copies, p)


def cube_records(rho, total: int, rng) -> Records:
    """The draws of :func:`cube_draws` as records, one run per basis that gets copies.

    A stack's ``successes`` are (R, n), one row per state, or per member when
    ``rng`` is a list of generators; the runs are shared.  The gamma column
    is a read-only view of :func:`cube_rows` whenever every basis gets a
    copy.
    """
    copies, draws = cube_draws(rho, total, rng)
    d = draws.shape[-1]  # a cube basis has d outcomes
    shots = np.repeat(copies, d)
    measured = shots > 0
    # merging the (basis, outcome) axes of the contiguous rows is a view
    gamma = cube_rows(d).reshape(-1, d * d - 1)
    if not measured.all():
        gamma = gamma[measured]
    successes = draws.reshape(draws.shape[:-2] + (-1,))[..., measured]
    return Records(shots[measured], successes.astype(float), gamma)


def _qubits(d: int) -> int:
    if d < 2 or d & (d - 1):
        raise ValueError(f"cube bases need a power-of-two dimension, got d={d}")
    return int(d).bit_length() - 1


# (I +- sigma_a) / 2 as values v, (axis, sign, row, column): entry v, or i v off sigma_y's diagonal
_FACTOR_VALUES = np.array([[[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]],
                           [[[0.5, -0.5], [0.5, 0.5]], [[0.5, 0.5], [-0.5, 0.5]]],
                           [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]])


@lru_cache(maxsize=None)
def cube_rows(d: int) -> np.ndarray:
    """Regression rows Tr(E O_i) of the 3^q cube bases (d = 2^q): (bases, outcomes, d^2 - 1).

    Bases and outcomes are ordered as in :func:`cube_pauli_tables`, the plus
    outcome first; E is the product of the exact projectors (I +- sigma_a) / 2.
    Only E's upper-triangle and diagonal entries are built, one qubit factor
    at a time: each is a real or an imaginary dyadic value, so every product
    is exact.  The rows take the dense contraction's own operations, so they
    have its bits.  Cached, read-only and C-contiguous.
    """
    q = _qubits(d)
    pairs = d * (d - 1) // 2
    # the upper-triangle entries, lexicographic as the basis orders its pairs, then the diagonal
    rows, cols = (np.concatenate([u, np.arange(d)]) for u in np.triu_indices(d, 1))
    shift = np.arange(q - 1, -1, -1)
    row_bits, col_bits, sign_bits = ((i[:, None] >> shift) & 1 for i in (rows, cols, np.arange(d)))
    axes = np.array(list(itertools.product(range(3), repeat=q)))
    values = np.ones((len(axes), d, len(rows)))
    turns = np.zeros((len(axes), len(rows)), dtype=int)  # each entry is values * i^turns
    for i in range(q):
        values *= _FACTOR_VALUES[axes[:, i, None, None], sign_bits[:, i, None],
                                 row_bits[:, i], col_bits[:, i]]
        turns += (axes[:, i, None] == 1) & (row_bits[:, i] != col_bits[:, i])
    values *= np.array([1.0, 1.0, -1.0, -1.0])[turns % 4][:, None, :]
    real, imag = (values * (turns % 2 == odd)[:, None, :] for odd in (0, 1))
    c = gell_mann_basis(d)[0, 0, 1].real
    diagonal = gell_mann_basis(d)[2 * pairs:].real.diagonal(axis1=-2, axis2=-1)  # (d - 1, d)
    running = 0.0  # a diagonal row sums its entries' terms in ascending order
    for i in range(d):
        running = running + real[..., pairs + i, None] * diagonal[:, i]
    re, im = real[..., :pairs], imag[..., :pairs]
    table = np.concatenate([(re + re) * c, (-im) * c + (-im) * c, running], axis=-1)
    return _read_only(table + 0.0)  # + 0.0 turns -0.0 into the contraction's 0.0


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


def _butterfly(x: np.ndarray, q: int, table: np.ndarray) -> np.ndarray:
    # per qubit of x (k, 4^q), one product: the leading qubit's 4-axis, mapped by table (entries
    # 0, +-1, +-i, so every term is exact), becomes the trailing one, back in place after q
    k = len(x)
    for _ in range(q):
        x = x.reshape(k, 4, -1).transpose(0, 2, 1).reshape(-1, 4) @ table
    return x.reshape(k, -1)


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
    d = 2**q
    rows_first = [0, *range(1, 2 * q, 2), *range(2, 2 * q + 1, 2)]
    x = _butterfly(e.reshape(-1, n), q, _PAULI_BLOCK.T).reshape((-1,) + (2,) * (2 * q))
    return x.transpose(rows_first).reshape(lead + (d, d)) / d


def paulis_from_rho(rho: np.ndarray) -> np.ndarray:
    """All 4^q Pauli expectations e_P = Tr(rho P) of one state (d, d) or a stack: (..., 4^q).

    The inverse of :func:`rho_from_paulis`, by its butterfly stages with the
    conjugate table; rho is taken as Hermitian, and e is the real part.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    q = _qubits(d)
    # each qubit's (row, column) pair becomes one 4-axis, qubit 0 first
    pairs = [0, *(a for i in range(1, q + 1) for a in (i, q + i))]
    x = rho.reshape((-1,) + (2,) * (2 * q)).transpose(pairs).reshape(-1, d * d)
    return _butterfly(x, q, _PAULI_BLOCK.conj()).real.reshape(rho.shape[:-2] + (d * d,))


def bloch_rows(n: np.ndarray) -> np.ndarray:
    """Regression rows of the qubit basis along the Bloch direction n: +-n / (||n|| sqrt(2)).

    n is one nonzero 3-vector, or a stack (..., 3) of them; the rows are
    (2, 3), or (..., 2, 3), the plus outcome first.  They are
    Tr((I +- n.sigma / ||n||) / 2 O_i) over ``gell_mann_basis(2)``, computed
    from n itself, with no digits lost in the elements' 1 +- n_z / ||n||.
    """
    g = n / np.sqrt(np.vecdot(n, n))[..., None] / np.sqrt(2.0)
    return np.stack([g, -g], axis=-2)


def resolve_povm_label(label: str, d: int) -> np.ndarray:
    """Regression rows (outcomes, d^2 - 1) of a labelled basis: ``cube:`` and an axis per
    qubit, its block of :func:`cube_rows`, or ``bloch:nx,ny,nz``, its :func:`bloch_rows`."""
    if label.startswith("cube:"):
        axes = label[len("cube:"):]
        if not axes or any(a not in "xyz" for a in axes) or 2 ** len(axes) != d:
            raise ConfigError(f"bad cube POVM label {label!r} for dimension {d}")
        # the axes are the base-3 digits (x, y, z = 0, 1, 2) of the basis's index
        return cube_rows(d)[int(axes.translate(str.maketrans("xyz", "012")), 3)]
    if label.startswith("bloch:"):
        if d != 2:
            raise ConfigError("bloch POVM labels are qubit-only")
        try:
            n = np.array([float(c) for c in label[len("bloch:"):].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad bloch POVM label {label!r}") from exc
        if n.size != 3:
            raise ConfigError(f"bloch POVM label {label!r} has {n.size} components, need 3")
        if not np.isfinite(n).all():
            raise ConfigError(f"bloch POVM label {label!r} has a non-finite component")
        scale = np.abs(n).max()
        if not scale:
            raise ConfigError("need nonzero 3-vector for the Bloch direction")
        # rescale where the squared norm would overflow or underflow; others keep their bits
        return bloch_rows(n if 2.0**-500 < scale < 2.0**500 else n / scale)
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


def _field(row, name, kind, where):
    try:
        return kind(row[name])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: {name} must be {what}, not {row[name]!r}") from None


def records_from_csv(path, d: int) -> Records:
    """Read a records CSV, resolving each POVM label once; a bad row's error names its line."""
    label_rows, shots, successes, gamma = {}, [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"povm", "element", "shots", "successes"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"records file {path} must have columns {sorted(required)}")
        for row in reader:
            where = f"records file {path} line {reader.line_num}"
            # DictReader files extra fields under the key None and fills missing ones with None
            if None in row or None in row.values():
                raise ConfigError(f"{where}: expected {len(reader.fieldnames)} fields")
            label = row["povm"]
            if label not in label_rows:
                try:
                    label_rows[label] = resolve_povm_label(label, d)
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
            rows = label_rows[label]
            j = _field(row, "element", int, where)
            if not 0 <= j < len(rows):
                raise ConfigError(f"{where}: element index {j} out of range for POVM {label!r}")
            shots.append(_field(row, "shots", int, where))
            _check_copies(shots[-1], f"{where}: shots")
            successes.append(_field(row, "successes", float, where))
            gamma.append(rows[j])
    return Records(np.array(shots, dtype=int), np.array(successes, dtype=float),
                   np.array(gamma).reshape(len(gamma), d * d - 1))
