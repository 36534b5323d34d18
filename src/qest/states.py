"""Quantum states, POVMs, Born-rule probabilities and measurement simulation."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ContractViolationError
from .linalg import HermitianBasis, gell_mann_basis, is_hermitian

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


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian, unit-trace and PSD within tol."""
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        raise ContractViolationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ContractViolationError("density matrix trace differs from 1")
    if float(np.linalg.eigvalsh(rho).min()) < -tol:
        raise ContractViolationError("density matrix has a negative eigenvalue")


def rho_from_theta(theta: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """rho = I/d + sum_i theta_i O_i."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (basis.size,):
        raise ValueError(
            f"theta has length {theta.size}, basis needs {basis.size}"
        )
    d = basis.dim
    return np.eye(d) / d + np.tensordot(theta, basis.elements, axes=1)


def theta_from_rho(rho: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """theta_i = Tr(rho O_i); inverse of :func:`rho_from_theta` on unit-trace Hermitians."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (basis.dim, basis.dim):
        raise ValueError("state dimension does not match the basis")
    return np.einsum("ij,kji->k", rho, basis.elements).real


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measurement: elements sum to the identity.

    ``gamma0[j] = Tr(E_j)`` and ``gamma[j, i] = Tr(E_j O_i)`` over
    ``gell_mann_basis(d)`` are element j's regression coordinates, computed
    once per object on first use.
    """

    label: str
    elements: np.ndarray  # (n_outcomes, d, d)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def gamma0(self) -> np.ndarray:
        return _read_only(np.einsum("eii->e", self.elements).real)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _read_only(
            np.einsum("eij,kji->ek", self.elements, gell_mann_basis(self.dim).elements).real
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller and every record table built from them
    a.flags.writeable = False
    return a


def validate_povm(povm: Povm, tol: float = 1e-9) -> None:
    d = povm.dim
    for p in povm.elements:
        if not is_hermitian(p, 1e-10):
            raise ContractViolationError(f"POVM {povm.label}: non-Hermitian element")
        if float(np.linalg.eigvalsh(p).min()) < -1e-10:
            raise ContractViolationError(f"POVM {povm.label}: element not PSD")
    if np.linalg.norm(povm.elements.sum(axis=0) - np.eye(d)) > tol:
        raise ContractViolationError(f"POVM {povm.label}: elements do not sum to identity")


@dataclass(frozen=True, eq=False)
class Records:
    """Columnar table of POVM-element counts, one row per element of a measurement run.

    ``successes[r]`` counts how often element ``element[r]`` of POVM
    ``label[r]`` fired among ``shots[r]`` draws of the full POVM; it is
    integer-valued for sampled data and may be fractional for exact
    expected counts.  ``gamma0`` and ``gamma`` are the rows' regression
    coordinates (see :class:`Povm`).  Slicing selects rows.
    """

    label: np.ndarray      # (n,) str
    element: np.ndarray    # (n,) int
    shots: np.ndarray      # (n,) int
    successes: np.ndarray  # (n,) float
    gamma0: np.ndarray     # (n,)
    gamma: np.ndarray      # (n, d^2 - 1)

    def __post_init__(self):
        if np.any(self.shots < 1):
            raise ValueError("every record needs shots >= 1")
        if not np.all((self.successes >= 0) & (self.successes <= self.shots)):
            raise ValueError("every record needs finite successes within [0, shots]")

    @classmethod
    def of_povm(cls, povm: Povm, shots: int, successes) -> Records:
        """One row per element of ``povm`` measured ``shots`` times."""
        n = len(povm)
        return cls(np.full(n, povm.label), np.arange(n), np.full(n, int(shots)),
                   np.asarray(successes, dtype=float), povm.gamma0, povm.gamma)

    @classmethod
    def concat(cls, parts) -> Records:
        parts = list(parts)
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def __len__(self) -> int:
        return self.shots.size

    def __getitem__(self, rows) -> Records:
        return Records(*(getattr(self, f.name)[rows] for f in fields(self)))

    @property
    def p_hat(self) -> np.ndarray:
        return self.successes / self.shots


def born_probabilities(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(rho P_i), clamped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (povm.dim, povm.dim):
        raise ValueError("state and POVM dimensions differ")
    p = np.einsum("ij,eji->e", rho, povm.elements).real
    return np.clip(p, 0.0, 1.0)


def simulate_measurements(rho, povm: Povm, shots: int, rng) -> Records:
    """Draw one multinomial sample of size ``shots`` over the Born probabilities.

    Returns one row per POVM element; deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = as_rng(rng)
    p = born_probabilities(rho, povm)
    return Records.of_povm(povm, shots, rng.multinomial(shots, p / p.sum()))


def expected_records(rho, povm: Povm, shots: int) -> Records:
    """Noiseless records with successes equal to the exact expected counts."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return Records.of_povm(povm, shots, born_probabilities(rho, povm) * shots)


def split_evenly(total: int, parts: int):
    """Deterministic near-even integer split; early parts take the remainder."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def cube_records(rho, total: int, rng) -> Records:
    """``total`` copies of rho split evenly over the cube bases, one run per basis."""
    if total < 1:
        raise ValueError("need at least one copy to measure")
    povms = cube_povms(rho.shape[0])
    return Records.concat(simulate_measurements(rho, povm, n, rng)
                          for povm, n in zip(povms, split_evenly(total, len(povms))) if n > 0)


def _qubit_axis_povm(axis: str) -> np.ndarray:
    kets = _AXIS_KETS[axis]
    return np.stack([pure_to_density(k) for k in kets])


@lru_cache(maxsize=None)
def cube_povms(d: int) -> tuple:
    """The 3^q Pauli-eigenbasis product measurements for q qubits (d = 2^q).

    Cached, so every caller shares the same POVMs and their gamma rows.
    """
    q = int(round(np.log2(d)))
    if d < 2 or 2**q != d:
        raise ValueError(f"cube bases need a power-of-two dimension, got d={d}")
    povms = []
    for axes in itertools.product("xyz", repeat=q):
        single = [_qubit_axis_povm(a) for a in axes]
        elements = []
        for outcomes in itertools.product(range(2), repeat=q):
            m = single[0][outcomes[0]]
            for qi in range(1, q):
                m = np.kron(m, single[qi][outcomes[qi]])
            elements.append(m)
        povms.append(Povm("cube:" + "".join(axes), _read_only(np.stack(elements))))
    return tuple(povms)


def bloch_basis_povm(n: np.ndarray) -> Povm:
    """Projective qubit basis along the Bloch direction n (normalized)."""
    n = np.asarray(n, dtype=float).ravel()
    if n.shape != (3,) or np.linalg.norm(n) == 0:
        raise ValueError("need a nonzero 3-vector Bloch direction")
    n = n / np.linalg.norm(n)
    ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    eye = np.eye(2)
    label = "bloch:" + ",".join(f"{c:.12f}" for c in n)
    return Povm(label, np.stack([(eye + ns) / 2, (eye - ns) / 2]))


def resolve_povm_label(label: str, d: int) -> Povm:
    """Rebuild a POVM from its label (``cube:...`` or ``bloch:...``)."""
    if label.startswith("cube:"):
        axes = label[len("cube:"):]
        if not axes or any(a not in "xyz" for a in axes) or 2 ** len(axes) != d:
            raise ConfigError(f"bad cube POVM label {label!r} for dimension {d}")
        for povm in cube_povms(d):
            if povm.label == label:
                return povm
        raise ConfigError(f"unresolvable cube POVM label {label!r}")
    if label.startswith("bloch:"):
        if d != 2:
            raise ConfigError("bloch POVM labels are qubit-only")
        try:
            n = np.array([float(c) for c in label[len("bloch:"):].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad bloch POVM label {label!r}") from exc
        return bloch_basis_povm(n)
    raise ConfigError(f"unknown POVM label {label!r}")


def povm_to_json(povm: Povm) -> dict:
    """Serialize a POVM with its label and per-element matrix objects."""
    from .linalg import matrix_to_json

    return {"label": povm.label, "elements": [matrix_to_json(e) for e in povm.elements]}


def povm_from_json(obj: dict) -> Povm:
    from .linalg import matrix_from_json

    try:
        elements = np.stack([matrix_from_json(e) for e in obj["elements"]])
        povm = Povm(str(obj["label"]), elements)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed POVM object: {exc}") from exc
    validate_povm(povm)
    return povm


def mse(est: np.ndarray, truth: np.ndarray) -> float:
    """Squared Hilbert-Schmidt distance Tr((est - truth)^2) for one trial."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError("state dimensions differ")
    return float(np.linalg.norm(est - truth) ** 2)


def records_to_csv(records: Records, path) -> None:
    """Write records as CSV with columns povm,element,shots,successes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["povm", "element", "shots", "successes"])
        writer.writerows(zip(records.label, records.element, records.shots,
                             (f"{s:.17g}" for s in records.successes)))


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
