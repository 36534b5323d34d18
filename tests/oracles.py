"""Checkers and reference implementations that the tests use as oracles.

None of these is on a `qest` code path.  The Schur-based matrix logarithm is
the reference that `qest.linalg.unitary_log` is compared against; it needs
scipy, which only the tests and the benchmark use.  The one-matrix
accumulator loop is the reference for `qest.tomography.project_physical`'s
batched simplex step.  The per-rotation identification loop is the
reference for `qest.identify_hamiltonian`'s closed-form choice of phase
rotation, and identification by one full ``eigh`` the dense reference for
its ``eigvalsh`` and power iteration.  The LU solve over the natural probes
is the dense reference for `qest.estimate_lambda`'s index-built probe map.
The Gell-Mann regression over cube records is the reference for
`qest.estimate_lambda`'s closed-form solve in Pauli coordinates, and the
dense Kronecker-product Pauli strings for its Pauli tables and butterfly
reconstruction.  The cube bases' element matrices, built by nested
``np.kron`` loops as one stacked `Povm` whose ``einsum`` gives their rows,
are the bit-for-bit reference for `qest.states.cube_rows`, and their dense
Born product and an exact evaluation in rationals are the references for
`qest.states.cube_draws`' probabilities from Pauli expectations.  The
per-unit and per-probe loops are the bit-for-bit references for the matrix
units and the probe projectors that `qest` builds in one step.
The per-run loop of records, one step and one state at a time, with plain
matrix products, is the reference for `qest.run_adaptive_protocol`,
`qest.harness.run_paired_tomography` and `qest.harness.run_mse_sweep`, which
run every repetition or trial as one stack.  The two per-interval loops of
stacked products, the states forward and then the target backward, with the
gradient taken between them, are the reference for `qest.control`'s single
fused state/costate sweep, and the training that calls them once per
quantity is the reference for `qest.control.slc_train`; they exponentiate
through the library's own kernels.  The gradient by eigenpairs and divided
differences of the full generator matrices, at every d, is the reference
for the closed-form qubit gradient of `qest.linalg.QubitExpm`.  The per-value
number formatter is the reference for `qest.harness.write_csv`'s per-column
text.  The Born rule Tr(rho E), by one contraction of the state with the
POVM's elements, is the reference for the adaptive steps' outcome
probabilities 1/d + gamma . theta.  The qubit basis built as the matrices
(I +- n.sigma) / 2 and contracted is the matrix-route reference for
`qest.states.bloch_rows`.  The element-matrix `Povm`, with its unit-trace
check, the Gell-Mann coordinates of a state, exact expected counts, the
one-POVM measurement simulation, the qubit trine, the cube bases' labels and
their list of one-basis POVMs, the concatenation and row selection of
records, the records CSV writer and the dense B are library-style helpers
that only tests call.
"""

import csv
import itertools
import warnings
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from qest import identification, linalg
from qest.errors import ContractViolationError
from qest.identification import apply_channel, natural_probes, raw_process_matrix
from qest.linalg import (
    QubitExpm,
    gell_mann_basis,
    is_hermitian,
    pauli_coordinates,
    vec,
    vec_inv,
)
from qest.adaptive import _SPHERE_GRID, RecursiveState
from qest.harness import sample_truth, trial_rng
from qest.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_copies,
    _qubits,
    Records,
    cube_draws,
    cube_records,
    rho_from_paulis,
    rho_from_theta,
)
from qest.tomography import (
    build_regression,
    project_physical,
    record_weight,
    solve_cube_paulis,
    solve_weighted_ls,
    tomography_pipeline,
)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measurement as element matrices: the matrix route to rows.

    ``elements`` is (n_outcomes, d, d), or (..., n_outcomes, d, d) for a
    stack of measurements, such as :func:`cube_povm`'s bases; ``len()``
    counts outcomes.  ``gamma[..., j, i] = Tr(E_j O_i)`` over
    ``gell_mann_basis(d)`` are the elements' regression rows, by one
    ``einsum`` per object on first use, kept as a read-only C-contiguous
    float copy of the contraction's real part.  The regression reads
    Tr(E_j rho) as 1/d + gamma[j] . theta, so ``gamma`` raises
    :class:`ContractViolationError` for any element whose trace is more than
    1e-10 from 1.
    """

    elements: np.ndarray

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return self.elements.shape[-3]

    @cached_property
    def gamma(self) -> np.ndarray:
        if not (abs(np.einsum("...ii->...", self.elements) - 1.0) <= 1e-10).all():
            raise ContractViolationError(
                "every POVM element must have unit trace: the regression reads Tr(E rho) as "
                "1/d + gamma . theta")
        gamma = np.einsum("...eij,kji->...ek", self.elements, gell_mann_basis(self.dim))
        gamma = gamma.real.copy()
        gamma.flags.writeable = False
        return gamma


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
            raise ContractViolationError("POVM: non-Hermitian element")
        if float(np.linalg.eigvalsh(p).min()) < -1e-10:
            raise ContractViolationError("POVM: element not PSD")
    if np.linalg.norm(povm.elements.sum(axis=0) - np.eye(d)) > tol:
        raise ContractViolationError("POVM: elements do not sum to identity")


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


def eigh_top_eigenpair(dmat: np.ndarray):
    """Reference top eigenpair: the ascending spectrum and top eigenvector of one full eigh."""
    w, v = np.linalg.eigh(dmat)
    return w, v[:, -1]


def unitary_fit(lam: np.ndarray, top_eigenpair):
    """The first steps of ``qest.identify_hamiltonian`` with a given top-eigenpair step.

    Hermitizes the reshuffled Lambda, takes its top eigenpair by
    ``top_eigenpair``, projects the rank-one factor to the nearest unitary G
    and returns (G^T with its determinant phase removed, the diagnostics).
    """
    lam = np.asarray(lam, dtype=complex)
    d = int(round(np.sqrt(lam.shape[0])))
    dmat = raw_process_matrix(lam)
    w, top = top_eigenpair((dmat + dmat.conj().T) / 2)
    lam1 = float(w[-1])
    s_hat = linalg.vec_inv(np.sqrt(lam1) * top, d, d)
    g_hat = linalg.nearest_unitary(s_hat)
    diagnostics = {
        "rank1_dominance": lam1 / float(np.sum(np.abs(w))),
        "unitary_fit_distance": float(np.linalg.norm(g_hat - s_hat)),
        "top_eigenvalue": lam1,
    }
    return g_hat.T * np.exp(-1j * np.angle(np.linalg.det(g_hat.T)) / d), diagnostics


def logs_by_rotations(base: np.ndarray, t: float):
    """Reference rotation choice: one matrix log per phase rotation of base.

    Takes ``qest.linalg.unitary_log`` of every candidate base * e^{2 pi i r/d},
    capturing each call's warnings, and keeps the smallest spectral norm;
    norms within 1e-9 / t tie (1e-9 rad of eigenphase spread), and a tied
    candidate clear of the cut beats one on it.  Returns (H, the chosen
    candidate's warnings, [(norm times t, warned)] per r).
    """
    d = base.shape[0]
    best, candidates = None, []
    for r in range(d):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h_r = linalg.unitary_log(base * np.exp(2j * np.pi * r / d), t)
        norm = float(np.linalg.norm(h_r, 2)) * t
        candidates.append((norm, bool(caught)))
        if (best is None or norm < best[0] - 1e-9
                or (abs(norm - best[0]) <= 1e-9 and best[2] and not caught)):
            best = (norm, h_r, list(caught))
    return best[1], best[2], candidates


def identify_by_rotations(lam: np.ndarray, t: float):
    """Reference identification: one matrix log per phase rotation.

    Follows ``qest.identify_hamiltonian`` up to the rotation choice, its top
    eigenpair step included, then chooses by :func:`logs_by_rotations`.
    """
    return logs_by_rotations(unitary_fit(lam, identification._top_eigenpair)[0], t)


def identify_by_eigh(lam: np.ndarray, t: float):
    """Reference identification with one full eigh of the Hermitized process matrix.

    The dense path ``qest.identify_hamiltonian`` replaced by one ``eigvalsh``
    and power iteration, and the result of its fallback: (H, diagnostics).
    """
    base, diagnostics = unitary_fit(lam, eigh_top_eigenpair)
    return logs_by_rotations(base, t)[0], diagnostics


def project_physical_loop(rho_tilde: np.ndarray) -> np.ndarray:
    """Reference physical projection of one matrix, by the accumulator loop.

    Zeroes the negative eigenvalues in ascending order while the running
    deficit, spread over the remaining ones, leaves the next one negative.
    Input checks are left to the caller.
    """
    w, v = np.linalg.eigh(rho_tilde)
    if w[0] >= 0:
        return rho_tilde
    lam = w[::-1].copy()  # descending
    i = lam.size
    acc = 0.0
    while lam[i - 1] + acc / i < 0:
        acc += lam[i - 1]
        lam[i - 1] = 0.0
        i -= 1
    lam[:i] += acc / i
    out = (v[:, ::-1] * lam) @ v[:, ::-1].conj().T
    return (out + out.conj().T) / 2


def units_by_solve(outputs: np.ndarray) -> np.ndarray:
    """Reference probe map: Lambda from the natural probes' (d^2, d, d) channel outputs
    by one LU solve of the probes' expansion over the matrix units."""
    d = outputs.shape[-1]
    return np.linalg.solve(natural_probes(d).reshape(d * d, d * d),
                           outputs.reshape(d * d, d * d))


def lambda_by_solve(kraus, d: int, shots: int, seed) -> np.ndarray:
    """Reference sampled transfer matrix: the draws and closed-form solve of sampled
    ``qest.estimate_lambda``, mapped back to the units by :func:`units_by_solve`."""
    copies, draws = cube_draws(apply_channel(kraus, natural_probes(d)), shots, seed)
    return units_by_solve(project_physical(rho_from_paulis(solve_cube_paulis(copies, draws))))


def regression_lambda(kraus, d: int, shots: int, seed) -> np.ndarray:
    """Reference sampled transfer matrix by the general regression over the Gell-Mann design.

    The same probes and draws as sampled ``qest.estimate_lambda``,
    taken as records and solved by the thin-SVD weighted least squares:
    records -> build_regression -> solve_weighted_ls -> rho_from_theta ->
    project_physical -> the probe expansion back to the units.
    """
    records = cube_records(apply_channel(kraus, natural_probes(d)), shots, seed)
    theta, _, _ = solve_weighted_ls(build_regression(records))
    return units_by_solve(project_physical(rho_from_theta(theta)))


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_strings(q: int) -> np.ndarray:
    """All 4^q q-qubit Pauli strings as dense Kronecker products, (4^q, 2^q, 2^q).

    String j has qubit i's code (I, X, Y, Z = 0, 1, 2, 3) as base-4 digit i
    of j, qubit 0 most significant.
    """
    strings = []
    for codes in itertools.product(range(4), repeat=q):
        m = np.ones((1, 1), dtype=complex)
        for c in codes:
            m = np.kron(m, _PAULIS[c])
        strings.append(m)
    return np.stack(strings)


def theta_from_rho(rho: np.ndarray) -> np.ndarray:
    """theta_i = Tr(rho O_i) over ``gell_mann_basis(d)``; inverse of ``rho_from_theta``
    on unit-trace Hermitians."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("ij,kji->k", rho, gell_mann_basis(rho.shape[0])).real


def born_probabilities(rho: np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(rho E_j), clamped to [0, 1].

    rho may be one state or a stack, and povm one measurement or a stack;
    their leading axes broadcast.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (povm.dim, povm.dim):
        raise ValueError("state and POVM dimensions differ")
    p = np.einsum("...ij,...eji->...e", rho, povm.elements).real
    return np.clip(p, 0.0, 1.0)


def povm_records(povm: Povm, shots: int, successes) -> Records:
    """One row per element of one POVM, measured ``shots`` times, with its own gamma rows."""
    return Records(np.full(len(povm), int(shots)), np.asarray(successes, dtype=float), povm.gamma)


def expected_records(rho, povm: Povm, shots: int) -> Records:
    """Noiseless records with successes equal to the exact expected counts."""
    return povm_records(povm, shots, born_probabilities(rho, povm) * shots)


def bloch_basis_povm(n) -> Povm:
    """Projective qubit basis along the Bloch direction n, one nonzero 3-vector (normalized), or
    a stack (..., 3) of them, each by the same elementwise steps: the elements (I +- n.sigma) / 2
    whose rows ``qest.states.bloch_rows`` gives directly."""
    n = np.asarray(n, dtype=float)
    norm = np.sqrt(np.vecdot(n, n)) if n.ndim and n.shape[-1] == 3 else np.zeros(1)
    if (norm == 0).any():
        raise ValueError("need nonzero 3-vectors for the Bloch directions")
    n = n / norm[..., None]
    x, y, z = np.moveaxis(n, -1, 0)[..., None, None]
    ns = x * PAULI_X + y * PAULI_Y + z * PAULI_Z
    eye = np.eye(2)
    return Povm(np.stack([(eye + ns) / 2, (eye - ns) / 2], -3))


def trine_povm() -> Povm:
    """The qubit trine: (2/3)|psi_k><psi_k| at Bloch angles 0, 120 and 240 degrees in the
    x-z plane.  Its elements sum to the identity, but each has trace 2/3."""
    half_angles = np.pi / 3 * np.arange(3)
    kets = np.stack([np.cos(half_angles), np.sin(half_angles)], -1).astype(complex)
    return Povm(2 / 3 * kets[:, :, None] * kets[:, None, :].conj())


def cube_povms(d: int) -> list:
    """The bases of ``qest.cube_povm(d)`` as a list of one-basis POVMs, in order.

    Each computes its own gamma rows, by its own contraction.
    """
    return [Povm(elements) for elements in cube_povm(d).elements]


def concat_records(parts) -> Records:
    """The rows of several record tables, in order, as one table."""
    parts = list(parts)
    # rows are the last axis of every column but gamma, whose coordinates follow them
    return Records(*(np.concatenate([getattr(p, f.name) for p in parts],
                                    axis=-2 if f.name == "gamma" else -1) for f in fields(Records)))


def record_rows(records: Records, rows) -> Records:
    """The rows ``rows`` (a slice, index list or mask) of a record table, of every member."""
    return Records(records.shots[rows], records.successes[..., rows], records.gamma[..., rows, :])


def cube_labels(d: int) -> list:
    """The labels of ``cube_povms(d)``, in order: ``cube:`` and one axis letter per qubit."""
    return ["cube:" + "".join(axes) for axes in itertools.product("xyz", repeat=_qubits(d))]


def records_to_csv(runs, path) -> None:
    """Write (label, records) runs as CSV with columns povm,element,shots,successes.

    Each run holds one POVM's records, one row per element in element order,
    as :func:`povm_records` builds them; ``label`` names that POVM.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["povm", "element", "shots", "successes"])
        for label, records in runs:
            writer.writerows((label, j, shots, f"{s:.17g}") for j, (shots, s)
                             in enumerate(zip(records.shots, records.successes)))


def build_b_matrix(d: int) -> np.ndarray:
    """Dense B with B[(m,n),(j,k)] the coefficient of rho_n in F_j rho_m F_k^dag.

    Row (m, n) maps to index n*d^2 + m and column (j, k) to k*d^2 + j,
    matching the column-stacked ``vec``.  B is the permutation applied by
    ``qest.raw_process_matrix``; the dense form costs O(d^8) memory.
    """
    d4 = d**4
    rows = vec(raw_process_matrix(vec_inv(np.arange(d4), d * d, d * d)))
    b = np.zeros((d4, d4), dtype=complex)
    b[rows, np.arange(d4)] = 1.0
    return b


def natural_units(d: int) -> np.ndarray:
    """The matrix units |a><b|, (a, b) row-major, one at a time: (d^2, d, d)."""
    units = np.zeros((d * d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            units[a * d + b, a, b] = 1.0
    return units


def natural_probes_loop(d: int) -> np.ndarray:
    """The d^2 probe projectors of ``qest.natural_probes``, one ``np.outer`` at a time."""
    eye = np.eye(d, dtype=complex)
    probes = [np.outer(eye[k], eye[k]) for k in range(d)]
    for phase in (1.0, 1j):
        for j in range(d):
            for k in range(j + 1, d):
                ket = (eye[j] + phase * eye[k]) / np.sqrt(2)
                probes.append(np.outer(ket, ket.conj()))
    return np.stack(probes)


@lru_cache(maxsize=None)
def cube_povm(d: int) -> Povm:
    """The cube bases as one stacked POVM, elements (bases, outcomes, d, d) by nested ``np.kron``.

    Each qubit's factor is the exact projector (I + s sigma_a) / 2.  Bases in
    ``itertools.product("xyz")`` order and outcomes in sign order, plus
    first, qubit 0 most significant, as in ``qest.states.cube_rows``.
    Cached, with read-only elements; its ``gamma`` is the all-bases
    ``einsum`` that ``cube_rows`` must equal bit for bit.
    """
    q = _qubits(d)
    bases = []
    for axes in itertools.product((1, 2, 3), repeat=q):
        single = [[(_PAULIS[0] + s * _PAULIS[a]) / 2 for s in (1, -1)] for a in axes]
        elements = []
        for outcomes in itertools.product(range(2), repeat=q):
            m = single[0][outcomes[0]]
            for qi in range(1, q):
                m = np.kron(m, single[qi][outcomes[qi]])
            elements.append(m)
        bases.append(np.stack(elements))
    elements = np.stack(bases)
    elements.flags.writeable = False
    return Povm(elements)


def dense_cube_probabilities(rho) -> np.ndarray:
    """Reference cube outcome probabilities by the dense Born product: (..., bases, outcomes).

    Tr(rho E) = sum_ij Re(rho_ij) Re(E_ij) + Im(rho_ij) Im(E_ij) for Hermitian E:
    one real product of the float views of the states and of
    :func:`cube_povm`'s elements, clipped to [0, 1] and normalized per basis:
    the element-matrix route to what ``qest.states.cube_draws`` computes from
    Pauli expectations.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = rho.shape[-1]
    elements = cube_povm(d).elements
    p = rho.reshape(-1, d * d).view(float) @ elements.reshape(-1, d * d).view(float).T
    p = np.clip(p, 0.0, 1.0, out=p).reshape(rho.shape[:-2] + elements.shape[:2])
    return p / p.sum(axis=-1, keepdims=True)


def exact_cube_probabilities(rho) -> list:
    """The cube outcome probabilities of one state (d, d), in exact rationals: [basis][outcome].

    Each Tr(rho E) is summed in ``Fraction`` from the exact values of rho's
    doubles and of the dyadic elements, clipped to [0, 1] and normalized per
    basis, exactly.
    """
    rho = np.asarray(rho, dtype=complex).ravel()
    terms = [(Fraction(z.real), Fraction(z.imag)) for z in rho]
    d = int(np.sqrt(len(rho)))
    out = []
    for basis in cube_povm(d).elements.reshape(-1, d, d * d):
        p = [min(max(sum(re * Fraction(e.real) + im * Fraction(e.imag)
                         for (re, im), e in zip(terms, element) if e), Fraction(0)), Fraction(1))
             for element in basis]
        out.append([x / sum(p) for x in p])
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same dtype, shape and bytes; tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def simulate_measurements(rho, povm: Povm, shots: int, rng) -> Records:
    """One multinomial sample of ``shots`` copies over one POVM's Born probabilities, as records."""
    _check_copies(shots, "shots")
    p = born_probabilities(rho, povm)
    return povm_records(povm, shots, np.random.default_rng(rng).multinomial(shots, p / p.sum()))


def simulate_rows(rho, rows: np.ndarray, shots: int, rng) -> Records:
    """One multinomial sample of ``shots`` copies of the basis with regression rows ``rows``,
    as records: outcome j fires with probability 1/d + rows[j] . theta, clipped to [0, 1],
    for the Gell-Mann coordinates theta of rho."""
    p = np.clip(1.0 / len(rho) + rows @ theta_from_rho(rho), 0.0, 1.0)
    counts = np.random.default_rng(rng).multinomial(shots, p / p.sum())
    return Records(np.full(len(rows), shots), counts.astype(float), rows)


def rls_update_loop(state: RecursiveState, problem) -> RecursiveState:
    """Reference recursive fold of one state, row by row, with plain matrix products."""
    q, theta = state.q, state.theta
    for gamma, y, w in zip(problem.x, problem.y, problem.w):
        qg = q @ gamma
        a = 1.0 / (1.0 / w + gamma @ qg)
        q = q - a * np.outer(qg, qg)
        q = (q + q.T) / 2
        theta = theta + a * qg * (y - gamma @ theta)
    return RecursiveState(q=q, theta=theta)


def _basis_gains_loop(state, gamma, planned_shots, weighting):
    p_pred = np.clip(1.0 / state.dim + gamma @ state.theta, 0.0, 1.0)
    weight = record_weight(planned_shots, p_pred, weighting)
    qg = gamma @ state.q
    return ((qg * qg).sum(-1) / (1.0 / weight + (gamma * qg).sum(-1))).sum(-1)


def select_next_basis_loop(state, candidates, planned_shots, weighting):
    """Reference finite selection for one state: (chosen rows, gains), one score per candidate.

    ``candidates`` is a stacked POVM, such as ``qest.cube_povm(d)``; each
    basis is split off as its own POVM and scored, and chosen, with its own
    gamma rows, not with rows cut from the stack's table.
    """
    rows = [Povm(elements).gamma for elements in candidates.elements]
    gains = np.array([_basis_gains_loop(state, g, planned_shots, weighting) for g in rows])
    return rows[int(np.argmax(gains))], gains


def continuum_qubit_basis_loop(state, planned_shots, weighting):
    """Reference continuum search for one state, whose candidate list has no
    Bloch direction while the estimate is within 1e-9 of the maximally mixed state.
    Returns the chosen basis's rows +-n / (||n|| sqrt(2)), plus outcome first."""
    _, v = np.linalg.eigh(state.q)
    candidates = [np.eye(3), v.T]
    bloch = state.theta * np.sqrt(2.0)
    norm = np.linalg.norm(bloch)
    if norm > 1e-9:
        candidates.append([bloch / norm])
    candidates.append(_SPHERE_GRID)
    u = np.concatenate(candidates)
    gamma = np.stack([u, -u], axis=1) / np.sqrt(2.0)
    gains = _basis_gains_loop(state, gamma, planned_shots, weighting)
    n = u[int(np.argmax(gains >= gains.max() * (1.0 - 1e-12)))]
    g = n / np.linalg.norm(n) / np.sqrt(2.0)
    return np.stack([g, -g])


def adaptive_protocol_loop(truth, schedule, candidates, rng, weighting):
    """Reference two-stage protocol of one run: records, one step and one state at a time.

    ``candidates`` is a stacked POVM or ``"continuum"``; ``rng`` is the run's
    generator.  Each step draws the chosen rows' outcomes by
    :func:`simulate_rows`.  Returns the projected final state and, per step,
    the diagnostics that ``qest adapt`` writes (step, copies used, Tr(Q),
    MSE) with the step's unprojected ``theta``, which
    ``qest.run_adaptive_protocol`` returns.
    """
    problem = build_regression(cube_records(truth, schedule.stage1, rng), weighting)
    theta, _, q = solve_weighted_ls(problem)
    state = RecursiveState(q=q, theta=theta)
    diagnostics = []

    def snapshot(step):
        rho_step = project_physical(rho_from_theta(state.theta))
        diagnostics.append({
            "step": step,
            "copies_used": schedule.stage1 + step * schedule.per_step,
            "theta": state.theta,
            "trace_q": float(np.trace(state.q)),
            "mse": float(np.linalg.norm(rho_step - truth) ** 2),
        })
        return rho_step

    rho_hat = snapshot(0)
    for k in range(1, schedule.steps + 1):
        if isinstance(candidates, str):
            rows = continuum_qubit_basis_loop(state, schedule.per_step, weighting)
        else:
            rows, _ = select_next_basis_loop(state, candidates, schedule.per_step, weighting)
        records = simulate_rows(truth, rows, schedule.per_step, rng)
        state = rls_update_loop(state, build_regression(records, weighting))
        rho_hat = snapshot(k)
    return rho_hat, diagnostics


def static_cube_mse_loop(truth, total, rng, weighting):
    """Reference static arm of one repetition: the cube records' pipeline estimate's MSE."""
    rho, _, _ = tomography_pipeline(cube_records(truth, total, rng), weighting)
    return float(np.linalg.norm(rho - truth) ** 2)


def mse_sweep_loop(dim, shot_grid, trials, seed, ensemble, weighting):
    """Reference sweep, one (N, trial) at a time: (rows, per-N mean MSE).

    Each trial draws its truth and then its cube records on its own
    generator, as ``qest.harness.run_mse_sweep`` does for a stack of trials.
    """
    rows, means = [], []
    for ni, n in enumerate(shot_grid):
        errs = []
        for t in range(trials):
            rng = trial_rng(seed, ni, t)
            errs.append(static_cube_mse_loop(sample_truth(dim, rng, ensemble), n, rng, weighting))
            rows.append((n, t, errs[-1]))
        means.append(float(np.mean(errs)))
    return rows, means


def format_number(value) -> str:
    """Reference CSV text of one value: an integer or bool as an integer, any
    other value as 17 significant digits, which round-trip float64 exactly."""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return f"{float(value):.17g}"


def interval_generators(h0, controls, pairs, field) -> np.ndarray:
    """omega H0 + theta sum_m u_km H_m of every (sample, interval), in the shape (N, K) + H0's.

    H0 and the controls are matrices, or at d = 2 Pauli coordinates, as
    `qest.control` forms its generators; the sum over channels starts from
    zero, as there.
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    trailing = (1,) * np.ndim(h0)
    drive = sum((field.amplitudes[:, m].reshape((-1,) + trailing) * c
                 for m, c in enumerate(controls)), np.zeros((field.intervals,) + trailing))
    omega, theta = (pairs[:, i].reshape((-1, 1) + trailing) for i in (0, 1))
    return omega * h0 + theta * drive


def eigen_propagators(h: np.ndarray, s: float = 1.0):
    """exp(-i s H) together with the eigenpairs (w, v) of H it is built from.

    H is one Hermitian matrix or a stack (..., d, d) of them; every member
    must pass the Hermitian check, and all are decomposed by one
    ``np.linalg.eigh`` and multiplied back by ``@``, the eigensolver and the
    product the library propagates with from d = 3.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, 1e-10):
        raise ContractViolationError("herm_expm requires a Hermitian generator")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2), (w, v)


def interval_propagators(system, pairs, field):
    """The propagators of every (sample, interval) and what their derivative needs, by the
    library's kernels: (props, pieces).

    At d = 2 the generators are Pauli coordinates, exponentiated by one
    :class:`qest.linalg.QubitExpm`, which is ``pieces``; at every other d
    they are matrices, and ``pieces`` is the eigenpairs (w, v) of
    :func:`eigen_propagators`.  The loops built on this oracle test
    structure, not those kernels.
    """
    if system.dim == 2:
        expm = QubitExpm(interval_generators(pauli_coordinates(system.h0),
                                             pauli_coordinates(system.controls), pairs, field),
                         field.dt)
        return expm.unitaries, expm
    return eigen_propagators(interval_generators(system.h0, system.controls, pairs, field),
                             field.dt)


def propagate_loops(props, psi0, psi_target):
    """The two per-interval loops over the (N, K, d, d) propagators: (fwd, bwd, overlap).

    The states go forward, one stacked product per interval, and the target
    backward under the adjoint propagators.  fwd[:, k] is the state before
    interval k and bwd[:, k] the target carried back to the same point.
    """
    n, intervals, d = props.shape[:3]
    target = np.array(psi_target, complex).ravel()
    fwd = np.empty((n, intervals + 1, d), dtype=complex)
    fwd[:, 0] = np.asarray(psi0, dtype=complex).ravel()
    for k in range(intervals):
        fwd[:, k + 1] = (props[:, k] @ fwd[:, k, :, None])[..., 0]
    bwd = np.empty_like(fwd)
    bwd[:, -1] = target
    props_h = np.swapaxes(props.conj(), -1, -2)
    for k in range(intervals, 0, -1):
        bwd[:, k - 1] = (props_h[:, k - 1] @ bwd[:, k, :, None])[..., 0]
    return fwd, bwd, np.vecdot(target, fwd[:, -1])


def slc_evaluate_loop(system, pairs, field, psi0, psi_target):
    """Reference SLC evaluation: (props, pieces, fwd, bwd, overlap).

    One batched exponential of every (sample, interval) generator by
    :func:`interval_propagators`, then the per-interval loops of
    :func:`propagate_loops`.
    """
    props, pieces = interval_propagators(system, pairs, field)
    return (props, pieces) + propagate_loops(props, psi0, psi_target)


def eigen_gradient(w, v, dt, fwd, bwd, overlap, theta, controls) -> np.ndarray:
    """The exact gradient of the mean fidelity from the eigenpairs (w, v) of the generators, by
    divided differences, between the costates bwd and the states fwd.

    theta is each sample's control scale and controls the (M, d, d) matrices.
    Its matrix products are ``@``, as the library's are.
    """
    x = dt * (w[..., :, None] - w[..., None, :])
    gamma = (dt * np.exp(-1j * dt * w)[..., None, :]
             * (-np.sin(x / 2) * np.sinc(x / (2 * np.pi)) - 1j * np.sinc(x / np.pi)))
    vh = np.swapaxes(v.conj(), -1, -2)
    a = (vh @ bwd[:, 1:, :, None])[..., 0]
    b = (vh @ fwd[:, :-1, :, None])[..., 0]
    t = gamma * a.conj()[..., :, None] * b[..., None, :]
    s = (v.conj() @ t) @ np.swapaxes(v, -1, -2)
    dz = theta[:, None, None] * np.einsum("nkcd,mcd->nkm", s, controls)
    return np.mean(2.0 * (np.conj(overlap)[:, None, None] * dz).real, axis=0)


def augmented_j_loop(system, samples, field, psi0, psi_target) -> float:
    """Reference mean fidelity, from :func:`slc_evaluate_loop`."""
    z = slc_evaluate_loop(system, samples.pairs, field, psi0, psi_target)[-1]
    return float(np.mean(np.float_power(np.hypot(z.real, z.imag), 2)))


def gradient_j_loop(system, samples, field, psi0, psi_target) -> np.ndarray:
    """Reference exact gradient of the mean fidelity, between the loops' costates and states.

    At d = 2 it takes the derivative brackets of the loops' own
    :class:`qest.linalg.QubitExpm` against the controls' vector parts; at
    every other d it is :func:`eigen_gradient`.
    """
    _, pieces, fwd, bwd, overlap = slc_evaluate_loop(system, samples.pairs, field, psi0,
                                                     psi_target)
    theta = samples.pairs[:, 1]
    if system.dim != 2:
        return eigen_gradient(*pieces, field.dt, fwd, bwd, overlap, theta, system.controls)
    brackets = pieces.bracket_derivative(bwd[:, 1:], fwd[:, :-1])
    dz = theta[:, None, None] * np.einsum("nka,ma->nkm", brackets,
                                          pauli_coordinates(system.controls)[:, 1:])
    return np.mean(2.0 * (np.conj(overlap)[:, None, None] * dz).real, axis=0)


def gradient_j_eigen(system, samples, field, psi0, psi_target) -> np.ndarray:
    """Reference exact gradient by the eigenpairs and divided differences at every d, d = 2
    included: matrix generators, :func:`eigen_propagators`, :func:`propagate_loops` and
    :func:`eigen_gradient`, independent of the closed form of ``QubitExpm``."""
    props, (w, v) = eigen_propagators(
        interval_generators(system.h0, system.controls, samples.pairs, field), field.dt)
    fwd, bwd, overlap = propagate_loops(props, psi0, psi_target)
    return eigen_gradient(w, v, field.dt, fwd, bwd, overlap, samples.pairs[:, 1],
                          system.controls)


def slc_train_loop(system, samples, field0, psi0, psi_target, step_size=10.0, iterations=200,
                   tolerance=1e-9):
    """Reference SLC training: backtracking halving on the loop oracles, one call per quantity.

    Each iteration takes the gradient of the current pulse with
    :func:`gradient_j_loop`, then halves the step from ``step_size`` until
    :func:`augmented_j_loop` of the candidate is at least the current J.
    """
    field = field0
    j_cur = augmented_j_loop(system, samples, field, psi0, psi_target)
    log = [j_cur]
    for _ in range(iterations):
        grad = gradient_j_loop(system, samples, field, psi0, psi_target)
        step = step_size
        improved = None
        while step > step_size * 2.0**-30:
            cand = replace(field, amplitudes=field.amplitudes + step * grad)
            j_cand = augmented_j_loop(system, samples, cand, psi0, psi_target)
            if j_cand >= j_cur:
                improved = (cand, j_cand)
                break
            step /= 2.0
        if improved is None:
            break
        field, j_new = improved
        log.append(j_new)
        if j_new - j_cur <= tolerance:
            break
        j_cur = j_new
    return field, log
