"""Sampling-based learning control for uncertain closed systems.

The controlled Hamiltonian is H(t) = omega*H0 + theta * sum_m u_m(t) H_m with
piecewise-constant fields and multiplicative uncertainties omega, theta drawn
from [1-Omega, 1+Omega] x [1-Theta, 1+Theta].  A single pulse is trained by
gradient ascent on the mean fidelity over an uncertainty sample set, then
evaluated on fresh samples.  A small sliding-mode scenario with periodic
projective measurements is included as a demo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import herm_eigh, herm_expm, is_hermitian, stack_matmul


@dataclass(frozen=True, eq=False)
class UncertainSystem:
    """Drift H0 (d, d) and controls (M, d, d) as read-only Hermitian copies, and half-widths."""

    h0: np.ndarray
    controls: np.ndarray
    omega_halfwidth: float = 0.0
    theta_halfwidth: float = 0.0

    def __post_init__(self):
        controls = tuple(np.asarray(c, complex) for c in self.controls)
        if np.ndim(self.h0) != 2 or not is_hermitian(self.h0, 1e-10):
            raise ContractViolationError("drift Hamiltonian must be a Hermitian matrix")
        for m, c in enumerate(controls):
            if c.shape != np.shape(self.h0):
                raise ValueError(f"control {m} has shape {c.shape}, but H0 has shape "
                                 f"{np.shape(self.h0)}")
            if not is_hermitian(c, 1e-10):
                raise ContractViolationError("control Hamiltonians must be Hermitian")
        if not (0 <= self.omega_halfwidth < 1 and 0 <= self.theta_halfwidth < 1):
            raise ValueError("uncertainty half-widths must lie in [0, 1)")
        object.__setattr__(self, "h0", _hermitian_copy(self.h0))
        object.__setattr__(self, "controls",
                           _hermitian_copy(np.reshape(controls, (-1,) + self.h0.shape)))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def _hermitian_copy(a) -> np.ndarray:
    """Read-only copy of a (..., d, d) stack, exactly Hermitian: it keeps what ``herm_eigh``
    reads, the strict lower triangle and the real diagonal, and mirrors the triangle into the
    upper."""
    h = np.array(a, dtype=complex)
    i, j = np.tril_indices(h.shape[-1], -1)
    h[..., j, i] = h[..., i, j].conj()
    h.imag[..., range(h.shape[-1]), range(h.shape[-1])] = 0.0
    h.setflags(write=False)
    return h


def _require_finite(amplitudes: np.ndarray) -> None:
    if not np.isfinite(amplitudes).all():
        raise ValueError("pulse amplitudes must be finite")


@dataclass(frozen=True, eq=False)
class ControlField:
    """Piecewise-constant pulse: amplitudes[k, m] on interval k, channel m."""

    horizon: float
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "amplitudes", amps)
        if not (np.isfinite(self.horizon) and self.horizon > 0) or amps.shape[0] < 1:
            raise ValueError("need a positive finite horizon and at least one interval")
        _require_finite(amps)

    @property
    def intervals(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def channels(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.intervals


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sampled (omega, theta) uncertainty pairs."""

    pairs: np.ndarray  # (N, 2)

    def __post_init__(self):
        pairs = np.atleast_2d(np.asarray(self.pairs, dtype=float))
        object.__setattr__(self, "pairs", pairs)
        if pairs.shape[0] < 1 or pairs.shape[1] != 2:
            raise ValueError("need an (N, 2) array of sample pairs")
        if not np.isfinite(pairs).all():
            raise ValueError("sample pairs must be finite")


def _axis(halfwidth: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([1.0])
    return np.linspace(1.0 - halfwidth, 1.0 + halfwidth, count)


def grid_samples(omega_halfwidth: float, theta_halfwidth: float,
                 n_omega: int, n_theta: int) -> SampleSet:
    """Uniform grid over the uncertainty rectangle."""
    om = _axis(omega_halfwidth, n_omega)
    th = _axis(theta_halfwidth, n_theta)
    return SampleSet(np.column_stack([np.repeat(om, len(th)), np.tile(th, len(om))]))


def random_samples(omega_halfwidth: float, theta_halfwidth: float, n: int, rng) -> SampleSet:
    rng = np.random.default_rng(rng)
    om = rng.uniform(1.0 - omega_halfwidth, 1.0 + omega_halfwidth, size=n)
    th = rng.uniform(1.0 - theta_halfwidth, 1.0 + theta_halfwidth, size=n)
    return SampleSet(np.column_stack([om, th]))


def corner_center_samples(omega_halfwidth: float, theta_halfwidth: float) -> SampleSet:
    """Five-point training set: the four rectangle corners plus the center."""
    o, t = omega_halfwidth, theta_halfwidth
    return SampleSet(np.array([
        (1 - o, 1 - t), (1 - o, 1 + t), (1 + o, 1 - t), (1 + o, 1 + t), (1.0, 1.0),
    ]))


@dataclass(frozen=True, eq=False)
class PulseEvaluation:
    """One pulse on every sample: eigenpairs, states and costates of every (sample, interval).

    It also keeps what its gradient needs besides those arrays (the step, the
    theta of each sample and the control stack), so the gradient reads no
    input that a caller may have changed since.
    """

    eigvals: np.ndarray  # (N, K, d) and
    eigvecs: np.ndarray  # (N, K, d, d): the eigenpairs of the interval generators
    phases: np.ndarray  # (N, K, d) exp(-i dt eigvals), the spectra of the propagators
    fwd: np.ndarray  # (N, K + 1, d); fwd[:, k] is the state before interval k
    bwd: np.ndarray  # (N, K + 1, d); bwd[:, k] is the target carried back to the same point
    overlap: np.ndarray  # (N,) <psi_target|psi_n(T)>
    fidelities: np.ndarray  # (N,) |<psi_target|psi_n(T)>|^2
    j: float  # the augmented fidelity J_N, the mean of the fidelities
    dt: float
    theta: np.ndarray  # (N, 1, 1) control scale of each sample, read-only
    controls: np.ndarray  # (M, d, d)

    def gradient(self) -> np.ndarray:
        """Exact gradient of J_N with respect to every pulse amplitude, shape (K, M).

        The derivative of U_k = V exp(-i dt Lambda) V^dag in u_km is
        V (Gamma o V^dag theta H_m V) V^dag with the divided differences
        Gamma_ab = (e^{-i dt l_a} - e^{-i dt l_b}) / (l_a - l_b), which tend to
        -i dt e^{-i dt l_a} as l_b -> l_a (de Fouquieres, Schirmer, Glaser and
        Kuprov, JMR 212, 2011).  It is taken between the costates and the states
        of this evaluation's single fused sweep, with the eigenpairs of the
        propagators themselves; no propagation happens here.
        """
        # Gamma_ab = e^{-i dt l_b} (e^{-i x} - 1) / (l_a - l_b), x = dt (l_a - l_b), in sinc form
        dt, w, v = self.dt, self.eigvals, self.eigvecs
        x = dt * (w[..., :, None] - w[..., None, :])
        gamma = (dt * self.phases[..., None, :]
                 * (-np.sin(x / 2) * _sinc(x / (2 * np.pi)) - 1j * _sinc(x / np.pi)))
        vc = v.conj()
        a = (vc.mT @ self.bwd[:, 1:, :, None])[..., 0]
        b = (vc.mT @ self.fwd[:, :-1, :, None])[..., 0]
        # sum_ab conj(a_a) Gamma_ab (V^dag H V)_ab b_b = sum_cd H_cd (conj(V) T V^T)_cd
        t = gamma * a.conj()[..., :, None] * b[..., None, :]
        s = stack_matmul(stack_matmul(vc, t), v.mT)
        dz = self.theta * np.einsum("nkcd,mcd->nkm", s, self.controls)
        grad = 2.0 * (self.overlap.conj()[:, None, None] * dz).real
        return grad.mean(axis=0)


def _sinc(x: np.ndarray) -> np.ndarray:
    """np.sinc(x) by its own steps, without its wrapper; any tiny nonzero y gives 1 at 0."""
    y = np.pi * x
    y = np.where(y, y, 1e-20)
    return np.sin(y) / y


class _Propagation:
    """Everything of one task's propagation but the pulse amplitudes, taken once.

    The task is a system, a sample set, the states and the interval grid of a
    field; ``evaluate`` then propagates any amplitudes of that grid.  Only
    read-only or private copies are kept, so evaluations share no writable
    state with the caller or with each other.
    """

    def __init__(self, system, samples: SampleSet, field, psi0, psi_target):
        psi = np.array(psi0, dtype=complex).ravel()
        target = np.array(psi_target, dtype=complex).ravel()
        if not psi.size == target.size == system.dim or field.channels != len(system.controls):
            raise ValueError("initial or target state or pulse channels do not match the system")
        pairs = samples.pairs
        self.theta = pairs[:, 1, None, None].copy()
        self.theta.setflags(write=False)
        self.theta_col = self.theta[:, None]
        self.omega_h0 = pairs[:, 0, None, None, None] * system.h0
        self.controls = system.controls
        # the zero start keeps one generator per interval for a system without controls
        self.zero_drive = np.zeros((field.intervals, 1, 1))
        self.start = np.repeat(np.stack((psi, target)), len(pairs), axis=0)  # (2N, d)
        self.target = target
        self.intervals, self.dt, self.n = field.intervals, field.dt, len(pairs)

    def evaluate(self, amplitudes: np.ndarray) -> PulseEvaluation:
        """Propagate psi0 under the (K, M) amplitudes for every (omega, theta) sample at once.

        The generators omega*H0 + theta*sum_m u_km H_m of all samples and
        intervals form one (N, K, d, d) stack, exponentiated by one batched
        eigendecomposition, :func:`qest.linalg.herm_eigh` (a closed form at
        d = 2).  One sweep of K steps then carries the states forward and the
        target backward for all samples together: step k applies U_k to the N
        states and U_{K-1-k}^dag to the N costates in one stacked product.
        """
        drive = sum((amplitudes[:, m, None, None] * c for m, c in enumerate(self.controls)),
                    self.zero_drive)
        eigvals, eigvecs = herm_eigh(self.omega_h0 + self.theta_col * drive)
        phases = np.exp(-1j * self.dt * eigvals)
        props = stack_matmul(eigvecs * phases[..., None, :], eigvecs.conj().mT)
        n = self.n
        sweep = np.concatenate((props.swapaxes(0, 1), props[:, ::-1].conj().mT.swapaxes(0, 1)), 1)
        out = np.empty((self.intervals + 1,) + self.start.shape, dtype=complex)
        out[0] = self.start
        for k in range(self.intervals):
            np.matvec(sweep[k], out[k], out=out[k + 1])
        fwd, bwd = out[:, :n].swapaxes(0, 1), out[::-1, n:].swapaxes(0, 1)
        overlap = np.vecdot(self.target, fwd[:, -1])
        # hypot and pow keep the bits of the scalar abs(z) ** 2
        fidelities = np.float_power(np.hypot(overlap.real, overlap.imag), 2)
        return PulseEvaluation(eigvals, eigvecs, phases, fwd, bwd, overlap, fidelities,
                               float(fidelities.mean()), self.dt, self.theta, self.controls)


def evaluate_pulse(system, samples: SampleSet, field, psi0, psi_target) -> PulseEvaluation:
    """Propagate psi0 under the pulse for every (omega, theta) sample at once.

    The result holds J_N and, through its ``gradient()``, the exact gradient;
    see ``_Propagation.evaluate`` for the batched eigendecomposition and the
    fused forward and backward sweep.
    """
    return _Propagation(system, samples, field, psi0, psi_target).evaluate(field.amplitudes)


def slc_train(system, samples: SampleSet, field0: ControlField, psi0, psi_target,
              step_size: float = 10.0, iterations: int = 200, tolerance: float = 1e-9):
    """Gradient ascent on the augmented fidelity with backtracking halving.

    The propagation of the task is prepared once, and each line-search
    candidate is evaluated through it once; the evaluation that accepts a
    candidate gives the next gradient.  Training stops once an accepted step
    raises J_N by at most ``tolerance`` (so a tie stops it even at 0), when
    no step down to ``step_size`` * 2^-30 keeps J_N, or after ``iterations``
    steps.  Returns the trained field and the
    per-iteration log of J_N values, which is monotone non-decreasing by
    construction.  Non-convergence within the iteration cap is an outcome,
    not an error.
    """
    if not (np.isfinite(step_size) and step_size > 0 and iterations >= 0 and tolerance >= 0):
        raise ValueError("need a positive finite step, iterations >= 0 and tolerance >= 0")
    propagation = _Propagation(system, samples, field0, psi0, psi_target)
    amps = field0.amplitudes.copy()
    ev = propagation.evaluate(amps)
    log = [ev.j]
    floor = step_size * 2.0**-30
    for _ in range(iterations):
        grad = ev.gradient()
        step = step_size
        while step > floor:
            cand = amps + step * grad
            _require_finite(cand)
            cand_ev = propagation.evaluate(cand)
            if cand_ev.j >= ev.j:
                break
            step /= 2.0
        else:  # no step down to the floor kept J_N
            break
        j_prev = ev.j
        amps, ev = cand, cand_ev
        log.append(ev.j)
        if ev.j - j_prev <= tolerance:  # an accepted step never lowers J_N; a tie stops
            break
    return ControlField(field0.horizon, amps), log


def periodic_measurement_demo(h_delta: np.ndarray, p0: float, period: float, periods: int,
                              seed) -> dict:
    """Repeated evolve-then-measure cycles of a perturbed two-level system.

    Starting from |0>, the state evolves under h_delta for one period,
    its survival probability |<0|psi>|^2 is logged, and a projective sigma_z
    measurement collapses it.  A collapse out of the domain is counted and the
    state is reset to |0> (standing in for the corrective control the full
    sliding-mode scheme would apply), so periods are independent trials: the
    evolved state is the same in every period, and one draw per period
    decides its outcome.

    The sliding domain of p0 in (0, 1) is |<0|psi>|^2 >= 1 - p0.  Returns the
    evolved state's ``prob0`` (clamped to [0, 1]), whether it lies in the
    domain (``in_domain``, from the unclamped |<0|psi>|^2), the per-period
    ``outcomes`` (0 below prob0, else 1) and their ``out_of_domain_frequency``.
    """
    if not 0 < p0 < 1:
        raise ValueError("p0 must lie in (0, 1)")
    if not (np.isfinite(period) and period > 0):
        raise ValueError("measurement period must be positive and finite")
    if periods < 1:
        raise ValueError("periods must be at least 1")
    h_delta = np.asarray(h_delta, dtype=complex)
    if h_delta.shape != (2, 2):
        raise ValueError("the demo is two-level only")
    if not is_hermitian(h_delta, 1e-10):
        raise ContractViolationError("uncertainty Hamiltonian must be Hermitian")
    psi = herm_expm(h_delta, period) @ np.array([1.0, 0.0], dtype=complex)
    survival = float(abs(psi[0]) ** 2)
    prob0 = min(max(survival, 0.0), 1.0)
    outcomes = np.where(np.random.default_rng(seed).random(periods) < prob0, 0, 1)
    return {"prob0": prob0, "in_domain": survival >= 1.0 - p0, "outcomes": outcomes,
            "out_of_domain_frequency": int(outcomes.sum()) / periods}
