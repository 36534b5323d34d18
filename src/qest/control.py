"""Sampling-based learning control for uncertain closed systems.

The controlled Hamiltonian is H(t) = omega*H0 + theta * sum_m u_m(t) H_m with
piecewise-constant fields and multiplicative uncertainties omega, theta drawn
from [1-Omega, 1+Omega] x [1-Theta, 1+Theta].  A single pulse is trained by
gradient ascent on the mean fidelity over an uncertainty sample set, then
evaluated on fresh samples.  A small sliding-mode scenario with periodic
projective measurements is included as a demo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .linalg import herm_expm, is_hermitian
from .states import as_rng


@dataclass(frozen=True, eq=False)
class UncertainSystem:
    """Drift H0, control Hamiltonians, and uncertainty half-widths."""

    h0: np.ndarray
    controls: tuple
    omega_halfwidth: float = 0.0
    theta_halfwidth: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(np.asarray(c, complex) for c in self.controls))
        if not is_hermitian(self.h0, 1e-10):
            raise ContractViolationError("drift Hamiltonian must be Hermitian")
        for c in self.controls:
            if not is_hermitian(c, 1e-10):
                raise ContractViolationError("control Hamiltonians must be Hermitian")
        if not (0 <= self.omega_halfwidth < 1 and 0 <= self.theta_halfwidth < 1):
            raise ValueError("uncertainty half-widths must lie in [0, 1)")

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


@dataclass(frozen=True, eq=False)
class ControlField:
    """Piecewise-constant pulse: amplitudes[k, m] on interval k, channel m."""

    horizon: float
    amplitudes: np.ndarray
    bounds: tuple | None = None

    def __post_init__(self):
        amps = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "amplitudes", amps)
        if self.horizon <= 0 or amps.shape[0] < 1:
            raise ValueError("need a positive horizon and at least one interval")
        if self.bounds is not None and self.bounds[0] >= self.bounds[1]:
            raise ValueError("bounds must satisfy lo < hi")

    @property
    def intervals(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def channels(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.intervals

    def clipped(self, amplitudes: np.ndarray) -> "ControlField":
        if self.bounds is not None:
            amplitudes = np.clip(amplitudes, self.bounds[0], self.bounds[1])
        return replace(self, amplitudes=amplitudes)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sampled (omega, theta) uncertainty pairs."""

    pairs: np.ndarray  # (N, 2)
    scheme: str = "grid"

    def __post_init__(self):
        pairs = np.atleast_2d(np.asarray(self.pairs, dtype=float))
        object.__setattr__(self, "pairs", pairs)
        if pairs.shape[0] < 1 or pairs.shape[1] != 2:
            raise ValueError("need an (N, 2) array of sample pairs")

    @property
    def n(self) -> int:
        return self.pairs.shape[0]


def _axis(halfwidth: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([1.0])
    return np.linspace(1.0 - halfwidth, 1.0 + halfwidth, count)


def grid_samples(omega_halfwidth: float, theta_halfwidth: float,
                 n_omega: int, n_theta: int) -> SampleSet:
    """Uniform grid over the uncertainty rectangle."""
    om = _axis(omega_halfwidth, n_omega)
    th = _axis(theta_halfwidth, n_theta)
    pairs = np.array([(o, t) for o in om for t in th])
    return SampleSet(pairs, "grid")


def random_samples(omega_halfwidth: float, theta_halfwidth: float, n: int, rng) -> SampleSet:
    rng = as_rng(rng)
    om = rng.uniform(1.0 - omega_halfwidth, 1.0 + omega_halfwidth, size=n)
    th = rng.uniform(1.0 - theta_halfwidth, 1.0 + theta_halfwidth, size=n)
    return SampleSet(np.column_stack([om, th]), "random")


def corner_center_samples(omega_halfwidth: float, theta_halfwidth: float) -> SampleSet:
    """Five-point training set: the four rectangle corners plus the center."""
    o, t = omega_halfwidth, theta_halfwidth
    pairs = np.array([
        (1 - o, 1 - t), (1 - o, 1 + t), (1 + o, 1 - t), (1 + o, 1 + t), (1.0, 1.0),
    ])
    return SampleSet(pairs, "grid")


def _interval_props(system, sample, field):
    omega, theta = sample
    dt = field.dt
    props = []
    for k in range(field.intervals):
        h = omega * system.h0 + theta * sum(
            field.amplitudes[k, m] * system.controls[m] for m in range(field.channels)
        )
        props.append(herm_expm(h, dt))
    return props


def propagate(system: UncertainSystem, sample, field: ControlField, psi0: np.ndarray) -> np.ndarray:
    """Final state after the piecewise-constant evolution."""
    psi = np.asarray(psi0, dtype=complex).ravel()
    if psi.size != system.dim:
        raise ValueError("initial state dimension does not match the system")
    for u in _interval_props(system, sample, field):
        psi = u @ psi
    return psi


def fidelity_j(system, sample, field, psi0, psi_target) -> float:
    """|<psi(T)|psi_target>|^2."""
    psi = propagate(system, sample, field, psi0)
    return float(abs(np.vdot(np.asarray(psi_target, complex).ravel(), psi)) ** 2)


def augmented_j(system, samples: SampleSet, field, psi0, psi_target) -> float:
    """Mean fidelity over the uncertainty samples."""
    if samples.n < 1:
        raise ValueError("sample set must be non-empty")
    return float(np.mean([
        fidelity_j(system, pair, field, psi0, psi_target) for pair in samples.pairs
    ]))


def _sample_gradient(system, sample, field, psi0, psi_target):
    # First-order propagator derivative dU_k/du_m ~ -i dt theta H_m U_k,
    # assembled from forward states and backward costates.
    omega, theta = sample
    dt = field.dt
    props = _interval_props(system, sample, field)
    psi_target = np.asarray(psi_target, complex).ravel()
    fwd = [np.asarray(psi0, complex).ravel()]
    for u in props:
        fwd.append(u @ fwd[-1])
    z = np.vdot(psi_target, fwd[-1])
    grad = np.zeros_like(field.amplitudes)
    chi = psi_target
    for k in range(field.intervals, 0, -1):
        for m in range(field.channels):
            dz = np.vdot(chi, (-1j * dt * theta) * (system.controls[m] @ fwd[k]))
            grad[k - 1, m] = 2.0 * (np.conj(z) * dz).real
        chi = props[k - 1].conj().T @ chi
    return grad


def gradient_j(system, samples: SampleSet, field, psi0, psi_target,
               mode: str = "analytic", fd_step: float = 1e-6) -> np.ndarray:
    """Gradient of the mean fidelity with respect to every pulse amplitude.

    ``analytic`` uses the first-order propagator derivative; ``fd`` central
    differences with step ``fd_step``.  The gradient of the mean is the mean
    of the per-sample gradients.
    """
    if mode == "analytic":
        grads = [_sample_gradient(system, pair, field, psi0, psi_target) for pair in samples.pairs]
        return np.mean(grads, axis=0)
    if mode != "fd":
        raise ValueError(f"unknown gradient mode {mode!r}")
    grad = np.zeros_like(field.amplitudes)
    for k in range(field.intervals):
        for m in range(field.channels):
            for sign in (+1.0, -1.0):
                amps = field.amplitudes.copy()
                amps[k, m] += sign * fd_step
                val = augmented_j(system, samples, replace(field, amplitudes=amps), psi0, psi_target)
                grad[k, m] += sign * val
    return grad / (2.0 * fd_step)


def slc_train(system, samples: SampleSet, field0: ControlField, psi0, psi_target,
              step_size: float = 10.0, iterations: int = 200, tolerance: float = 1e-9):
    """Gradient ascent on the augmented fidelity with backtracking halving.

    Returns the trained field and the per-iteration log of J_N values, which
    is monotone non-decreasing by construction.  Non-convergence within the
    iteration cap is an outcome, not an error.
    """
    field = field0
    j_cur = augmented_j(system, samples, field, psi0, psi_target)
    log = [j_cur]
    for _ in range(iterations):
        grad = gradient_j(system, samples, field, psi0, psi_target)
        step = step_size
        improved = None
        while step > step_size * 2.0**-30:
            cand = field.clipped(field.amplitudes + step * grad)
            j_cand = augmented_j(system, samples, cand, psi0, psi_target)
            if j_cand >= j_cur:
                improved = (cand, j_cand)
                break
            step /= 2.0
        if improved is None:
            break
        field, j_new = improved
        log.append(j_new)
        if abs(j_new - j_cur) < tolerance:
            j_cur = j_new
            break
        j_cur = j_new
    return field, log


def slc_test(system, field: ControlField, samples: SampleSet, psi0, psi_target) -> dict:
    """Evaluate a fixed pulse on fresh samples; no adaptation."""
    if samples.n < 1:
        raise ValueError("test sample set must be non-empty")
    fids = np.array([
        fidelity_j(system, pair, field, psi0, psi_target) for pair in samples.pairs
    ])
    return {
        "mean": float(fids.mean()),
        "min": float(fids.min()),
        "fidelities": fids,
        "pairs": samples.pairs,
    }


@dataclass(frozen=True)
class SlidingConfig:
    """Sliding-mode domain parameter p0 and the measurement period."""

    p0: float
    period: float

    def __post_init__(self):
        if not 0 < self.p0 < 1:
            raise ValueError("p0 must lie in (0, 1)")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("measurement period must be positive and finite")


def in_sliding_domain(psi: np.ndarray, config: SlidingConfig) -> bool:
    """|<0|psi>|^2 >= 1 - p0, for two-level states."""
    psi = np.asarray(psi, complex).ravel()
    if psi.size != 2:
        raise ValueError("the sliding-mode domain is defined for two-level systems")
    return float(abs(psi[0]) ** 2) >= 1.0 - config.p0


def periodic_measurement_demo(h_delta: np.ndarray, config: SlidingConfig,
                              periods: int, seed, h0: np.ndarray | None = None) -> dict:
    """Repeated evolve-then-measure cycles of a perturbed two-level system.

    Starting from |0>, the state evolves under h0 + h_delta for one period,
    its survival probability |<0|psi>|^2 is logged, and a projective sigma_z
    measurement collapses it.  A collapse out of the domain is counted and the
    state is reset to |0> (standing in for the corrective control the full
    sliding-mode scheme would apply), so periods are independent trials.
    """
    h_delta = np.asarray(h_delta, dtype=complex)
    if h_delta.shape != (2, 2):
        raise ValueError("the demo is two-level only")
    if not is_hermitian(h_delta, 1e-10):
        raise ContractViolationError("uncertainty Hamiltonian must be Hermitian")
    h = h_delta if h0 is None else np.asarray(h0, complex) + h_delta
    u = herm_expm(h, config.period)
    rng = as_rng(seed)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    rows = []
    out_count = 0
    psi = ket0
    for k in range(periods):
        psi = u @ psi
        prob0 = float(min(max(abs(psi[0]) ** 2, 0.0), 1.0))
        in_dom = prob0 >= 1.0 - config.p0
        outcome = 0 if rng.random() < prob0 else 1
        if outcome == 1:
            out_count += 1
        rows.append({"period": k, "prob0": prob0, "outcome": outcome,
                     "in_domain": in_dom})
        # outcome 0 collapses onto |0>; an escape to |1> is reset to |0>
        psi = ket0
    return {
        "rows": rows,
        "out_of_domain_frequency": out_count / periods,
        "periods": periods,
    }
