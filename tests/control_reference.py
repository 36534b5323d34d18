"""Independent references for `qest.control`: per-sample states, fidelities and FD gradients."""

from dataclasses import replace

import numpy as np

from qest.control import evaluate_pulse
from qest.linalg import herm_expm


def reference_final_state(system, pair, field, psi0) -> np.ndarray:
    """psi(T) for one (omega, theta) sample, one interval and 2-D exponential at a time."""
    omega, theta = pair
    psi = np.asarray(psi0, complex).ravel()
    for k in range(field.intervals):
        h = omega * system.h0 + theta * sum(
            field.amplitudes[k, m] * system.controls[m] for m in range(field.channels)
        )
        psi = herm_expm(h, field.dt) @ psi
    return psi


def reference_fidelities(system, pairs, field, psi0, psi_target) -> np.ndarray:
    """|<psi_target|psi(T)>|^2 per sample, from :func:`reference_final_state`."""
    target = np.asarray(psi_target, complex).ravel()
    return np.array([float(abs(np.vdot(target, reference_final_state(system, pair, field, psi0))) ** 2)
                     for pair in np.atleast_2d(pairs)])


def central_difference_gradient(system, samples, field, psi0, psi_target,
                                step: float = 1e-6) -> np.ndarray:
    """Central differences of the mean fidelity in every pulse amplitude."""
    grad = np.zeros_like(field.amplitudes)
    for k in range(field.intervals):
        for m in range(field.channels):
            for sign in (+1.0, -1.0):
                amps = field.amplitudes.copy()
                amps[k, m] += sign * step
                val = evaluate_pulse(system, samples, replace(field, amplitudes=amps), psi0,
                                     psi_target).j
                grad[k, m] += sign * val
    return grad / (2.0 * step)
