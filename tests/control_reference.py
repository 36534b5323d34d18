"""Independent references for `qest.control`: per-sample states, fidelities and FD gradients."""

from dataclasses import replace

import numpy as np

from qest.control import evaluate_pulse
from qest.linalg import QubitExpm, herm_expm, pauli_coordinates


def reference_final_state(system, pair, field, psi0) -> np.ndarray:
    """psi(T) for one (omega, theta) sample, one interval and one exponential at a time.

    At d = 2 each interval generator is a vector of Pauli coordinates,
    exponentiated by one :class:`qest.linalg.QubitExpm` of its own, as
    `qest.control` forms them for all intervals at once; at every other d it
    is a matrix, exponentiated by one ``herm_expm``.
    """
    omega, theta = pair
    psi = np.asarray(psi0, complex).ravel()
    qubit = system.dim == 2
    h0, controls = ((pauli_coordinates(system.h0), pauli_coordinates(system.controls)) if qubit
                    else (system.h0, system.controls))
    for k in range(field.intervals):
        h = omega * h0 + theta * sum(
            field.amplitudes[k, m] * controls[m] for m in range(field.channels)
        )
        u = QubitExpm(h, field.dt).unitaries if qubit else herm_expm(h, field.dt)
        psi = u @ psi
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
