import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import qest.control
import tests.oracles
from qest.control import (
    ControlField,
    SampleSet,
    UncertainSystem,
    corner_center_samples,
    evaluate_pulse,
    grid_samples,
    periodic_measurement_demo,
    random_samples,
    slc_train,
)
from qest.errors import ContractViolationError
from qest.linalg import herm_expm
from qest.states import PAULI_X, PAULI_Y, PAULI_Z
from tests.control_reference import (
    central_difference_gradient,
    reference_fidelities,
    reference_final_state,
)
from tests.oracles import gradient_j_eigen, gradient_j_loop, slc_evaluate_loop, slc_train_loop

# keep Hypothesis' on-disk cache in the system temp directory, not in the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qest-hypothesis")

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
ZERO2 = np.zeros((2, 2), dtype=complex)
NOMINAL = SampleSet(np.array([[1.0, 1.0]]))


def transfer_task(omega_hw=0.0, theta_hw=0.0):
    system = UncertainSystem(PAULI_Z, (PAULI_X,), omega_hw, theta_hw)
    return system, KET0, KET1


def random_hermitian(d, rng, norm=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    return h * (norm / np.linalg.norm(h, 2))


class TestTypes:
    def test_system_validation(self):
        with pytest.raises(ContractViolationError):
            UncertainSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), ())
        with pytest.raises(ContractViolationError, match="Hermitian matrix"):
            UncertainSystem(np.stack([PAULI_Z, PAULI_X, PAULI_Z]), ())
        with pytest.raises(ValueError):
            UncertainSystem(PAULI_Z, (PAULI_X,), omega_halfwidth=1.0)
        for control in (np.eye(1), np.eye(3)):
            message = f"control 1 has shape {control.shape}, but H0 has shape (2, 2)"
            with pytest.raises(ValueError, match=re.escape(message)):
                UncertainSystem(PAULI_Z, (PAULI_X, control))

    def test_system_keeps_read_only_exactly_hermitian_copies(self):
        # Hermitian within the 1e-10 check but not exactly: an imaginary diagonal of 3e-11
        # and an upper triangle off by 6e-11; the last control is a real array
        h0 = PAULI_Z + 3e-11j * np.diag([1.0, -1.0])
        sx = PAULI_X.copy()
        sx[0, 1] += 6e-11
        inputs = (h0, sx, PAULI_Y, PAULI_Z.real)
        system = UncertainSystem(h0, inputs[1:])
        assert system.h0.shape == (2, 2) and system.controls.shape == (3, 2, 2)
        for a in (system.h0, system.controls):
            assert a.dtype == complex and not a.flags.writeable
            assert np.array_equal(a, a.conj().mT)
            assert not any(np.shares_memory(a, b) for b in inputs)
        # the copies keep what eigh reads: the strict lower triangle and the real diagonal
        assert np.array_equal(system.h0, PAULI_Z)
        assert np.array_equal(system.controls, np.stack([PAULI_X, PAULI_Y, PAULI_Z]))

    def test_system_of_exactly_hermitian_inputs_keeps_their_values(self):
        rng = np.random.default_rng(7)
        h0, *controls = (random_hermitian(3, rng) for _ in range(3))
        system = UncertainSystem(h0, controls)
        assert system.h0.tobytes() == h0.tobytes()
        assert system.controls.tobytes() == np.stack(controls).tobytes()
        assert UncertainSystem(PAULI_Z, ()).controls.shape == (0, 2, 2)

    def test_field_validation(self):
        for horizon in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ControlField(horizon, np.ones((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        amplitudes = np.full((4, 2), 0.1)
        amplitudes[2, 1] = bad
        with pytest.raises(ValueError, match="pulse amplitudes must be finite"):
            ControlField(2.0, amplitudes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_sample_pairs_rejected(self, bad, column):
        pairs = np.ones((3, 2))
        pairs[1, column] = bad
        with pytest.raises(ValueError, match="sample pairs must be finite"):
            SampleSet(pairs)

    def test_sample_grid(self):
        samples = grid_samples(0.2, 0.2, 3, 2)
        assert len(samples.pairs) == 6
        # omega-major, as the nested loop over both axes
        assert samples.pairs.tolist() == [[o, t] for o in np.linspace(0.8, 1.2, 3)
                                          for t in np.linspace(0.8, 1.2, 2)]
        assert samples.pairs[:, 0].min() == pytest.approx(0.8)
        degenerate = grid_samples(0.0, 0.0, 1, 1)
        assert np.allclose(degenerate.pairs, [[1.0, 1.0]])

    def test_random_samples_inside_rectangle(self):
        samples = random_samples(0.3, 0.1, 100, np.random.default_rng(0))
        assert samples.pairs[:, 0].min() >= 0.7 and samples.pairs[:, 0].max() <= 1.3
        assert samples.pairs[:, 1].min() >= 0.9 and samples.pairs[:, 1].max() <= 1.1

    def test_corner_center(self):
        samples = corner_center_samples(0.2, 0.2)
        assert len(samples.pairs) == 5
        assert (samples.pairs == [1.0, 1.0]).all(axis=1).any()


class TestPropagate:
    def test_stationary_eigenstate(self):
        system, psi0, _ = transfer_task()
        field = ControlField(3.0, np.zeros((10, 1)))
        assert abs(evaluate_pulse(system, NOMINAL, field, psi0, psi0).j - 1.0) <= 1e-12

    def test_resonance_free_pi_pulse(self):
        # closed-form Rabi rotation with no drift: u*T = pi/2 flips the qubit
        system = UncertainSystem(ZERO2, (PAULI_X,))
        field = ControlField(2.0, np.full((20, 1), np.pi / 4))  # u*T = pi/2
        assert abs(evaluate_pulse(system, NOMINAL, field, KET0, KET1).j - 1.0) <= 1e-9

    def test_norm_preserved_for_random_fields(self):
        # the fidelities against an orthonormal basis of targets sum to ||psi(T)||^2
        rng = np.random.default_rng(1)
        system = UncertainSystem(random_hermitian(3, rng), (random_hermitian(3, rng),))
        for _ in range(10):
            field = ControlField(1.5, rng.uniform(-2, 2, size=(30, 1)))
            psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi0 /= np.linalg.norm(psi0)
            sample = SampleSet(rng.uniform(0.8, 1.2, size=(1, 2)))
            norm2 = sum(evaluate_pulse(system, sample, field, psi0, e).j for e in np.eye(3))
            assert abs(norm2 - 1.0) <= 1e-9


class TestFidelity:
    def test_self_fidelity_is_one(self):
        system, psi0, _ = transfer_task()
        field = ControlField(1.0, np.full((5, 1), 0.3))
        target = reference_final_state(system, (1.0, 1.0), field, psi0)
        assert evaluate_pulse(system, NOMINAL, field, psi0, target).j == pytest.approx(1.0)

    def test_orthogonal_target_is_zero(self):
        system, psi0, _ = transfer_task()
        field = ControlField(1.0, np.full((5, 1), 0.3))
        out = reference_final_state(system, (1.0, 1.0), field, psi0)
        orth = np.array([-out[1].conjugate(), out[0].conjugate()])
        assert evaluate_pulse(system, NOMINAL, field, psi0, orth).j <= 1e-12

    def test_global_phase_invariance(self):
        system, psi0, target = transfer_task()
        field = ControlField(1.0, np.full((5, 1), 0.7))
        a = evaluate_pulse(system, NOMINAL, field, psi0, target).j
        b = evaluate_pulse(system, NOMINAL, field, psi0, np.exp(0.9j) * target).j
        assert a == pytest.approx(b, abs=1e-14)


class TestAugmented:
    def test_single_sample_equals_fidelity(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        field = ControlField(1.0, np.full((5, 1), 0.4))
        samples = SampleSet(np.array([[1.1, 0.9]]))
        assert evaluate_pulse(system, samples, field, psi0, target).j == pytest.approx(
            reference_fidelities(system, samples.pairs, field, psi0, target)[0]
        )

    def test_duplicate_invariance(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        field = ControlField(1.0, np.full((5, 1), 0.4))
        base = SampleSet(np.array([[1.1, 0.9], [0.9, 1.1]]))
        doubled = SampleSet(np.vstack([base.pairs, base.pairs]))
        assert evaluate_pulse(system, base, field, psi0, target).j == pytest.approx(
            evaluate_pulse(system, doubled, field, psi0, target).j, abs=1e-14
        )

    def test_degenerate_uncertainty_equals_nominal(self):
        system, psi0, target = transfer_task()
        field = ControlField(1.0, np.full((5, 1), 0.4))
        samples = grid_samples(0.0, 0.0, 2, 2)
        assert evaluate_pulse(system, samples, field, psi0, target).j == pytest.approx(
            evaluate_pulse(system, NOMINAL, field, psi0, target).j, abs=1e-14
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_fidelities_equal_per_sample_reference(self, d):
        # the batched evaluation keeps the bits of one 2-D exponential per (sample, interval)
        rng = np.random.default_rng(d)
        system = UncertainSystem(random_hermitian(d, rng), (random_hermitian(d, rng),
                                                            random_hermitian(d, rng)), 0.2, 0.2)
        field = ControlField(2.0, rng.uniform(-1, 1, size=(20, 2)))
        samples = random_samples(0.2, 0.2, 7, rng)
        psi0, target = np.eye(d, dtype=complex)[0], np.eye(d, dtype=complex)[d - 1]
        expected = reference_fidelities(system, samples.pairs, field, psi0, target)
        ev = evaluate_pulse(system, samples, field, psi0, target)
        assert ev.fidelities.tobytes() == expected.tobytes()
        assert ev.j == float(np.mean(expected))

    @pytest.mark.parametrize("task", ["random", "transfer"])
    def test_qubit_fidelities_match_scipy_expm(self, task):
        # an exponential independent of the closed-form eigenpairs: scipy's Pade expm of each
        # full interval Hamiltonian; the random generators' diagonals come in both orders, and
        # the transfer pulse has zero intervals, where H = omega sigma_z is diagonal
        rng = np.random.default_rng(12)
        if task == "random":
            system = UncertainSystem(random_hermitian(2, rng), (random_hermitian(2, rng),
                                                                random_hermitian(2, rng)), 0.2, 0.2)
            amplitudes = rng.uniform(-1, 1, size=(20, 2))
        else:
            system = transfer_task(0.2, 0.2)[0]
            amplitudes = rng.uniform(-1, 1, size=(20, 1)) * (np.arange(20) % 3 > 0)[:, None]
        field = ControlField(2.0, amplitudes)
        samples = random_samples(0.2, 0.2, 12, rng)
        expected = []
        for omega, theta in samples.pairs:
            psi = KET0
            for u in field.amplitudes:
                h = omega * system.h0 + theta * np.tensordot(u, system.controls, 1)
                psi = scipy.linalg.expm(-1j * field.dt * h) @ psi
            expected.append(abs(np.vdot(KET1, psi)) ** 2)
        ev = evaluate_pulse(system, samples, field, KET0, KET1)
        assert np.abs(ev.fidelities - expected).max() <= 1e-13


class TestGradient:
    @pytest.mark.parametrize("d", [2, 3])
    def test_analytic_matches_central_differences(self, d):
        rng = np.random.default_rng(d + 5)
        h0 = random_hermitian(d, rng)
        controls = (random_hermitian(d, rng), random_hermitian(d, rng))
        system = UncertainSystem(h0, controls, 0.2, 0.2)
        samples = SampleSet(np.array([[1.0, 1.0], [0.85, 1.1]]))
        intervals = 40
        field = ControlField(0.3, rng.uniform(-1, 1, size=(intervals, 2)))
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        target = rng.normal(size=d) + 1j * rng.normal(size=d)
        target /= np.linalg.norm(target)
        g_an = evaluate_pulse(system, samples, field, psi0, target).gradient()
        g_fd = central_difference_gradient(system, samples, field, psi0, target, step=1e-6)
        assert np.abs(g_an - g_fd).max() <= 1e-4

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_at_the_default_step(self, d):
        # T = 2, L = 20 (dt = 0.1); a first-order derivative is 10% off here
        rng = np.random.default_rng(d)
        system = UncertainSystem(random_hermitian(d, rng), (random_hermitian(d, rng),), 0.2, 0.2)
        field = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        samples = corner_center_samples(0.2, 0.2)
        psi0, target = np.eye(d, dtype=complex)[0], np.eye(d, dtype=complex)[d - 1]
        g_an = evaluate_pulse(system, samples, field, psi0, target).gradient()
        g_fd = central_difference_gradient(system, samples, field, psi0, target, step=1e-6)
        assert np.abs(g_an - g_fd).max() <= 1e-6 * np.abs(g_fd).max()

    def test_drift_only_system(self):
        # no control channel, and a drift whose identity part only turns the phase
        system = UncertainSystem(PAULI_Z + 0.5 * np.eye(2), ())
        field = ControlField(1.0, np.zeros((5, 0)))
        samples = grid_samples(0.0, 0.0, 1, 1)
        ev = evaluate_pulse(system, samples, field, KET0, KET0)
        assert ev.j == pytest.approx(1.0, abs=1e-14)
        assert ev.gradient().shape == (5, 0)

    def test_gradient_vanishes_at_exact_optimum(self):
        system = UncertainSystem(ZERO2, (PAULI_X,))
        field = ControlField(2.0, np.full((20, 1), np.pi / 4))
        target = reference_final_state(system, (1.0, 1.0), field, KET0)
        grad = evaluate_pulse(system, NOMINAL, field, KET0, target).gradient()
        assert np.linalg.norm(grad) <= 1e-4

    def test_linearity_over_samples(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        field = ControlField(1.0, np.full((8, 1), 0.5))
        samples = SampleSet(np.array([[0.9, 1.1], [1.1, 0.9], [1.0, 1.0]]))
        total = evaluate_pulse(system, samples, field, psi0, target).gradient()
        parts = [
            evaluate_pulse(system, SampleSet(p[None, :]), field, psi0, target).gradient()
            for p in samples.pairs
        ]
        assert np.abs(total - np.mean(parts, axis=0)).max() <= 1e-12


def qubit_edge_task(case):
    """A two-level task at an edge of the closed-form propagators: (system, field)."""
    rng = np.random.default_rng(17)
    amplitudes = rng.uniform(-1, 1, size=(20, 2))
    if case == "zero generators":  # r = 0 exactly: zero drift and zero pulse
        return UncertainSystem(ZERO2, (PAULI_X, PAULI_Y), 0.2, 0.2), ControlField(2.0, 0 * amplitudes)
    if case == "phase 1e-12":  # dt |h| of about 1e-12 on every interval
        return (UncertainSystem(1e-11 * PAULI_Z, (PAULI_X, PAULI_Y), 0.2, 0.2),
                ControlField(2.0, 1e-11 * amplitudes))
    if case == "identity parts":
        return (UncertainSystem(PAULI_Z + 0.7 * np.eye(2), (PAULI_X + 0.3 * np.eye(2),
                                                           PAULI_Y - 0.2 * np.eye(2)), 0.2, 0.2),
                ControlField(2.0, amplitudes))
    # generators at 1e150, with dt = 1e-148 keeping dt |h| below 1e3
    h0, c1, c2 = (1e150 * random_hermitian(2, rng) for _ in range(3))
    return UncertainSystem(h0, (c1, c2), 0.2, 0.2), ControlField(2e-147, amplitudes)


class TestQubitGradient:
    """The closed-form qubit gradient against the eigen path and against central differences."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_eigen_path_on_random_systems(self, seed):
        # two channels, every generator with a trace part; the eigen path takes eigenpairs and
        # divided differences of the full matrices, as the library did at every d
        system, samples, field, psi0, target = random_task(2, 2, 20, 5, seed)
        grad = evaluate_pulse(system, samples, field, psi0, target).gradient()
        expected = gradient_j_eigen(system, samples, field, psi0, target)
        assert np.abs(grad - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("case", ["zero generators", "phase 1e-12", "identity parts",
                                      "scale 1e150"])
    def test_edge_cases_equal_the_eigen_path_and_central_differences(self, case):
        system, field = qubit_edge_task(case)
        samples = corner_center_samples(0.2, 0.2)
        psi0 = np.array([0.6, 0.8j])
        target = np.array([1.0, 1.0 - 1.0j]) / np.sqrt(3.0)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            ev = evaluate_pulse(system, samples, field, psi0, target)
            grad = ev.gradient()
        assert np.isfinite(ev.fwd).all() and np.isfinite(grad).all()
        expected = gradient_j_eigen(system, samples, field, psi0, target)
        # 1e150 generators at phases up to 1e3 carry their phase's rounding, 1e3 eps
        tol = 1e-12 if case == "scale 1e150" else 1e-13
        assert np.abs(grad - expected).max() <= tol * np.abs(expected).max()
        g_fd = central_difference_gradient(system, samples, field, psi0, target, step=1e-6)
        assert np.abs(grad - g_fd).max() <= 1e-6 * np.abs(g_fd).max()


def random_task(d, channels, intervals, n, seed):
    """A random d-level system, pulse, sample set and unit initial and target states."""
    rng = np.random.default_rng(seed)
    system = UncertainSystem(random_hermitian(d, rng),
                             tuple(random_hermitian(d, rng) for _ in range(channels)), 0.2, 0.2)
    field = ControlField(1.5, rng.uniform(-1, 1, size=(intervals, channels)))
    samples = random_samples(0.2, 0.2, n, rng)
    psi0, target = (v / np.linalg.norm(v) for v in
                    rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d)))
    return system, samples, field, psi0, target


class TestFusedSweep:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(d=st.integers(2, 3), channels=st.integers(0, 2), intervals=st.integers(1, 6),
           n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_interval_loops_bit_for_bit(self, d, channels, intervals, n, seed):
        system, samples, field, psi0, target = random_task(d, channels, intervals, n, seed)
        ev = evaluate_pulse(system, samples, field, psi0, target)
        _, _, fwd, bwd, overlap = slc_evaluate_loop(system, samples.pairs, field,
                                                       psi0, target)
        assert ev.fwd.shape == ev.bwd.shape == fwd.shape
        assert ev.fwd.tobytes() == fwd.tobytes()
        assert ev.bwd.tobytes() == bwd.tobytes()
        assert ev.overlap.tobytes() == overlap.tobytes()
        grad = evaluate_pulse(system, samples, field, psi0, target).gradient()
        assert grad.tobytes() == gradient_j_loop(system, samples, field, psi0, target).tobytes()

    @pytest.mark.parametrize("d", [4, 8])
    def test_costates_agree_with_the_loops_to_rounding_from_d4(self, d):
        # the loops' adjoint product reads a transposed view, the sweep a contiguous copy; from
        # d = 4 the BLAS sums those in different orders, so only the states keep every bit
        system, samples, field, psi0, target = random_task(d, 2, 6, 5, d)
        ev = evaluate_pulse(system, samples, field, psi0, target)
        _, _, fwd, bwd, overlap = slc_evaluate_loop(system, samples.pairs, field, psi0, target)
        assert ev.fwd.tobytes() == fwd.tobytes()
        assert ev.overlap.tobytes() == overlap.tobytes()
        tol = 64 * np.finfo(float).eps
        assert np.abs(ev.bwd - bwd).max() <= tol
        expected = gradient_j_loop(system, samples, field, psi0, target)
        grad = evaluate_pulse(system, samples, field, psi0, target).gradient()
        assert np.abs(grad - expected).max() <= tol * np.abs(expected).max()

    @pytest.mark.parametrize("iterations, tolerance, entries", [
        (30, 1e-9, 31),  # stops at the iteration cap
        (200, 1e-4, 58),  # stops on the tolerance
    ])
    def test_training_equals_the_loop_driven_training_bit_for_bit(self, iterations, tolerance,
                                                                  entries):
        # the README transfer task: sigma_z drift, sigma_x control, T = 2, L = 20, 2 x 2 grid
        system, psi0, target = transfer_task(0.2, 0.2)
        field0 = ControlField(2.0, np.random.default_rng(11).uniform(-0.5, 0.5, size=(20, 1)))
        samples = grid_samples(0.2, 0.2, 2, 2)
        field, log = slc_train(system, samples, field0, psi0, target, iterations=iterations,
                               tolerance=tolerance)
        oracle_field, oracle_log = slc_train_loop(system, samples, field0, psi0, target,
                                                  iterations=iterations, tolerance=tolerance)
        assert len(log) == len(oracle_log) == entries
        assert np.array(log).tobytes() == np.array(oracle_log).tobytes()
        assert field.amplitudes.tobytes() == oracle_field.amplitudes.tobytes()


class TestTraining:
    def test_nominal_transfer_baseline(self):
        system, psi0, target = transfer_task()
        rng = np.random.default_rng(3)
        field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        samples = grid_samples(0.0, 0.0, 1, 1)
        _, log = slc_train(system, samples, field0, psi0, target,
                           step_size=10.0, iterations=500, tolerance=1e-12)
        assert log[-1] >= 0.999
        assert len(log) - 1 <= 500

    def test_log_monotone_non_decreasing(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        rng = np.random.default_rng(4)
        field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        samples = corner_center_samples(0.2, 0.2)
        _, log = slc_train(system, samples, field0, psi0, target, iterations=60)
        assert all(b >= a for a, b in zip(log, log[1:]))
        assert all(0.0 <= j <= 1.0 + 1e-9 for j in log)

    @pytest.mark.parametrize("option", [
        {"step_size": 0.0}, {"step_size": -1.0}, {"step_size": float("nan")},
        {"step_size": float("inf")}, {"iterations": -5}, {"tolerance": float("nan")},
        {"tolerance": -1.0},
    ])
    def test_bad_options_rejected(self, option):
        system, psi0, target = transfer_task()
        field0 = ControlField(2.0, np.full((4, 1), 0.1))
        with pytest.raises(ValueError):
            slc_train(system, grid_samples(0.0, 0.0, 1, 1), field0, psi0, target, **option)

    def test_training_improves_on_initial_field(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        rng = np.random.default_rng(5)
        field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
        samples = corner_center_samples(0.2, 0.2)
        trained, _ = slc_train(system, samples, field0, psi0, target, iterations=80)
        assert (evaluate_pulse(system, samples, trained, psi0, target).j
                >= evaluate_pulse(system, samples, field0, psi0, target).j)

    @pytest.mark.parametrize("d, kernel", [(2, "QubitExpm"), (3, "EigenExpm")])
    def test_training_decomposes_each_candidate_once(self, monkeypatch, d, kernel):
        # 1 initial evaluation plus one per line-search candidate, one exponential kernel
        # (QubitExpm at d = 2, EigenExpm at d = 3) each; the gradient of an accepted candidate
        # comes from the evaluation that accepted it.  The loop oracle's J calls count the
        # initial J and the candidates independently.
        counts = {kernel: 0, "oracle_j": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        if d == 2:
            system, psi0, target = transfer_task(0.2, 0.2)
            rng = np.random.default_rng(4)
            field0 = ControlField(2.0, rng.uniform(-0.5, 0.5, size=(20, 1)))
            samples = grid_samples(0.2, 0.2, 2, 2)
        else:
            system, samples, field0, psi0, target = random_task(3, 2, 20, 4, 4)
        monkeypatch.setattr(tests.oracles, "augmented_j_loop",
                            counted("oracle_j", tests.oracles.augmented_j_loop))
        slc_train_loop(system, samples, field0, psi0, target, iterations=30)
        monkeypatch.setattr(qest.control, kernel, counted(kernel, getattr(qest.control, kernel)))
        _, log = slc_train(system, samples, field0, psi0, target, iterations=30)
        assert len(log) - 1 == 30 and counts["oracle_j"] - 1 >= 30
        assert counts[kernel] == counts["oracle_j"]

    @pytest.mark.parametrize("seed, accepted", [(3, 78), (43, 414)])
    def test_stops_on_the_step_floor_as_the_loop_driven_training(self, seed, accepted):
        # the nominal transfer task from a short random pulse: with no tolerance stop, the
        # line search ends the training once no step down to 2^-30 of the first keeps J_N;
        # the last accepted step still rose, so no tie ended it.  The seeds are the first two,
        # counting up from 0, whose training ends this way
        system, psi0, target = transfer_task()
        field0 = ControlField(2.0, np.random.default_rng(seed).uniform(-0.5, 0.5, (6, 1)))
        samples = grid_samples(0.0, 0.0, 1, 1)
        field, log = slc_train(system, samples, field0, psi0, target, iterations=3000,
                               tolerance=0.0)
        oracle_field, oracle_log = slc_train_loop(system, samples, field0, psi0, target,
                                                  iterations=3000, tolerance=0.0)
        assert len(log) - 1 == len(oracle_log) - 1 == accepted
        assert log[-2] < log[-1]
        assert np.array(log).tobytes() == np.array(oracle_log).tobytes()
        assert field.amplitudes.tobytes() == oracle_field.amplitudes.tobytes()

    @pytest.mark.parametrize("seed, accepted", [(0, 45), (1, 29), (2, 64)])
    def test_stops_on_the_first_tie_as_the_loop_driven_training(self, seed, accepted):
        # the same task: once J_N reaches its rounding plateau some step keeps it exactly,
        # and an accepted step that raises J_N by no more than the tolerance 0 stops the
        # training there, well before the cap.  The seeds are the first three, counting up
        # from 0, whose training ends this way
        system, psi0, target = transfer_task()
        field0 = ControlField(2.0, np.random.default_rng(seed).uniform(-0.5, 0.5, (6, 1)))
        samples = grid_samples(0.0, 0.0, 1, 1)
        field, log = slc_train(system, samples, field0, psi0, target, iterations=100,
                               tolerance=0.0)
        oracle_field, oracle_log = slc_train_loop(system, samples, field0, psi0, target,
                                                  iterations=100, tolerance=0.0)
        assert len(log) - 1 == len(oracle_log) - 1 == accepted
        assert log[-3] < log[-2] == log[-1]
        assert np.array(log).tobytes() == np.array(oracle_log).tobytes()
        assert field.amplitudes.tobytes() == oracle_field.amplitudes.tobytes()

    def test_zero_iterations_keep_the_initial_pulse(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        field0 = ControlField(2.0, np.random.default_rng(11).uniform(-0.5, 0.5, size=(20, 1)))
        samples = grid_samples(0.2, 0.2, 2, 2)
        field, log = slc_train(system, samples, field0, psi0, target, iterations=0)
        oracle_field, oracle_log = slc_train_loop(system, samples, field0, psi0, target,
                                                  iterations=0)
        assert len(log) == len(oracle_log) == 1
        assert np.array(log).tobytes() == np.array(oracle_log).tobytes()
        assert field.amplitudes.tobytes() == field0.amplitudes.tobytes()
        assert (field.horizon, field.dt) == (field0.horizon, field0.dt)

    @pytest.mark.parametrize("iterations", [0, 30])
    def test_trainings_share_no_state(self, iterations):
        system, psi0, target = transfer_task(0.2, 0.2)
        field0 = ControlField(2.0, np.random.default_rng(11).uniform(-0.5, 0.5, size=(20, 1)))
        initial = field0.amplitudes.tobytes()
        samples = grid_samples(0.2, 0.2, 2, 2)
        held = evaluate_pulse(system, samples, field0, psi0, target)
        held_bytes = (held.fwd.tobytes(), held.bwd.tobytes(), held.gradient().tobytes())
        first, first_log = slc_train(system, samples, field0, psi0, target,
                                     iterations=iterations)
        second, second_log = slc_train(system, samples, field0, psi0, target,
                                       iterations=iterations)
        assert field0.amplitudes.tobytes() == initial
        assert not np.shares_memory(first.amplitudes, field0.amplitudes)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)
        assert first.amplitudes.tobytes() == second.amplitudes.tobytes()
        assert np.array(first_log).tobytes() == np.array(second_log).tobytes()
        assert (held.fwd.tobytes(), held.bwd.tobytes(), held.gradient().tobytes()) == held_bytes


def stateless_task():
    """Fresh inputs of a two-sample, two-channel qubit task, writeable but for the system."""
    system = UncertainSystem(PAULI_Z, (PAULI_X, PAULI_Y), 0.2, 0.2)
    field = ControlField(2.0, np.linspace(-0.5, 0.5, 16).reshape(8, 2))
    return system, SampleSet(np.array([[0.9, 1.1], [1.1, 0.9]])), field, KET0.copy(), KET1


def mutate_amplitudes(system, samples, field, psi0):
    field.amplitudes[3, 1] += 0.25


def mutate_drift(system, samples, field, psi0):
    system.h0[:] *= 1.5


def mutate_pairs(system, samples, field, psi0):
    samples.pairs[1, :] = [0.95, 1.05]


def mutate_psi0(system, samples, field, psi0):
    psi0[:] = [0.6, 0.8]


class TestStatelessEvaluation:
    @pytest.mark.parametrize("mutate", [mutate_amplitudes, mutate_pairs, mutate_psi0])
    def test_in_place_mutation_reaches_later_evaluations_only(self, mutate):
        fresh = stateless_task()  # changed before its first evaluation
        mutate(*fresh[:4])
        expected = evaluate_pulse(*fresh)
        task = stateless_task()
        before = evaluate_pulse(*task)
        j_before, grad_before = before.j, before.gradient().tobytes()
        mutate(*task[:4])
        after = evaluate_pulse(*task)
        assert after.j == expected.j
        assert after.gradient().tobytes() == expected.gradient().tobytes()
        # the evaluation taken before the change keeps what its gradient reads
        assert (before.j, before.gradient().tobytes()) == (j_before, grad_before)
        assert grad_before != expected.gradient().tobytes()

    def test_drift_cannot_be_changed_in_place(self):
        task = stateless_task()
        before = evaluate_pulse(*task)
        with pytest.raises(ValueError):
            mutate_drift(*task[:4])
        assert evaluate_pulse(*task).j == before.j

    def test_gradient_does_not_depend_on_the_previous_evaluation(self):
        system, samples, field, psi0, target = stateless_task()
        other = replace(field, amplitudes=field.amplitudes + 0.1)
        ev = evaluate_pulse(system, samples, field, psi0, target)
        after_same = ev.gradient()
        evaluate_pulse(system, samples, other, psi0, target).gradient()
        after_other = evaluate_pulse(system, samples, field, psi0, target).gradient()
        assert after_same.tobytes() == after_other.tobytes() == ev.gradient().tobytes()

    def test_concurrent_callers_get_their_own_evaluation(self):
        system, samples, field, psi0, target = stateless_task()
        fields = [replace(field, amplitudes=field.amplitudes + 0.05 * i) for i in range(4)]

        def evaluate(f):
            ev = evaluate_pulse(system, samples, f, psi0, target)
            return ev.j, ev.gradient().tobytes()

        expected = [evaluate(f) for f in fields]
        wrong = []

        def work(start):
            for i in range(start, start + 200):
                if evaluate(fields[i % 4]) != expected[i % 4]:
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


class TestFreshSampleEvaluation:
    """The test statistics of a trained pulse: the mean and worst of its fidelities."""

    def test_on_training_set_equals_jn(self):
        system, psi0, target = transfer_task(0.2, 0.2)
        field = ControlField(2.0, np.full((20, 1), 0.6))
        ev = evaluate_pulse(system, corner_center_samples(0.2, 0.2), field, psi0, target)
        assert float(ev.fidelities.mean()) == ev.j
        assert ev.fidelities.min() <= ev.j

    def test_empty_set_rejected(self):
        system, psi0, target = transfer_task()
        field = ControlField(2.0, np.full((20, 1), 0.6))
        with pytest.raises(ValueError):
            evaluate_pulse(system, SampleSet(np.empty((0, 2))), field, psi0, target)


class TestSlidingDomain:
    """The domain |<0|psi>|^2 >= 1 - p0 of the state evolved from |0> for one period."""

    def test_examples(self):
        # |0> stays put, pi/2 of sigma_x carries it to |1>, and a small rotation keeps 0.95
        assert periodic_measurement_demo(ZERO2, 0.1, 1.0, 1, 0)["in_domain"] is True
        assert periodic_measurement_demo(np.pi / 2 * PAULI_X, 0.1, 1.0, 1, 0)["in_domain"] is False
        angle = np.arccos(np.sqrt(0.95))
        result = periodic_measurement_demo(angle * PAULI_X, 0.1, 1.0, 1, 0)
        assert result["prob0"] == pytest.approx(0.95, abs=1e-12)
        assert result["in_domain"] is True

    def test_non_qubit_rejected(self):
        with pytest.raises(ValueError, match="two-level only"):
            periodic_measurement_demo(np.zeros((3, 3)), 0.1, 1.0, 10, 0)

    @pytest.mark.parametrize("p0", [0.0, 1.0, -0.5, float("nan")])
    def test_p0_outside_the_open_unit_interval_rejected(self, p0):
        with pytest.raises(ValueError, match=re.escape("p0 must lie in (0, 1)")):
            periodic_measurement_demo(ZERO2, p0, 1.0, 10, 0)

    @pytest.mark.parametrize("period", [0.0, -1.0, float("inf"), float("nan")])
    def test_period_not_positive_and_finite_rejected(self, period):
        with pytest.raises(ValueError, match="measurement period must be positive and finite"):
            periodic_measurement_demo(ZERO2, 0.5, period, 10, 0)


class TestMeasurementDemo:
    def test_no_uncertainty_never_leaks(self):
        result = periodic_measurement_demo(ZERO2, 0.1, 1.0, 500, 1)
        assert result["out_of_domain_frequency"] == 0.0
        assert result["prob0"] == 1.0
        assert not result["outcomes"].any()

    def test_rabi_leak_statistics(self):
        eps, tau, periods = 0.1, 3.0, 10000
        result = periodic_measurement_demo(eps * PAULI_X, 0.1, tau, periods, 2)
        predicted = np.sin(eps * tau) ** 2
        sigma = np.sqrt(predicted * (1 - predicted) / periods)
        assert abs(result["out_of_domain_frequency"] - predicted) <= 3 * sigma
        assert abs(result["prob0"] - (1 - predicted)) <= 1e-9

    def test_seed_determinism(self):
        a = periodic_measurement_demo(0.2 * PAULI_Y, 0.2, 1.5, 200, 9)
        b = periodic_measurement_demo(0.2 * PAULI_Y, 0.2, 1.5, 200, 9)
        assert np.array_equal(a["outcomes"], b["outcomes"])

    def test_one_draw_per_period_in_stream_order(self):
        # the per-period loop: one rng.random() call per period, outcome 0 below prob0
        result = periodic_measurement_demo(0.4 * PAULI_Y, 0.2, 1.5, 300, 9)
        rng = np.random.default_rng(9)
        prob0 = result["prob0"]
        outcomes = [0 if rng.random() < prob0 else 1 for _ in range(300)]
        assert result["outcomes"].dtype.kind == "i"
        assert result["outcomes"].tolist() == outcomes
        assert result["out_of_domain_frequency"] == sum(outcomes) / 300
        psi = herm_expm(0.4 * PAULI_Y, 1.5) @ np.array([1.0, 0.0])
        assert type(prob0) is float and prob0 == abs(psi[0]) ** 2
        assert result["in_domain"] is (float(abs(psi[0]) ** 2) >= 1.0 - 0.2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            periodic_measurement_demo(np.array([[0, 1], [0, 0]], complex), 0.1, 1.0, 10, 0)

    @pytest.mark.parametrize("periods", [0, -1])
    def test_rejects_fewer_than_one_period(self, periods):
        with pytest.raises(ValueError, match="periods must be at least 1"):
            periodic_measurement_demo(0.1 * PAULI_X, 0.1, 1.0, periods, 0)

    def test_a_million_periods_allocate_arrays_not_rows(self):
        tracemalloc.start()
        try:
            result = periodic_measurement_demo(0.1 * PAULI_X, 0.1, 3.0, 10**6, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["outcomes"].shape == (10**6,)
        assert peak < 32e6
