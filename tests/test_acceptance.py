"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
timings and measured values.
"""

import time

import numpy as np
import pytest

from qest.adaptive import AdaptiveSchedule, RecursiveState, rls_update
from qest.control import (
    ControlField,
    SampleSet,
    UncertainSystem,
    evaluate_pulse,
    periodic_measurement_demo,
)
from qest.harness import (
    fit_loglog_slope,
    run_mse_sweep,
    run_paired_slc,
    run_paired_tomography,
)
from qest.identification import (
    estimate_lambda,
    identify_hamiltonian,
    random_traceless_hermitian,
)
from qest.linalg import herm_expm
from qest.states import (
    PAULI_X,
    mse,
    random_density_matrix,
)
from qest.tomography import (
    build_regression,
    project_physical,
    solve_weighted_ls,
    tomography_pipeline,
)
from tests.complexity import complexity_probe
from tests.control_reference import central_difference_gradient
from tests.oracles import (
    build_b_matrix,
    concat_records,
    cube_povms,
    expected_records,
    record_rows,
    simulate_measurements,
)
from tests.test_golden import run_command, write_inputs
from tests.test_identification import is_identifiable, random_unitary
from tests.test_tomography import haar_basis_povm, simplex_projection_oracle


def report(num, detail):
    print(f"\n[acceptance] criterion {num}: PASS ({detail})")


def mixed_povm_dataset(d, rng, n_basis_extra):
    rho = random_density_matrix(d, rng)
    povms = []
    if d == 2:
        povms += cube_povms(2)
    else:
        povms += [haar_basis_povm(d, rng) for _ in range(d + 1)]
    povms += [haar_basis_povm(d, rng) for _ in range(n_basis_extra)]
    return concat_records(
        simulate_measurements(rho, povm, int(rng.integers(10, 10001)), rng) for povm in povms
    )


def test_criterion_01_recursive_equals_batch():
    start = time.perf_counter()
    worst = 0.0
    cases = [(2, 100), (3, 20)]
    for d, n_sets in cases:
        init_rows = d * (d + 1) if d > 2 else 6
        for i in range(n_sets):
            rng = np.random.default_rng([101, d, i])
            weighting = "shots" if i % 2 == 0 else "invvar"
            records = mixed_povm_dataset(d, rng, n_basis_extra=6)

            problem = build_regression(record_rows(records, slice(init_rows)), weighting)
            theta, _, q = solve_weighted_ls(problem)
            state = RecursiveState(q=q, theta=theta)
            state = rls_update(state, build_regression(record_rows(records, slice(init_rows, None)),
                                                       weighting))

            theta_batch, _, _ = solve_weighted_ls(build_regression(records, weighting))
            rel = np.linalg.norm(state.theta - theta_batch) / np.linalg.norm(theta_batch)
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(1, f"120 datasets, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_noiseless_exactness():
    start = time.perf_counter()
    worst_mse = 0.0
    for d in (2, 3, 4):
        povms = cube_povms(d) if d in (2, 4) else None
        for i in range(20):
            rng = np.random.default_rng([102, d, i])
            rho = random_density_matrix(d, rng)
            use = povms or [haar_basis_povm(d, rng) for _ in range(d + 2)]
            records = concat_records(expected_records(rho, povm, 1000) for povm in use)
            rho_hat, _, _ = tomography_pipeline(records)
            worst_mse = max(worst_mse, mse(rho_hat, rho))
            assert mse(rho_hat, rho) <= 1e-9

    worst_h = 0.0
    draws = 0
    for d in (2, 3):
        rng = np.random.default_rng([102, d])
        done = 0
        attempts = 0
        while done < 60 and attempts < 2000:
            attempts += 1
            h = random_traceless_hermitian(d, rng, rng.uniform(0.05, 0.9) * np.pi)
            if not is_identifiable(h, 1.0):
                continue
            lam = estimate_lambda([herm_expm(h, 1.0)], d)
            h_hat, _ = identify_hamiltonian(lam, 1.0)
            err = np.linalg.norm(h_hat - h)
            worst_h = max(worst_h, err)
            assert err <= 1e-6
            done += 1
        assert done == 60
        draws += done
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(2, f"60 states + {draws} Hamiltonian draws; worst state MSE {worst_mse:.1e}, "
              f"worst H error {worst_h:.1e}, {elapsed:.1f}s")


def test_criterion_03_projection_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 5))
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        lam = rng.normal(scale=0.7, size=d)
        lam += (1.0 - lam.sum()) / d
        rho = (q * lam) @ q.conj().T
        expected = (q * simplex_projection_oracle(lam)) @ q.conj().T
        err = np.linalg.norm(project_physical(rho) - expected)
        worst = max(worst, err)
        assert err <= 1e-10
    report(3, f"1000 matrices d<=4, worst deviation {worst:.2e}")


def test_criterion_04_mse_scaling():
    start = time.perf_counter()
    grid = [100, 1000, 10000, 100000, 1000000]
    result = run_mse_sweep(2, grid, trials=50, seed=104, ensemble="pure", weighting="shots")
    means = result.aggregates["mean_mse"]
    slope = result.aggregates["slope"]
    assert all(b < a for a, b in zip(means, means[1:]))
    assert -1.2 <= slope <= -0.8
    assert means[-1] < 1e-4  # mean MSE with 1e6 copies on a qubit
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(4, f"slope {slope:.3f}, means decade-decreasing, "
              f"mean MSE at N=1e6 {means[-1]:.1e}, {elapsed:.1f}s")


def test_criterion_05_adaptive_improvement():
    start = time.perf_counter()
    schedule = AdaptiveSchedule(total=10000, stage1=2000, per_step=1000, steps=8)
    result = run_paired_tomography(2, schedule, trials=100, seed=105,
                                   candidates="continuum", weighting="invvar",
                                   repetitions=20)
    agg = result.aggregates
    assert agg["mean_adaptive"] <= agg["mean_static"]
    assert agg["win_rate"] >= 0.60
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(5, f"mse ratio {agg['mse_ratio']:.3f}, win rate {agg['win_rate']:.2f}, "
              f"{elapsed:.1f}s")


def test_criterion_06_b_matrix_unitarity():
    worst = 0.0
    for d in (2, 3, 4):
        b = build_b_matrix(d)
        resid = float(np.linalg.norm(b.conj().T @ b - np.eye(d**4)))
        worst = max(worst, resid)
        assert resid <= 1e-9
    report(6, f"worst ||B^dag B - I||_F = {worst:.2e} over d in 2..4")


def test_criterion_07_complexity_upper_bounds():
    start = time.perf_counter()
    lre = complexity_probe("lre_solve", [2, 4, 8, 16], repetitions=5, seed=107)
    ident = complexity_probe("identify", [2, 3, 4, 5, 6], repetitions=5, seed=107)
    assert lre["slope"] <= 4.5
    assert ident["slope"] <= 6.5
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(7, f"LRE slope {lre['slope']:.2f} <= 4.5, identification slope "
              f"{ident['slope']:.2f} <= 6.5, {elapsed:.1f}s")


def test_criterion_08_gradient_agreement():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([108, i])
        d = 2 if i % 2 == 0 else 3
        h0 = random_traceless_hermitian(d, rng, 1.0)
        controls = tuple(random_traceless_hermitian(d, rng, 1.0)
                         for _ in range(int(rng.integers(1, 3))))
        system = UncertainSystem(h0, controls, 0.2, 0.2)
        intervals = int(rng.integers(20, 51))
        field = ControlField(intervals * 0.008, rng.uniform(-1, 1, size=(intervals, len(controls))))
        samples = SampleSet(rng.uniform(0.8, 1.2, size=(2, 2)))
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        target = rng.normal(size=d) + 1j * rng.normal(size=d)
        target /= np.linalg.norm(target)
        g_an = evaluate_pulse(system, samples, field, psi0, target).gradient()
        g_fd = central_difference_gradient(system, samples, field, psi0, target, step=1e-6)
        err = float(np.abs(g_an - g_fd).max())
        worst = max(worst, err)
        assert err <= 1e-4
    report(8, f"20 instances, worst analytic-vs-FD deviation {worst:.2e}")


def test_criterion_09_slc_robustness():
    start = time.perf_counter()
    result = run_paired_slc(trials=50, seed=109, omega_halfwidth=0.2, theta_halfwidth=0.2)
    agg = result.aggregates
    assert agg["mean_test_over_train"] >= 0.95
    assert agg["worst_case_win_rate"] >= 0.90
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(9, f"test/train fidelity ratio {agg['mean_test_over_train']:.3f}, "
              f"worst-case win rate {agg['worst_case_win_rate']:.2f}, {elapsed:.1f}s")


def test_criterion_10_smc_demo_statistics():
    p0, eps, tau, periods = 0.1, 0.1, 3.0, 10000
    predicted = float(np.sin(eps * tau) ** 2)
    assert predicted <= p0  # scenario chosen so the domain bound applies
    result = periodic_measurement_demo(eps * PAULI_X, p0, tau, periods, seed=110)
    freq = result["out_of_domain_frequency"]
    sigma = np.sqrt(predicted * (1 - predicted) / periods)
    assert abs(freq - predicted) <= 3 * sigma
    assert freq <= p0 + 3 * sigma
    report(10, f"leak frequency {freq:.4f} vs predicted {predicted:.4f} "
               f"(3 sigma = {3*sigma:.4f})")


def test_criterion_11_cli_byte_reproducibility(tmp_path):
    start = time.perf_counter()
    commands = write_inputs(tmp_path)
    for name, args in commands.items():
        outputs = [
            b"".join(p.read_bytes() for p in run_command(name, args, tmp_path / f"{name}_{run}"))
            for run in ("a", "b")
        ]
        assert outputs[0] == outputs[1], f"{name} output not byte-reproducible"
    report(11, f"{len(commands)} commands byte-identical across reruns, "
               f"{time.perf_counter()-start:.1f}s")
