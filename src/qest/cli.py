"""`qest` command line: tomography, identification and control experiments.

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
contract violations.  Errors print a single machine-parsable line of the form
``qest: error: <kind>: <message>`` on stderr.  All experiments are
byte-reproducible for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import harness
from .adaptive import AdaptiveSchedule, run_adaptive_protocol
from .control import (
    ControlField,
    evaluate_pulse,
    grid_samples,
    periodic_measurement_demo,
    random_samples,
    slc_train,
    UncertainSystem,
)
from .errors import ConfigError, ContractViolationError
from .identification import (
    estimate_lambda,
    identify_hamiltonian,
    random_traceless_hermitian,
)
from .linalg import complex_from_json, herm_expm, matrix_from_json, matrix_to_json
from .states import PAULI_X, mse, records_from_csv, rho_from_theta
from .tomography import project_physical, tomography_pipeline


def _cmd_tomo(args) -> int:
    records = records_from_csv(args.records, _dim(args))
    rho, theta, diagnostics = tomography_pipeline(records, weighting=args.weights)
    harness.write_json(args.out, {
        "dim": args.dim,
        "state": matrix_to_json(rho),
        "theta": theta.tolist(),
        "diagnostics": diagnostics,
        "weights": args.weights,
    })
    return 0


def _dim(args) -> int:
    if args.dim < 2:
        raise ConfigError("--dim must be at least 2")
    return args.dim


def _cmd_adapt(args) -> int:
    _dim(args)
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.N2 is None:
        if args.K > 0 and (args.N - args.N1) % args.K:
            raise ConfigError("N - N1 must be divisible by K when --N2 is omitted")
        args.N2 = (args.N - args.N1) // args.K if args.K > 0 else 1
    schedule = AdaptiveSchedule(total=args.N, stage1=args.N1, per_step=args.N2, steps=args.K)
    trials = range(args.trials)
    # every trial has its own truth and generator; the protocol runs them as one stack
    truths = np.stack([harness.sample_truth(args.dim, harness.trial_rng(args.seed, t, 0),
                                            args.ensemble) for t in trials])
    thetas, trace_q = run_adaptive_protocol(truths, schedule, args.candidates,
                                            [harness.trial_rng(args.seed, t, 1) for t in trials],
                                            args.weights)
    # every step's estimate is projected and scored, all steps and trials in one batch
    errs = mse(project_physical(rho_from_theta(thetas)), truths)
    step = np.arange(schedule.steps + 1)
    copies_used = schedule.stage1 + step * schedule.per_step
    # trial-major rows: each trial's K + 1 steps in turn
    harness.write_csv(args.out, {"trial": np.repeat(trials, schedule.steps + 1),
                                 "step": np.tile(step, args.trials),
                                 "copies_used": np.tile(copies_used, args.trials),
                                 "trace_Q": trace_q.T.ravel(),
                                 "mse": errs.T.ravel()})
    return 0


# Near 1e15 rad the spacing of doubles is already 0.125 rad: larger phases, of an SLC
# interval or of a `hamid` propagator, carry no usable digits, and near 1e308 they overflow.
_PHASE_LIMIT = 1e15
_HALF_MAX = float(np.finfo(float).max) / 2


def _unit_scaled(a):
    """(m, a / m), m the largest real or imaginary part of the finite array a (a itself
    when m = 0): a nonzero a / m has a norm between 1 and sqrt(2 a.size), which neither
    overflows nor vanishes.  The parts are divided as reals, since complex division by a
    subnormal m overflows."""
    m = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    return m, (a.real / m + 1j * (a.imag / m) if m else a)


def _frobenius_norm(a) -> float:
    """||a||_F of the finite array a as m ||a / m||_F (see :func:`_unit_scaled`): a Python
    float, which overflows to inf without a warning."""
    m, unit = _unit_scaled(a)
    return m * float(np.linalg.norm(unit))


def _load_hamiltonian(args):
    if args.true_h:
        obj = json.loads(Path(args.true_h).read_text())
        h = matrix_from_json(obj)
        if h.shape != (args.dim, args.dim):
            raise ConfigError("--true-h dimension does not match --dim")
        if not np.isfinite(h).all():
            raise ConfigError("--true-h entries must be finite")
        # ||H||_F t bounds every eigenphase of exp(-i H t)
        phase = _frobenius_norm(h) * args.time
        if not phase <= _PHASE_LIMIT:
            raise ConfigError(f"the --true-h Frobenius norm times --time is {phase:.3g} rad, "
                              f"above {_PHASE_LIMIT:.0e}")
        return h
    rng = harness.trial_rng(args.seed, 0)
    return random_traceless_hermitian(args.dim, rng, spectral_norm=0.4 * np.pi / args.time)


def _cmd_hamid(args) -> int:
    _dim(args)
    if not (np.isfinite(args.time) and args.time > 0):
        raise ConfigError("--time must be positive and finite")
    if args.time < 1e-100:
        # the random Hamiltonian's norm 0.4*pi/time and the largest generator that
        # identification can return, pi/time, stay far inside the double range
        raise ConfigError("--time below 1e-100 puts the generator scale pi/time above 1e100")
    h_true = _load_hamiltonian(args)
    kraus = [herm_expm(h_true, args.time)]
    shots = None if args.shots == "noiseless" else int(args.shots)
    lam = estimate_lambda(kraus, args.dim, shots, harness.trial_rng(args.seed, 1))
    h_hat, diagnostics = identify_hamiltonian(lam, args.time)
    harness.write_json(args.out, {
        "dim": args.dim,
        "time": args.time,
        "hamiltonian": matrix_to_json(h_hat),
        "diagnostics": diagnostics,
        "recovery_error": float(np.linalg.norm(h_hat - h_true)),
        "shots": args.shots,
    })
    return 0


_SLC_KEYS = {
    "dim", "H0", "Hm", "T", "L", "omega_halfwidth", "theta_halfwidth",
    "samples", "iterations", "step", "tolerance", "test", "psi0", "psi_target",
}


def _number(value, kind, name):
    """kind(value) for a JSON number; any other value, or a fraction for an int, is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, not {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, not {json.dumps(value)}")
    return kind(value)


def _state_from_config(cfg, key, d, default):
    if key not in cfg:
        return default
    try:
        v = complex_from_json(cfg[key])
    except TypeError as exc:
        raise ConfigError(f"{key} must be a list of [re, im] pairs") from exc
    if v.size != d:
        raise ConfigError(f"{key} must have {d} amplitudes")
    if not (np.isfinite(v).all() and v.any()):
        raise ConfigError(f"{key} must be a finite, nonzero state")
    unit = _unit_scaled(v)[1]
    return unit / np.linalg.norm(unit)


def _cmd_slc(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    if not isinstance(cfg, dict):
        raise ConfigError("the config must be a JSON object")
    unknown = set(cfg) - _SLC_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"dim", "H0", "Hm", "T", "L", "samples"} - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if not isinstance(cfg["Hm"], list):
        raise ConfigError("Hm must be a list of matrices")
    d = _number(cfg["dim"], int, "dim")
    h0, controls = matrix_from_json(cfg["H0"]), tuple(matrix_from_json(m) for m in cfg["Hm"])
    if not all(np.isfinite(h).all() for h in (h0, *controls)):
        raise ConfigError("H0 and Hm entries must be finite")
    system = UncertainSystem(
        h0, controls,
        _number(cfg.get("omega_halfwidth", 0.0), float, "omega_halfwidth"),
        _number(cfg.get("theta_halfwidth", 0.0), float, "theta_halfwidth"),
    )
    if d != system.dim:
        raise ConfigError(f"dim {d} does not match the {system.dim} rows of H0")
    psi0 = _state_from_config(cfg, "psi0", d, np.eye(d, dtype=complex)[0])
    psi_target = _state_from_config(cfg, "psi_target", d, np.eye(d, dtype=complex)[d - 1])
    samples = _samples_from_config(cfg["samples"], system)
    test_set = _samples_from_config(cfg.get("test", {"random": [200, 0]}), system)
    intervals = _number(cfg["L"], int, "L")
    rng = harness.trial_rng(args.seed, 0)
    field0 = ControlField(_number(cfg["T"], float, "T"),
                          rng.uniform(-0.5, 0.5, size=(intervals, len(system.controls))))
    # omega and theta stay below 2 and the initial amplitudes below 1, so this bounds the
    # eigenvalues of every interval generator in Frobenius norm; training forms their
    # differences, so twice the bound must stay finite
    scale = 2.0 * sum(_frobenius_norm(h) for h in (system.h0, *system.controls))
    if not scale <= _HALF_MAX:
        raise ConfigError(f"H0 and Hm give the generator bound {scale:.3g}, above {_HALF_MAX:.3g}")
    if not field0.dt * scale <= _PHASE_LIMIT:
        raise ConfigError(f"T / L = {field0.dt:.3g} times the generator bound {scale:.3g} "
                          f"exceeds {_PHASE_LIMIT:.0e} rad per interval")
    field, log = slc_train(
        system, samples, field0, psi0, psi_target,
        step_size=_number(cfg.get("step", 10.0), float, "step"),
        iterations=_number(cfg.get("iterations", 200), int, "iterations"),
        tolerance=_number(cfg.get("tolerance", 1e-9), float, "tolerance"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv(out / "training_log.csv", {"iter": np.arange(len(log)),
                                                 "JN": np.array(log)})
    fidelities = evaluate_pulse(system, test_set, field, psi0, psi_target).fidelities
    harness.write_csv(out / "test.csv", {"omega": test_set.pairs[:, 0],
                                         "theta": test_set.pairs[:, 1],
                                         "fidelity": fidelities})
    harness.write_json(out / "pulse.json", {
        "horizon": field.horizon,
        "amplitudes": field.amplitudes.tolist(),
        "J_train": log[-1],
        "test_mean": float(fidelities.mean()),
        "test_min": float(fidelities.min()),
    })
    harness.write_json(out / "manifest.json", {
        "config": cfg, "config_hash": harness.config_hash(cfg), "seed": args.seed,
    })
    return 0


def _samples_from_config(scheme, system):
    form = 'samples must be {"grid": [n_omega, n_theta]} or {"random": [N, seed]}'
    if not isinstance(scheme, dict) or len(scheme) != 1:
        raise ConfigError(form)
    (kind, values), = scheme.items()
    if kind not in ("grid", "random") or not isinstance(values, list) or len(values) != 2:
        raise ConfigError(form)
    a, b = (_number(v, int, f"{kind} entries") for v in values)
    if kind == "grid":
        return grid_samples(system.omega_halfwidth, system.theta_halfwidth, a, b)
    return random_samples(system.omega_halfwidth, system.theta_halfwidth, a,
                          harness.trial_rng(b, 99))


def _cmd_smc_demo(args) -> int:
    if not np.all(np.isfinite([args.eps, args.tau, args.eps * args.tau])):
        raise ConfigError("--eps, --tau and their product must be finite")
    result = periodic_measurement_demo(args.eps * PAULI_X, args.p0, args.tau, args.periods,
                                       args.seed)
    leak = float(np.sin(args.eps * args.tau) ** 2)
    summary = {
        "p0": args.p0, "eps": args.eps, "tau": args.tau, "periods": args.periods,
        "predicted_leak": leak,
        "out_of_domain_frequency": result["out_of_domain_frequency"],
    }
    if args.out:
        # prob0 and in_domain are one value, shared by every period
        columns = {"period": np.arange(args.periods), "prob0": result["prob0"],
                   "outcome": result["outcomes"], "in_domain": result["in_domain"]}
        harness.write_csv(args.out,
                          {k: np.broadcast_to(v, args.periods) for k, v in columns.items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_sweep(args) -> int:
    grid = [int(v) for v in args.shots.split(",")]
    result = harness.run_mse_sweep(_dim(args), grid, args.trials, args.seed,
                                   ensemble=args.ensemble, weighting=args.weights)
    config = {"command": "sweep", "dim": args.dim, "shots": grid, "trials": args.trials,
              "ensemble": args.ensemble, "weights": args.weights}
    harness.emit(result, args.out, name="mse_sweep", fmt=args.format,
                 config=config, seed=args.seed)
    return 0


def _cmd_compare(args) -> int:
    if args.kind == "tomography":
        schedule = AdaptiveSchedule(total=args.N, stage1=args.N1, per_step=args.N2, steps=args.K)
        result = harness.run_paired_tomography(
            _dim(args), schedule, args.trials, args.seed,
            candidates=args.candidates, weighting=args.weights,
            repetitions=args.repetitions,
        )
        config = {"command": "compare", "kind": "tomography", "dim": args.dim,
                  "N": args.N, "N1": args.N1, "N2": args.N2, "K": args.K,
                  "candidates": args.candidates, "weights": args.weights,
                  "trials": args.trials, "repetitions": args.repetitions}
    else:
        result = harness.run_paired_slc(args.trials, args.seed,
                                        omega_halfwidth=args.omega,
                                        theta_halfwidth=args.theta)
        config = {"command": "compare", "kind": "slc", "omega": args.omega,
                  "theta": args.theta, "trials": args.trials}
    harness.emit(result, args.out, name=f"compare_{args.kind}", fmt=args.format,
                 config=config, seed=args.seed)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose rejections are config errors, not usage text and an exit.

    Subparsers are built with the parser's own class, so they share it.
    """

    def error(self, message):
        raise ConfigError(message)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `qest` parser, built once per process; every call shares it, so do not change it."""
    parser = _Parser(prog="qest", description="quantum estimation and robust-control experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--out", required=True, help=out_help)

    p = sub.add_parser("tomo", help="batch tomography from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--weights", choices=("shots", "invvar"), default="shots")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("adapt", help="two-stage adaptive tomography trials")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--N1", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N2", type=int, default=None,
                   help="copies per adaptive step; default (N - N1) / K")
    p.add_argument("--candidates", choices=("cube", "continuum"), default="cube")
    p.add_argument("--ensemble", choices=("pure", "mixed"), default="pure")
    p.add_argument("--weights", choices=("shots", "invvar"), default="invvar")
    common(p, "per-step diagnostics CSV")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("hamid", help="Hamiltonian identification round trip")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--true-h", dest="true_h", default=None,
                   help="matrix JSON file; random traceless H when omitted")
    p.add_argument("--shots", default="noiseless",
                   help='"noiseless" or copies per probe output')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hamid)

    p = sub.add_parser("slc", help="sampling-based learning control from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_slc)

    p = sub.add_parser("smc-demo", help="periodic projective measurement demo")
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--periods", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional per-period CSV")
    p.set_defaults(func=_cmd_smc_demo)

    p = sub.add_parser("sweep", help="MSE versus copy number sweep")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--shots", required=True, help="comma-separated N grid")
    p.add_argument("--ensemble", choices=("pure", "mixed"), default="pure")
    p.add_argument("--weights", choices=("shots", "invvar"), default="shots")
    common(p, "output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="paired strategy comparison")
    p.add_argument("--kind", choices=("tomography", "slc"), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--N1", type=int, default=2000)
    p.add_argument("--N2", type=int, default=1000)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--candidates", choices=("cube", "continuum"), default="continuum")
    p.add_argument("--weights", choices=("shots", "invvar"), default="invvar")
    p.add_argument("--omega", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=0.2)
    p.add_argument("--repetitions", type=int, default=10,
                   help="measurement repetitions per truth for the MSE estimate")
    common(p, "output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ContractViolationError as exc:
        print(_error("contract", exc), file=sys.stderr)
        return 3
    # ConfigError and json.JSONDecodeError are ValueErrors, FileNotFoundError an OSError
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        print(_error("config", exc), file=sys.stderr)
        return 2


def _error(kind, exc) -> str:
    return f"qest: error: {kind}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
