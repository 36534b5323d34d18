"""Benchmark of the `qest` CLI: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It uses the checkout's `src/` as is (no
install step) and writes only under `.bench_build/perfbench/`.

Each workload runs in its own process (worker.py) as a closed loop of one
caller: the next `qest` CLI call starts when the previous one has returned and
its outputs have been checked.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics.  `--workload all` runs every
workload in turn and prints one table.

The last line of standard output is the result object; the line before it is
a record of the run: machine facts, seed, unit count, the tail percentile and
the SHA-256 digest of all output bytes in unit order.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORK = Path(".bench_build") / "perfbench"
BLAS_THREADS = 1  # pinned: timings on a shared 2-core machine are steadier single-threaded
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def run_worker(name: str, seed: int, seconds: float, trace: int, env, deadline: float) -> dict:
    result_path = WORK / f"result-{name}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(WORK / f"work-{name}"), "--result", str(result_path)]
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{name}: worker exceeded the {DEADLINE_S:.0f} s deadline")
    if code != 0:
        raise RuntimeError(f"{name}: worker exited with code {code}")
    return json.loads(result_path.read_text())


def measure(spec, name, seed, seconds, trace, env, deadline) -> tuple[dict, dict]:
    """Run one workload; return (result object, record of the run)."""
    result = run_worker(name, seed, seconds, trace, env, deadline)
    wanted, values = (spec["per_layer"], result["layers"]) if trace else (spec["end_to_end"], result)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = result["failed"] == 0 and all(v["value"] == v["value"] for v in metrics.values())
    record = {
        "workload": name,
        "trace": trace,
        **{k: result[k] for k in sorted(result) if k.startswith((
            "machine", "output_sha256", "overhead_units", "raw", "self_time_share", "traced_units",
            "unit_s_tail_pct"))},
    }
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    WORK.joinpath(f"record-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"record": record, "result": line}, sort_keys=True, indent=1))
    return line, record


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not Path("src/qest/cli.py").is_file():
        print("run.py: error: no src/qest/cli.py here; run from the root of a qest checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        if args.workload != "all":
            line, record = measure(spec, args.workload, args.seed, args.seconds, args.trace, env, deadline)
            print(json.dumps(record, sort_keys=True))
            print(json.dumps(line))
            return 0
        lines = {}
        for name in names:
            lines[name], record = measure(spec, name, args.seed, args.seconds, args.trace, env,
                                          perf_counter() + DEADLINE_S)
            print(json.dumps(record, sort_keys=True))
    except RuntimeError as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        return 1
    print(f"{'metric':<44} {'unit':<12} " + " ".join(f"{n:>15}" for n in names))
    for metric in lines[names[0]]["metrics"]:
        unit = lines[names[0]]["metrics"][metric]["unit"]
        print(f"{metric:<44} {unit:<12} "
              + " ".join(f"{lines[n]['metrics'][metric]['value']:>15.6g}" for n in names))
    print(json.dumps({
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{n}.{m}": v for n, l in lines.items() for m, v in l["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
