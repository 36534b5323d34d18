"""One workload in its own process: a closed loop of `qest` CLI units, one at a time.

Started by run.py with the checkout's `src` on PYTHONPATH and the BLAS thread
count fixed in the environment.  Writes one JSON result file and exits.

Untraced (`--trace 0`): set-up time is sampled, then every unit is timed with
nothing wrapped.  Traced (`--trace 1`): the first third of the run is
untraced; then `Tracer` wraps the library and the units are replayed from
unit 0.  The traced units give the per-layer metrics, and the units run both
ways give the tracing overhead on identical inputs.

Every timing is scaled to the reference speed of pace.py; raw values are
reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from pace import BRACKET_REPS, Pacer, kernel_seconds, scaled
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
READY = "import qest.cli; qest.cli.build_parser(); print('ready', flush=True)"


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten units beyond it, or the median if that is higher."""
    ordered = sorted(times)
    if len(ordered) < 21:
        return statistics.median(ordered), 50.0
    rank = len(ordered) - 10  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def digest_files(out_dir: Path, *hashes) -> int:
    """Feed every output file (path, length, bytes) to each hash; return the byte count."""
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        for sha in hashes:
            sha.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode())
            sha.update(data)
        size += len(data)
    return size


def setup_seconds() -> tuple[float, float]:
    """Median (scaled, raw) time from spawning a fresh interpreter to a ready `qest` parser.

    The first spawn is discarded: it may compile bytecode, which users pay once.
    Pace readings are taken only while no child runs, so they do not compete
    with it; each spawn is scaled by the mean of the readings around it.
    """
    raw, readings = [], [kernel_seconds(BRACKET_REPS)]
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            raw.append(perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError("the qest CLI failed to start")
        readings.append(kernel_seconds(BRACKET_REPS))
    scaled_s = [scaled(t, before + after, 2 * BRACKET_REPS)
                for t, before, after in zip(raw, readings, readings[1:])]
    return statistics.median(scaled_s[1:]), statistics.median(raw[1:])


def machine_facts(seed: int) -> dict:
    """CPUs, memory, versions, the BLAS build and the thread count each loaded OpenBLAS reports."""
    import numpy
    import scipy

    mem_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal:"))
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(cdll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(lib).name] = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "workload_seed": seed,
    }


def call(main, argv) -> tuple[object, str | None]:
    """One CLI call: (exit code, error text or None)."""
    try:
        return main(argv), None
    except (Exception, SystemExit):  # a unit that raises is a failed unit, not a failed run
        return None, traceback.format_exc()


def run_units(workload, seed: int, seconds: float, tracer, work: Path) -> tuple[list, int]:
    """The closed loop.  Returns one record per unit and the number run before tracing."""
    from qest import cli

    units = []
    untraced = None  # units run before the tracer was installed
    begin = perf_counter()
    pass_s = []  # wall time per loop pass, pacing and checks included
    pacer = Pacer()
    # start a unit only while a typical pass still ends within the run's seconds
    while (len(units) < workload.fixed_units or len(units) < 2 * (untraced or 0)
           or perf_counter() - begin + statistics.median(pass_s) <= seconds):
        pass_start = perf_counter()
        if tracer and untraced is None and len(units) >= 2 and pass_start - begin >= seconds / 3:
            tracer.install()
            untraced = len(units)
        index = len(units) - (untraced or 0)
        if tracer:
            tracer.unit = len(units)
        unit_dir = work / f"unit{len(units)}"
        in_dir, out_dir = unit_dir / "in", unit_dir / "out"
        in_dir.mkdir(parents=True)
        out_dir.mkdir()
        argv, expected = workload.prepare(seed, index, in_dir, out_dir)
        (code, error), wall, net, scaled = pacer.measure(lambda: call(cli.main, argv))
        quality = None
        if code == 0:
            try:
                quality = workload.check(out_dir, expected)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                error = f"check: {exc!r}"
        elif error is None:
            error = f"exit code {code}"
        units.append({"index": index, "wall_s": wall, "raw_s": net, "s": scaled,
                      "error": error, "quality": quality, "out_dir": out_dir})
        pass_s.append(perf_counter() - pass_start)
    return units, untraced


def digest_units(units: list, fixed: int) -> dict:
    """Output digests: of every unit in run order, and of the first `fixed` units."""
    sha_all, sha_fixed = hashlib.sha256(), hashlib.sha256()
    for i, unit in enumerate(units):
        sha_unit = hashlib.sha256()
        hashes = (sha_all, sha_unit, sha_fixed) if i < fixed else (sha_all, sha_unit)
        unit["bytes"] = digest_files(unit["out_dir"], *hashes)
        unit["sha256"] = sha_unit.hexdigest()
    return {"output_sha256": sha_all.hexdigest(), "output_sha256_units": len(units),
            "output_sha256_fixed": sha_fixed.hexdigest(), "output_sha256_fixed_units": fixed}


def summarize(units: list, fixed: int) -> dict:
    times = [u["s"] for u in units]
    raw = [u["raw_s"] for u in units]
    ok = [u for u in units if u["error"] is None]
    tail_s, tail_pct = tail(times)
    scored = [u["quality"] for u in units[:fixed] if u["error"] is None]
    return {
        "attempted": len(units),
        "failed": len(units) - len(ok),
        "units_per_s": len(units) / sum(times),
        "unit_s_p50": statistics.median(times),
        "unit_s_tail": tail_s,
        "unit_s_tail_pct": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": len(ok) / len(units),
        "quality_loss": statistics.fmean(scored) if scored else float("nan"),
        "raw": {"units_per_s": len(units) / sum(raw), "unit_s_p50": statistics.median(raw),
                "unit_s": raw},
    }


def traced_summary(tracer, units: list, untraced: int, layer_names) -> dict:
    """Per-layer metrics of the traced units, and the overhead on the units run both ways."""
    before, traced = units[:untraced], units[untraced:]
    n = len(traced)
    layers, by_span = tracer.layer_metrics(
        [m for m in layer_names if not m.startswith(("trace.", "harness.output."))],
        n, [u["s"] / u["wall_s"] for u in units])
    untraced_rate = untraced / sum(u["s"] for u in before)
    traced_rate = untraced / sum(u["s"] for u in traced[:untraced])
    layers["harness.output.bytes"] = sum(u["bytes"] for u in traced) / n
    layers["trace.units_per_s_untraced"] = untraced_rate
    layers["trace.units_per_s_traced"] = traced_rate
    layers["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    unit_s = sum(u["s"] for u in traced) / n
    return {"layers": layers, "traced_units": n, "overhead_units": untraced,
            "self_time_share": {k: v / unit_s for k, v in list(by_span.items())[:12]}}


def run(workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    setup = None if traced else setup_seconds()
    tracer = Tracer() if traced else None
    units, untraced = run_units(workload, seed, seconds, tracer, work)
    digests = digest_units(units, workload.fixed_units)
    if tracer:
        del digests["output_sha256_fixed"], digests["output_sha256_fixed_units"]
        for replay in units[untraced:2 * untraced]:
            if replay["error"] is None and replay["sha256"] != units[replay["index"]]["sha256"]:
                replay["error"] = "traced output differs from the untraced run of the same unit"
    for position, unit in enumerate(units):
        if unit["error"]:
            print(f"unit {position} (input {unit['index']}) failed: {unit['error']}", file=sys.stderr)
    shutil.rmtree(work)
    result = summarize(units, workload.fixed_units)
    result.update(digests)
    result["machine"] = machine_facts(seed)
    if setup:
        result["setup_s"], result["raw"]["setup_s"] = setup
    if tracer:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        result.update(traced_summary(tracer, units, untraced, [m["name"] for m in spec["per_layer"]]))
        tracer.save(work.parent / f"spans-{workload.name}.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory, emptied first")
    parser.add_argument("--result", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
