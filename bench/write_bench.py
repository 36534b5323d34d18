"""Write BENCH_<n>.json at the root of a qest checkout: one measurement of the whole tree.

    python bench/write_bench.py 28      # from the root of the checkout

It composes existing tools and defines no metric of its own.  The file holds:

* ``perfbench`` and ``perfbench_traced``: every JSON line that ``perfbench/run.py
  --workload all --seed 5 --seconds 15`` prints (record and result lines) with ``--trace 0``
  (the end-to-end metrics) and with ``--trace 1`` (the per-layer metrics), stored as printed;
* ``tier1``: the wall time and the outcome counts of the Tier-1 suite;
* ``criteria``: the call time of each acceptance criterion in three runs of
  ``tests/test_acceptance.py`` (``pytest --durations=0 --durations-min=0``), all three
  and their median, since one run alone can read 1.4x slow;
* ``scaling``: ``qest slc`` on the README qubit-transfer family at d = 2, 4 and 8,
  ``qest compare --kind tomography --candidates cube`` at its defaults at d = 4, 8 and 16,
  ``qest compare --kind slc --trials 50 --seed 109``, acceptance criterion 09's
  configuration, and ``qest hamid --time 0.5 --seed 1`` at d = 16 (20000 shots) and
  d = 32 (100000 shots), each in a fresh interpreter with one BLAS thread: the wall time
  of ``main``, ``ru_maxrss`` and the SHA-256 of the output files (names and bytes, in
  name order);
* ``machine``: the facts every perfbench record line carries (cores, memory, the Python,
  numpy and scipy versions, the BLAS build and its thread count in the run, the git
  commit), stored once;
* ``tree``: what was measured, for a tree measured before its commit: the commit it
  starts from and ``tree_sha256``, a SHA-256 of every file in git's index, as the
  working tree holds it (names and bytes, in path order), except ``BENCH_*.json`` and
  the Markdown notes, which nothing measured reads (so the notes can cite this file).
  Stage the change with ``git add`` before measuring; :func:`tree_sha256` on a
  checkout of the commit then tells whether it is the tree that was measured;
* ``parent``: the BENCH file with the next lower number at the root, cited by name and
  ``tree_sha256``, not copied, and whether it measured the commit this tree starts from
  (the before of a before-and-after pair).

Nothing under ``perfbench/`` changes.  Scratch outputs go to ``.bench_build/bench/``.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "bench"
UNMEASURED = ("BENCH_*.json", "*.md")  # files tree_sha256 leaves out
SEED = 5  # perfbench workload seed
SECONDS = 15.0  # perfbench run length per workload
CRITERIA_RUNS = 3  # acceptance-suite runs; each criterion records their median call time
ONE_BLAS_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# fresh interpreter: time qest.cli.main and report it with the peak resident set
TIMED_MAIN = (
    "import json, resource, sys, time\n"
    "from qest.cli import main\n"
    "start = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "main_s = time.perf_counter() - start\n"
    "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
    "print(json.dumps({'exit': code, 'main_s': main_s, 'maxrss_mb': rss_mb}))\n"
)


def env_with_src(extra=None) -> dict:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return os.environ | {"PYTHONPATH": pythonpath} | (extra or {})


def perfbench(trace: int) -> dict:
    argv = ["--workload", "all", "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    out = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return {"argv": argv, "lines": [json.loads(line) for line in out.splitlines()
                                    if line.startswith("{")]}


def tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env_with_src(), capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|skipped|errors?)",
                                                     summary)}
    reported = re.search(r" in ([\d.]+)s", summary)
    return {"exit": proc.returncode, "counts": counts, "summary": summary, "wall_s": wall_s,
            "pytest_s": float(reported.group(1)) if reported else None}


def criteria() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--durations=0", "--durations-min=0",
            "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    runs = []
    for _ in range(CRITERIA_RUNS):
        out = subprocess.run(argv, cwd=ROOT, env=env_with_src(), capture_output=True,
                             text=True).stdout
        runs.append(dict(sorted((name, float(s)) for s, name in re.findall(
            r"^([\d.]+)s call\s+tests/test_acceptance\.py::(test_criterion_\w+)", out, re.M))))
    return {"argv": argv[1:], "runs_call_s": runs,
            "median_call_s": {name: float(np.median([run[name] for run in runs]))
                              for name in runs[0]}}


def slc_config(d: int) -> dict:
    """The README qubit transfer at d = 2 (sigma_z drift, sigma_x control, |0> -> |1>), and
    at larger d a linear drift diag(1 .. -1) with one nearest-neighbour hopping control."""
    def matrix(a):
        return {"rows": d, "cols": d, "data": [[float(x), 0.0] for x in a.ravel(order="F")]}

    return {
        "dim": d, "H0": matrix(np.diag(np.linspace(1.0, -1.0, d))),
        "Hm": [matrix(np.eye(d, k=1) + np.eye(d, k=-1))],
        "psi_target": [[float(i == 1), 0.0] for i in range(d)],
        "T": 2.0, "L": 20, "omega_halfwidth": 0.2, "theta_halfwidth": 0.2,
        "samples": {"grid": [2, 2]}, "iterations": 200, "step": 10.0, "tolerance": 1e-9,
        "test": {"random": [200, 0]},
    }


def digest(out: Path) -> str:
    """The SHA-256 of an output file, or of a directory's files, by name and bytes."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else [out]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def scaling() -> list:
    runs = []
    for d in (2, 4, 8):
        (BUILD / f"slc{d}.json").write_text(json.dumps(slc_config(d)))
        runs.append((d, ["slc", "--config", f"slc{d}.json", "--seed", "11", "--out", f"slc{d}"]))
    runs += [(d, ["compare", "--kind", "tomography", "--dim", str(d), "--candidates", "cube",
                  "--seed", "11", "--out", f"compare{d}"]) for d in (4, 8, 16)]
    runs.append((2, ["compare", "--kind", "slc", "--trials", "50", "--seed", "109",
                     "--out", "compare-slc50"]))
    runs += [(d, ["hamid", "--dim", str(d), "--time", "0.5", "--shots", str(shots), "--seed",
                  "1", "--out", f"hamid{d}.json"]) for d, shots in ((16, 20000), (32, 100000))]
    rows = []
    for d, argv in runs:
        proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv], cwd=BUILD, check=True,
                              env=env_with_src(ONE_BLAS_THREAD), capture_output=True, text=True)
        rows.append({"d": d, "argv": argv} | json.loads(proc.stdout.splitlines()[-1])
                    | {"outputs_sha256": digest(BUILD / argv[-1])})
    return rows


def machine(lines: list) -> dict:
    facts = [line["machine"] for line in lines if "machine" in line]
    if not facts or any(f != facts[0] for f in facts):
        raise RuntimeError("perfbench record lines disagree on the machine facts")
    return facts[0]


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def tree_sha256(commit=None) -> str:
    """The SHA-256 of the files in git's index as the working tree holds them, or of the files
    of ``commit``, but the unmeasured ones."""
    if commit is None:
        listed = set(git("ls-files", "-z", "--cached").decode().split("\0")) - {""}
        files = {name: (ROOT / name).read_bytes() for name in listed if (ROOT / name).is_file()}
    else:
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
            files = {m.name: tar.extractfile(m).read() for m in tar if m.isfile()}
    h = hashlib.sha256()
    for name in sorted(files):
        if not any(fnmatch.fnmatch(name, p) for p in UNMEASURED):
            h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def tree() -> dict:
    commit = git("rev-parse", "HEAD").decode().strip()
    return {"base_commit": commit, "tree_sha256": tree_sha256()}


def parent(number: int, base_commit: str) -> dict | None:
    """The BENCH file with the next lower number, by name and tree, or None."""
    below = [int(m.group(1)) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m.group(1)) < number]
    if not below:
        return None
    name = f"BENCH_{max(below)}.json"
    measured = json.loads((ROOT / name).read_text())["tree"]["tree_sha256"]
    return {"file": name, "tree_sha256": measured,
            "measured_base_commit": measured == tree_sha256(base_commit)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    BUILD.mkdir(parents=True, exist_ok=True)
    identity = tree()
    runs = perfbench(0), perfbench(1)
    bench = {
        "perfbench": runs[0],
        "perfbench_traced": runs[1],
        "tier1": tier1(),
        "criteria": criteria(),
        "scaling": scaling(),
        "machine": machine(runs[0]["lines"] + runs[1]["lines"]),
        "tree": identity,
        "parent": parent(args.number, identity["base_commit"]),
    }
    if tree() != identity:
        raise RuntimeError("the tree changed while it was measured")
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
