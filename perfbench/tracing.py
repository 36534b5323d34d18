"""Outside-in span tracing of the `qest` package, from the benchmark's own code.

`Tracer.install` replaces every binding of every public function of every
`qest` module, in every `qest` module namespace, with a wrapper that records
one span per call.  Calls within a module (through its globals) and across
modules (through `from .x import f` bindings) are therefore both caught,
without any change to the library.

Spans live in flat in-memory arrays: name, start, end, parent span and the
unit id shared by all spans of one unit.  `save` writes them out once the run
ends, and `layer_metrics` derives per-unit calls, inclusive seconds and self
seconds (duration minus the time covered by child spans) from them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _engaged(args, kwargs, result):
    # project_physical returns its input unchanged when no eigenvalue is negative
    rho_tilde = args[0] if args else kwargs["rho_tilde"]
    return float(not np.array_equal(np.asarray(rho_tilde), result))


# Extra per-call quantities, keyed by span name, then by metric stat.
_PROBES = {
    "identification.build_b_matrix": {"bytes": lambda a, k, r: float(r.nbytes)},
    "control.slc_train": {"iterations": lambda a, k, r: float(len(r[1]) - 1)},
    "tomography.project_physical": {"engaged": _engaged},
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield obj


class Tracer:
    """Span recorder for one process; install once, then set `unit` per unit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.unit_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[str, float] = defaultdict(float)
        self.unit = -1
        self._stack = [-1]

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qest" or n.startswith("qest."))]
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])

    def _wrap(self, fn, label):
        nid = self.name_ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        probes = _PROBES.get(label, {})
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.unit_of.append(self.unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            for stat, probe in probes.items():
                self.extras[f"{label}.{stat}"] += probe(args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "unit": np.asarray(self.unit_of, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def layer_metrics(self, metric_names, units: int, unit_scale) -> tuple[dict, dict]:
        """Per-unit values of `<module>.<function>.<stat>` metrics, plus self time by span.

        Values are per traced unit.  `unit_scale[i]` is the pace factor of
        unit i (see pace.py), by which the times of its spans are scaled.  A
        function missing from the library (removed or renamed) reports zero
        calls and zero time rather than failing.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end"] - a["start"]) * np.asarray(unit_scale)[a["unit"]]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_time, minlength=k)

        def column(table, label):
            nid = self.name_ids.get(label)
            return 0.0 if nid is None else float(table[nid])

        def count(label):
            return column(calls, label)

        derived = {}
        train = self.name_ids.get("control.slc_train")
        evals = self.name_ids.get("control.augmented_j")
        if train is not None and evals is not None:
            # one augmented_j call per slc_train is the initial J, not a line-search candidate
            under_train = np.sum((name == evals) & nested & (name[np.maximum(parent, 0)] == train))
            candidates = float(under_train) - count("control.slc_train")
            accepted = self.extras["control.slc_train.iterations"]
            derived["control.line_search.accept_frac"] = accepted / candidates if candidates else 0.0
        else:
            derived["control.line_search.accept_frac"] = 0.0
        projections = count("tomography.project_physical")
        derived["tomography.project_physical.engaged_frac"] = (
            self.extras["tomography.project_physical.engaged"] / projections if projections else 0.0)

        values = {}
        for metric in metric_names:
            label, _, stat = metric.rpartition(".")
            if metric in derived:
                values[metric] = derived[metric]
            elif stat == "calls":
                values[metric] = count(label) / units
            elif stat == "s":
                values[metric] = column(incl, label) / units
            elif stat == "self_s":
                values[metric] = column(excl, label) / units
            else:
                values[metric] = self.extras.get(metric, 0.0) / units
        by_span = {self.names[i]: float(excl[i]) / units for i in np.argsort(-excl) if calls[i]}
        return values, by_span
