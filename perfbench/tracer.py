"""Outside-in tracer for troprr: spans around calls into each module's
public functions and methods, recorded without changing anything under
`src/`.

`Tracer.install()` wraps every public function and every public method of
every class that a troprr module defines, except the leaf helpers in
`LEAVES` (each is called hundreds of thousands of times per pass and does
too little to time). Each wrapper is bound in place of the original in the
defining module, in every other `troprr.*` namespace that imported it, and
in the extra namespaces given (the benchmark's own modules). A span is
`(name, start, end, parent)`; spans stay in memory until `write()`.
`uninstall()` puts every original back.

Counters come only from the arguments and return values of wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from array import array

MODULES = ("linalg", "polyhedra", "hypersurface", "cycles", "eulercalc", "toric",
           "curves", "matroids", "instances", "jsonio", "cli")

LEAVES = {
    "linalg": {"frac", "vadd", "vsub", "vscale", "vdot", "is_zero_vec", "gcd_list",
               "primitive", "sign_normalize"},
    "polyhedra": {"sedentarity"},
    "toric": {"vadd2"},
    "matroids": {"pin", "flat_generator", "Matroid.rank"},
    "jsonio": {"frac_to_str", "frac_from_str"},
}


def _targets(modname: str):
    """(owner, attribute, span name) for each wrapped callable of a module."""
    mod = importlib.import_module(f"troprr.{modname}")
    leaves = LEAVES.get(modname, set())
    out = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and attr not in leaves:
            out.append((mod, attr, f"{modname}.{attr}"))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                qual = f"{attr}.{meth}"
                if not meth.startswith("_") and inspect.isfunction(fn) and qual not in leaves:
                    out.append((obj, meth, f"{modname}.{qual}"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patches = []
        self._hrep_seen = weakref.WeakSet()
        self._term_sets = set()
        self._matroids = set()

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters from arguments and return values ---------------------------

    def _after_hrep(self, args, result):
        if args[0] not in self._hrep_seen:
            self._hrep_seen.add(args[0])
            self.count("polyhedra.hrep.computed")

    def _after_subdivision(self, args, result):
        self._term_sets.add(frozenset(args[0].terms.items()))
        self.counters["hypersurface.subdivision.distinct_polynomials"] = len(self._term_sets)

    def _after_bergman_complex(self, args, result):
        m = args[0]
        self._matroids.add((m.n, m.bases))
        self.counters["matroids.bergman_complex.distinct_matroids"] = len(self._matroids)
        self.count("matroids.chains_built", len(result[1]))

    def _after_cycle(self, args, result):
        self.count("hypersurface.cells_built", len(result.complex.cells))
        self.count("hypersurface.relations_built", len(result.complex.face_relation))

    def _after_dumps(self, args, result):
        self.count("jsonio.bytes_out", len(result.encode()))

    def _hooks(self):
        return {
            "polyhedra.Polyhedron.hrep": self._after_hrep,
            "hypersurface.regular_subdivision": self._after_subdivision,
            "matroids.bergman_complex": self._after_bergman_complex,
            "hypersurface.tropical_hypersurface": self._after_cycle,
            "hypersurface.ambient_cycle": self._after_cycle,
            "jsonio.dumps": self._after_dumps,
        }

    # -- installation ----------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap and rebind; `extra_namespaces` are modules outside troprr
        that imported troprr names."""
        hooks = self._hooks()
        replaced = {}
        for modname in MODULES:
            for owner, attr, name in _targets(modname):
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, hooks.get(name))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if not inspect.isclass(owner):
                    replaced[id(original)] = (original, wrapper)
        namespaces = [m for n, m in sys.modules.items()
                      if n.startswith("troprr.") and m is not None]
        for ns in namespaces + list(extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path: str, t0: float):
        """Spans (times relative to t0) and counters as one JSON file."""
        data = {
            "names": self.names,
            "name": self.name_ids.tolist(),
            "start": [t - t0 for t in self.starts],
            "end": [t - t0 for t in self.ends],
            "parent": self.parents.tolist(),
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
