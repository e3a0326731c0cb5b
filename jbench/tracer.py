"""Per-layer tracing of the jorder library from outside it.

Tracer.install() replaces every public function of the jorder package, under
every name it is bound to (``from .modules import hom_space`` copies the
reference into decomp, witnesses and suite), and the public methods of
GFField, RationalField and Algebra, with a timing wrapper.  uninstall()
puts the originals back.  Nothing in the library changes.

Each call is folded into per-name totals as it returns instead of being
kept as a span: one lrproj pass makes hundreds of thousands of field calls.
  calls    number of calls
  total_s  inclusive wall time, counting only the outermost call of a name
           when it recurses into itself
  self_s   inclusive time minus the time of directly nested traced calls,
           their wrappers' bookkeeping included, so that the tracer's own
           cost is not charged to the caller
plus the per-name counters that EXTRAS adds from arguments and results.
"""

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rref(st, args, kwargs, result, exc):
    rows, cols = np.atleast_2d(args[1]).shape
    st["cells"] += rows * cols
    st["max_cols"] = max(st["max_cols"], cols)


def _pair_unknowns(st, args, kwargs, result, exc):
    st["unknowns"] += args[0].dim * args[1].dim


def _decompose(st, args, kwargs, result, exc):
    if exc is None:
        st["leaves"] += len(result.summands)


def _endomorphism_algebra(st, args, kwargs, result, exc):
    if exc is None:
        st["dim_sum"] += result[0].dim


def _summand_isomorphism(st, args, kwargs, result, exc):
    st["hits"] += exc is None and result is not None


def _find_nontrivial_idempotent(st, args, kwargs, result, exc):
    st["splits"] += exc is None and result[0] is not None


def _verify_j_geq(st, args, kwargs, result, exc):
    st["not_summand"] += type(exc).__name__ == "NotASummand"


def _canon_json(st, args, kwargs, result, exc):
    if exc is None:
        st["bytes"] += len(result)


EXTRAS = {
    "linalg.rref": _rref,
    "modules.hom_space": _pair_unknowns,
    "modules.tensor_over": _pair_unknowns,
    "decomp.decompose": _decompose,
    "decomp.endomorphism_algebra": _endomorphism_algebra,
    "decomp.summand_isomorphism": _summand_isomorphism,
    "decomp.find_nontrivial_idempotent": _find_nontrivial_idempotent,
    "witnesses.verify_j_geq": _verify_j_geq,
    "serialize.canon_json": _canon_json,
}

# Methods of the two field classes share one name, so fields.canon counts
# GF(p) and Q calls together; the workload decides which field runs.
TRACED_CLASSES = (("fields", "GFField"), ("fields", "RationalField"), ("algebras", "Algebra"))


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._child = []  # time of nested traced calls, one slot per open call
        self._depth = defaultdict(int)
        self._wrappers = {}  # original function -> wrapper
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, fn, name):
        if fn in self._wrappers:
            return self._wrappers[fn]
        stats = self.stats[name]
        extra = EXTRAS.get(name)
        child = self._child
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = perf_counter()
            child.append(0.0)
            depth[name] += 1
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                nested = child.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += dt - nested
                if depth[name] == 0:
                    stats["total_s"] += dt
                if extra is not None:
                    extra(stats, args, kwargs, result, exc)
                if child:  # the whole call, bookkeeping included, is the caller's child time
                    child[-1] += perf_counter() - t_enter

        self._wrappers[fn] = traced
        return traced

    def _patch(self, owner, attr, original, name):
        setattr(owner, attr, self._wrap(original, name))
        self._patched.append((owner, attr, original))

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "jorder" or key.startswith("jorder."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("jorder")
                        and not value.__name__.startswith("_")):
                    self._patch(module, attr, value, f"{_short(value.__module__)}.{value.__name__}")
        for mod_name, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"jorder.{mod_name}"], cls_name)
            for attr, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and (
                    attr == "__init__" or not attr.startswith("_")
                ):
                    name = (f"fields.{attr}" if mod_name == "fields"
                            else f"{mod_name}.{cls_name}.{attr}")
                    self._patch(cls, attr, value, name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrappers.clear()
