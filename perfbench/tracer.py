"""Spans recorded from outside the program.

`Tracer.install` replaces the layer-boundary functions of each selfsim
module (SPANS, plus the methods in METHODS) by wrappers that record a
span: name, start, end and the index of the enclosing span.  A module
that imported a function by name holds its own reference, so the wrapper
is put into every selfsim namespace that holds the original; a call
through any of them is then recorded.

Per-step helpers are left unwrapped on purpose: `boundary.zeta` and the
witness lookups under it run about 1.5 million times in one `symbolic`
pass, so spans on them would cost as much as the work.  Their time counts
as self time of the wrapped caller (for zeta, `boundary.z_action`).

Spans live in flat arrays while the workload runs and are folded into
per-name call counts, inclusive time and self time afterwards.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
import types
from array import array

SPANS = {
    "core": ("parse_spec_file", "make_spec"),
    "elements": ("parse_word", "multiply", "power", "section_at", "is_trivial",
                 "equal_elements", "order_probe", "phi_lift", "theta_stabilize"),
    "permq": ("level_perm", "tree_pivot_basis", "group_chain", "chain_from", "build_chain",
              "derived_chain", "rigid_stab_level", "closure_order", "density_check",
              "stab_in_derived_check", "branch_pair_check"),
    "boundary": ("act_ray", "z_action", "schreier_ball", "dot_export", "hq_properness_certificate"),
    "recsys": ("build_conjugator", "rec_level_perm", "conjugation_disagreement_level"),
    "analysis": ("classify", "hq", "identity_suite", "line_screen", "reduction_trace",
                 "count_finite_index_maximals"),
    "cli": ("main",),
}

# Methods are not module-level functions, so they are wrapped by name.
METHODS = {"permq": {"PermChain": ("sift",)}}

ROOT = "bench.phase"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log_p(order: int, p: int) -> int:
    k = 0
    while order > 1 and order % p == 0:
        order //= p
        k += 1
    return k


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.installed: set[str] = set()
        self.specs: list = []
        self._basis_depth = 0

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _hooks(self):
        def basis(args, out):
            self.count("permq.basis_pivots", _log_p(out[0], args[1]))

        def chain(args, out):
            self.count("permq.strong_gens", len(getattr(out, "strong_gens", ())))

        def decided(args, out):
            self.count("elements.letters_decided", len(args[0].letters))

        def spec(args, out):
            self.specs.append(out)

        return {
            "permq.tree_pivot_basis": basis,
            "permq.chain_from": chain,
            "permq.build_chain": chain,
            "permq.derived_chain": chain,
            "permq.rigid_stab_level": chain,
            "elements.is_trivial": decided,
            "core.parse_spec_file": spec,
            "core.make_spec": spec,
        }

    def _wrap_basis(self, fn, name, hook):
        """tree_pivot_basis also records the rise of peak RSS across its
        outermost calls."""
        inner = self._wrap(fn, name, hook)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._basis_depth:
                return inner(*args, **kwargs)
            before = _maxrss_mb()
            tracer._basis_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._basis_depth -= 1
                tracer.count("permq.basis_rss_rise_mb", _maxrss_mb() - before)

        return wrapper

    def install(self, package) -> None:
        """Wrap each function named in SPANS and METHODS that the program
        defines, and rebind it in every selfsim namespace that holds it."""
        mods = {m: getattr(package, m) for m in SPANS}
        namespaces = [package] + [sys.modules[name] for name in sorted(sys.modules)
                                  if name.startswith(package.__name__ + ".")]
        hooks = self._hooks()
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr in SPANS[short]:
                obj = vars(mod).get(attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name == "permq.tree_pivot_basis":
                        wrapped = self._wrap_basis(obj, name, hooks.get(name))
                    else:
                        wrapped = self._wrap(obj, name, hooks.get(name))
                    replaced[id(obj)] = wrapped
                    self.installed.add(name)
        for ns in namespaces:
            d = vars(ns)
            for attr, obj in list(d.items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(ns, attr, new)
        for short, classes in METHODS.items():
            mod = mods[short]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if isinstance(fn, types.FunctionType):
                        name = f"{short}.{meth}"
                        setattr(cls, meth, self._wrap(fn, name))
                        self.installed.add(name)

    # -- folding ------------------------------------------------------------

    def fold(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += dur[i]
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        span_name = self.span_name
        for i in range(n):
            name_id = span_name[i]
            st = stats[names[name_id]]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            par = parent[i]
            while par >= 0 and span_name[par] != name_id:
                par = parent[par]
            if par < 0:
                st["incl_s"] += dur[i]
        return stats
