"""Spans around picod's public functions, installed from outside the package.

The tracer replaces a public function's name in every ``picod.*`` module
that binds it, so calls made inside the package (``bounds`` calling
``is_valid``, ``verifier`` calling ``gf_rref``) are recorded as well as the
benchmark's own calls.  ``src/`` is never edited.  Spans are kept in memory
as parallel arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs whose calls become spans.  The module is the one
# that defines the function; every picod module that imports the same
# object is rebound too.
TARGETS = (
    ("cli", "main"),
    ("instance", "build_complete_s"),
    ("coding", "gf_rref"),
    ("coding", "mds_rows"),
    ("coding", "build_partition_scheme"),
    ("verifier", "is_valid"),
    ("verifier", "decodable_closure"),
    ("verifier", "min_linear_length_exhaustive"),
    ("bounds", "min_mais_lower_bound"),
    ("bounds", "full_report"),
    ("bounds", "best_chain_bound"),
    ("bounds", "closed_form_length"),
    ("hypergraph", "network_topology"),
    ("hypergraph", "has_one_factor"),
    ("hypergraph", "circular_arc_scheme_with_trace"),
    ("oracles", "sweep_intersection_families"),
    ("oracles", "intersection_family_witness"),
    ("oracles", "averaging_pair"),
    ("oracles", "random_averaging_suite"),
    ("oracles", "block_cover_impossibility"),
)


def _counts(name, args, kwargs, result):
    """Work counts recorded at the span boundary, read from inputs or outputs."""
    if name == "instance.build_complete_s":
        return {"instance.users_built": result.n}
    if name == "verifier.is_valid":
        inst = args[1] if len(args) > 1 else kwargs["inst"]
        return {"verifier.users_checked": inst.n}
    if name == "hypergraph.has_one_factor":
        return {"hypergraph.factors_found": int(result is not None)}
    if name == "oracles.sweep_intersection_families":
        return {"oracles.families_checked": result.families,
                "oracles.distinct_keys": result.distinct_keys}
    if name == "oracles.block_cover_impossibility":
        return {"oracles.collections_checked": result.collections_checked}
    return None


class Tracer:
    """Records (name, start, end, parent span, op id) for every wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: list[tuple[int, str, int]] = []  # (span, counter, value)
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            try:
                counted = _counts(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # picod changed this function's signature or result; the
                # op must not fail because of the tracer
                tracer.uncounted.add(name)
                counted = None
            if counted:
                for key, value in counted.items():
                    tracer.counts.append((idx, key, value))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Rebind every target in every loaded picod module; note missing ones."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        homes = {}
        for module_name in {m for m, _ in TARGETS}:
            try:
                homes[module_name] = importlib.import_module(f"picod.{module_name}")
            except ImportError:
                pass
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "picod" or key.startswith("picod."))]
        self.absent = []
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            original = getattr(homes.get(module_name), func_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    self._saved.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)

    def uninstall(self) -> None:
        for mod, func_name, original in reversed(self._saved):
            setattr(mod, func_name, original)
        self._saved = []

    # ---------- analysis ----------

    def has_ancestor(self, idx: int, name: str) -> bool:
        target = self.name_ids.get(name)
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == target:
                return True
            parent = self.span_parent[parent]
        return False

    def write(self, path) -> None:
        """Gzipped text: a JSON header with the span names and absent targets,
        then one line per span: index, name index, start, end, parent, op id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for idx in range(len(self.span_start)):
                out.write("%d %d %.9f %.9f %d %d\n" % (
                    idx, self.span_name[idx], self.span_start[idx],
                    self.span_end[idx], self.span_parent[idx], self.span_op[idx]))
