"""Per-layer tracing of `chaintrace`, installed from outside the package.

`install()` wraps the public entry points of every package module:

* methods are patched on their class;
* module-level functions are rebound, by identity, in every
  `chaintrace.*` module that holds them (`graded_trace`, for one, is
  imported by `search`, `ses`, `detline` and `cli`);
* generators (`iter_all`, `iter_solutions`) get one span per resume.

A span records its name, start, end and the span that was open when it
began.  Spans live in flat arrays until the run ends; a layer's self time
is the sum over its spans of the span's duration minus the durations of
its direct children.  Hot constructors (`RingElem`, `Matrix`) only bump a
counter.  Nothing here runs unless the traced run asks for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (module, class or None, attribute, span name, counter name): an entry
# point either opens a span or, with no span name, only bumps a counter
ENTRY_POINTS = [
    ("rings", "RingElem", "__post_init__", None, "rings.elem_new"),
    ("rings", "RingElem", "inverse", "rings.inverse", None),
    ("linalg", "Matrix", "__post_init__", None, "linalg.matrix_new"),
    ("linalg", "Matrix", "__matmul__", "linalg.matmul", None),
    ("linalg", "Matrix", "det", "linalg.det", None),
    ("linalg", "LinearSolver", "__init__", "linalg.factor", None),
    ("linalg", "LinearSolver", "solve", "linalg.query", None),
    ("linalg", "LinearSolver", "coset_key", "linalg.query", None),
    ("linalg", "LinearSolver", "is_solvable", "linalg.query", None),
    ("linalg", "LinearSolver", "sample_solution", "linalg.query", None),
    ("linalg", "LinearSolver", "iter_solutions", "linalg.query", None),
    ("complexes", "ChainMapSpace", "__init__", "complexes.space", None),
    ("complexes", "ChainMapSpace", "iter_all", "complexes.enum", None),
    ("complexes", "ChainMapSpace", "sample", "complexes.enum", None),
    ("complexes", "ChainMap", "__matmul__", "complexes.compose", None),
    ("complexes", "ChainMap", "validate", "complexes.validate", None),
    ("complexes", "PerfectComplex", "validate", "complexes.validate", None),
    ("homotopy", "NullHomotopyProblem", "__init__", "homotopy.problem", None),
    ("homotopy", "NullHomotopyProblem", "coset_key", "homotopy.coset_key",
     None),
    ("homotopy", "NullHomotopyProblem", "solve_for", "homotopy.solve_for",
     None),
    ("homotopy", None, "graded_trace", "homotopy.trace", None),
    ("ses", None, "make_extension", "ses.extension", None),
    ("ses", "CocycleSpace", "__init__", "ses.cocycle", None),
    ("ses", "CocycleSpace", "iter_all", "ses.cocycle", None),
    ("ses", "CocycleSpace", "sample", "ses.cocycle", None),
    ("ses", None, "check_triple", "ses.check_triple", None),
    ("ses", None, "connecting_map", "ses.connecting", None),
    ("ses", None, "connecting_square", "ses.connecting", None),
    ("ses", None, "validate_ses", "ses.validate", None),
    ("generate", None, "random_matrix", "generate.sample", None),
    ("generate", None, "random_complex", "generate.sample", None),
    ("generate", None, "random_chain_map", "generate.sample", None),
    ("generate", None, "random_chain_endo", "generate.sample", None),
    ("generate", None, "random_homotopy", "generate.sample", None),
    ("generate", None, "random_cocycle", "generate.sample", None),
    ("generate", None, "random_extension", "generate.sample", None),
    ("generate", None, "random_strict_triple", "generate.sample", None),
    ("search", None, "search_violation", "search", None),
    ("search", None, "build_counterexample", "search", None),
    ("search", None, "wrap_instance", "search", None),
    ("search", None, "certify", "search.certify", None),
    ("detline", None, "det_of_automorphism", "detline.det", None),
    ("detline", None, "det_trace_bridge", "detline.bridge", None),
    ("textio", None, "parse_document", "textio.parse", None),
    ("textio", None, "parse_matrix", "textio.parse", None),
    ("textio", None, "parse_ring", "textio.parse", None),
    ("textio", None, "ses_file", "textio.format", None),
    ("textio", None, "complex_file", "textio.format", None),
    ("textio", None, "format_complex", "textio.format", None),
    ("textio", None, "format_matrix", "textio.format", None),
    ("cli", None, "run", "cli.run", None),
]

GENERATORS = {"iter_all", "iter_solutions"}
# the tracer's own bookkeeping inside a traced call; not a layer
HOOK_SPAN = "tracer.hook"


class Tracer:
    """Span store, counters and the wrappers that feed them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.active = True
        # side measurements of single layers
        self.factored: set[int] = set()
        self.max_cells = 0
        self.solved = 0
        # every wrapped original, for the self-test
        self.originals: list[object] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run the body without recording (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        hook_nid = self._name_id(HOOK_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                # a span of its own, so no layer's self time absorbs it
                idx = self._enter(hook_nid)
                hook(self, args, result)
                self._exit(idx)
            return result

        return wrapper

    def _generator_wrapper(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.active:
                return inner
            return self._resumes(inner, nid)

        return wrapper

    def _resumes(self, inner, nid: int):
        try:
            while True:
                idx = self._enter(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                yield item
        finally:
            inner.close()

    def _count_wrapper(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS; see the module doc."""
        for mod_name in {entry[0] for entry in ENTRY_POINTS}:
            importlib.import_module(f"chaintrace.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chaintrace" or n.startswith("chaintrace.")]
        for mod_name, cls_name, attr, span, counter in ENTRY_POINTS:
            home = sys.modules[f"chaintrace.{mod_name}"]
            owner = getattr(home, cls_name) if cls_name else home
            original = owner.__dict__[attr]
            if counter is not None:
                wrapper = self._count_wrapper(original, counter)
            elif attr in GENERATORS:
                wrapper = self._generator_wrapper(original, span)
            else:
                wrapper = self._span_wrapper(original, span)
            self.originals.append(original)
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def unwrapped_leftovers(self) -> list[str]:
        """Every place in a chaintrace module or class that still holds
        an original after install(); empty when installation is complete."""
        originals = {id(orig) for orig in self.originals}
        found = []
        for name, mod in sorted(sys.modules.items()):
            if name != "chaintrace" and not name.startswith("chaintrace."):
                continue
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{name}.{key}")
                if isinstance(value, type) and value.__module__ == name:
                    found += [f"{name}.{key}.{attr}"
                              for attr, member in vars(value).items()
                              if id(member) in originals]
        return found

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (span count, self seconds)}."""
        n = len(self.span_start)
        start, end = self.span_start, self.span_end
        parent, names = self.span_parent, self.span_name
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        count = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            count[nid] += 1
            self_ns[nid] += end[i] - start[i] - child_ns[i]
        return {name: (count[i], self_ns[i] / 1e9)
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """Dump the spans: one JSON header line (span names and count),
        then the name-id, start, end and parent-index arrays as raw machine
        words (array codes i, q, q, i; parent -1 for a root span)."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.span_start)}
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                column.tofile(out)


def _on_factor(tracer: Tracer, args, _result) -> None:
    """LinearSolver.__init__(self, mat): track distinct matrices (by hash)
    and the largest lifted system (a Z/m[e] system doubles both sides)."""
    mat = args[1]
    tracer.factored.add(hash(mat))
    cells = mat.rows * mat.cols * (4 if mat.ring.has_epsilon else 1)
    tracer.max_cells = max(tracer.max_cells, cells)


def _on_solve_for(tracer: Tracer, _args, result) -> None:
    if result is not None:
        tracer.solved += 1


_HOOKS = {"linalg.factor": _on_factor, "homotopy.solve_for": _on_solve_for}
