"""Outside-in span tracer for ``chernlab``.

``Tracer.install`` wraps every public function defined in the layer modules
and every public method of ``chernforms.Homotopy``.  Modules bind each other's
functions with ``from .x import y``, so a wrapper replaces the function in
every ``chernlab`` namespace that binds it, not only in the defining module
(``periodicity.virtual_dimension`` and ``chernforms.differentiate`` are such
bindings).  ``uninstall`` restores the originals.

A span records its id, its parent's id, the name, start, end, self time
(its duration minus the time covered by its child spans) and the name of its
root span.  Calls are nested on
one thread, so children never overlap and the self times of a tree sum to
its root's duration.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYER_MODULES = (
    "builders",
    "kops",
    "geomgrid",
    "chernforms",
    "periodicity",
    "stiefel",
    "khat",
    "numkernel",
)


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, self time, name of the root span)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, time covered by children]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._stack.append([self._next_id, name, 0.0])
        self._next_id += 1
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        end = time.perf_counter()
        sid, name, covered = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        root = self._stack[0][1] if self._stack else name
        self.spans.append((sid, parent[0] if parent else None, name, start, end, end - start - covered, root))

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(start)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(start)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"chernlab.{short}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        namespaces = [m for n, m in sys.modules.items() if n == "chernlab" or n.startswith("chernlab.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        homotopy = importlib.import_module("chernlab.chernforms").Homotopy
        for attr, raw in list(vars(homotopy).items()):
            name = f"chernforms.Homotopy.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._patch(homotopy, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(homotopy, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -------------------------------------------------------

    def totals_by_root(self, root_name: str) -> tuple[int, float, dict, dict]:
        """Spans under every root called ``root_name``.

        Returns the number of such roots, their summed duration, and per span
        name the call count and summed self time (the root's own self time is
        listed under ``root_name``).
        """
        n_roots, duration = 0, 0.0
        calls: dict = {}
        self_s: dict = {}
        for sid, parent, name, start, end, own, root in self.spans:
            if root != root_name:
                continue
            if parent is None:
                n_roots += 1
                duration += end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
        return n_roots, duration, calls, self_s
