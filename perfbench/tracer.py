"""In-memory span recorder that wraps cycletheta's public functions from outside.

A span is ``(id, parent_id, name, start_ns, end_ns, tag)``.  Names are
``<module>.<function>``; the module part is the layer.  ``install()`` replaces
each public function of every cycletheta module, in the defining module and in
every module (and the package namespace) that imported the same object, so
calls such as ``verify.heegner_cycle`` are timed too.  Nothing in the library
is edited on disk, and the library runs unwrapped unless ``install()`` ran.

Tags carry work counts read from return values and cache hits read from
``cache_info()``; they are computed after the span's end time is taken.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types

MODULES = ("quadlattice", "enumeration", "cyclotomic", "weilrep", "heegner",
           "eisenstein", "verify", "cli")


def _theta_vectors(series) -> int:
    return sum(c for pairs in series.components.values() for _, c in pairs)


# name -> tagger(args, result) -> JSON-able tag (counts and input sizes).
TAGGERS = {
    "enumeration.rep_number": lambda a, r: {"vectors": r},
    "enumeration.vectors_with_norm": lambda a, r: {"vectors": len(r)},
    "enumeration.theta_qseries": lambda a, r: {"vectors": _theta_vectors(r)},
    "enumeration.inner_product_histogram": lambda a, r: {"pairs": sum(r.values())},
    "heegner.heegner_cycle": lambda a, r: {"N": a[0], "d": a[2], "classes": len(r.points)},
    "weilrep.verify_relations": lambda a, r: {"D": a[0].order},
    "weilrep.WeilRepMatrix.__matmul__": lambda a, r: {"D": r.size},
    "eisenstein.local_density": lambda a, r: {
        "p": a[1], "rank": a[0].rank, "levels": len(r.approximations),
        "k0": r.threshold, "generic": a[0].det % a[1] == 0,
    },
    "quadlattice.discriminant_form": lambda a, r: {"cosets": r.order},
    "verify.suite_cup_product": lambda a, r: {"lattice": a[0] if a else "A2"},
    "cli.ResultCache.get": lambda a, r: {"found": r is not None},
}

# lru caches whose hit ratios the per-layer report reads at exit.
CACHES = ("enumeration.theta_qseries", "enumeration.inner_product_histogram",
          "heegner.heegner_cycle", "heegner.gamma0_classes", "eisenstein.hurwitz",
          "eisenstein.cohen_number", "eisenstein.reduced_forms")

# Methods that are layer boundaries although they are not module functions.
METHODS = (("weilrep", "WeilRepMatrix", "__matmul__"),
           ("cli", "ResultCache", "get"),
           ("cli", "ResultCache", "put"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 1
        self.caches: dict[str, object] = {}

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, tag))

    def wrap(self, fn, name: str):
        tagger = TAGGERS.get(name)
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = info().hits if info is not None else 0
            sid, parent = self._open()
            result, failed = None, True
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                if failed:
                    tag = {"error": True}
                elif info is not None and info().hits > hits:
                    tag = {"hit": True}
                else:
                    tag = tagger(args, result) if tagger is not None else None
                self.spans.append((sid, parent, name, t0, t1, tag))

        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded cycletheta module."""
        mods = {m: importlib.import_module(f"cycletheta.{m}") for m in MODULES}
        importers = [sys.modules["cycletheta"], *mods.values()]
        for name in CACHES:
            short, attr = name.split(".")
            self.caches[name] = getattr(mods[short], attr)
        for short, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if not _is_function(obj, mod):
                    continue
                traced = self.wrap(obj, f"{short}.{attr}")
                for other in importers:
                    if getattr(other, attr, None) is obj:
                        setattr(other, attr, traced)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{cls_name}.{meth}"))

    def cache_info(self) -> dict:
        return {name: fn.cache_info()._asdict() for name, fn in self.caches.items()}

    def dump(self, path: str) -> None:
        """Append one JSON line per span, then a line with cache statistics."""
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"caches": self.cache_info()}) + "\n")


def _is_function(obj, mod) -> bool:
    """A function or lru_cache wrapper defined in ``mod`` (not a class or
    click command)."""
    return getattr(obj, "__module__", None) == mod.__name__ and (
        isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))
