"""Span tracer that wraps the library's public functions from outside.

The library has no timers of its own yet, so the traced run replaces every
public function of the traced modules, at every module binding that holds
it (``invariants`` and ``tlink`` bind ``strand_profile`` by
``from .braid import``, and the package re-exports most names), with a
wrapper that records one span per call: name, start, end and parent.  The
two ``LorenzBraid`` properties that dominate the census are patched on the
class.  Generator functions (``build_atlas``, ``query_atlas``) get one span
per resume, so their self time is the time spent inside the generator body.

Spans stay in memory in one flat float array until the pass ends; self time
is span duration minus the time covered by direct child spans.  Counters
that give work done per layer are taken from the same wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("words", "braid", "tlink", "invariants", "jones", "modular", "flow", "cli")
# (module, class, property) patched on the class; named <module>.<property>
TRACED_PROPERTIES = (("braid", "LorenzBraid", "crossings"), ("braid", "LorenzBraid", "ear_counts"))
# console entry point: it calls sys.exit, so in-process callers never reach it
UNTRACED = {"cli.run"}
EXIT_CODES = ("0", "2", "3", "4", "uncaught")
SPAN_FIELDS = 4  # name id, parent index, start, end


def traced_modules(package) -> dict:
    return {short: importlib.import_module(f"{package.__name__}.{short}") for short in TRACED_MODULES}


def traced_names(package) -> list[str]:
    """``<module>.<function>`` for every function and property the tracer wraps."""
    names = []
    for short, module in traced_modules(package).items():
        for attr, value in vars(module).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                names.append(name)
    names.extend(f"{short}.{prop}" for short, _, prop in TRACED_PROPERTIES)
    return names


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self, package):
        self.package = package
        self.modules = traced_modules(package)
        self.cap_error = importlib.import_module(f"{package.__name__}.errors").ResourceCapError
        self.names = traced_names(package)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.spans = array("d")
        self.calls = [0] * len(self.names)
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "words.enumerate_words": self._on_enumerate,
            "braid.braid_of_words": self._on_braid,
            "cli.verify_record": self._on_verify,
            "jones.jones_of_braid": self._on_jones,
            "modular.dedekind_sum": self._on_dedekind,
            "flow.integrate": self._on_integrate,
            "cli.main": self._on_main,
        }

    # -- counters taken at the layer boundary ---------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_enumerate(self, args, kwargs, result, exc):
        if exc is None:
            self._count("words.words_enumerated", len(result))

    def _on_braid(self, args, kwargs, result, exc):
        if exc is None:
            self._count("braid.strands", result.n)

    def _on_verify(self, args, kwargs, result, exc):
        if exc is None:
            self._count("cli.records_verified")

    def _on_jones(self, args, kwargs, result, exc):
        self._count("jones.attempts")
        self._count("jones.crossings", len(args[0]))
        if exc is None:
            self._count("jones.polynomials")
        elif isinstance(exc, self.cap_error):
            self._count("jones.refused")

    def _on_dedekind(self, args, kwargs, result, exc):
        self._count("modular.dedekind_k", abs(args[1] if len(args) > 1 else kwargs["k"]))

    def _on_integrate(self, args, kwargs, result, exc):
        if exc is None:
            self._count("flow.rk4_steps", len(result) - 1)

    def _on_main(self, args, kwargs, result, exc):
        if exc is None:
            code = str(result)
        elif isinstance(exc, SystemExit) and isinstance(exc.code, int):
            code = str(exc.code)
        else:
            code = "uncaught"
        self._count(f"cli.exit_code.{code if code in EXIT_CODES else 'uncaught'}")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = float(self.ids[name])
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter
        hook = self._hooks.get(name)
        index = self.ids[name]

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                calls[index] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        at = len(spans)
                        spans.extend((nid, stack[-1], clock(), 0.0))
                        stack.append(at // SPAN_FIELDS)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spans[at + 3] = clock()
                            stack.pop()
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[index] += 1
            at = len(spans)
            spans.extend((nid, stack[-1], clock(), 0.0))
            stack.append(at // SPAN_FIELDS)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at + 3] = clock()
                stack.pop()

        if hook is None:
            return wrapper

        def hooked(*args, **kwargs):
            try:
                result = wrapper(*args, **kwargs)
            except BaseException as exc:
                hook(args, kwargs, None, exc)
                raise
            hook(args, kwargs, result, None)
            return result
        return hooked

    def install(self) -> None:
        """Wrap every traced function at every binding in the package."""
        package = self.package
        bindings = [
            module for name, module in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        properties = {f"{short}.{prop}" for short, _, prop in TRACED_PROPERTIES}
        for name in self.names:
            if name in properties:
                continue
            short, attr = name.split(".")
            original = getattr(self.modules[short], attr)
            wrapped = self._wrap(name, original)
            for module in bindings:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapped)
        for short, cls_name, prop in TRACED_PROPERTIES:
            cls = getattr(self.modules[short], cls_name)
            original = vars(cls)[prop]
            self._restore.append((cls, prop, original))
            setattr(cls, prop, property(self._wrap(f"{short}.{prop}", original.fget)))

    def uninstall(self) -> None:
        while self._restore:
            owner, binding, original = self._restore.pop()
            setattr(owner, binding, original)

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Total self time per traced name over the spans recorded so far."""
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, SPAN_FIELDS)
        names = table[:, 0].astype(np.int64)
        parents = table[:, 1].astype(np.int64)
        duration = table[:, 3] - table[:, 2]
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(table))
        return np.bincount(names, weights=duration - covered, minlength=len(self.names))

    def take_spans(self) -> array:
        """Hand over the recorded spans and start an empty buffer.

        Wrappers bind the buffer when installed, so call this only between
        ``uninstall`` and the next ``install``.
        """
        spans = self.spans
        self.spans = array("d")
        return spans
