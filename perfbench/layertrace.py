"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module that exists at run time, and rebinds each reference to it in the
layer modules and in the package namespace, so a call through
``from .x import f`` is caught as well as one through ``x.f``.  Names that
a later version drops are simply not wrapped, and their metrics are left
out.  Private helpers are never touched.

Each wrapped call is a span.  A function's time is inclusive; a layer's
time counts only its outermost spans, so nested calls inside one layer are
not counted twice; a layer's self time is its time minus the spans of other
layers directly below it.  ``roof`` finds its kernels through the
``kernels`` module attribute at call time, so wrapping ``kernels`` sees
every kernel call the minimizer makes.
"""
from __future__ import annotations

import copy
import functools
import importlib
from time import perf_counter

LAYERS = ("kernels", "roof", "invariants", "ghzw", "slocc", "states", "io", "cli")


def _public_functions(package_name, layer, module):
    """Public callables defined by ``module`` or by a private module behind it."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        origin = getattr(obj, "__module__", None) or ""
        if origin == module.__name__ or origin.startswith(package_name + "._"):
            yield attr, obj


class Tracer:
    def __init__(self, package):
        self._package = package
        self._stack: list = []
        self._patches: list = []
        self.functions: dict = {}     # "layer.name" -> [calls, seconds, rows]
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def install(self) -> None:
        name = self._package.__name__
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{name}.{layer}")
            except ImportError:
                continue
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in _public_functions(name, layer, module):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{attr}"))
        for namespace in (self._package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patches):
            setattr(namespace, attr, obj)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {"functions": copy.deepcopy(self.functions),
                "layer_s": dict(self.layer_s), "self_s": dict(self.self_s)}

    def _wrap(self, fn, layer, qualname):
        stats = self.functions[qualname] = [0, 0.0, 0]
        count_rows = layer == "kernels"
        stack, layer_s, self_s = self._stack, self.layer_s, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                if count_rows and args:
                    stats[2] += len(args[0])
                self_s[layer] += dt - frame[1]
                if outermost:
                    layer_s[layer] += dt
                if stack:
                    stack[-1][1] += dt

        return span
