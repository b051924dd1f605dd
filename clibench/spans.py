"""Per-function spans around the public functions of the ``qconstel`` modules.

The tracer wraps each public function from outside the package and binds
the wrapper at every import site: a function imported by name into another
module (``from .estimation import outcome_probabilities`` in
``simulate``) is a separate binding, and builder lambdas look names up in
their defining module's globals at call time, so every module dict that
holds the original object is patched.  ``remove`` puts every original
binding back.

A span's self time is its duration minus the durations of the spans it
directly caused.  ``cli`` is traced through ``main`` only, so ``cli``
self time is argument parsing, config resolution, hashing and output
formatting.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

PACKAGE = "qconstel"
SCOPE = "simulate.mle_1d"  # ``calls_within`` counts calls made inside this function


def _package_modules() -> list[types.ModuleType]:
    prefix = PACKAGE + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))]


def _targets() -> dict[str, object]:
    """``layer.function`` -> original function, for every public function."""
    out = {}
    for mod in _package_modules():
        layer = mod.__name__.rpartition(".")[2]
        if mod.__name__ == PACKAGE or layer.startswith("_"):
            continue
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and (layer != "cli" or name == "main")):
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Counts calls and total and self seconds per traced function.

    ``stats[name]`` is ``[calls, total_s, self_s]``.  ``calls_within[name]``
    counts the calls of ``name`` made while a ``SCOPE`` span was open.
    Stats add up over successive installs.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.calls_within: dict[str, int] = {}
        self._stack: list[float] = []
        self._scope_depth = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        targets = _targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_scope = name == SCOPE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._scope_depth:
                self.calls_within[name] = self.calls_within.get(name, 0) + 1
            if is_scope:
                self._scope_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if is_scope:
                    self._scope_depth -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced
