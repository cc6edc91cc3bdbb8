"""Per-layer timing by wrapping sysarith's public functions from outside.

Each wrapped function gets a call count, an inclusive time (outermost calls
only, so a function reached again through its own callees is not counted
twice) and a self time (its spans minus the wrapped spans nested in them).
Spans are folded into these totals as they close instead of being kept:
the systole and Q(i) workloads make about a million wrapped calls.

The package mixes `module.func` calls with `from module import func`, so a
function is patched at every binding of it in every loaded sysarith module,
and each binding is put back by `uninstall`.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


class FuncStats:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps `targets` ("module.func" under sysarith) while installed.

    `observers` maps a target to a callable(args, kwargs, result) that is
    run after each successful call, to count the work a call did.
    """

    def __init__(self, targets, observers=None):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.stats = {name: FuncStats() for name in self.targets}
        self.top_s = 0.0  # time inside outermost wrapped spans
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []

    def _wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        observe = self.observers.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by wrapped children
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if st.depth == 0:
                    st.total_s += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers.append(wrapper)
        return wrapper

    def install(self) -> None:
        if self._wrappers:
            raise RuntimeError("a tracer installs once")
        modules = _sysarith_modules()
        for name in self.targets:
            mod_name, func_name = name.rsplit(".", 1)
            orig = getattr(importlib.import_module("sysarith." + mod_name), func_name)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Restore every patched binding and check that no wrapper is left."""
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []
        left = [f"{mod.__name__}.{attr}" for mod in _sysarith_modules()
                for attr, value in vars(mod).items()
                if any(value is w for w in self._wrappers)]
        if left:
            raise RuntimeError(f"bindings not restored: {left}")


def _sysarith_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "sysarith" or n.startswith("sysarith."))]
