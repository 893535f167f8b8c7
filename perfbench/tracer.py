"""Timers and counters around the layer boundaries of sure_lab.

`Tracer` replaces each traced function in every `sure_lab` module that holds
it, so both call styles are caught: `montecarlo` calls `derive_stream` by the
name it imported, while `cli` calls `montecarlo.run_experiment` through the
module. Leaving the `with` block puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# Layer modules and the private helpers that mark a layer boundary; every
# public function defined in a layer module is traced as well.
LAYERS = ("smoothers", "sequence_model", "criteria", "montecarlo", "cli")
PRIVATE_BOUNDARIES = {"cli": ("_load_json", "_write_report")}

_MARK = "__perfbench_traced__"


def _sure_lab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sure_lab" or name.startswith("sure_lab."))]


def traced_functions():
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"sure_lab.{layer}"]
        for name, value in vars(mod).items():
            public = not name.startswith("_") or name in PRIVATE_BOUNDARIES.get(layer, ())
            if public and inspect.isfunction(value) and value.__module__ == mod.__name__:
                out.append((layer, name, value))
    return out


def leftover_wrappers():
    """Names in sure_lab modules still bound to a tracer wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _sure_lab_modules()
            for attr, value in vars(mod).items() if getattr(value, _MARK, False)]


class Tracer:
    """Per-function call count, inclusive seconds and failures while active.

    Entering the `with` block clears the counts of the previous one.

    A failure is counted only at the outermost traced call of a layer, so an
    exception that passes through several functions of one layer counts once.
    Seconds from worker threads add up, so they are busy time, not wall time.
    """

    def __init__(self):
        self.stats = {}  # "layer.name" -> [calls, seconds, failures]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    def get(self, key):
        """(calls, seconds, failures) of one traced function, "layer.name"."""
        return tuple(self.stats.get(key, (0, 0.0, 0)))

    def failures(self, layer):
        """Failed outermost calls into `layer`."""
        return sum(v[2] for k, v in self.stats.items() if k.startswith(f"{layer}."))

    def _wrap(self, layer, name, func):
        key = f"{layer}.{name}"
        local = self._local
        lock = self._lock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", None)
            if depth is None:
                depth = local.depth = {}
            outermost = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            failed = False
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                failed = outermost
                raise
            finally:
                elapsed = time.perf_counter() - start
                depth[layer] -= 1
                with lock:
                    entry = self.stats.setdefault(key, [0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += failed

        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self):
        self.stats = {}
        modules = _sure_lab_modules()
        for layer, name, func in traced_functions():
            wrapper = self._wrap(layer, name, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, func))
        return self

    def __exit__(self, *exc):
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched = []
        return False
