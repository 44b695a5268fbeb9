"""Outside-in tracer for the fracrel modules.

``install()`` wraps every public function and every public method of a
public class defined in a ``fracrel`` module, and rebinds each module
attribute that held the original object.  The rebinding matters because
the modules bind names at import time (``from .special import
macdonald_k`` in ``operator``, ``from .grid import require_seam_decay`` in
``heat``), so wrapping only the defining module would miss those calls.

Each wrapped call is one span.  Spans are aggregated in memory per name:
call count and self time (the span's duration minus the time of the spans
it directly caused).  ``numpy.fft`` transforms are counted, not timed, so
they do not change their callers' self time.  Nothing here changes what a
wrapped function computes.
"""
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
             "irfftn")


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, self_s]
        self.counts = {"fft.calls": 0, "fft.points": 0,
                       "special.macdonald_k.points": 0}
        self.top_level_s = 0.0
        self._child_s = []     # per open span: time spent in its children

    def span(self, name, func):
        stats = self.stats.setdefault(name, [0, 0.0])
        child_stack = self._child_s
        counts = self.counts
        # points evaluated by macdonald_k(nu, z, ...): the size of z
        count_points = name == "special.macdonald_k"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count_points:
                z = args[1] if len(args) > 1 else kwargs["z"]
                counts["special.macdonald_k.points"] += int(np.size(z))
            child_stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                inner = child_stack.pop()
                stats[0] += 1
                stats[1] += dur - inner
                if child_stack:
                    child_stack[-1] += dur
                else:
                    self.top_level_s += dur
        return wrapper

    def fft_counter(self, kind, func):
        counts = self.counts
        # points are the samples on the signal side of the transform: the
        # real input of a forward real transform, the output otherwise
        forward_real = kind in ("rfft", "rfftn")

        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            out = func(a, *args, **kwargs)
            counts["fft.calls"] += 1
            counts["fft.points"] += int(np.size(a) if forward_real
                                        else out.size)
            return out
        return wrapper

    def summary(self):
        out = dict(self.counts)
        for name, (calls, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        out["trace.top_level_s"] = self.top_level_s
        return out


def _fracrel_modules():
    import fracrel
    mods = [fracrel]
    for info in pkgutil.iter_modules(fracrel.__path__):
        mods.append(importlib.import_module(f"fracrel.{info.name}"))
    return mods


def _short(mod_name):
    return mod_name.split(".", 1)[1] if "." in mod_name else mod_name


def _wrap_targets(mods):
    """Public functions as (function, span name), and public class members
    as (class, attribute, raw member, span name)."""
    funcs, methods = [], []
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                funcs.append((obj, f"{_short(mod.__name__)}.{attr}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, raw in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    methods.append((obj, mname, raw,
                                    f"{_short(mod.__name__)}.{attr}.{mname}"))
    return funcs, methods


def install(tracer):
    """Wrap the fracrel API and the numpy.fft transforms in place."""
    mods = _fracrel_modules()
    funcs, methods = _wrap_targets(mods)
    replacement = {}
    for func, name in funcs:
        if id(func) not in replacement:
            replacement[id(func)] = tracer.span(name, func)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            new = replacement.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)
    for cls, mname, raw, name in methods:
        if isinstance(raw, staticmethod):
            setattr(cls, mname, staticmethod(tracer.span(name, raw.__func__)))
        elif isinstance(raw, classmethod):
            setattr(cls, mname, classmethod(tracer.span(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, mname, tracer.span(name, raw))
    for kind in FFT_FUNCS:
        setattr(np.fft, kind, tracer.fft_counter(kind, getattr(np.fft, kind)))
