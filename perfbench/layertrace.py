"""Outside-in tracing of weylbvp for the benchmark.

``Tracer.install()`` replaces the public functions and class methods of the
traced weylbvp modules, every alias other weylbvp modules hold of them (for
example the names ``cli`` and ``solver`` import from ``elliptic``), and the
dense numpy/scipy linear-algebra entry points with thin wrappers.
``uninstall()`` puts the originals back.  Nothing under ``src/`` is edited.

A wrapped weylbvp call records a span (name, start, end, parent, op) in
memory.  A wrapped linear-algebra call opens no span; it adds one call, its
computed work m*n*min(m, n) (from the argument shape) and its time to the
innermost open span, so a layer's self time includes the kernels it calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from functools import cached_property
from pathlib import Path

TRACED_MODULES = ("cli", "elliptic", "krein", "triple", "opfunc", "realize", "solver")

# numpy.linalg / scipy.linalg entry point -> kernel family
KERNELS = {
    "svd": "svd", "matrix_rank": "svd",
    "solve": "solve",
    "lstsq": "lstsq",
    "pinv": "pinv",
    "eig": "eig", "eigvals": "eig",
    "eigh": "eigh", "eigvalsh": "eigh",
    "inv": "inv",
    "norm": "norm2",   # counted only for matrix 2-norms, which run an SVD
}


def _work(args, kwargs) -> int:
    """m*n*min(m, n) of the first matrix argument, times its batch size."""
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * m * n * min(m, n)


def _is_matrix_2norm(args, kwargs) -> bool:
    x = args[0] if args else kwargs.get("x")
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return order in (2, -2) and getattr(x, "ndim", 0) == 2


class Tracer:
    """Span recorder and linear-algebra counter for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.op = None                # label attached to spans opened now
        # (kernel, innermost span name, op phase) -> [calls, work, seconds]
        self.kernels: dict = defaultdict(lambda: [0, 0, 0.0])
        self._patches: list = []      # (owner, key, original, is_dict)

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _kernel(self, family: str, fn):
        spans, stack, kernels = self.spans, self._stack, self.kernels
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or (family == "norm2" and not _is_matrix_2norm(args, kwargs)):
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = spans[stack[-1]]
                entry = kernels[(family, span[0], _phase(span[4]))]
                entry[0] += 1
                entry[1] += _work(args, kwargs)
                entry[2] += clock() - t0

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, owner, key, value, is_dict=False):
        original = owner[key] if is_dict else owner.__dict__[key]
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"weylbvp.{short}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, Exception):
                        self._wrap_class(short, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._span(f"{short}.{name}", obj)
        # swap every alias of a wrapped function across the whole package,
        # including dispatch tables such as cli.ACTIONS
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "weylbvp" or modname.startswith("weylbvp.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            self._set(obj, key, replaced[id(val)], is_dict=True)
        for owner in (numpy.linalg, scipy.linalg):
            for name, family in KERNELS.items():
                if name in vars(owner):
                    self._set(owner, name, self._kernel(family, vars(owner)[name]))

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, property):
                self._set(cls, attr, property(self._span(name, obj.fget), obj.fset,
                                              obj.fdel, obj.__doc__))
            elif isinstance(obj, cached_property):
                wrapped = cached_property(self._span(name, obj.func))
                wrapped.__set_name__(cls, attr)
                self._set(cls, attr, wrapped)
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._span(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._span(name, obj.__func__)))
            elif callable(obj):
                self._set(cls, attr, self._span(name, obj))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> dict:
        """(span name, phase) -> [calls, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _, op) in enumerate(self.spans):
            entry = out[(name, _phase(op))]
            entry[0] += 1
            entry[1] += (end - start) - child[k]
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans, the self-time table and the kernel attribution."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_time": [{"name": n, "phase": p, "calls": c, "self_s": s}
                          for (n, p), (c, s) in sorted(self.self_times().items())],
            "kernels": [{"kernel": k, "span": n, "phase": p, "calls": c,
                         "work_computed": w, "seconds": s}
                        for (k, n, p), (c, w, s) in sorted(self.kernels.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def wrapper_costs() -> tuple[float, float]:
    """Seconds a span wrapper and a counted kernel wrapper each add to one
    call: the time of a wrapped no-op minus that of the bare no-op, median of
    5 rounds of 10 000 calls."""
    import numpy as np

    def noop(a):
        return a

    def per_call(fn) -> float:
        a = np.zeros((2, 2))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(10000):
                fn(a)
            times.append((time.perf_counter() - t0) / 10000)
        return statistics.median(times)

    tracer = Tracer()
    span = tracer._span("calibrate", noop)
    kernel = tracer._kernel("solve", noop)
    bare = per_call(noop)
    span_s = per_call(span) - bare
    tracer.spans.append(["calibrate", 0.0, None, -1, None])   # a kernel counts inside a span
    tracer._stack.append(len(tracer.spans) - 1)
    return span_s, per_call(kernel) - bare


def _phase(op) -> str:
    return op[0] if isinstance(op, tuple) else "other"
