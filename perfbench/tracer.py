"""Per-layer tracing from the benchmark's side: wrappers, not edits to src/.

Each layer is one module of the package.  install() wraps every public
function of a layer in every module namespace that binds it (``cli`` and
``problems`` hold ``from .caput import count_caput`` and the like), and every
public class through ``__init__`` on the class itself, so every binding of
the class sees the wrapper.

A wrapper keeps, per name: calls, items delivered, total time, self time
(total minus the time of wrapped calls made inside it), failures (calls that
raised) and, where asked, a tracemalloc peak or the number of distinct
arguments.  Calls also leave spans (name, start, end, parent span, op id),
at most SPAN_CAP per op so memory stays bounded; class constructors and
generator steps run millions of times and leave counts only.  A generator
returned by a wrapped function is wrapped too: each next() is charged to the
function that made the generator, and the elements it yields are its items.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
import types

LAYERS = ("perm", "partitions", "caput", "problems", "genealogy", "oracle", "cli")

# derangements recurses through its own module global: a wrapper there would
# double the Python frames per level and move where RecursionError strikes.
UNWRAPPED = {"caput.derangements"}

PEAK = {"problems.solve"}
DISTINCT = {"oracle.count_caput_by_filter"}

SPAN_CAP = 256

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "items", "total_s", "self_s", "failed", "peak_kb", "keys", "exit2")

    def __init__(self) -> None:
        self.calls = self.items = self.failed = self.exit2 = 0
        self.total_s = self.self_s = self.peak_kb = 0.0
        self.keys: set | None = None

    def export(self) -> dict:
        out = {k: getattr(self, k) for k in self.__slots__ if k != "keys"}
        out["distinct"] = len(self.keys) if self.keys is not None else 0
        return out


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = None
        self._op_spans = 0
        self._next_span = 1
        # one frame per open wrapped call: [time of wrapped children, span id]
        self._stack: list[list] = [[0.0, None]]

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._op_spans = 0

    def _push(self, span: bool) -> float:
        parent = self._stack[-1][1]
        if span and self._op_spans < SPAN_CAP:
            self._op_spans += 1
            sid = self._next_span
            self._next_span += 1
            self._stack.append([0.0, sid])
        else:
            if span:
                self.spans_dropped += 1
            self._stack.append([0.0, parent])
        return clock()

    def _pop(self, name: str, stat: Stat, start: float, span: bool) -> None:
        end = clock()
        elapsed = end - start
        child_s, sid = self._stack.pop()
        stat.total_s += elapsed
        stat.self_s += elapsed - child_s
        self._stack[-1][0] += elapsed
        parent = self._stack[-1][1]
        if span and sid is not None and sid != parent:
            self.spans.append((self.op, sid, parent, name, start, end))

    def wrap(self, name: str, fn, span: bool = True):
        stat = self.stat(name)
        peak = name in PEAK
        if name in DISTINCT:
            stat.keys = set()
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stat.keys is not None:
                stat.keys.add(repr(args) + repr(sorted(kwargs.items())))
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            start = tracer._push(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                stat.calls += 1
                tracer._pop(name, stat, start, span)
                if own_peak:
                    stat.peak_kb = max(stat.peak_kb, tracemalloc.get_traced_memory()[1] / 1024)
                    tracemalloc.stop()
            if isinstance(result, types.GeneratorType):
                return tracer._steps(name, stat, result)
            if isinstance(result, list):
                stat.items += len(result)
            return result

        return traced

    def _steps(self, name: str, stat: Stat, gen):
        while True:
            start = self._push(False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._pop(name, stat, start, False)
            stat.items += 1
            yield item

    def export(self) -> dict:
        return {
            "stats": {name: s.export() for name, s in self.stats.items()},
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


def package_modules() -> list[types.ModuleType]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "combinatoria" or name.startswith("combinatoria."))
    ]


def rebind(original, replacement) -> int:
    """Point every package-level binding of ``original`` at ``replacement``."""
    count = 0
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _public(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None) == module.__name__]


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and classes."""
    for layer in LAYERS:
        module = importlib.import_module(f"combinatoria.{layer}")
        for attr in _public(module):
            name = f"{layer}.{attr}"
            obj = getattr(module, attr)
            if name in UNWRAPPED:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, enum.Enum) and "__init__" in vars(obj):
                    obj.__init__ = tracer.wrap(name, obj.__init__, span=False)
            elif inspect.isfunction(obj):
                if rebind(obj, tracer.wrap(name, obj)) == 0:
                    raise RuntimeError(f"{name} is bound nowhere")
