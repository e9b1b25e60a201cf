"""Layer spans taken from outside the nftdev package.

A Tracer wraps every public function of the package's modules and
rebinds the name wherever a loaded ``nftdev`` module holds the original
(``engine.trim_with_maps``, ``reductions.trim``, the package namespace
and so on), so internal calls between layers pass through the wrappers
too.  The package source is never edited, and uninstalling restores every
binding.  Spans are kept in memory and summarized after the run.

A layer is the module that defines a function.  A span's self time is
its duration minus the durations of its child spans; the self times of
all spans of one query add up to the time its top-level spans cover.
Nothing in the package waits on a queue, lock or other thread, so no
span has a waiting part.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("textio", "core", "transform", "engine", "reductions", "gadgets", "oracle", "witness")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    query: int  # spans of one query share this id
    note: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _atomized_states(t) -> int:
    """States of atomize(t): one extra state per letter beyond the first
    on every transition that reads more than one letter."""
    return t.num_states + sum(max(len(tr.input) - 1, 0) for tr in t.transitions)


# Counts taken at a boundary, from the call's arguments and result; a pair
# is (kept, offered).
_OBSERVERS = {
    "textio.parse_nft": lambda args, res: (len(args[0]),),
    "transform.trim_with_maps": lambda args, res: (res[0].num_states, args[0].num_states),
    "reductions.comparison_to_deviation": lambda args, res: (
        res.num_states,
        _atomized_states(args[0]) * _atomized_states(args[1]),
    ),
    "oracle.brute_force_deviation": lambda args, res: (int(res.saturated),),
}


class Tracer:
    """Records a span around each call of a wrapped nftdev function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        """Wrap the public functions of every layer module that imports.

        A module or function that no longer exists is skipped; the
        metrics derived from it are then absent, not an error.
        """
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"nftdev.{layer}")
            except ImportError:
                continue
            for fname, fn in vars(module).copy().items():
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._rebind(fn, self.wrap(f"{layer}.{fname}", layer, fn))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _rebind(self, original, wrapper):
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == "nftdev" or mname.startswith("nftdev.")):
                continue
            for attr, value in vars(module).copy().items():
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))
        self.wrapped.add(f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}")

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with a span recorded around each call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.query)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.note = observe(args, result)
            return result

        return wrapper


@dataclass
class Summary:
    """Span totals over a set of queries."""

    self_s: dict[str, float]  # layer -> self time
    inclusive_s: dict[str, float]  # layer -> time of its outermost spans
    fn_s: dict[str, float]  # function -> time of its outermost spans
    fn_calls: dict[str, int]  # function -> number of calls
    fn_self_s: dict[str, float]  # function -> self time
    top_s: dict[int, float]  # query -> time covered by its top-level spans
    notes: dict[str, list[tuple]]  # function -> observed counts


def summarize(spans: list[Span]) -> Summary:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    fn_s: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    fn_self_s: dict[str, float] = {}
    top_s: dict[int, float] = {}
    notes: dict[str, list[tuple]] = {}
    for i, s in enumerate(spans):
        own = s.seconds - child[i]
        self_s[s.layer] = self_s.get(s.layer, 0.0) + own
        fn_self_s[s.name] = fn_self_s.get(s.name, 0.0) + own
        fn_calls[s.name] = fn_calls.get(s.name, 0) + 1
        if s.note:
            notes.setdefault(s.name, []).append(s.note)
        if s.parent < 0:
            top_s[s.query] = top_s.get(s.query, 0.0) + s.seconds
        same_layer = same_fn = False
        p = s.parent
        while p >= 0:
            same_layer = same_layer or spans[p].layer == s.layer
            same_fn = same_fn or spans[p].name == s.name
            p = spans[p].parent
        if not same_layer:
            inclusive_s[s.layer] = inclusive_s.get(s.layer, 0.0) + s.seconds
        if not same_fn:
            fn_s[s.name] = fn_s.get(s.name, 0.0) + s.seconds
    return Summary(self_s, inclusive_s, fn_s, fn_calls, fn_self_s, top_s, notes)
