"""Outside-in span tracer for the speclab modules.

`Tracer.install` replaces every public function of the given modules with a
wrapper that records one span per call: name, start, end, parent span and
the process's peak RSS (``ru_maxrss``) before and after.  The wrapper is
bound under every module attribute that held the original function, so a
name imported with ``from .grids import bilinear_pair`` is traced too.
Spans stay in memory until `write_jsonl` is called at the end of a pass.

`layer_summary` reduces spans to per-layer and per-function figures.  A
span's self time is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap and their sum is the
time they cover.  Self RSS growth is defined the same way.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import time
from dataclasses import dataclass


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    rss_start_kb: int
    rss_end_kb: int
    key: object = None


class Tracer:
    """Records spans for calls into wrapped functions of one process."""

    def __init__(self, pass_id=0, keyfns=None, clock=time.perf_counter):
        self.pass_id = pass_id
        self.spans = []
        self._keyfns = dict(keyfns or {})
        self._clock = clock
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        keyfn = self._keyfns.get(name)
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            key = keyfn(*args, **kwargs) if keyfn is not None else None
            spans.append(None)
            stack.append(idx)
            rss0 = _maxrss_kb()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, rss0, _maxrss_kb(), key)

        return traced

    def install(self, modules):
        """Wrap the public functions of `modules` and rebind every alias."""
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "pass": self.pass_id, "id": i, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "rss_start_kb": s.rss_start_kb, "rss_end_kb": s.rss_end_kb,
                    "key": s.key,
                }) + "\n")


def read_jsonl(path):
    spans = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            key = tuple(d["key"]) if isinstance(d["key"], list) else d["key"]
            spans.append(Span(d["name"], d["start"], d["end"], d["parent"],
                              d["rss_start_kb"], d["rss_end_kb"], key))
    return spans


def self_figures(spans):
    """Per-span (self seconds, self RSS growth in KB)."""
    child_s = [0.0] * len(spans)
    child_kb = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
            child_kb[s.parent] += s.rss_end_kb - s.rss_start_kb
    return [
        (s.end - s.start - cs, s.rss_end_kb - s.rss_start_kb - ck)
        for s, cs, ck in zip(spans, child_s, child_kb)
    ]


def layer_summary(spans):
    """Totals per layer and per function name.

    Returns ``{"layers": {L: {self_s, calls, rss_growth_mb}},
    "functions": {name: {self_s, wall_s, calls, distinct}}}``, where
    ``wall_s`` is inclusive time over calls that are not nested in a call
    of the same function, and ``distinct`` counts distinct recorded keys.
    """
    layers, functions, keys = {}, {}, {}
    selfs = self_figures(spans)
    for i, (s, (self_s, self_kb)) in enumerate(zip(spans, selfs)):
        layer = s.name.split(".", 1)[0]
        lay = layers.setdefault(layer, {"self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0})
        lay["self_s"] += self_s
        lay["calls"] += 1
        lay["rss_growth_mb"] += self_kb / 1024.0
        fn = functions.setdefault(s.name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "distinct": 0})
        fn["self_s"] += self_s
        fn["calls"] += 1
        if not _nested_in_same(spans, i):
            fn["wall_s"] += s.end - s.start
        if s.key is not None:
            keys.setdefault(s.name, set()).add(s.key)
    for name, ks in keys.items():
        functions[name]["distinct"] = len(ks)
    return {"layers": layers, "functions": functions}


def _nested_in_same(spans, i):
    name, p = spans[i].name, spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
