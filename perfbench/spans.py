"""Span recording for the traced benchmark run, and self-time bookkeeping.

A Recorder replaces functions of glauberlab at the module attributes their
callers look them up by, so nothing inside the package changes. Each call
through a wrapper records one span: name, start, end and the span that was
open when it began (its parent). Spans live in flat arrays, because hot
functions such as the heat-bath conditional are called millions of times,
and are written out once, when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover; overlapping children are counted once.
"""

import time
from array import array

import numpy as np


class Recorder:
    """Collects spans from wrapped functions; see ``install``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.distinct = {}
        self._stack = []
        self._mute = 0
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, opaque=False, key=None):
        """``fn`` recorded as span ``name``.

        Inside an opaque span no further spans are recorded, so its self
        time is its whole duration. ``key`` maps the call's arguments to a
        hashable value; the distinct values seen are counted per name.
        """
        nid = self._id(name)
        seen = self.distinct.setdefault(name, set()) if key else None
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self._mute:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(key(*args, **kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            if opaque:
                self._mute += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                if opaque:
                    self._mute -= 1
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """Patch each (holder, attribute, span name, opaque, key) target;
        a holder is a module or a dict of functions."""
        for holder, attr, name, opaque, key in targets:
            original = _get(holder, attr)
            self._patched.append((holder, attr, original))
            _set(holder, attr, self.wrap(name, original, opaque, key))

    def restore(self):
        """Put every patched attribute back, last patch first."""
        while self._patched:
            _set(*self._patched.pop())

    def dump(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 distinct_names=np.array(sorted(self.distinct), dtype=str),
                 distinct_counts=np.array(
                     [len(self.distinct[k]) for k in sorted(self.distinct)],
                     dtype=np.int64))


def _get(holder, attr):
    return holder[attr] if isinstance(holder, dict) else getattr(holder, attr)


def _set(holder, attr, value):
    if isinstance(holder, dict):
        holder[attr] = value
    else:
        setattr(holder, attr, value)


def self_times(parent, start, end):
    """Self time of every span: its duration minus the union of the
    intervals its children cover, clipped to the span itself."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    if not len(kids):
        return out
    kids = kids[np.lexsort((start[kids], parent[kids]))].tolist()
    par, beg, fin = parent.tolist(), start.tolist(), end.tolist()
    covered = {}
    p = reach = hi = None
    for k in kids:
        if par[k] != p:
            p = par[k]
            reach, hi = beg[p], fin[p]
            covered[p] = 0.0
        s = max(beg[k], reach)
        e = min(fin[k], hi)
        if e > s:
            covered[p] += e - s
            reach = e
    for p, c in covered.items():
        out[p] -= c
    return out


def summarize(path):
    """Per-name self seconds, call counts, total seconds and distinct
    argument counts from a file written by ``Recorder.dump``."""
    with np.load(path) as data:
        names = [str(x) for x in data["names"]]
        name = data["name"]
        own = self_times(data["parent"], data["start"], data["end"])
        total = data["end"] - data["start"]
        distinct = dict(zip((str(x) for x in data["distinct_names"]),
                            (int(x) for x in data["distinct_counts"])))
    k = len(names)
    self_s = np.bincount(name, weights=own, minlength=k)
    total_s = np.bincount(name, weights=total, minlength=k)
    calls = np.bincount(name, minlength=k)
    return {n: {"self_s": float(self_s[i]), "total_s": float(total_s[i]),
                "calls": int(calls[i]), "distinct": distinct.get(n)}
            for i, n in enumerate(names)}
