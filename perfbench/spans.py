"""Spans around the public functions of the cqpoly modules, installed from outside.

``Tracer.install`` replaces every public function of the traced modules,
on its own module and wherever another cqpoly module imported it, and
every public method (plus ``__init__`` and ``__call__``) of their classes
by a wrapper that records a span: name, parent span, start, end, self time
(the duration minus the wrapped calls made inside it) and an optional
note. ``uninstall`` puts the originals back. A generator function gets one
span per resumption, so the self time of ``form_trial_values`` is the trial
loop's own work.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("sampling", "forms", "solvers", "linalg", "io", "problab", "experiment")


def _read_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _normals_bytes(args, kwargs, result):
    return result.nbytes


def _symmetric(args, kwargs, result):
    data = args[0].data
    return int(data.shape[0] == data.shape[1] and np.array_equal(data, data.transpose(1, 0, 2)))


NOTES = {
    "io.read_tensor": _read_bytes,
    "io.read_poly": _read_bytes,
    "sampling.RandomSource.normals": _normals_bytes,
    "solvers.solve_bilinear": _symmetric,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> list:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[3]
        if self._stack:
            self._stack[-1][4] += duration
        span = [frame[0], frame[1], frame[2], frame[3], end, duration - frame[4], None]
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn):
        tracer = self
        note = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(frame)
                        return
                    except BaseException:
                        tracer._close(frame)
                        raise
                    tracer._close(frame)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(frame)
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cqpoly" or k.startswith("cqpoly.")]
        for layer in LAYERS:
            module = sys.modules[f"cqpoly.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth in ("__init__", "__call__")
                        if public and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and the sum of notes."""
    stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for _, _, name, start, end, self_s, note in spans:
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        entry[3] += note or 0
    return stats
