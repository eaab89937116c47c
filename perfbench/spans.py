"""In-memory span recorder and the wrappers that feed it.

The traced run wraps public functions of ``repro`` from the outside:
every wrapped call opens a span (name, start, end, parent) on a stack,
and an optional hook turns the call's arguments and result into exact
counts. Spans are kept in flat arrays, so a run with a million calls
costs tens of megabytes, and are written out once when the run ends.

Only synchronous calls are spans. An ``async`` function interleaves
with other coroutines, so a stack could not give it a parent; those are
wrapped with :func:`wrap_async` and only observed, never timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

_NO_PARENT = -1


class SpanRecorder:
    """Spans and counters of one traced pass.

    Each span has a name, the layer it belongs to, start and end times
    (``time.perf_counter`` seconds), the index of its parent span and
    whether it ended by raising.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def _intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return found

    def open(self, name: str, layer: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        index = len(self.start)
        self.name_id.append(self._intern(name, layer))
        self.parent.append(self._stack[-1] if self._stack else _NO_PARENT)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, raised: bool = False) -> None:
        """End span ``index``, which must be the innermost open span."""
        self.end[index] = time.perf_counter()
        self.raised[index] = int(raised)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def name_of(self, index: int) -> str:
        """Name of span ``index``."""
        return self.names[self.name_id[index]]

    def parent_name(self, index: int) -> str | None:
        """Name of the parent of span ``index`` (None at the root)."""
        parent = self.parent[index]
        return None if parent == _NO_PARENT else self.name_of(parent)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent != _NO_PARENT:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        document = {
            "names": self.names,
            "layers": self.layers,
            "spans": {
                "name_id": list(self.name_id),
                "start": list(self.start),
                "end": list(self.end),
                "parent": list(self.parent),
                "raised": list(self.raised),
            },
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


def wrap(recorder: SpanRecorder, fn, layer: str, name=None, hook=None):
    """``fn`` wrapped so that every call is a span of ``layer``.

    ``layer`` and ``name`` are strings or ``f(args, kwargs) -> str``
    (``name`` defaults to the function's qualified name).
    ``hook(recorder, index, args, kwargs, result)`` runs after a call
    that returned, to record counts.
    """
    fixed = name or fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(
            fixed(args, kwargs) if callable(fixed) else fixed,
            layer(args, kwargs) if callable(layer) else layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, raised=True)
            raise
        recorder.close(index)
        if hook is not None:
            hook(recorder, index, args, kwargs, result)
        return result

    return wrapper


def wrap_async(recorder: SpanRecorder, fn, hook):
    """Coroutine function ``fn`` observed by ``hook`` (no span).

    ``hook(recorder, args, kwargs, call)`` receives ``call``, a
    zero-argument coroutine function running the original call, and
    must return its awaited result.
    """

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await hook(recorder, args, kwargs, lambda: fn(*args, **kwargs))

    return wrapper


class Patches:
    """Installs wrappers on classes and modules and takes them off again."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def method(self, owner: type, attribute: str, make) -> None:
        """Replace ``owner.attribute`` and every subclass override of it.

        ``make(original)`` returns the wrapper for one original function.
        """
        targets = [owner]
        seen = {owner}
        for cls in targets:
            for sub in cls.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    targets.append(sub)
        for cls in targets:
            if attribute in cls.__dict__:
                self.install(cls, attribute, make(cls.__dict__[attribute]))

    def install(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``, remembering what to restore."""
        had = attribute in vars(owner)
        self._undo.append((owner, attribute, had, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def function(self, original, make) -> None:
        """Replace ``original`` wherever a loaded module binds it by name."""
        wrapper = make(original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    self.install(module, attribute, wrapper)

    def remove(self) -> None:
        """Restore everything :meth:`install` replaced, newest first."""
        while self._undo:
            owner, attribute, had, value = self._undo.pop()
            if had:
                setattr(owner, attribute, value)
            else:
                delattr(owner, attribute)
