"""In-memory span recording around calls into the library's modules.

Spans are recorded by wrappers the benchmark installs where each caller
looks a function up (``cli`` and ``glc`` import names from ``coupling``, so
those names are wrapped in ``cli`` and ``glc``); no library code changes.
A span is (id, name, parent id, start, end, run id).  Spans stay in memory
as one flat ``array('d')`` and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from pathlib import Path

FIELDS = ("sid", "name", "parent", "start", "end", "run")


class Tracer:
    """Records spans; a span's parent is the innermost open span of its thread.

    A span opened on a thread with no open span (a worker thread of the
    CLI's grid pool) takes the current run's root span as its parent.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")
        self.attrs: dict[int, dict] = {}
        self._next = itertools.count(1)
        self._local = threading.local()
        self.run_id = 0
        self.root = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``note(args, kwargs, result)`` may return a dict of facts kept with
        the span (counts the metrics need, such as steps or bytes).
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._next)
            parent = stack[-1] if stack else tracer.root
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.extend((sid, nid, parent, t0, t1, tracer.run_id))
            if note is not None:
                tracer.attrs[sid] = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, run_id: int, root_name: str, fn, *args):
        """Call ``fn(*args)`` as the root span of run ``run_id``."""
        self.run_id = run_id
        sid = next(self._next)
        self.root = sid
        nid = self._name_id(root_name)
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.root = 0
            self.spans.extend((sid, nid, 0, t0, t1, run_id))

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spans.bin").write_bytes(self.spans.tobytes())
        meta = {"fields": FIELDS, "names": self.names, "attrs": {str(k): v for k, v in self.attrs.items()}}
        (directory / "spans.json").write_text(json.dumps(meta))


def load(directory: Path):
    """(names, spans, attrs): spans is an (n, 6) float array in FIELDS order."""
    import numpy as np

    meta = json.loads((directory / "spans.json").read_text())
    spans = np.frombuffer((directory / "spans.bin").read_bytes(), dtype=float).reshape(-1, len(FIELDS))
    attrs = {int(k): v for k, v in meta["attrs"].items()}
    return meta["names"], spans, attrs
