"""Call tracing for the benchmark, done from outside the program.

A ``Tracer`` replaces module attributes of the ptsynth package with timing
wrappers and restores them afterwards.  The program resolves these names at
call time (``moves.apply_proposal`` inside ``sweep``, ``recompute_from``
inside ``apply_proposal``, ``engine.run`` inside the CLI, ...), so patching
the attribute is enough to see every call without editing the program.

Each thread keeps its own stack of open calls and its own totals, so the
hot path takes no lock and worker threads never lose an update.  A call's
*self* time is its duration minus the durations of the wrapped calls it
made on the same thread.  Per-attempt functions are only aggregated;
coarse calls (one per sweep or fewer) are also kept as spans in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class _ThreadState:
    __slots__ = ("ident", "stack", "totals", "child", "counts", "spans")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        # open calls, innermost last: [name, time spent in wrapped children]
        self.stack: list[list] = []
        # name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        # (parent name, child name) -> seconds
        self.child: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []


class Tracer:
    """Wraps module attributes; merges per-thread totals on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn, keep_span: bool = False, pre=None, post=None):
        """Timing wrapper around ``fn`` recorded under ``name``.

        ``pre(args)`` runs before the call and returns a token;
        ``post(token, args, result, seconds, counts)`` runs after a call that
        returned, and may add to the thread's named counts.
        """
        clock = time.perf_counter
        get_state = self._state

        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            frame = [name, 0.0]
            token = pre(args) if pre is not None else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                own = took - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += took
                    state.child[parent[0], name] += took
                rec = state.totals.get(name)
                if rec is None:
                    state.totals[name] = [1, took, own]
                else:
                    rec[0] += 1
                    rec[1] += took
                    rec[2] += own
                if keep_span:
                    state.spans.append((name, state.ident, start, end, own))
            if post is not None:
                post(token, args, result, took, state.counts)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, **options) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **options))

    def replace(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self):
        """(totals, child, counts, spans) merged over all threads."""
        totals: dict[str, list] = {}
        child: dict[tuple[str, str], float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        spans: list[tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.totals.items():
                rec = totals.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for key, value in state.child.items():
                child[key] += value
            for key, value in state.counts.items():
                counts[key] += value
            spans.extend(state.spans)
        spans.sort(key=lambda span: span[2])
        return totals, child, counts, spans
