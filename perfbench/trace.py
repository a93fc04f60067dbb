"""Spans and counters recorded from outside the program.

The benchmark times calls into each layer's public functions by wrapping
them from here, so the program under test is untouched.  A span records
its wall time; a layer's *self* time is that span minus the part covered
by spans opened inside it.  Spans keep a per-thread stack, so the fleet
scheduler's shard threads each nest correctly.

Nothing is installed at import time: :func:`patched` swaps attributes in
and restores them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple


class Tracer:
    """Per-name span totals, self times, call counts and named counters."""

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _close(self, name: str, elapsed: float, child: float) -> None:
        with self._lock:
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child
            self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._close(name, elapsed, frame[1])

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        flat_prefix: Optional[str] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``after(tracer, args, result)`` records counts from the call.  With
        ``flat_prefix`` the call is not timed again when the innermost open
        span already starts with that prefix (a kernel calling a kernel
        counts once, at the outermost call).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if flat_prefix is not None and stack and stack[-1][0].startswith(
                flat_prefix
            ):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._close(name, elapsed, frame[1])
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper


#: (owner object, attribute name, replacement factory).
Patch = Tuple[object, str, Callable[[Callable], Callable]]


@contextlib.contextmanager
def patched(patches: Iterable[Patch]) -> Iterator[None]:
    """Install ``factory(original)`` on each owner; restore on exit.

    Class attributes are read from the class ``__dict__``, so a method is
    wrapped on a subclass only where the subclass overrides it (the base
    class's wrapper covers the inherited ones).
    """
    saved = []
    try:
        for owner, attr, factory in patches:
            if isinstance(owner, type):
                original = vars(owner)[attr]
            else:
                original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
