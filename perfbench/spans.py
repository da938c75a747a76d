"""In-memory spans around wrapped layer entry points, and their self times.

A :class:`Tracer` replaces a public function or method with a wrapper that
records one span per call: its name, start, end, the span that was open
when it was called (its parent), and the id of the scheduling cycle it ran
in.  Spans stay in memory for the whole run and are written out once, at
the end (:meth:`Tracer.dump`).

The program is single-threaded under the benchmark (``solver_workers=0``,
no service timer thread), so the open spans form one stack.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

NO_PARENT = -1
NO_CYCLE = -1


class Tracer:
    """Records spans for the entry points it wraps.

    ``cycle=True`` marks an entry point that starts a scheduling cycle:
    the outermost such span takes a fresh cycle id, and every span opened
    inside it carries that id.  ``opaque=True`` marks a span whose inner
    calls are not traced (the audit oracles re-solve LPs with the same
    engines; their work belongs to the audit, not to the layers it calls).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cycles: list[int] = []
        self._stack: list[int] = []
        self._cycle = NO_CYCLE
        self._cycles_opened = 0
        self._opaque = 0
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn, *, cycle: bool = False,
             opaque: bool = False):
        """A wrapper around ``fn`` that records a span named ``name``."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.names)
            opened_cycle = cycle and tracer._cycle == NO_CYCLE
            if opened_cycle:
                tracer._cycle = tracer._cycles_opened
                tracer._cycles_opened += 1
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else NO_PARENT)
            tracer.cycles.append(tracer._cycle)
            tracer.ends.append(0.0)
            stack.append(idx)
            if opaque:
                tracer._opaque += 1
            tracer.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                if opaque:
                    tracer._opaque -= 1
                stack.pop()
                if opened_cycle:
                    tracer._cycle = NO_CYCLE

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a wrapper.

        Patches are undone by :meth:`unpatch`, last first.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **kw))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every attribute :meth:`patch` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        return self_times(self.starts, self.ends, self.parents)

    def dump(self, path: Path) -> Path:
        """Write every span to a compressed ``.npz`` file at ``path``."""
        import numpy as np

        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts), end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            cycle=np.array(self.cycles, dtype=np.int64))
        return path


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        ivs = sorted((max(lo, starts[k]), min(hi, ends[k])) for k in kids)
        covered = 0.0
        cur_s, cur_e = None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] = max(0.0, out[p] - covered)
    return out


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds a traced call costs over an untraced one (calibration).

    Times ``repeats`` calls of a no-op through a fresh tracer's wrapper
    and bare; the difference per call estimates what tracing adds to
    each recorded span.  Best of three, to drop scheduler noise.
    """
    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        tracer = Tracer()
        traced = tracer.wrap("calibrate", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        wrapped = time.perf_counter() - t0
        best = min(best, max(0.0, wrapped - bare) / repeats)
    return best
