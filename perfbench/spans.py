"""In-memory spans for the traced run, and per-layer self time.

The benchmark opens one root span per operation (`Tracer.op`) and wraps
netvec's public functions by rebinding module and class attributes
(`Tracer.wrap`), so nothing inside the package changes. A span records its
operation id, its own id, its parent's id, a name, start, end, and a call
count; hot leaf functions can be wrapped with ``aggregate=True``, which folds
every call under one parent into a single span record carrying the call count
and the summed time. A span's self time is its time minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from stats import percentile, summary

# record fields
OP, ID, PARENT, NAME, START, END, CALLS, TOTAL = range(8)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: list[tuple[int, int, str, float]] = []   # op, span, name, value
        self.op_id = 0
        self._open: list[int] = []
        self._agg: dict[tuple[int, str], list] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([self.op_id, idx, parent, name, self.clock(), 0, 1, 0])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = self.clock()
        rec[TOTAL] = rec[END] - rec[START]
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield idx
        finally:
            self._end(idx)

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; spans opened inside share its id."""
        self.op_id += 1
        with self.span(name) as idx:
            yield idx

    def count(self, name: str, value: float, span: int | None = None) -> None:
        if span is None:
            span = self._open[-1] if self._open else -1
        self.counts.append((self.op_id, span, name, value))

    def _accumulate(self, name: str, start: int, end: int) -> None:
        parent = self._open[-1] if self._open else -1
        rec = self._agg.get((parent, name))
        if rec is None or rec[OP] != self.op_id:
            rec = [self.op_id, len(self.spans), parent, name, start, end, 0, 0]
            self.spans.append(rec)
            self._agg[(parent, name)] = rec
        rec[END] = end
        rec[CALLS] += 1
        rec[TOTAL] += end - start

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, owner, attr: str, name: str, *, aggregate: bool = False,
             before=None, after=None) -> None:
        """Rebind owner.attr to a spanning wrapper until `restore`.

        `before(args, kwargs)` runs first and its value reaches
        `after(tracer, span, args, kwargs, token, result)`, which runs once
        the call has returned (not when it raised).
        """
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer, clock = self, self.clock

        if aggregate:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._accumulate(name, start, clock())
        else:
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before else None
                idx = tracer._begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._end(idx)
                if after:
                    after(tracer, idx, args, kwargs, token, result)
                return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
            for op, span, name, value in self.counts:
                f.write(json.dumps({"op": op, "span": span, "count": name, "value": value}) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span: its time minus the time of its children.

    Spans are indexed by id. Children run inside their parent on one
    thread, so they never overlap one another.
    """
    own = [rec[TOTAL] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[TOTAL]
    return own


def per_op(spans: list[list], op_name: str):
    """Per operation of kind `op_name`: (total ns, {span name: self ns},
    {span name: calls})."""
    own = self_times(spans)
    ops = {rec[OP]: (rec[TOTAL], {}, {}) for rec in spans
           if rec[NAME] == op_name and rec[PARENT] < 0}
    for rec, self_ns in zip(spans, own):
        entry = ops.get(rec[OP])
        if entry is None:
            continue
        _, selfs, calls = entry
        name = rec[NAME]
        selfs[name] = selfs.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + rec[CALLS]
    return list(ops.values())


def layer_table(ops) -> dict[str, dict]:
    """Per span name: self time per operation (µs) as median and tail over
    the operations that called it, its share of all operation time, and
    calls per such operation."""
    all_ns = sum(total for total, _, _ in ops) or 1
    names = sorted({n for _, selfs, _ in ops for n in selfs})
    table = {}
    for name in names:
        selfs = [s[name] / 1000 for _, s, _ in ops if name in s]
        calls = [c[name] for _, _, c in ops if name in c]
        table[name] = {
            "ops": len(selfs),
            "self_us": summary(selfs),
            "share_pct": 100.0 * sum(s[name] for _, s, _ in ops if name in s) / all_ns,
            "calls_per_op": percentile(sorted(calls), 50.0),
        }
    return table
