"""The three closed-loop workloads: one caller, one thread, one operation at a time.

Each workload holds a loaded `NetworkState` and runs `step()` until the run's
deadline. A step times exactly the netvec calls of one operation; answer
checks and bookkeeping happen after the clock stops. netvec is always
reached through module and class attributes looked up at call time, so the
traced run's wrappers (instrument.py) see every call.
"""

from __future__ import annotations

import importlib
import random
import signal
import time
from contextlib import nullcontext

import netvec
from netvec import dataset, verify as V
from netvec.dataset import UpdateEvent
from netvec.errors import NetvecError

from checks import Reference
from spans import Tracer

R = importlib.import_module("netvec.rectify")   # the package re-exports a function of that name

clock = time.perf_counter_ns

CHECK_EVERY = 8        # update_stream: check one event in this many
CHURN_PER_CYCLE = 8    # repair: withheld-rule events per batch, besides the intent deletion
OTHER_HEADERS = 64     # repair: headers sampled for the untouched-pair check
RECTIFY_LIMIT_S = 15.0


class TimeLimit(BaseException):
    """Raised into a `rectify` call still running after RECTIFY_LIMIT_S.

    Its candidate-path search can take minutes for some (source,
    destination) pairs. The alarm only interrupts the search, never
    `apply_fixes`, so an abandoned call leaves the network state as it was.
    """


def _unwrapped_code(func):
    return getattr(func, "__wrapped__", func).__code__


_RECTIFY = _unwrapped_code(R.rectify)
_APPLY_FIXES = _unwrapped_code(R.apply_fixes)


def _on_alarm(signum, frame):
    codes = []
    f = frame
    while f is not None:
        codes.append(f.f_code)
        f = f.f_back
    if _RECTIFY not in codes or _APPLY_FIXES in codes:
        return
    if frame.f_code.co_filename == Tracer.wrap.__code__.co_filename:
        signal.setitimer(signal.ITIMER_REAL, 0.01)     # not inside span bookkeeping
        return
    raise TimeLimit


class Workload:
    name = ""
    percentile = 90.0  # reported as op_latency_ms
    min_ops = 0        # fewest operations a measured run records, beyond the percentile's need
    warmup_s = 1.0
    setup_runs = 3     # fresh-process set-ups whose median is setup_s

    def __init__(self, inputs, tracer=None):
        self.inputs = inputs
        self.tracer = tracer
        self.ref = Reference(inputs.spec)
        self.latencies: list[int] = []       # ns per recorded operation
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.state = None

    def op(self):
        return self.tracer.op("op") if self.tracer else nullcontext()

    def setup(self) -> None:
        """Parse and load; the traced run records this as its 'setup' operation."""
        ctx = self.tracer.op("setup") if self.tracer else nullcontext()
        with ctx:
            spec = dataset.parse_network(self.inputs.text)
            self.state = V.NetworkState.from_spec(spec)
            self.after_load()

    def after_load(self) -> None:
        pass

    def record(self, ns: int, ok: bool, problems=()) -> None:
        self.latencies.append(ns)
        self.attempted += 1
        self.mismatches.extend(problems)
        self.failed += (not ok) or bool(problems)

    def take_latencies(self) -> list[int]:
        """Hand over the timings recorded so far and start afresh; the
        operation and failure counts keep running."""
        out, self.latencies = self.latencies, []
        return out

    def finish(self) -> None:
        """Whole-network answer checks after the measured loop."""

    def report(self) -> dict:
        return {}


class UpdateStream(Workload):
    """Withheld rules replayed as inserts/deletes on the c09 shape; each
    event is applied, its affected set and session built, and reachability
    from the updated router to the prefix's home verified."""

    name = "update_stream"

    def __init__(self, inputs, tracer=None):
        super().__init__(inputs, tracer)
        self.churn = inputs.churn()

    def step(self, record: bool = True) -> bool:
        state = self.state
        ev = self.churn.next()
        dst = self.inputs.homes[ev.prefix]
        applied = False
        with self.op():
            t0 = clock()
            try:
                state.apply_update(ev)
                applied = True
                affected = state.affected_for(ev.prefix)
                session = state.session(affected=affected)
                report = V.verify_reachability(session, ev.router, dst)
                error = None
            except NetvecError as exc:
                error = exc
            t1 = clock()
        if applied:
            self.ref.apply(ev)
        if error is not None:
            self.mismatches.append(f"event {ev.seq}: {type(error).__name__}: {error}")
            ok, problems = False, ()
        else:
            ok = True
            problems = ()
            if ev.seq % CHECK_EVERY == 0:
                problems = self.ref.reach_classes(affected.classes, report.reachable,
                                                  ev.router, dst)
        if record:
            self.record(t1 - t0, ok, problems)
        return True


class WholeNetwork(Workload):
    """Read-only queries on one root session built at set-up: reachability
    between random pairs, loops and blackholes from random sources."""

    name = "whole_network"

    def __init__(self, inputs, tracer=None):
        super().__init__(inputs, tracer)
        self.queries = inputs.queries()
        self.samples: dict[str, list] = {"reach": [], "loop": []}
        self.by_kind: dict[str, list[int]] = {"reach": [], "loop": [], "blackhole": []}

    def after_load(self) -> None:
        state = self.state
        self.session = state.session(affected=state.affected_for(netvec.ROOT))

    def step(self, record: bool = True) -> bool:
        kind, src, dst = next(self.queries)
        session = self.session
        with self.op():
            t0 = clock()
            try:
                if kind == "reach":
                    answer = V.verify_reachability(session, src, dst)
                elif kind == "loop":
                    answer = V.detect_loop(session, src)
                else:
                    answer = V.detect_blackhole(session, src)
                error = None
            except NetvecError as exc:
                error = exc
            t1 = clock()
        if error is not None:
            self.mismatches.append(f"{kind} {src} {dst}: {type(error).__name__}: {error}")
        elif record and kind in self.samples and len(self.samples[kind]) < 2:
            self.samples[kind].append((src, dst, answer))
        if record:
            self.record(t1 - t0, error is None)
            self.by_kind[kind].append(t1 - t0)
        return True

    def finish(self) -> None:
        """Oracle comparison of the first two reachability answers and of the
        first loop answer (with the blackhole answer for the same source,
        asked untimed); each costs one exhaustive simulation."""
        s, ref = self.session, self.ref
        problems = []
        for src, dst, rep in self.samples["reach"]:
            problems += ref.reach_oracle(rep, src, dst)
        for src, _, loop in self.samples["loop"][:1]:
            problems += ref.loop_blackhole_oracle(
                loop, V.detect_blackhole(s, src), s.classes, src)
        self.mismatches += problems
        self.failed += len(problems)

    def take_latencies(self) -> list[int]:
        for values in self.by_kind.values():
            values.clear()
        return super().take_latencies()

    def report(self) -> dict:
        return {f"{k}_us": [ns / 1000 for ns in v] for k, v in self.by_kind.items()}


class Repair(Workload):
    """Churn plus the loss of one intent rule per cycle, then repair.

    A cycle is one `batch_update` over withheld-rule churn and the deletion
    of an intent's rule at its source; when the batch's report shows the
    intent unreachable, `rectify` runs. Each intent is used once.
    """

    name = "repair"
    percentile = 50.0  # a run holds ~40 cycles: no higher percentile has ten beyond it
    min_ops = 40       # the median of fewer cycles moved ±20% between seeds
    warmup_s = 0.0
    setup_runs = 5     # a set-up takes ~0.1 s, so more of them are cheap

    def __init__(self, inputs, tracer=None):
        super().__init__(inputs, tracer)
        self.churn = inputs.churn()
        self.intents = iter(inputs.intents)
        self.rng = random.Random(f"{inputs.seed}:checks")
        self.batch_ns: list[int] = []
        self.rectify_ns: list[int] = []
        self.repairs = 0
        self.repaired = 0
        self.errors: dict[str, int] = {}

    def step(self, record: bool = True) -> bool:
        intent = next(self.intents, None)
        if intent is None:
            return False
        events = self.churn.take(CHURN_PER_CYCLE)
        events.append(UpdateEvent("delete", intent.src, intent.prefix, intent.port,
                                  self.churn.seq + 1))
        state = self.state
        result = error = None
        with self.op():
            t0 = clock()
            try:
                report, _ = V.batch_update(state, events, intent.src, intent.dst)
            except NetvecError as exc:
                report = None
                self.mismatches.append(f"batch for {intent.prefix}: {type(exc).__name__}: {exc}")
            t1 = clock()
            lost = report is not None and intent.prefix not in report.reachable
            if lost:
                previous = signal.signal(signal.SIGALRM, _on_alarm)
                signal.setitimer(signal.ITIMER_REAL, RECTIFY_LIMIT_S)
                try:
                    result = R.rectify(state, intent.src, intent.dst, {intent.prefix})
                except (NetvecError, TimeLimit) as exc:
                    error = exc
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.signal(signal.SIGALRM, previous)
            t2 = clock()
        if report is None:
            if record:
                self.record(t1 - t0, False)
            return False
        for ev in events:
            self.ref.apply(ev)
        problems = []
        header = intent.prefix.range(self.inputs.spec.width)[0]
        if lost == (self.ref.delivered(intent.src, intent.dst, header) is not None):
            problems.append(f"intent {intent.prefix}: batch report says lost={lost}")
        ok = not lost
        if lost:
            self.repairs += 1
            if error is not None:
                name = type(error).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
            else:
                problems += self.check_repair(intent, result)
                ok = intent.prefix in result.achieved and not problems
                self.repaired += ok
        if record:
            self.record(t2 - t0, ok, problems)
            self.batch_ns.append(t1 - t0)
            if lost:
                self.rectify_ns.append(t2 - t1)
        return True

    def check_repair(self, intent, result) -> list[str]:
        """The intent arrives, and a random other pair sees no change."""
        ref, spec = self.ref, self.inputs.spec
        a, b = self.rng.sample(spec.routers, 2)
        headers = [self.rng.getrandbits(spec.width) for _ in range(OTHER_HEADERS)]
        own = intent.prefix.range(spec.width)[0]
        headers = [h for h in headers if h != own]
        before = [ref.delivered(a, b, h) for h in headers]
        for fix in result.fixes:
            ref.apply(UpdateEvent("insert", fix.router, fix.prefix, fix.port, 0))
        problems = []
        if ref.delivered(intent.src, intent.dst, own) is None:
            problems.append(f"intent {intent.prefix}: unreachable after {len(result.fixes)} fixes")
        if before != [ref.delivered(a, b, h) for h in headers]:
            problems.append(f"repair of {intent.prefix} changed {a}->{b}")
        return problems

    def finish(self) -> None:
        state = self.state
        session = state.session()
        a, b = self.rng.sample(self.inputs.spec.routers, 2)
        problems = self.ref.reach_oracle(V.verify_reachability(session, a, b), a, b)
        problems += self.ref.loop_blackhole_oracle(
            V.detect_loop(session, a), V.detect_blackhole(session, a), session.classes, a)
        self.mismatches += problems
        self.failed += len(problems)

    def take_latencies(self) -> list[int]:
        self.batch_ns.clear()
        self.rectify_ns.clear()
        return super().take_latencies()

    def report(self) -> dict:
        return {"batch_ms": [ns / 1e6 for ns in self.batch_ns],
                "repair_ms": [ns / 1e6 for ns in self.rectify_ns],
                "repairs": self.repairs, "repaired": self.repaired,
                "repair_errors": self.errors}


WORKLOADS = {w.name: w for w in (UpdateStream, WholeNetwork, Repair)}
