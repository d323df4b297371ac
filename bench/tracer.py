"""Per-layer wall-clock tracing, installed from outside the program.

The benchmark wraps each layer's public functions (the table in
``WRAPPED``) with a ``perf_counter_ns`` timer and keeps a stack of open
spans, so every nanosecond of an op lands in exactly one span's *self*
time: a span's duration minus the part its child spans cover.  Nested
wrappers therefore never double-count, and the self times of one op sum
to the op's wall time.  That sum is the ledger :meth:`Tracer.op` checks.

Nothing under ``src/`` changes: the wrappers replace class attributes
and module-level function bindings when :meth:`Tracer.install` runs,
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

now_ns = time.perf_counter_ns

#: every public method defined by the class itself
PUBLIC = "public"

#: (layer, module, class or None for module functions, names, include subclasses)
WRAPPED = (
    ("sim", "repro.sim.engine", "Engine", ("step", "advance", "run_until", "run_while"), False),
    ("jvm", "repro.jvm.hotspot", "HotSpotJVM", ("step", "step_many"), True),
    ("jvm", "repro.jvm.heap", "GenerationalHeap", ("perform_minor_gc",), False),
    ("guest", "repro.guest.kernel", "GuestKernel", ("step", "step_many"), True),
    ("guest", "repro.guest.lkm", "AssistLKM", ("step", "step_many"), True),
    ("guest", "repro.guest.process", "Process", ("write_range",), False),
    ("mem", "repro.mem.page_table", "PageTable", ("walk",), False),
    ("mem", "repro.mem.frame_alloc", "FrameAllocator", PUBLIC, False),
    ("mem", "repro.mem.pfn_cache", "PfnCache", PUBLIC, False),
    ("xen", "repro.xen.dirty_log", "DirtyLog",
     ("mark", "mark_range", "mark_counted", "peek", "peek_and_clear"), False),
    ("xen", "repro.xen.domain", "Domain", ("read_pages",), False),
    ("migration", "repro.migration.precopy", "PrecopyMigrator", ("start", "step", "step_many"), True),
    ("migration", "repro.migration.postcopy", "PostCopyMigrator", ("start", "step", "step_many"), True),
    ("net", "repro.net.link", "Link", ("account_pages",), True),
    ("core", "repro.core.experiment", "ExperimentRun", ("run", "step"), False),
    ("core", "repro.core.supervisor", "MigrationSupervisor", ("run", "step"), False),
    ("core", "repro.core.supervisor", "SupervisedRun", ("run", "step"), False),
    ("core", "repro.core.rescue", "RescueController", ("step",), False),
    ("checkpoint", "repro.checkpoint.runner", "Checkpointer", ("write", "maybe"), False),
    ("telemetry", "repro.telemetry.live", "StreamSink", ("emit",), True),
    ("telemetry", "repro.telemetry.attribution", None, ("attribute_report",), False),
    ("service", "repro.service.session", "MigrationSession", ("start", "step_slice", "finalize"), False),
    ("service", "repro.service.manager", "MigrationManager", ("submit",), False),
    ("service", "repro.service.server", "ServiceDaemon", ("handle",), False),
    ("service", "repro.service.session", None,
     ("run_digest", "experiment_payload", "supervised_payload"), False),
    ("workloads", "repro.workloads.analyzer", "Analyzer", ("step", "step_many"), False),
)

#: spans whose per-call durations are kept (for percentiles)
SAMPLED = (
    "checkpoint:Checkpointer.write",
    "service:MigrationSession.step_slice",
    "service:ServiceDaemon.handle",
)

#: the benchmark's own root span: op wall time no layer claims
ROOT = "bench:other"

#: how far an op's summed self times may drift from its measured wall
LEDGER_TOLERANCE = 0.01

#: spans kept for one recorded op's Chrome trace (about 18 MB of JSON)
SPAN_LIMIT = 100_000


class LedgerError(AssertionError):
    """An op's self times do not add up to its wall time."""


def layer_of(span: str) -> str:
    """``"checkpoint.deferred"`` or ``"sim:Engine.step"`` -> the layer."""
    return span.split(":", 1)[0].split(".", 1)[0]


class Tracer:
    """Self-time accounting for every wrapped call on the main thread.

    Calls made outside an open op (:meth:`op`) pass straight through,
    so only op time is attributed.  Calls from other threads pass
    through as well: the span stack belongs to one thread.
    """

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.samples: defaultdict[str, list[int]] = defaultdict(list)
        #: counters kept by hooks (checkpoint deferrals)
        self.counts: Counter = Counter()
        #: submit -> start wall waits of service sessions, in ns
        self.queue_waits: list[int] = []
        self._submitted: dict[str, int] = {}
        self.stack: list[list[int]] = []
        #: spans of the recorded op: (id, parent, name, start, end, op)
        self.spans: list[tuple] | None = None
        self.span_limit = 0
        self.truncated = False
        self.op_id = ""
        self._next_id = 1
        self._thread = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED`, and install the hooks
        behind the counters."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        # Hooks go on first, so the span wrappers installed over them
        # time the hooks' bookkeeping as part of the call they count.
        self._install_hooks()
        for layer, module_name, class_name, names, subclasses in WRAPPED:
            module = sys.modules[module_name]
            if class_name is None:
                for name in names:
                    self._wrap_function(module, name, f"{layer}:{name}")
                continue
            for cls in _with_subclasses(getattr(module, class_name), subclasses):
                for name in _method_names(cls, names):
                    self._wrap_method(cls, name, f"{layer}:{cls.__name__}.{name}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _replace(self, owner, name: str, wrapper) -> None:
        self._installed.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap_method(self, cls, name: str, span: str) -> None:
        self._replace(cls, name, self._span(vars(cls)[name], span))

    def _wrap_function(self, module, name: str, span: str) -> None:
        original = getattr(module, name)
        wrapper = self._span(original, span)
        # ``from x import f`` bindings in other modules hold the
        # original too; rebind every one of them.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                vars(other).get(name) is original
            ):
                self._replace(other, name, wrapper)

    def hook(self, cls, name: str, after, before=None) -> None:
        """Around ``cls.name``, call ``before(obj)`` and then
        ``after(obj, result, args, what before returned)``.  Hooks only
        count; they open no span."""
        fn = vars(cls)[name]
        main = self._thread
        stack = self.stack

        @functools.wraps(fn)
        def hooked(obj, *args, **kwargs):
            if not stack or threading.get_ident() != main:
                return fn(obj, *args, **kwargs)
            snap = before(obj) if before is not None else None
            result = fn(obj, *args, **kwargs)
            after(obj, result, args, snap)
            return result

        self._replace(cls, name, hooked)

    def _install_hooks(self) -> None:
        from repro.checkpoint.runner import Checkpointer
        from repro.service.manager import MigrationManager
        from repro.service.session import MigrationSession

        counts = self.counts

        def deferred(ckpt, result, args, before):
            counts["checkpoint.deferred"] += ckpt.deferred - before

        def submitted(manager, session_id, args, snap):
            self._submitted[session_id] = now_ns()

        def started(session, result, args, snap):
            t = self._submitted.pop(session.id, None)
            if t is not None:
                self.queue_waits.append(now_ns() - t)

        self.hook(MigrationManager, "submit", submitted)
        self.hook(MigrationSession, "start", started)
        self.hook(Checkpointer, "maybe", deferred, before=lambda ckpt: ckpt.deferred)

    # -- spans --------------------------------------------------------------------------

    def _span(self, fn, name: str):
        tracer = self
        self_ns = self.self_ns
        calls = self.calls
        stack = self.stack
        samples = self.samples[name] if name in SAMPLED else None
        main = self._thread
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or get_ident() != main:
                return fn(*args, **kwargs)
            frame = [0, 0, tracer._open() if tracer.spans is not None else 0]
            stack.append(frame)
            frame[0] = start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                dur = end - start
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                stack[-1][1] += dur
                if samples is not None:
                    samples.append(dur)
                if frame[2]:
                    tracer._close(frame, name, end)

        return wrapper

    def _open(self) -> int:
        if len(self.spans) >= self.span_limit:
            if self.span_limit:
                self.truncated = True
            return 0
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _close(self, frame: list[int], name: str, end: int) -> None:
        parent = self.stack[-1][2] if self.stack else 0
        self.spans.append((frame[2], parent, name, frame[0], end, self.op_id))

    @contextmanager
    def op(self, op_id: str, record: bool = False):
        """Open the root span of one op and check its ledger on exit.

        With *record*, every span of the op is kept for
        :meth:`chrome_trace` until the next op opens.  Yields a dict
        that holds, once the block ends, the op's wall time and
        per-layer self times.
        """
        if self.stack:
            raise RuntimeError("ops do not nest")
        ledger: dict = {"op": op_id}
        self.spans = [] if record else None
        self.span_limit, self.truncated = SPAN_LIMIT, False
        self.op_id = op_id
        before = dict(self.self_ns)
        frame = [0, 0, self._open() if self.spans is not None else 0]
        wall0 = now_ns()
        self.stack.append(frame)
        frame[0] = now_ns()
        try:
            yield ledger
        finally:
            end = now_ns()
            self.stack.pop()
            wall = now_ns() - wall0
            self.self_ns[ROOT] += end - frame[0] - frame[1]
            self.calls[ROOT] += 1
            if frame[2]:
                self._close(frame, ROOT, end)
            if self.stack:
                raise LedgerError(f"op {op_id}: span stack left unbalanced")
            layers: defaultdict[str, int] = defaultdict(int)
            for name, total in self.self_ns.items():
                delta = total - before.get(name, 0)
                if delta:
                    layers[layer_of(name)] += delta
            ledger["wall_s"] = wall / 1e9
            ledger["self_s"] = {k: v / 1e9 for k, v in sorted(layers.items())}
            summed = sum(layers.values())
            ledger["residual"] = (wall - summed) / wall if wall else 0.0
            if abs(wall - summed) > LEDGER_TOLERANCE * wall:
                raise LedgerError(
                    f"op {op_id}: layer self times sum to {summed / 1e9:.6f} s, "
                    f"wall is {wall / 1e9:.6f} s"
                )

    def stop_recording(self) -> None:
        """Keep the spans recorded so far, record no more."""
        self.span_limit = 0

    # -- output -------------------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome trace-event JSON (Perfetto)."""
        spans = self.spans or []
        t0 = min((s[3] for s in spans), default=0)
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
            for span_id, parent, name, start, end, op in sorted(spans, key=lambda s: s[3])
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"truncated": self.truncated},
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)

    def state(self) -> dict:
        """Everything the per-layer metrics need, JSON-safe."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
            "queue_waits": list(self.queue_waits),
        }


def _with_subclasses(cls, include: bool) -> list:
    if not include:
        return [cls]
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _method_names(cls, names) -> list[str]:
    own = vars(cls)
    if names == PUBLIC:
        return [
            n for n, v in own.items()
            if not n.startswith("_") and callable(v) and not isinstance(v, (staticmethod, classmethod))
        ]
    return [n for n in names if n in own and callable(own[n])]
