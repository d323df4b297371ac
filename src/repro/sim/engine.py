"""Hybrid fixed-step / event-driven co-simulation engine.

The engine owns a :class:`~repro.sim.clock.SimClock` and a set of
:class:`~repro.sim.actor.Actor` instances.  Each call to :meth:`step`
advances the clock by one ``dt`` and steps every registered actor once,
in ascending priority order.  ``run_until`` / ``run_while`` provide the
loop forms the experiment drivers need.

Two kernels share that interface:

- ``fixed`` (the default) polls every actor every tick, exactly as the
  original fixed-step engine did.
- ``event`` asks each actor for a horizon (:meth:`Actor.next_event`)
  before advancing.  When *every* actor declares one, the engine leaps:
  the quiet ticks up to (but excluding) the earliest horizon are covered
  by one :meth:`Actor.step_many` call per actor, and the final tick of
  the leap is executed as an ordinary interleaved :meth:`step`.  All
  acting — phase changes, callbacks, netlink messages, samples —
  therefore happens inside ordinary priority-ordered steps, which is
  what makes the event kernel's simulated measures bit-identical to the
  fixed kernel's.  If any actor abstains (returns ``None``), the engine
  falls back to plain per-tick stepping until horizons reappear.

A wake-queue rides along: :meth:`wake` bounds the next leap so a step
lands at a given instant, and :meth:`call_at` additionally runs a
callback at the first tick at or after that instant (in both kernels).

A scheduling slice rides along too: inside :meth:`slice` every run
loop (and every driver loop above them, which re-reads
:attr:`Engine.slice_end`) stops once the clock reaches the slice's
end, and a *cut* check asked between advances can pull that end in to
the current instant.  Both are transient: a slice never reaches a
snapshot.
"""

from __future__ import annotations

import heapq
import io
import math
import os
import pickle
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.errors import CheckpointError, CheckpointSchemaError, ConfigurationError, SimulationError
from repro.sim.actor import Actor
from repro.sim.clock import SimClock

#: kernels :func:`make_engine` understands
KERNELS = ("fixed", "event")

#: environment variable consulted by :func:`make_engine`
KERNEL_ENV_VAR = "REPRO_SIM_KERNEL"

#: the run loops' hooks: bound tightening, and work between advances
Cap = Callable[[float], float]
Hook = Callable[[], None]
#: a slice's cut check: asked between advances, True ends the slice now
Cut = Callable[[], bool]


class Engine:
    """Steps a set of actors against a shared simulated clock."""

    #: version of the engine's own snapshot layout (clock, roster,
    #: wake-queue); bump on incompatible changes
    snapshot_version: int = 1

    def __init__(
        self,
        dt: float = 0.005,
        max_steps: int = 50_000_000,
        kernel: str = "fixed",
    ) -> None:
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown simulation kernel {kernel!r}; pick one of {KERNELS}"
            )
        self.clock = SimClock(dt)
        self.kernel = kernel
        self._actors: list[tuple[int, int, Actor]] = []
        #: the actors of ``_actors`` in step order; derived, rebuilt on
        #: every add/remove and on restore, and kept out of the pickle
        self._roster: tuple[Actor, ...] = ()
        self._seq = 0
        self._max_steps = max_steps
        #: heap of (time, seq, callback-or-None) wake entries
        self._timers: list[tuple[float, int, Callable[[float], None] | None]] = []
        self._timer_seq = 0
        #: number of multi-tick leaps taken (observability / tests)
        self.leaps = 0
        #: the running slice's end, an absolute instant (see :meth:`slice`);
        #: transient like ``_roster``
        self.slice_end = math.inf
        self._cut: Cut | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_roster"], state["slice_end"], state["_cut"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._roster = tuple(entry[2] for entry in self._actors)
        self.slice_end = math.inf
        self._cut = None

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def dt(self) -> float:
        return self.clock.dt

    def add(self, actor: Actor) -> Actor:
        """Register *actor*; returns it for chaining."""
        actor.sim_dt = self.clock.dt
        self._actors.append((actor.priority, self._seq, actor))
        self._seq += 1
        self._actors.sort(key=lambda entry: (entry[0], entry[1]))
        self._roster = tuple(entry[2] for entry in self._actors)
        return actor

    def remove(self, actor: Actor) -> None:
        self._actors = [e for e in self._actors if e[2] is not actor]
        self._roster = tuple(entry[2] for entry in self._actors)

    def actors(self) -> Iterable[Actor]:
        return list(self._roster)

    # -- wake-queue -----------------------------------------------------------------

    def wake(self, actor: Actor, t: float) -> None:
        """Guarantee an ordinary step lands at the first tick >= *t*.

        Every registered actor (including *actor*) is stepped at that
        tick, so a horizon-declaring actor can bound its own sleep
        without abstaining.  In the fixed kernel this is a no-op bound
        (every tick steps anyway).
        """
        self._push_timer(t, None)

    def call_at(self, t: float, fn: Callable[[float], None]) -> None:
        """Run ``fn(now)`` at the first tick with ``now >= t``.

        The callback fires at the start of that tick, before any actor
        steps — in both kernels.
        """
        self._push_timer(t, fn)

    def _push_timer(self, t: float, fn: Callable[[float], None] | None) -> None:
        if t < self.now:
            raise SimulationError(
                f"cannot schedule a wake at {t:.3f}: time is already {self.now:.3f}"
            )
        heapq.heappush(self._timers, (t, self._timer_seq, fn))
        self._timer_seq += 1

    def _fire_timers(self, now: float) -> None:
        while self._timers and self._timers[0][0] <= now:
            _, _, fn = heapq.heappop(self._timers)
            if fn is not None:
                fn(now)

    # -- stepping --------------------------------------------------------------------

    def step(self) -> float:
        """Advance the clock one step and step every actor once."""
        clock = self.clock
        now = clock.advance()
        dt = clock.dt
        if self._timers:
            self._fire_timers(now)
        # An actor may add/remove actors mid-step (a supervisor
        # respawning a migrator); that builds a new roster tuple, so
        # this loop keeps iterating this step's roster.
        for actor in self._roster:
            actor.step(now, dt)
        return now

    def _leap_target(self, bound: float) -> float | None:
        """Earliest horizon across actors and wakes, or None on abstain."""
        now = self.now
        target = bound
        if self._timers and self._timers[0][0] < target:
            target = self._timers[0][0]
        for actor in self._roster:
            h = actor.next_event(now)
            if h is None:
                return None
            if h < target:
                target = h
        return target

    def _advance(self, bound: float) -> int:
        """One engine advance toward *bound* (a time); returns ticks taken.

        In the event kernel, leaps never overshoot: the tick count to a
        target is floor-truncated, so an off-grid or epsilon-padded
        horizon costs at most one extra single-tick advance rather than
        ever skipping an acting tick.
        """
        if self.kernel == "event":
            target = self._leap_target(bound)
            if target is not None:
                k = int((target - self.now) / self.clock.dt)
                if k > 1:
                    quiet = k - 1
                    start_tick = self.clock.ticks
                    dt = self.clock.dt
                    self.clock.advance_ticks(quiet)
                    for actor in self._roster:
                        actor.step_many(start_tick, quiet, dt)
                    self.leaps += 1
                    self.step()
                    return k
        self.step()
        return 1

    def advance(self, bound: float) -> int:
        """Public single advance toward *bound*; returns ticks taken.

        This is the building block resumable drivers (checkpointed
        experiment/supervisor loops) use instead of :meth:`run_until`:
        they own the loop so they can interleave checkpoint writes at
        exact instants, while each individual advance keeps the kernel's
        leap semantics.  *bound* only limits how far one leap may reach;
        a plain step may still land one ``dt`` past it, exactly as
        :meth:`run_until` overshoots its target by at most one tick.
        """
        return self._advance(bound)

    @contextmanager
    def slice(self, end: float, cut: Cut | None = None) -> Iterator[None]:
        """Run the block as one scheduling slice ending at instant *end*.

        Every run loop returns quietly once the clock reaches
        :attr:`slice_end`, and each advance's bound is tightened to it.
        *cut* is asked after every advance; when it answers True the
        slice ends at the current instant, exactly as if *end* had been
        that instant.  Bounds only ever tighten, so a sliced run takes
        the same ticks as a plain one, wherever its slices end.
        """
        self.slice_end, self._cut = end, cut
        try:
            yield
        finally:
            self.slice_end, self._cut = math.inf, None

    def run_until(
        self, t: float, *, cap: Cap | None = None, after: Hook | None = None,
    ) -> None:
        """Run steps until simulated time reaches at least *t*.

        The checkpointed drivers' loop too
        (:func:`repro.checkpoint.runner.advance_to`): it returns quietly
        once the clock reaches the slice's end (:meth:`slice`), *cap*
        tightens each advance's bound (to the next checkpoint) and
        *after* runs between advances.  Bounds only ever tighten, so a
        sliced or checkpointed run takes the same ticks as a plain one.
        """
        if t < self.now:
            raise SimulationError(
                f"cannot run to {t:.3f}: time is already {self.now:.3f}"
            )
        steps = 0
        while self.now < min(t, self.slice_end):
            bound = t if cap is None else cap(t)
            steps += self._advance(min(bound, self.slice_end))
            if steps > self._max_steps:
                raise SimulationError("run_until exceeded the step budget")
            if after is not None:
                after()
            if self._cut is not None and self._cut():
                self.slice_end = self.now

    def run_while(
        self, predicate: Callable[[], bool], timeout: float = 3600.0, *,
        deadline: float | None = None, cap: Cap | None = None,
        after: Hook | None = None,
    ) -> None:
        """Run steps while ``predicate()`` holds, up to *timeout* sim-seconds.

        An absolute *deadline* replaces ``now + timeout`` (a resumed
        driver keeps its budget; *timeout* is then only quoted in the
        error); the slice's end, *cap* and *after* are as in
        :meth:`run_until`.
        """
        if deadline is None:
            deadline = self.now + timeout
        while predicate():
            if self.now >= deadline:
                raise SimulationError(
                    f"run_while did not terminate within {timeout:.1f} sim-seconds"
                )
            if self.now >= self.slice_end:
                return
            bound = deadline if cap is None else cap(deadline)
            self._advance(min(bound, self.slice_end))
            if after is not None:
                after()
            if self._cut is not None and self._cut():
                self.slice_end = self.now

    # -- snapshot / restore -----------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-safe structural summary (the checkpoint manifest body).

        Captures identity, not state: the clock position, kernel, and
        the registered roster with each actor's class and declared
        ``snapshot_version``.  A restore can be validated against this
        before any state is applied.
        """
        return {
            "snapshot_version": type(self).snapshot_version,
            "ticks": self.clock.ticks,
            "now_s": self.now,
            "dt": self.dt,
            "kernel": self.kernel,
            "leaps": self.leaps,
            "pending_timers": len(self._timers),
            "actors": [
                {
                    "class": type(actor).__name__,
                    "module": type(actor).__module__,
                    "priority": priority,
                    "snapshot_version": type(actor).snapshot_version,
                }
                for priority, _, actor in self._actors
            ],
        }

    def snapshot(self) -> bytes:
        """Serialize the engine — clock, wake-queue, and every
        registered actor — into one self-contained blob.

        The whole graph goes through a single pickler, so objects shared
        between actors (a domain, a link, the event log) come back
        shared; each actor contributes its state via the
        :class:`~repro.sim.actor.Actor` snapshot protocol.  Pair with
        :meth:`restore`.
        """
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            pickler.dump((type(self).snapshot_version, self))
        except Exception as exc:
            raise CheckpointError(f"engine state did not serialize: {exc}") from exc
        return buf.getvalue()

    @staticmethod
    def restore(blob: bytes) -> "Engine":
        """Rebuild an engine (and its actor graph) from :meth:`snapshot`."""
        try:
            version, engine = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(f"engine snapshot did not load: {exc}") from exc
        if version != Engine.snapshot_version:
            raise CheckpointSchemaError(
                f"engine snapshot v{version} cannot be applied to "
                f"engine v{Engine.snapshot_version}"
            )
        return engine


def resolve_kernel(kernel: str | None = None) -> str:
    """Pick the simulation kernel: explicit arg, else env, else fixed."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR, "") or "fixed"
    kernel = kernel.lower()
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"unknown simulation kernel {kernel!r} "
            f"(from {KERNEL_ENV_VAR}?); pick one of {KERNELS}"
        )
    return kernel


def make_engine(
    dt: float = 0.005,
    kernel: str | None = None,
    max_steps: int = 50_000_000,
) -> Engine:
    """The one place experiment drivers build their engine.

    *kernel* may be ``"fixed"`` / ``"event"``; when omitted the
    ``REPRO_SIM_KERNEL`` environment variable decides, defaulting to
    the fixed kernel so existing runs stay bit-identical.
    """
    return Engine(dt, max_steps=max_steps, kernel=resolve_kernel(kernel))
